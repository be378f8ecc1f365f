"""Bigraded persistent homology of sublevel Vietoris-Rips complexes.

For a measurement phi in a data set, the complex at (r, s) is built on the
sublevel set (phi <= s) with all simplices of diameter at most r under the
data set's pseudometric.  Homology is computed exactly over F_p, together
with representative cycles, so induced maps come out as honest matrices and
every grid square can be checked for commutativity by matrix equality.

The grid semantics are right-continuous: the value on a cell
[r_i, r_{i+1}) x [s_j, s_{j+1}) is the value at its lower-left corner, and
the s-grid carries one sentinel value below the measurement minimum so the
empty complex is represented on-grid.
"""

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import DataSet, Measurement, PointMap, format_rational, sup_distance
from .errors import SimplicialMapError, VerificationError
from .ggraph import GraphFunctor, build_graph
from .linalg import ColumnSolver, ModMatrix, kernel_basis

INF = math.inf


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all these bases (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2017): below it the test is exact
_MODULUS_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Trial division by the bases, then a strong probable-prime test to
    each of them."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, t = n - 1, 0
    while d % 2 == 0:
        d, t = d // 2, t + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(t - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if p >= _MODULUS_BOUND:
        raise ValueError(f"coefficient modulus at or above {_MODULUS_BOUND} is not supported")
    if not _is_prime(p):
        raise ValueError(f"coefficient modulus {p} is not prime")
    return p


def _check_degree_and_prime(degree: int, p: int) -> None:
    if degree < 0:
        raise ValueError(f"homology degree {degree} is negative")
    check_prime(p)


class SimplicialComplex:
    """Simplices grouped by dimension, each a tuple of vertex ids in a fixed
    vertex order; closed under faces up to the dimension cap.

    A Vietoris-Rips complex also records its grade: the scale and the
    distance function (metric) it was built with, beside the dimension cap.
    It holds every simplex on its points up to the cap whose pairwise
    distances stay within the scale; a complex without a grade has scale
    and metric None.
    """

    __slots__ = ("points", "simplices", "dim_cap", "scale", "metric", "_index", "_vertex_pos")

    def __init__(self, points, simplices, dim_cap, scale=None, metric=None):
        self.points = tuple(points)
        self.dim_cap = dim_cap
        self.scale, self.metric = scale, metric
        self._vertex_pos = {p: i for i, p in enumerate(self.points)}
        self.simplices = {k: tuple(v) for k, v in simplices.items()}
        self._index = {
            k: {s: i for i, s in enumerate(v)} for k, v in self.simplices.items()
        }

    def dim_simplices(self, k):
        return self.simplices.get(k, ())

    def has_simplex(self, simplex) -> bool:
        k = len(simplex) - 1
        return simplex in self._index.get(k, {})

    def index_of(self, simplex) -> int:
        return self._index[len(simplex) - 1][simplex]

    def sort_vertices(self, vertices):
        return tuple(sorted(vertices, key=self._vertex_pos.__getitem__))

    def __repr__(self):
        sizes = {k: len(v) for k, v in self.simplices.items()}
        return f"SimplicialComplex({sizes})"


def _grade(cx: SimplicialComplex) -> str:
    return f"(scale {cx.scale}, cap {cx.dim_cap}, points {cx.points!r})"


def vr_complex(points, dist, r, dim_cap) -> SimplicialComplex:
    """All subsets of size <= dim_cap + 1 whose pairwise distances stay <= r."""
    if r < 0:
        raise ValueError("scale parameter must be nonnegative")
    pts = tuple(points)
    simplices = {}
    if pts:
        simplices[0] = tuple((p,) for p in pts)
    for k in range(1, dim_cap + 1):
        level = []
        for combo in itertools.combinations(pts, k + 1):
            if all(dist(a, b) <= r for a, b in itertools.combinations(combo, 2)):
                level.append(combo)
        if not level:
            break
        simplices[k] = tuple(level)
    return SimplicialComplex(pts, simplices, dim_cap, r, dist)


def _cut(whole: SimplicialComplex, vertices: frozenset) -> SimplicialComplex:
    """The simplices of a VR complex that lie on some of its vertices, in its
    order and with its grade: the VR complex on those vertices."""
    simplices = {}
    for k, level in whole.simplices.items():
        kept = tuple(s for s in level if vertices.issuperset(s))
        if kept:
            simplices[k] = kept
    points = tuple(p for p in whole.points if p in vertices)
    return SimplicialComplex(points, simplices, whole.dim_cap, whole.scale, whole.metric)


def sublevel(measurement: Measurement, s) -> tuple:
    """Points where the measurement does not exceed s, in domain order."""
    return tuple(p for p in measurement.domain if measurement.at(p) <= s)


def _sublevels(points, values, levels) -> list:
    """The points whose value does not exceed each level, in their order;
    the values are sorted once, and each level is found by bisection."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranked = [values[k] for k in order]
    subs = [tuple(points[k] for k in sorted(order[:n])) for n in range(len(order) + 1)]
    return [subs[bisect.bisect_right(ranked, s)] for s in levels]


class _Grades:
    """The persistence index of a data set: all that persistence keeps on
    it, built on first use as its _slices.

    scales is the scale grid, index maps each grid scale to its place in it,
    pair[x][y] is the index of the distance between the points x and y, and
    metric is the distance function.  Each measurement m takes the value
    numerators[m][k] / denominator at the k-th domain point, the data set's
    codes, so values and their differences compare as integers.  The memos
    fill on use: the whole-domain VR complexes by (scale index, cap), each
    vertex set's sorted distance indices (pairs), and the slice barcodes
    that bottleneck_lower shares, by (measurement, degree, p, scale index).
    """

    __slots__ = ("scales", "index", "pair", "metric", "denominator", "numerators", "complexes", "pairs", "barcodes")

    def __init__(self, dataset: DataSet):
        metric = dataset.pseudometric()
        self.scales = tuple(sorted({Fraction(0), *metric.distinct_values()}))
        index = self.index = {r: i for i, r in enumerate(self.scales)}
        pts, self.metric = metric.points, metric.at
        self.pair = {x: dict(zip(pts, (index[v] for v in row))) for x, row in zip(pts, metric.rows)}
        self.denominator, self.numerators = dataset.denominator, {m: c for c, m in dataset._codes.items()}
        self.complexes, self.pairs, self.barcodes = {}, {}, {}

    def scale_index(self, r) -> int:
        """Index of the largest grid scale <= r: the VR complex of every
        vertex set is the same at r as at that scale."""
        i = self.index.get(r)
        if i is None:
            if r < 0:
                raise ValueError("scale parameter must be nonnegative")
            i = bisect.bisect_right(self.scales, r) - 1
        return i

    def canonical_index(self, vs: frozenset, r) -> int:
        """The least scale index whose VR complex on vs is the one at r."""
        pairs = self.pairs.get(vs)
        if pairs is None:
            unknown = vs.difference(self.pair)
            if unknown:
                raise ValueError(f"points not in the domain: {sorted(unknown, key=str)!r}")
            pairs = self.pairs[vs] = sorted({self.pair[x][y] for x, y in itertools.combinations(vs, 2)})
        k = bisect.bisect_right(pairs, self.scale_index(r))
        return pairs[k - 1] if k else 0

    def whole(self, i: int, dim_cap) -> SimplicialComplex:
        """The VR complex on the whole domain at the i-th grid scale, built by
        comparing distance indices with i and graded by the scale itself."""
        key, pair = (i, dim_cap), self.pair
        cx = self.complexes.get(key)
        if cx is None:
            # pair's keys are the domain's points, in order; graded before it is shared
            cx = vr_complex(pair, lambda x, y: pair[x][y], i, dim_cap)
            cx.scale, cx.metric = self.scales[i], self.metric
            self.complexes[key] = cx
        return cx


def _grades(dataset: DataSet) -> _Grades:
    if dataset._slices is None:
        dataset._slices = _Grades(dataset)
    return dataset._slices


def scale_grid(dataset: DataSet) -> tuple:
    """The r-grid of a data set: 0 and the distinct values of its
    pseudometric, sorted, as kept in its persistence index."""
    return _grades(dataset).scales


def level_grid(measurements) -> tuple:
    """The s-grid of some measurements: the sorted values they take, after
    one sentinel below them."""
    vals = sorted({v for m in measurements for v in m.values})
    if not vals:
        raise ValueError("empty domain or no measurements: no values for a level grid")
    return (vals[0] - 1,) + tuple(vals)


def _boundary(simplex, index, p: int) -> dict:
    """Boundary of a simplex with alternating signs, as a sparse column over
    the face numbering index; a vertex has boundary zero."""
    if len(simplex) == 1:
        return {}
    return {index[simplex[:i] + simplex[i + 1 :]]: (-1) ** i % p for i in range(len(simplex))}


class HomologySpace:
    """Exact homology in one degree with representative cycles.

    Representatives are sparse chains (simplex number -> coefficient) over the
    degree-d simplices: the first kernel basis vectors, in order, that are
    independent modulo boundaries.  coords_of expresses any cycle in the
    representative basis modulo boundaries.
    """

    __slots__ = ("complex", "degree", "p", "dim", "representatives", "_solver")

    def __init__(self, cx: SimplicialComplex, degree: int, p: int):
        if cx.dim_cap < degree + 1:
            raise ValueError(
                f"complex built with cap {cx.dim_cap} cannot give degree {degree}"
            )
        self.complex = cx
        self.degree = degree
        self.p = p
        faces, cells = cx._index.get(degree - 1, {}), cx._index.get(degree, {})
        solver = ColumnSolver(p)
        reps = []
        for simplex in cx.dim_simplices(degree + 1):
            solver.add(_boundary(simplex, cells, p))
        for z in kernel_basis([_boundary(s, faces, p) for s in cx.dim_simplices(degree)], p):
            if solver.add(z, -1 - len(reps)) is None:  # representative k tagged -1 - k
                reps.append(z)
        self.dim = len(reps)
        self.representatives = tuple(reps)
        self._solver = solver

    def coords_of(self, chain) -> tuple:
        """Class of a cycle in the representative basis; raises on non-cycles."""
        combo = self._solver.coords(chain)
        if combo is None:
            raise ValueError("chain is not a cycle modulo the stored boundaries")
        return tuple(combo.get(-1 - k, 0) for k in range(self.dim))

    def __repr__(self):
        return f"HomologySpace(H_{self.degree}, dim {self.dim}, p={self.p})"


def homology(cx: SimplicialComplex, degree: int, p: int) -> HomologySpace:
    return HomologySpace(cx, degree, p)


def chain_image(src: SimplicialComplex, dst: SimplicialComplex, vmap, chain: dict, k: int, p: int) -> dict:
    """Image of a sparse k-chain under a simplicial vertex map; collapsing
    simplices go to zero, others carry the sign of the sorting permutation."""
    level = src.dim_simplices(k)
    out = {}
    for j, c in chain.items():
        images = [vmap[v] for v in level[j]]
        if len(set(images)) < len(images):
            continue
        ordered = dst.sort_vertices(images)
        if not dst.has_simplex(ordered):
            raise SimplicialMapError(f"image of {level[j]!r} is not a simplex")
        perm = [ordered.index(w) for w in images]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        i = dst.index_of(ordered)
        out[i] = out.get(i, 0) + (-c if inversions % 2 else c)
    return {i: v % p for i, v in out.items() if v % p}


def verify_simplicial(src: SimplicialComplex, dst: SimplicialComplex, vmap) -> None:
    for k, level in src.simplices.items():
        for simplex in level:
            images = set(vmap[v] for v in simplex)
            ordered = dst.sort_vertices(images)
            if not dst.has_simplex(ordered):
                raise SimplicialMapError(f"image of {simplex!r} is not a simplex")


def _check_nested(src: SimplicialComplex, dst: SimplicialComplex) -> None:
    """The inclusion src -> dst is simplicial, and keeps every vertex tuple,
    when the grades nest: one metric, one dimension cap, a scale no larger,
    and src's points among dst's in dst's order."""
    pos = dst._vertex_pos
    order = [pos.get(v, -1) for v in src.points]
    if src.metric is None or src.metric != dst.metric:
        fault = "another metric"
    elif src.dim_cap != dst.dim_cap:
        fault = "another dimension cap"
    elif src.scale is not dst.scale and src.scale > dst.scale:  # cut complexes share their scale
        fault = "a larger scale"
    elif -1 in order or order != sorted(order):
        fault = "points outside the target or out of its order"
    else:
        return
    raise SimplicialMapError(f"inclusion of {_grade(src)} into {_grade(dst)}: the source has {fault}")


def induced_map(src_space: HomologySpace, dst_space: HomologySpace, vmap) -> ModMatrix:
    """Homology matrix of a simplicial vertex map, representative by
    representative.

    vmap None means the inclusion of the source complex into the target
    complex.  It is checked by grade (_check_nested) instead of simplex by
    simplex, and it sends each simplex to the target simplex with the same
    vertex tuple; the inclusion of a space into itself is the identity.  A
    vertex map goes through verify_simplicial and chain_image.  Either map
    is checked first, and with a zero-dimensional end it is the empty
    matrix."""
    src, dst = src_space.complex, dst_space.complex
    k, p = src_space.degree, src_space.p
    if vmap is None:
        _check_nested(src, dst)
        if src_space is dst_space:
            return ModMatrix.identity(src_space.dim, p)
        level, ids = src.dim_simplices(k), dst._index.get(k, {})
        images = ({ids[level[j]]: c for j, c in rep.items()} for rep in src_space.representatives)
    else:
        verify_simplicial(src, dst, vmap)
        images = (chain_image(src, dst, vmap, rep, k, p) for rep in src_space.representatives)
    if not (src_space.dim and dst_space.dim):
        return ModMatrix.zeros(dst_space.dim, src_space.dim, p)
    return ModMatrix.from_columns([dst_space.coords_of(z) for z in images], dst_space.dim, p)


# ---------------------------------------------------------------------------
# the evaluation engine


class PHEvaluator:
    """Caching engine for one data set over F_p; what depends on the data
    set alone is read from its persistence index.

    Homology spaces (_hom) are keyed by (vertex set, canonical scale index,
    degree), the vertex set in any order.  The VR complex on a vertex set V
    changes only at the distances among V's points, so the canonical index
    of r, the largest index of such a distance at most r's index on the
    scale grid (or 0), is the least index whose complex on V is the one at
    r: ev.homology(V, 1, 1) is ev.homology(V, 3/2, 1) when no two points of
    V lie at a distance in (1, 3/2].  It never decreases as V or r grows,
    so inclusions still nest.  A space's complex is cut from the index's
    whole-domain VR complex at (canonical index, degree + 1), in its order
    and graded by the canonical grid scale, so a complex is built once per
    scale, not once per vertex set, and every complex carries its grade.

    Induced matrices (_maps) are keyed by (source space, target space, vertex
    map, or None for an inclusion).  The target space may belong to another
    evaluator, as in ph_map between two data sets.
    The library reads this memo only by space, through _map: ph_grid,
    interleave_upper and superlevel_duality_check look each space up once
    through homology and pair the spaces they hold.  inclusion_matrix is the
    public lookup by value; it resolves both spaces through homology on
    every call.

    Composites (_paths) are keyed by three spaces (a, b, c): the inclusion
    b -> c after a -> b.  Both legs are read through _map, so every
    inclusion is checked; a path with a zero-dimensional end is the empty
    matrix, one with an identity leg (a is b, or b is c) is the other leg,
    and only the rest are multiplied out, once each.

    interleave_upper keeps two more memos here: _rows, a vertex set's spaces
    at every grid scale by (vertex tuple, degree), filled through homology;
    and _checked, the diagram rows it has certified, by their vertex tuples
    and degree.  A row enters _checked only after all its checks pass, and
    no later call checks it again.
    """

    def __init__(self, dataset: DataSet, p: int = 2):
        self.dataset = dataset
        self.p = check_prime(p)
        self._hom = {}
        self._maps = {}
        self._paths = {}
        self._rows = {}
        self._checked = set()

    def homology(self, vertices, r, d) -> HomologySpace:
        vs, grades = frozenset(vertices), _grades(self.dataset)
        key = (vs, grades.canonical_index(vs, r), d)
        space = self._hom.get(key)
        if space is None:
            if d < 0:
                raise ValueError(f"homology degree {d} is negative")
            space = self._hom[key] = HomologySpace(_cut(grades.whole(key[1], d + 1), vs), d, self.p)
        return space

    def _map(self, src: HomologySpace, dst: HomologySpace, g: PointMap = None) -> ModMatrix:
        key = (src, dst, g)
        mat = self._maps.get(key)
        if mat is None:
            vmap = None if g is None else {v: g(v) for v in src.complex.points}
            mat = self._maps[key] = induced_map(src, dst, vmap)
        return mat

    def _path(self, a: HomologySpace, b: HomologySpace, c: HomologySpace) -> ModMatrix:
        key = (a, b, c)
        mat = self._paths.get(key)
        if mat is None:
            first, second = self._map(a, b), self._map(b, c)
            if not (a.dim and c.dim):
                mat = ModMatrix.zeros(c.dim, a.dim, self.p)
            else:
                mat = second if a is b else first if b is c else second @ first
            self._paths[key] = mat
        return mat

    def inclusion_matrix(self, src_vertices, src_r, dst_vertices, dst_r, d) -> ModMatrix:
        return self._map(self.homology(src_vertices, src_r, d), self.homology(dst_vertices, dst_r, d))

    def vertexmap_matrix(self, src: HomologySpace, dst: HomologySpace, g: PointMap) -> ModMatrix:
        return self._map(src, dst, g)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class CriticalGrid:
    r_values: tuple
    s_values: tuple

    def floor_r(self, r):
        cand = [v for v in self.r_values if v <= r]
        if not cand:
            raise ValueError(f"scale {r} below the grid")
        return cand[-1]

    def floor_s(self, s):
        cand = [v for v in self.s_values if v <= s]
        if not cand:
            raise ValueError(f"level {s} below the grid sentinel")
        return cand[-1]


def critical_grid(dataset: DataSet, m: Measurement) -> CriticalGrid:
    return CriticalGrid(scale_grid(dataset), level_grid([dataset.find(m)]))


class BigradedPersistence:
    """Homology of one measurement over the whole critical grid, with the
    right and up internal matrices; grid squares are verified to commute."""

    __slots__ = ("dataset", "measurement", "degree", "p", "grid", "spaces", "right", "up", "evaluator")

    def __init__(self, dataset, measurement, degree, p, grid, spaces, right, up, evaluator):
        self.dataset = dataset
        self.measurement = measurement
        self.degree = degree
        self.p = p
        self.grid = grid
        self.spaces = spaces
        self.right = right
        self.up = up
        self.evaluator = evaluator

    def dims(self):
        return [[sp.dim for sp in row] for row in self.spaces]

    def space_at(self, r, s) -> HomologySpace:
        i = self.grid.r_values.index(self.grid.floor_r(r))
        j = self.grid.s_values.index(self.grid.floor_s(s))
        return self.spaces[i][j]

    def verify_squares(self) -> bool:
        """True, or VerificationError naming the first cell (i, j) whose
        square of right and up maps does not commute."""
        nr, ns = len(self.grid.r_values), len(self.grid.s_values)
        for i in range(nr - 1):
            for j in range(ns - 1):
                upper = self.up[i + 1][j] @ self.right[i][j]
                lower = self.right[i][j + 1] @ self.up[i][j]
                if upper != lower:
                    raise VerificationError(
                        (i, j), f"internal grid square at cell {(i, j)} does not commute"
                    )
        return True

    def __eq__(self, other):
        return (
            isinstance(other, BigradedPersistence)
            and self.degree == other.degree
            and self.p == other.p
            and self.grid == other.grid
            and self.dims() == other.dims()
            and self.right == other.right
            and self.up == other.up
        )

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "p": self.p,
            "r": [format_rational(v) for v in self.grid.r_values],
            "s": [format_rational(v) for v in self.grid.s_values],
            "dims": self.dims(),
            "maps": {
                "right_ranks": [[m.rank() for m in row] for row in self.right],
                "up_ranks": [[m.rank() for m in row] for row in self.up],
            },
        }


def _persistence(ev, dataset, m, degree, p, grid, vertex_sets) -> BigradedPersistence:
    """Homology at every grid corner, on vertex_sets[j] at level j, with each
    right and up map read from the evaluator's memo by its pair of spaces."""
    spaces = [[ev.homology(vs, r, degree) for vs in vertex_sets] for r in grid.r_values]
    right = [[ev._map(a, b) for a, b in zip(row, nxt)] for row, nxt in zip(spaces, spaces[1:])]
    up = [[ev._map(a, b) for a, b in zip(row, row[1:])] for row in spaces]
    return BigradedPersistence(dataset, m, degree, p, grid, spaces, right, up, ev)


def _check_grid(r_values, s_values) -> None:
    """Grid values must be strictly increasing, and scales nonnegative."""
    for name, values in (("r_values", r_values), ("s_values", s_values)):
        for a, b in zip(values, values[1:]):
            if not a < b:
                raise ValueError(f"{name} must be strictly increasing, but {a} is followed by {b}")
    if r_values and r_values[0] < 0:
        raise ValueError(f"r_values must be nonnegative, but start at {r_values[0]}")


def _evaluator(dataset: DataSet, p: int, evaluator) -> PHEvaluator:
    """A new evaluator, or the given one if it is on the data set over F_p."""
    if evaluator is None:
        return PHEvaluator(dataset, p)
    if evaluator.dataset != dataset:
        raise ValueError("the evaluator belongs to another data set")
    if evaluator.p != p:
        raise ValueError(f"the evaluator computes over F_{evaluator.p}, not F_{p}")
    return evaluator


def ph_grid(
    dataset: DataSet,
    measurement: Measurement,
    degree: int,
    p: int,
    r_values=None,
    s_values=None,
    evaluator: PHEvaluator = None,
) -> BigradedPersistence:
    """Evaluate homology at every grid corner and the internal step maps."""
    _check_degree_and_prime(degree, p)
    m = dataset.find(measurement)
    ev = _evaluator(dataset, p, evaluator)
    rv = tuple(r_values) if r_values is not None else scale_grid(dataset)
    sv = tuple(s_values) if s_values is not None else level_grid([m])
    _check_grid(rv, sv)
    bp = _persistence(ev, dataset, m, degree, p, CriticalGrid(rv, sv), _sublevels(m.domain.points, m.values, sv))
    bp.verify_squares()
    return bp


class GridMap:
    """A matrix at every grid corner between two bigraded persistences that
    share a grid."""

    __slots__ = ("grid", "mats", "source", "target")

    def __init__(self, grid, mats, source, target):
        self.grid = grid
        self.mats = mats
        self.source = source
        self.target = target

    def at(self, i, j) -> ModMatrix:
        return self.mats[i][j]

    def __matmul__(self, other: "GridMap") -> "GridMap":
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        mats = [
            [self.mats[i][j] @ other.mats[i][j] for j in range(len(self.grid.s_values))]
            for i in range(len(self.grid.r_values))
        ]
        return GridMap(self.grid, mats, other.source, self.target)

    def __eq__(self, other):
        return (
            isinstance(other, GridMap)
            and self.grid == other.grid
            and self.mats == other.mats
        )

    def is_natural(self) -> bool:
        """Commutation with the internal right and up maps on both sides."""
        nr, ns = len(self.grid.r_values), len(self.grid.s_values)
        for i in range(nr - 1):
            for j in range(ns):
                if self.target.right[i][j] @ self.mats[i][j] != self.mats[i + 1][j] @ self.source.right[i][j]:
                    return False
        for i in range(nr):
            for j in range(ns - 1):
                if self.target.up[i][j] @ self.mats[i][j] != self.mats[i][j + 1] @ self.source.up[i][j]:
                    return False
        return True

    def ranks(self):
        return [[m.rank() for m in row] for row in self.mats]


def ph_map(source_bp: BigradedPersistence, target_bp: BigradedPersistence, realization: PointMap) -> GridMap:
    """Grid of homology matrices induced by a realization f: Y -> X of a
    geometric function; source is the persistence of the image measurement on
    Y, target the persistence of the preimage measurement on X."""
    if source_bp.grid != target_bp.grid:
        raise ValueError("the two persistences must be evaluated on one grid")
    if (source_bp.degree, source_bp.p) != (target_bp.degree, target_bp.p):
        s, t = source_bp, target_bp
        raise ValueError(f"the source persistence is H_{s.degree} over F_{s.p}, the target H_{t.degree} over F_{t.p}")
    for end, bp in (("source", source_bp), ("target", target_bp)):
        if getattr(realization, end) != bp.dataset.domain:
            raise ValueError(f"the realization's {end} domain is not the {end} persistence's")
    ev = source_bp.evaluator
    mats = [
        [ev.vertexmap_matrix(src, dst, realization) for src, dst in zip(src_row, dst_row)]
        for src_row, dst_row in zip(source_bp.spaces, target_bp.spaces)
    ]
    return GridMap(source_bp.grid, mats, source_bp, target_bp)


def ph_functor(inc, degree: int, p: int, r_values=None, s_values=None) -> GraphFunctor:
    """Persistence of every measurement plus, per edge (phi, g, phi.g), the
    matrix grid induced by g from the persistence of phi.g to that of phi.

    All objects share one grid (the union of critical values), so arrows
    compose as plain matrices; functoriality over composites is checked for
    monoid incarnations, and a failure raises VerificationError naming the
    pair of edges.
    """
    _check_degree_and_prime(degree, p)
    ev = PHEvaluator(inc.dataset, p)
    rv = tuple(r_values) if r_values is not None else scale_grid(inc.dataset)
    sv = tuple(s_values) if s_values is not None else level_grid(inc.dataset)
    objects = {
        m: ph_grid(inc.dataset, m, degree, p, r_values=rv, s_values=sv, evaluator=ev)
        for m in inc.dataset
    }
    graph = build_graph(inc)
    arrows = {(m, g, mg): ph_map(objects[mg], objects[m], g) for (m, g, mg) in graph.edges}
    functor = GraphFunctor(graph, objects, arrows)
    if inc.kind in ("monoid", "group"):
        bad = functor.violation(lambda a, b: a * b)
        if bad is not None:
            raise VerificationError(bad, f"persistence functor not functorial at edges {bad!r}")
    return functor


# ---------------------------------------------------------------------------
# interleaving


@dataclass(frozen=True)
class InterleavingResult:
    upper: Fraction
    lower: Fraction = None
    certificate: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower is not None and self.lower > self.upper:
            raise VerificationError(
                (self.lower, self.upper), "certified lower bound exceeds the upper bound"
            )


def interleave_upper(
    dataset: DataSet,
    phi: Measurement,
    psi: Measurement,
    degree: int,
    p: int,
    evaluator: PHEvaluator = None,
) -> InterleavingResult:
    """Certify the shift maps induced by sublevel inclusions at distance
    epsilon = sup |phi - psi|.

    At every grid point both interleaving triangles are checked, along with
    commutation of the shift maps with the internal maps in both directions.
    Failure of any check is an internal error: the inclusions always provide
    an epsilon-interleaving.

    Each diagram row (one diagram at every scale) is checked once per
    evaluator, as PHEvaluator describes.  Within a row, a scale whose spaces
    are all those of the scale before it would repeat that check, so it is
    skipped and the first failing scale is still the witness.  The counts
    do not depend on what was skipped.  "triangles" counts the distinct
    triangles (A0, B1, A2) of each side at every scale.  "squares" counts
    the scale squares of every level and side, shared shifts included, plus
    the distinct level steps of each side at every scale.
    """
    _check_degree_and_prime(degree, p)
    phi, psi = dataset.find(phi), dataset.find(psi)
    ev = _evaluator(dataset, p, evaluator)
    eps = sup_distance(phi, psi)
    grades = _grades(dataset)
    rv = grades.scales
    # the level grid and its shifts s + k * eps as integer numerators over the
    # data set's denominator, which eps's divides: eps is a difference of values
    den, values = grades.denominator, grades.numerators
    e = eps.numerator * (den // eps.denominator)
    sv = sorted({min(values[phi]) - den, min(values[psi]) - den, *values[phi], *values[psi]})

    def sublevels(m):
        # sublevel(m, s + k * eps) as [k][index of s in sv]
        subs = _sublevels(m.domain.points, values[m], [s + k * e for k in range(3) for s in sv])
        return [subs[k * len(sv) : (k + 1) * len(sv)] for k in range(3)]

    def row(vertices):
        key = (vertices, degree)
        spaces = ev._rows.get(key)
        if spaces is None:
            spaces = ev._rows[key] = [ev.homology(vertices, r, degree) for r in rv]
        return spaces

    def changes(*rows):
        # (i, the spaces at scale index i) where they differ from those at i - 1:
        # elsewhere a check would repeat the one just made
        last = None
        for i, spaces in enumerate(zip(*rows)):
            if spaces != last:
                yield i, spaces
            last = spaces

    def nested(*pairs):
        for small, big in pairs:
            if not set(small) <= set(big):
                raise VerificationError((small, big), f"sublevel {small!r} is not inside {big!r}")

    incl, path, checked = ev._map, ev._path, ev._checked
    at_phi, at_psi = sublevels(phi), sublevels(psi)
    sides = ((phi, at_phi, at_psi), (psi, at_psi, at_phi))
    # each diagram once, in order of first use
    tris = dict.fromkeys(
        (sa[0][j], sb[1][j], sa[2][j], a is phi) for j in range(len(sv)) for a, sa, sb in sides
    )
    shifts = dict.fromkeys((A0, B1) for A0, B1, _, _ in tris)
    steps = dict.fromkeys(
        (sa[0][j], sa[0][j + 1], sb[1][j], sb[1][j + 1], a is phi)
        for j in range(len(sv) - 1)
        for a, sa, sb in sides
    )
    # a row's key is its vertex tuples and the degree; the three kinds differ in length
    for A0, B1, A2, _ in tris:
        if (A0, B1, A2, degree) in checked:
            continue
        nested((A0, B1), (B1, A2))
        for i, (a0, b1, a2) in changes(row(A0), row(B1), row(A2)):
            if path(a0, b1, a2) != incl(a0, a2):
                raise VerificationError((A0, B1, A2, rv[i]), "interleaving triangle does not commute")
        checked.add((A0, B1, A2, degree))
    for A0, B1 in shifts:
        if (A0, B1, degree) in checked:
            continue
        a0, b1 = row(A0), row(B1)
        for i, (a, b, a_next, b_next) in changes(a0, b1, a0[1:], b1[1:]):
            if path(a, b, b_next) != path(a, a_next, b_next):
                raise VerificationError((A0, B1, rv[i], rv[i + 1]), "shift maps not natural in the scale direction")
        checked.add((A0, B1, degree))
    for A0, A1, B0, B1, _ in steps:
        if (A0, A1, B0, B1, degree) in checked:
            continue
        nested((B0, B1), (A0, B0), (A1, B1), (A0, A1))
        for i, (a0, a1, b0, b1) in changes(row(A0), row(A1), row(B0), row(B1)):
            if path(a0, b0, b1) != path(a0, a1, b1):
                raise VerificationError((A0, A1, B0, B1, rv[i]), "shift maps not natural in the level direction")
        checked.add((A0, A1, B0, B1, degree))
    triangles = len(rv) * len(tris)
    squares = 2 * len(sv) * (len(rv) - 1) + len(rv) * len(steps)
    return InterleavingResult(
        upper=eps,
        certificate={"triangles": triangles, "squares": squares, "epsilon": format_rational(eps)},
    )


# ---------------------------------------------------------------------------
# one-parameter slices and the bottleneck lower bound


def slice_barcode(dataset: DataSet, m: Measurement, degree: int, p: int, r) -> list:
    """Intervals [birth, death) in the level direction at a fixed scale: the
    simplices of the complex at scale r enter at their highest value, and the
    pivots of the column reduction of the filtered boundary matrix pair each
    creator with the simplex that kills it.  The complex is the persistence
    index's whole-domain complex at the grid scale at or below r, shared by
    every measurement.  Simplices are sorted by the integer numerators of
    their values; births and deaths become Fractions only in the result."""
    _check_degree_and_prime(degree, p)
    m = dataset.find(m)
    grades = _grades(dataset)
    cx = grades.whole(grades.scale_index(r), degree + 1)
    value = dict(zip(dataset.domain.points, grades.numerators[m]))
    simplices = sorted(
        (max(value[v] for v in s), k, s) for k, level in cx.simplices.items() for s in level
    )
    pos = {s: j for j, (_, _, s) in enumerate(simplices)}
    solver = ColumnSolver(p)
    for _, _, s in simplices:
        solver.add(_boundary(s, pos, p))
    killers = set(solver.pivots.values())
    bars = []
    for j, (birth, k, _) in enumerate(simplices):
        if k != degree or j in killers:
            continue  # not a creator in this degree
        death = simplices[solver.pivots[j]][0] if j in solver.pivots else INF
        if death != birth:
            bars.append((birth, death))
    bars.sort()  # by birth, then death, INF after every finite death
    den = grades.denominator
    return [(Fraction(b, den), INF if d == INF else Fraction(d, den)) for b, d in bars]


def _perfect_matching(left, edges) -> bool:
    """Kuhn's augmenting-path bipartite matching; True if all of left matches."""
    match_r = {}

    def try_assign(u, visited):
        for v in edges.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            if v not in match_r or try_assign(match_r[v], visited):
                match_r[v] = u
                return True
        return False

    for u in range(left):
        if not try_assign(u, set()):
            return False
    return True


def bottleneck_distance(bars_a, bars_b):
    """Exact bottleneck distance between two interval lists; infinite-death
    bars must match each other by birth.

    The distance is the least candidate eps at which every bar is matched
    within eps.  Two shortcuts return exactly what the full search would:
    equal diagrams (compared as sorted lists) are at distance 0, and the
    infinite bars are matched in sorted order of birth, so they fit iff eps
    >= inf_gap = max |a_i - b_i| over the two sorted birth lists (0 without
    infinite bars).  That matching is optimal because on a line two crossed
    pairs can be uncrossed without raising the larger of their two gaps.  So
    the candidates are inf_gap and those of the finite bars (the cost of a
    pair, or half a bar's length) above it, and only the finite bars go
    through Kuhn's matching.
    """
    if sorted(bars_a) == sorted(bars_b):
        return Fraction(0)
    fin_a = [b for b in bars_a if b[1] != INF]
    fin_b = [b for b in bars_b if b[1] != INF]
    inf_a = sorted(b[0] for b in bars_a if b[1] == INF)
    inf_b = sorted(b[0] for b in bars_b if b[1] == INF)
    if len(inf_a) != len(inf_b):
        return INF
    inf_gap = max((abs(x - y) for x, y in zip(inf_a, inf_b)), default=Fraction(0))

    def cost(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    halves_a = [(d - b) / 2 for b, d in fin_a]
    halves_b = [(d - b) / 2 for b, d in fin_b]
    candidates = {inf_gap}
    candidates.update(cost(x, y) for x, y in itertools.product(fin_a, fin_b))
    candidates.update(halves_a)
    candidates.update(halves_b)

    na, nb = len(fin_a), len(fin_b)

    def feasible(eps):
        # finite bars: left = fin_a + proxies of fin_b, right = fin_b + proxies of fin_a
        edges = {}
        for i, x in enumerate(fin_a):
            opts = [j for j, y in enumerate(fin_b) if cost(x, y) <= eps]
            if halves_a[i] <= eps:
                opts.append(nb + i)  # own diagonal slot
            edges[i] = opts
        for jj in range(nb):
            opts = [jj] if halves_b[jj] <= eps else []
            opts.extend(range(nb, nb + na))  # proxy-to-proxy is free
            edges[na + jj] = opts
        return _perfect_matching(na + nb, edges)

    for eps in sorted(c for c in candidates if c >= inf_gap):
        if feasible(eps):
            return eps
    return INF


def bottleneck_lower(dataset: DataSet, phi: Measurement, psi: Measurement, degree: int, p: int):
    """Largest per-scale bottleneck distance between the level-direction
    barcodes; a certified lower bound for the interleaving distance.

    Each barcode is kept in the data set's persistence index and computed
    by slice_barcode only the first time any pair asks for it."""
    _check_degree_and_prime(degree, p)
    memo = _grades(dataset).barcodes
    phi, psi = dataset.find(phi), dataset.find(psi)

    def barcode(m, i, r):
        key = (m, degree, p, i)
        bars = memo.get(key)
        if bars is None:
            bars = memo[key] = tuple(slice_barcode(dataset, m, degree, p, r))
        return bars

    best = Fraction(0)
    for i, r in enumerate(scale_grid(dataset)):
        d = bottleneck_distance(barcode(phi, i, r), barcode(psi, i, r))
        if d == INF:
            return INF
        best = max(best, d)
    return best


def interleaving_bounds(dataset, phi, psi, degree, p) -> InterleavingResult:
    upper = interleave_upper(dataset, phi, psi, degree, p)
    lower = bottleneck_lower(dataset, phi, psi, degree, p)
    return InterleavingResult(upper=upper.upper, lower=lower, certificate=upper.certificate)


# ---------------------------------------------------------------------------
# superlevel duality under negation


def superlevel_duality_check(dataset: DataSet, phi: Measurement, degree: int, p: int) -> bool:
    """Dimensions and internal ranks of the negated data set's persistence
    must match the superlevel-set persistence computed directly."""
    from .core import ValueMap, change_units

    phi = dataset.find(phi)
    neg_ds, to_image = change_units(ValueMap.negate(), dataset)
    bp = ph_grid(neg_ds, to_image[phi], degree, p)
    if scale_grid(dataset) != bp.grid.r_values:
        return False
    # phi >= -s exactly where -phi <= s
    supers = _sublevels(dataset.domain.points, [-v for v in phi.values], bp.grid.s_values)
    direct = _persistence(PHEvaluator(dataset, p), dataset, phi, degree, p, bp.grid, supers)
    return direct.to_json_dict() == bp.to_json_dict()
