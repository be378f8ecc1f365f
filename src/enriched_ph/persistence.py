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
from .linalg import ColumnSolver, ModMatrix, _components, kernel_basis

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


def _rips(points, diameter, dim_cap) -> list:
    """Every simplex on the points up to dim_cap, as a list per dimension k of
    (simplex, diameter) in itertools.combinations order: the Vietoris-Rips
    filtration, in which a simplex enters at the largest diameter(a, b)
    among its vertices (0 for a vertex).  No level passes len(points) - 1,
    where the empty ones start, but level 1 stays: rows read the edges."""
    levels = [[((p,), 0) for p in points]]
    for k in range(1, min(dim_cap, max(len(points) - 1, 1)) + 1):
        levels.append([
            (combo, max(diameter(a, b) for a, b in itertools.combinations(combo, 2)))
            for combo in itertools.combinations(points, k + 1)
        ])
    return levels


def _prefix(levels, top) -> dict:
    """The simplices of a filtration that enter at or below top, by
    dimension and in its order, leaving out empty dimensions."""
    simplices = {}
    for k, level in enumerate(levels):
        kept = tuple(s for s, t in level if t <= top)
        if kept:
            simplices[k] = kept
    return simplices


def vr_complex(points, dist, r, dim_cap) -> SimplicialComplex:
    """All subsets of size <= dim_cap + 1 whose pairwise distances stay <= r."""
    if r < 0:
        raise ValueError("scale parameter must be nonnegative")
    if dim_cap < 0:
        raise ValueError(f"dimension cap {dim_cap} is negative")
    pts = tuple(points)
    return SimplicialComplex(pts, _prefix(_rips(pts, dist, dim_cap), r), dim_cap, r, dist)


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
    fill on use: the Vietoris-Rips filtration of the whole domain by cap,
    with each simplex's diameter as a grid index, which every evaluator's
    rows and every sweep read; the slice barcodes at every grid scale, one
    sweep per (measurement, degree, p), which bottleneck_lower and
    slice_barcode share; and the diagrams of interleave_upper by ordered
    pair of measurements, which every degree and modulus reads.  The
    filtration is kept by the cap that bounds the levels _rips lists, so
    every cap at or above the domain's size less one (and at least 1)
    shares one entry.
    """

    __slots__ = (
        "scales", "index", "pair", "metric", "denominator", "numerators",
        "filtrations", "barcodes", "pair_diagrams",
    )

    def __init__(self, dataset: DataSet):
        metric = dataset.pseudometric()
        self.scales = tuple(sorted({Fraction(0), *metric.distinct_values()}))
        index = self.index = {r: i for i, r in enumerate(self.scales)}
        pts, self.metric = metric.points, metric.at
        self.pair = {x: dict(zip(pts, (index[v] for v in row))) for x, row in zip(pts, metric.rows)}
        self.denominator, self.numerators = dataset.denominator, {m: c for c, m in dataset._codes.items()}
        self.filtrations, self.barcodes, self.pair_diagrams = {}, {}, {}

    def scale_index(self, r) -> int:
        """Index of the largest grid scale <= r: the VR complex of every
        vertex set is the same at r as at that scale."""
        i = self.index.get(r)
        if i is None:
            if r < 0:
                raise ValueError("scale parameter must be nonnegative")
            i = bisect.bisect_right(self.scales, r) - 1
        return i

    def filtration(self, dim_cap) -> list:
        """The VR filtration of the whole domain up to dim_cap (_rips): its
        complex at the i-th grid scale is the prefix of diameter index <= i."""
        # no level of _rips passes the domain's size less one, but level 1 stays
        cap = min(dim_cap, max(len(self.pair) - 1, 1))
        levels = self.filtrations.get(cap)
        if levels is None:
            pair = self.pair  # its keys are the domain's points, in order
            levels = self.filtrations[cap] = _rips(tuple(pair), lambda x, y: pair[x][y], cap)
        return levels

    def slices(self, m, degree, p) -> tuple:
        """m's slice barcodes in degree over F_p at every grid index, as
        slice_barcode gives them but in m's numerators (infinite deaths
        stay INF): one sweep per (m, degree, p), kept in barcodes."""
        key = (m, degree, p)
        found = self.barcodes.get(key)
        if found is None:
            found = self.barcodes[key] = self._sweep(m, degree, p)
        return found

    def _sweep(self, m, degree, p) -> tuple:
        """The barcodes of slices, each a sorted tuple of (birth, death).

        m's order of the filtration up to degree + 1 lists it as (value,
        dim, simplex, diameter index), sorted, where a simplex's value is
        m's largest numerator on its vertices: the order in which the
        simplices enter m's sublevels.  Everything but the pairing is read
        once from that order: each simplex's position in it, its value, the
        ends of each edge and the boundary column of each simplex of
        dimension 2 and up, numbered by those positions.  The complex at
        grid index i keeps the simplices of diameter index <= i in that
        order, and a sublist of a sorted list is sorted, so its filtered
        boundary matrix is the whole one's, cut to those rows and columns.
        Numbering its rows by position in the whole order keeps every
        comparison, so the pivots are those of the cut complex alone.

        At each index, degrees 0 and 1 run the elder rule (_components) over
        the kept edges: in degree 0 an edge that joins two components kills
        the younger root, which is the pivot its reduced column would have.
        In degree 1 the creators are the kept edges that close a cycle;
        without one there is no bar and nothing is reduced.  Otherwise the
        kept columns of dimension 2 and up reduce only against each other,
        through ColumnSolver, and a creator dies at the column whose pivot
        it is.  Columns of a dimension below degree touch neither the
        creators nor their deaths and are left out."""
        code = dict(zip(self.pair, self.numerators[m]))
        entries = sorted(
            (max(map(code.__getitem__, s)), k, s, t)
            for k, level in enumerate(self.filtration(degree + 1))
            for s, t in level
        )
        value = [v for v, _, _, _ in entries]
        pos = {s: j for j, (_, _, s, _) in enumerate(entries)}
        vertices = [j for j, (_, k, _, _) in enumerate(entries) if not k]
        rank = {entries[j][2]: n for n, j in enumerate(vertices)}  # numbered in their order
        edges = [(t, j, (rank[s[:1]], rank[s[1:]])) for j, (_, k, s, t) in enumerate(entries) if k == 1]
        cells = [(t, j, k, _boundary(s, pos, p)) for j, (_, k, s, t) in enumerate(entries) if k > 1 and k >= degree]
        barcodes = []
        for i in range(len(self.scales)):
            if degree <= 1:
                kept = [e for e in edges if e[0] <= i]
                _, kills = _components(len(vertices), [e[2] for e in kept])
            dies = {}  # creator -> the simplex that kills it
            if degree == 0:
                born = vertices
                dies = {vertices[v]: j for (_, j, _), v in zip(kept, kills) if v >= 0}
            elif degree == 1:
                born = [j for (_, j, _), v in zip(kept, kills) if v < 0]
            else:
                born = [j for t, j, k, _ in cells if k == degree and t <= i]
            if degree and born:
                solver, columns = ColumnSolver(p), []
                for t, j, _, col in cells:
                    if t <= i:
                        solver.add(col)
                        columns.append(j)
                        if degree == 1 and len(solver.pivots) == len(born):
                            break  # every pivot is a creator: the columns left reduce to zero
                dies = {row: columns[c] for row, c in solver.pivots.items()}
            killers = set(dies.values())
            bars = sorted((value[j], value[dies[j]] if j in dies else INF) for j in born if j not in killers)
            barcodes.append(tuple(b for b in bars if b[0] != b[1]))
        return tuple(barcodes)

    def diagrams(self, phi, psi) -> tuple:
        """What interleave_upper checks for the ordered pair of
        measurements, in any degree and over any F_p: epsilon = sup |phi -
        psi|, the number of levels in the grid of both measurements' values
        (after one sentinel below each), the vertex sets of every sublevel
        it reads, and its diagrams, each once in order of first use: the
        triangles (A0, B1, A2, side), the shifts (A0, B1) and the level
        steps (A0, A1, B0, B1, side), where side is True on phi's side.  Each
        triangle's sublevels nest, A0 in B1 in A2, or VerificationError names
        the first pair (small, big) that does not, before anything is kept."""
        found = self.pair_diagrams.get((phi, psi))
        if found is None:
            eps = sup_distance(phi, psi)
            # the level grid and its shifts s + k * eps as integer numerators over the
            # data set's denominator, which eps's divides: eps is a difference of values
            den, values = self.denominator, self.numerators
            e = eps.numerator * (den // eps.denominator)
            sv = sorted({min(values[phi]) - den, min(values[psi]) - den, *values[phi], *values[psi]})

            def sublevels(m):
                # sublevel(m, s + k * eps) as [k][index of s in sv]
                subs = _sublevels(m.domain.points, values[m], [s + k * e for k in range(3) for s in sv])
                return [subs[k * len(sv) : (k + 1) * len(sv)] for k in range(3)]

            at_phi, at_psi = sublevels(phi), sublevels(psi)
            sides = ((phi, at_phi, at_psi), (psi, at_psi, at_phi))
            tris = tuple(dict.fromkeys(
                (sa[0][j], sb[1][j], sa[2][j], a is phi) for j in range(len(sv)) for a, sa, sb in sides
            ))
            steps = tuple(dict.fromkeys(
                (sa[0][j], sa[0][j + 1], sb[1][j], sb[1][j + 1], a is phi)
                for j in range(len(sv) - 1)
                for a, sa, sb in sides
            ))
            for A0, B1, A2, _ in tris:
                for small, big in ((A0, B1), (B1, A2)):
                    if not set(small) <= set(big):
                        raise VerificationError((small, big), f"sublevel {small!r} is not inside {big!r}")
            found = self.pair_diagrams[phi, psi] = (
                eps,
                len(sv),
                tuple(dict.fromkeys(itertools.chain(*at_phi, *at_psi))),
                tris,
                tuple(dict.fromkeys((A0, B1) for A0, B1, _, _ in tris)),
                steps,
            )
        return found


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

    Degree 0 is read from the components of the edges (_components): the
    representatives are the first vertex of each component, in the order
    of the vertices, and a chain's class sums its coefficients on each
    component.  In degree 1, rank d_1 is the number of vertices less the
    number of components, so when the cycles are as many as the stored
    rank of d_2 the space is zero and no kernel basis is built.  Either
    way these are the representatives and coordinates that reducing the
    kernel basis would give.
    """

    __slots__ = ("complex", "degree", "p", "dim", "representatives", "_solver", "_component")

    def __init__(self, cx: SimplicialComplex, degree: int, p: int):
        if cx.dim_cap < degree + 1:
            raise ValueError(
                f"complex built with cap {cx.dim_cap} cannot give degree {degree}"
            )
        self.complex = cx
        self.degree = degree
        self.p = p
        self._solver = self._component = None
        if degree <= 1:
            vertex = cx._index.get(0, {})
            roots, kills = _components(len(vertex), [(vertex[e[:1]], vertex[e[1:]]) for e in cx.dim_simplices(1)])
        if degree == 0:
            firsts = {}  # each component's first vertex -> its number
            self._component = [firsts.setdefault(root, len(firsts)) for root in roots]
            reps = [{v: 1} for v in firsts]
        else:
            faces, cells = cx._index.get(degree - 1, {}), cx._index.get(degree, {})
            solver = ColumnSolver(p)
            reps = []
            for simplex in cx.dim_simplices(degree + 1):
                solver.add(_boundary(simplex, cells, p))
            # in degree 1 the cycles number edges - rank d_1 = edges - (vertices -
            # components): the edges that kill no root
            if degree > 1 or kills.count(-1) > len(solver.pivots):
                for z in kernel_basis([_boundary(s, faces, p) for s in cx.dim_simplices(degree)], p):
                    if solver.add(z, -1 - len(reps)) is None:  # representative k tagged -1 - k
                        reps.append(z)
            self._solver = solver
        self.dim = len(reps)
        self.representatives = tuple(reps)

    def coords_of(self, chain) -> tuple:
        """Class of a cycle in the representative basis; raises on non-cycles."""
        component = self._component
        if component is not None:  # degree 0: the sum on each component
            sums = [0] * self.dim
            for j, v in chain.items():
                if not 0 <= j < len(component):
                    raise ValueError("chain is not a cycle modulo the stored boundaries")
                sums[component[j]] += v
            return tuple(v % self.p for v in sums)
        if min(chain, default=0) < 0:  # negative rows are the solver's representative tags
            raise ValueError("chain is not a cycle modulo the stored boundaries")
        combo = self._solver.coords(chain)
        if combo is None:
            raise ValueError("chain is not a cycle modulo the stored boundaries")
        return tuple(combo.get(-1 - k, 0) for k in range(self.dim))

    def __repr__(self):
        return f"HomologySpace(H_{self.degree}, dim {self.dim}, p={self.p})"


def homology(cx: SimplicialComplex, degree: int, p: int) -> HomologySpace:
    """H_degree of the complex over F_p; a negative degree or a modulus that
    is not prime is a ValueError."""
    _check_degree_and_prime(degree, p)
    return HomologySpace(cx, degree, p)


def chain_image(src: SimplicialComplex, dst: SimplicialComplex, vmap, chain: dict, k: int, p: int) -> dict:
    """Image of a sparse k-chain under a vertex map that verify_simplicial passed;
    collapsing simplices go to zero, others carry the sign of the sorting permutation."""
    level = src.dim_simplices(k)
    out = {}
    for j, c in chain.items():
        images = [vmap[v] for v in level[j]]
        if len(set(images)) < len(images):
            continue
        ordered = dst.sort_vertices(images)
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
    when the grades nest: one metric, one dimension cap, src's points among
    dst's in dst's order, and a scale no larger.  The points are tested
    before the scale: a row's space at a scale is built at the last of its
    steps at or below it, so two ends asked at one scale may carry
    different scales, and then the points are the fault."""
    pos = dst._vertex_pos
    order = [pos.get(v, -1) for v in src.points]
    if src.metric is None or src.metric != dst.metric:
        fault = "another metric"
    elif src.dim_cap != dst.dim_cap:
        fault = "another dimension cap"
    elif -1 in order or order != sorted(order):
        fault = "points outside the target or out of its order"
    elif src.scale is not dst.scale and src.scale > dst.scale:
        fault = "a larger scale"
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
    matrix.  Ends of different degree or modulus are a ValueError."""
    src, dst = src_space.complex, dst_space.complex
    k, p = src_space.degree, src_space.p
    if (k, p) != (dst_space.degree, dst_space.p):
        raise ValueError(f"the source space is H_{k} over F_{p}, the target H_{dst_space.degree} over F_{dst_space.p}")
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


class ComponentMap:
    """A map in H_0 that sends components to components, as an inclusion
    does: targets[c] is the component of the target, among dim, that
    source component c goes to.  Its matrix over any F_p has the unit
    vector at targets[c] as column c, so g @ f composes by indexing and
    == compares tuples.  Ends that do not match are a ValueError, as for
    ModMatrix."""

    __slots__ = ("targets", "dim")

    def __init__(self, targets: tuple, dim: int):
        self.targets, self.dim = targets, dim

    def __matmul__(self, other: "ComponentMap") -> "ComponentMap":
        targets = self.targets
        if len(targets) != other.dim:
            raise ValueError(f"a map from {len(targets)} components after a map into {other.dim}")
        return ComponentMap(tuple(targets[c] for c in other.targets), self.dim)

    def __eq__(self, other):
        return isinstance(other, ComponentMap) and self.dim == other.dim and self.targets == other.targets

    def __repr__(self):
        return f"ComponentMap({self.targets!r} into {self.dim})"


def _component_map(src_space: HomologySpace, dst_space: HomologySpace, at) -> ComponentMap:
    """The inclusion in H_0 of src_space's complex into dst_space's, whose
    vertex j is the target's vertex at[j]: each source component, whose
    representative is its first vertex, goes to that vertex's component."""
    component = dst_space._component
    return ComponentMap(tuple(component[at[v]] for rep in src_space.representatives for v in rep), dst_space.dim)


# ---------------------------------------------------------------------------
# the evaluation engine


class PHEvaluator:
    """Caching engine for one data set over F_p; what depends on the data
    set alone is read from its persistence index.

    Homology spaces live in rows (_rows), one per (vertex set, degree), the
    vertex set in any order: its space at every index of the scale grid.
    The VR complex on V changes only at the distances among V's points, so
    the row builds a space at index 0 and at the index of each such
    distance, and shares it up to the next: ev.homology(V, 1, 1) is
    ev.homology(V, 3/2, 1) when no two points of V lie at a distance in
    (1, 3/2].  That index never decreases as V or r grows, so inclusions
    nest.  The row reads V's simplices out of the index's filtration at cap
    degree + 1 once; the space at grid index i is built on those of diameter
    index <= i, in the filtration's order and graded by the i-th scale, so
    simplices are enumerated once per data set and cap, not per vertex set.
    homology(V, r, d) is the entry of V's row at r's grid index, as is each
    end of inclusion_matrix; the library reads whole rows.

    Induced matrices (_maps) are keyed by (source space, target space, vertex
    map, or None for an inclusion); the target space may belong to another
    evaluator, as in ph_map between two data sets.  interleave_upper reads
    inclusions by pairs of rows (_links, see _link, which checks each pair's
    grades once): in degree 0 as component maps, which need no matrix, and in
    higher degrees through _maps, each entry built once for a run of scales
    with the same two spaces.  It keeps _checked here: the diagram rows it
    has certified, by their vertex tuples and degree.  A row enters _checked
    only after all its checks pass, and no later call checks it again.
    """

    def __init__(self, dataset: DataSet, p: int = 2):
        self.dataset = dataset
        self.p = check_prime(p)
        self._rows = {}
        self._maps = {}
        self._links = {}
        self._checked = set()

    def homology(self, vertices, r, d) -> HomologySpace:
        i = _grades(self.dataset).scale_index(r)  # first, so a bad scale builds nothing
        return self._row(vertices, d)[i]

    def _row(self, vertices, d) -> tuple:
        """The vertex set's spaces in degree d at every grid scale."""
        key = (frozenset(vertices), d)
        row = self._rows.get(key)
        if row is None:
            vs, grades = key[0], _grades(self.dataset)
            unknown = vs.difference(grades.pair)
            if unknown:
                raise ValueError(f"points not in the domain: {sorted(unknown, key=str)!r}")
            if d < 0:
                raise ValueError(f"homology degree {d} is negative")
            mine = [[(s, t) for s, t in level if vs.issuperset(s)] for level in grades.filtration(d + 1)]
            points = tuple(v for (v,), _ in mine[0])
            steps = {0, *(t for _, t in mine[1])}
            row = []
            for i in range(len(grades.scales)):
                if i in steps:
                    cx = SimplicialComplex(points, _prefix(mine, i), d + 1, grades.scales[i], grades.metric)
                    space = HomologySpace(cx, d, self.p)
                row.append(space)
            row = self._rows[key] = tuple(row)
        return row

    def _map(self, src: HomologySpace, dst: HomologySpace, g: PointMap = None) -> ModMatrix:
        key = (src, dst, g)
        mat = self._maps.get(key)
        if mat is None:
            vmap = None if g is None else {v: g(v) for v in src.complex.points}
            mat = self._maps[key] = induced_map(src, dst, vmap)
        return mat

    def _link(self, a, b, d) -> tuple:
        """The inclusions row(a)[i] -> row(b)[i] at every grid index i, or with
        b None the scale steps row(a)[i] -> row(a)[i + 1], keyed by the
        vertex tuples and the degree.

        The grades of the pair are checked once, on its last entries: a row
        fixes its points (in domain order), its metric and its cap, and i is
        shared, so that one check covers every index: a source row's points
        are among the target's, so its steps are among the target's too, and
        no entry is checked on its own.  An entry whose two spaces are those
        of the index before is that index's entry.  In degree 0 an entry is a
        ComponentMap, built from the positions of the source's points among
        the target's, which the link computes once; one of a space into
        itself is the identity.  In higher degrees an
        entry with a zero-dimensional end is the shared empty matrix and is
        not computed; every other entry is read through _map, which checks
        and computes it."""
        key = (a, b, d)
        link = self._links.get(key)
        if link is None:
            src = self._row(a, d)
            dst = src[1:] if b is None else self._row(b, d)
            link = self._links[key] = tuple(self._entries(src, dst, d))
        return link

    def _entries(self, src, dst, d):
        """The entries of the link of the rows src and dst, as _link says."""
        if not dst:
            return
        _check_nested(src[len(dst) - 1].complex, dst[-1].complex)
        if d:
            zeros, p = ModMatrix.zeros, self.p

            def entry(x, y):
                return self._map(x, y) if x.dim and y.dim else zeros(y.dim, x.dim, p)
        else:
            pos = dst[-1].complex._vertex_pos
            at = [pos[v] for v in src[-1].complex.points]

            def entry(x, y):
                return _component_map(x, y, at)
        last_x = last_y = None
        for x, y in zip(src, dst):
            if x is not last_x or y is not last_y:
                made, last_x, last_y = entry(x, y), x, y
            yield made

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


def _persistence(ev, m, degree, grid, vertex_sets) -> BigradedPersistence:
    """Homology of m at every grid corner, on vertex_sets[j] at level j, read
    from one row per level set, with each right and up map read from the
    evaluator's memo by its pair of spaces; the data set and modulus are the
    evaluator's."""
    at = [_grades(ev.dataset).scale_index(r) for r in grid.r_values]
    rows = [ev._row(vs, degree) for vs in vertex_sets]
    spaces = [[row[i] for row in rows] for i in at]
    right = [[ev._map(a, b) for a, b in zip(row, nxt)] for row, nxt in zip(spaces, spaces[1:])]
    up = [[ev._map(a, b) for a, b in zip(row, row[1:])] for row in spaces]
    return BigradedPersistence(ev.dataset, m, degree, ev.p, grid, spaces, right, up, ev)


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
    bp = _persistence(ev, m, degree, CriticalGrid(rv, sv), _sublevels(m.domain.points, m.values, sv))
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
    skipped and the first failing scale is still the witness.  The spaces
    of a diagram change where those of its largest row do, since the
    distances among a vertex set's points are among those of any set that
    holds it.  A diagram row reads each of its inclusions as a link row
    (PHEvaluator._link), so every inclusion is checked.  In degree 0 the
    inclusions are component maps (ComponentMap), which compose by indexing
    and compare as tuples; in higher degrees they are matrices.  A diagram
    with a zero-dimensional end is not compared, since both its sides are
    the empty map; a path with an identity leg is its other leg, and only
    the rest are composed.  What depends on neither the degree nor the
    modulus (epsilon, the sublevels and the diagrams themselves) is read
    once per ordered pair from the data set's persistence index
    (_Grades.diagrams, which checks that each triangle's sublevels nest).
    The counts do not depend on what was skipped.
    "triangles" counts the distinct triangles (A0, B1, A2) of each side at
    every scale.  "squares" counts the scale squares of every level and
    side, shared shifts included, plus the distinct level steps of each
    side at every scale.
    """
    _check_degree_and_prime(degree, p)
    phi, psi = dataset.find(phi), dataset.find(psi)
    ev = _evaluator(dataset, p, evaluator)
    grades = _grades(dataset)
    rv = grades.scales
    eps, levels, vertex_sets, tris, shifts, steps = grades.diagrams(phi, psi)

    def changes(big):
        # the scale indices where a diagram whose largest row is big changes
        return [i for i, space in enumerate(big) if not i or space is not big[i - 1]]

    def path(a, b, c, first, second):
        # the composite a -> b -> c of two non-empty ends: an identity leg is the other leg
        return second if a is b else first if b is c else second @ first

    link, checked = ev._link, ev._checked
    # every sublevel is an end of some triangle, so each of these rows is read
    rows = {vs: ev._row(vs, degree) for vs in vertex_sets}
    # a row's key is its vertex tuples and the degree; the three kinds differ in length
    for A0, B1, A2, _ in tris:
        if (A0, B1, A2, degree) in checked:
            continue
        ab, bc, ac = link(A0, B1, degree), link(B1, A2, degree), link(A0, A2, degree)
        a0, b1, a2 = rows[A0], rows[B1], rows[A2]
        for i in changes(a2):
            if a0[i].dim and a2[i].dim and path(a0[i], b1[i], a2[i], ab[i], bc[i]) != ac[i]:
                raise VerificationError((A0, B1, A2, rv[i]), "interleaving triangle does not commute")
        checked.add((A0, B1, A2, degree))
    for A0, B1 in shifts:
        if (A0, B1, degree) in checked:
            continue
        a0, b1 = rows[A0], rows[B1]
        ab, a_up, b_up = link(A0, B1, degree), link(A0, None, degree), link(B1, None, degree)
        # the square at i reads the spaces at i and i + 1, so it changes where b1 does at either
        for i in sorted({i for j in changes(b1) for i in (j - 1, j) if 0 <= i < len(rv) - 1}):
            a, b, a_next, b_next = a0[i], b1[i], a0[i + 1], b1[i + 1]
            if (a.dim and b_next.dim
                    and path(a, b, b_next, ab[i], b_up[i]) != path(a, a_next, b_next, a_up[i], ab[i + 1])):
                raise VerificationError((A0, B1, rv[i], rv[i + 1]), "shift maps not natural in the scale direction")
        checked.add((A0, B1, degree))
    for A0, A1, B0, B1, _ in steps:
        if (A0, A1, B0, B1, degree) in checked:
            continue
        # the pairs nest: (A0, B0) and (A1, B1) are triangle pairs (_Grades.diagrams),
        # and the links (A0, A1) and (B0, B1) read here check their grades
        a0b0, b0b1 = link(A0, B0, degree), link(B0, B1, degree)
        a0a1, a1b1 = link(A0, A1, degree), link(A1, B1, degree)
        for i in changes(rows[B1]):
            a0, a1, b0, b1 = rows[A0][i], rows[A1][i], rows[B0][i], rows[B1][i]
            if a0.dim and b1.dim and path(a0, b0, b1, a0b0[i], b0b1[i]) != path(a0, a1, b1, a0a1[i], a1b1[i]):
                raise VerificationError((A0, A1, B0, B1, rv[i]), "shift maps not natural in the level direction")
        checked.add((A0, A1, B0, B1, degree))
    triangles = len(rv) * len(tris)
    squares = 2 * levels * (len(rv) - 1) + len(rv) * len(steps)
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
    creator with the simplex that kills it.  The complex is the prefix of
    the persistence index's filtration at the grid scale at or below r,
    shared by every measurement.

    The bars are read from the persistence index's sweep of m (see
    _Grades.slices and _Grades._sweep), which computes the barcode at
    every grid scale at once, in m's integer numerators, the first time
    any scale is asked for; births and deaths are read as m's values only
    here.  The scale is placed on the grid first, so a bad scale builds
    nothing."""
    _check_degree_and_prime(degree, p)
    m = dataset.find(m)
    grades = _grades(dataset)
    i = grades.scale_index(r)
    value = dict(zip(grades.numerators[m], m.values))  # a bar's ends are values of m
    return [(value[b], INF if d == INF else value[d]) for b, d in grades.slices(m, degree, p)[i]]


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
    """Exact bottleneck distance between two interval lists, as a Fraction
    (or INF); infinite-death bars must match each other by birth.  The ends
    may be ints, such as a data set's numerators, or Fractions.

    The distance is the least candidate eps at which every bar is matched
    within eps.  The candidates are ranked doubled, so that integer ends
    stay integers: twice the cost of a pair, a bar's length (twice the
    distance to the diagonal) and twice inf_gap; the least feasible one is
    halved once, as a Fraction.  Two shortcuts return exactly what the full
    search would: equal diagrams (compared as sorted lists) are at distance
    0, and the infinite bars are matched in sorted order of birth, so they
    fit iff eps >= inf_gap = max |a_i - b_i| over the two sorted birth lists
    (0 without infinite bars).  That matching is optimal because on a line
    two crossed pairs can be uncrossed without raising the larger of their
    two gaps.  So the candidates are inf_gap and those of the finite bars
    above it, and only the finite bars go through Kuhn's matching.
    """
    if sorted(bars_a) == sorted(bars_b):
        return Fraction(0)
    fin_a = [b for b in bars_a if b[1] != INF]
    fin_b = [b for b in bars_b if b[1] != INF]
    inf_a = sorted(b[0] for b in bars_a if b[1] == INF)
    inf_b = sorted(b[0] for b in bars_b if b[1] == INF)
    if len(inf_a) != len(inf_b):
        return INF
    inf_gap = 2 * max((abs(x - y) for x, y in zip(inf_a, inf_b)), default=0)
    # twice the cost of each pair of finite bars, and twice each bar's distance to the diagonal
    costs = [[2 * max(abs(x[0] - y[0]), abs(x[1] - y[1])) for y in fin_b] for x in fin_a]
    lengths_a = [d - b for b, d in fin_a]
    lengths_b = [d - b for b, d in fin_b]
    candidates = {inf_gap, *lengths_a, *lengths_b}
    for row in costs:
        candidates.update(row)

    na, nb = len(fin_a), len(fin_b)

    def feasible(eps):
        # finite bars: left = fin_a + proxies of fin_b, right = fin_b + proxies of fin_a
        edges = {}
        for i, row in enumerate(costs):
            opts = [j for j, c in enumerate(row) if c <= eps]
            if lengths_a[i] <= eps:
                opts.append(nb + i)  # own diagonal slot
            edges[i] = opts
        for jj in range(nb):
            opts = [jj] if lengths_b[jj] <= eps else []
            opts.extend(range(nb, nb + na))  # proxy-to-proxy is free
            edges[na + jj] = opts
        return _perfect_matching(na + nb, edges)

    for eps in sorted(c for c in candidates if c >= inf_gap):
        if feasible(eps):
            return Fraction(eps, 2)
    return INF


def bottleneck_lower(dataset: DataSet, phi: Measurement, psi: Measurement, degree: int, p: int):
    """Largest per-scale bottleneck distance between the level-direction
    barcodes; a certified lower bound for the interleaving distance.

    Each measurement's barcodes at every scale come from one sweep, kept in
    the data set's persistence index (_Grades.slices) and computed only the
    first time any pair or slice_barcode asks for them.  The two sweeps are
    matched in integer numerators, only at the scales where either barcode
    differs from the scale before, and the largest distance is divided by
    the data set's denominator once."""
    _check_degree_and_prime(degree, p)
    grades = _grades(dataset)
    phi, psi = dataset.find(phi), dataset.find(psi)
    best, last = Fraction(0), None
    for bars in zip(grades.slices(phi, degree, p), grades.slices(psi, degree, p)):
        if bars != last:  # else the distance is the last scale's
            d = bottleneck_distance(*bars)
            if d == INF:
                return INF
            best, last = max(best, d), bars
    return best / grades.denominator


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
    direct = _persistence(PHEvaluator(dataset, p), phi, degree, bp.grid, supers)
    return direct.to_json_dict() == bp.to_json_dict()
