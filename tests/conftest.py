"""Shared fixtures, random instance generators, and independent oracles."""

import collections
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from enriched_ph import DataSet, Domain, Incarnation, PointMap, VerificationError
from enriched_ph.core import _name, format_rational, parse_rational, sup_distance
from enriched_ph.linalg import ColumnSolver, ModMatrix, kernel_basis
from enriched_ph.persistence import (
    INF,
    InterleavingResult,
    PHEvaluator,
    chain_image,
    level_grid,
    scale_grid,
    sublevel,
    verify_simplicial,
    vr_complex,
)

HALF_LATTICE = [Fraction(k, 2) for k in range(-6, 7)]


# ---------------------------------------------------------------------------
# reference fixtures


@pytest.fixture
def fixture_a():
    dom = Domain(["x1", "x2", "x3", "x4"])
    phi = ("phi", ["-1", "0", "0", "1"])
    psi = ("psi", ["0", "1", "-1", "0"])
    return {
        "domain": dom,
        "phi_only": DataSet(dom, [phi]),
        "both": DataSet(dom, [phi, psi]),
    }


@pytest.fixture
def fixture_b():
    dom = Domain(["x1", "x2", "x3"])
    ds = DataSet(dom, [("phi1", [2, 2, 3]), ("phi2", [2, 2, 2]), ("phi3", [1, 2, 2])])
    ops = {
        "id": PointMap.identity(dom),
        "g1": PointMap(dom, dom, {"x1": "x2", "x2": "x2", "x3": "x3"}, ("g1",)),
        "g2": PointMap(dom, dom, {"x1": "x2", "x2": "x2", "x3": "x2"}, ("g2",)),
        "g3": PointMap(dom, dom, {"x1": "x1", "x2": "x2", "x3": "x2"}, ("g3",)),
    }
    inc = Incarnation(ds, ops.values())
    return {"domain": dom, "dataset": ds, "ops": ops, "incarnation": inc}


@pytest.fixture
def fixture_c():
    dom = Domain(["x1", "x2"])
    left = DataSet(dom, [("one", [1, 1]), ("two", [2, 2])])
    right = DataSet(dom, [("neg", [-1, -1]), ("pos", [1, 1])])
    alpha = {left.by_name("one"): right.by_name("neg"), left.by_name("two"): right.by_name("pos")}
    return {"domain": dom, "left": left, "right": right, "alpha": alpha}


# ---------------------------------------------------------------------------
# checks that must hold without asserts


def run_under_python_O(script: str) -> str:
    """The standard output of a script run by python -O on this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# ---------------------------------------------------------------------------
# random instances


def random_dataset(rng: random.Random, max_points=6, max_meas=4, min_points=2, min_meas=1) -> DataSet:
    n = rng.randint(min_points, max_points)
    dom = Domain([f"x{i}" for i in range(1, n + 1)])
    k = rng.randint(min_meas, max_meas)
    vecs = set()
    while len(vecs) < k:
        vecs.add(tuple(rng.choice(HALF_LATTICE) for _ in range(n)))
    return DataSet(dom, [(f"f{i}", v) for i, v in enumerate(sorted(vecs))])


def random_point_map(rng: random.Random, src: Domain, tgt: Domain) -> PointMap:
    return PointMap(src, tgt, {p: rng.choice(tgt.points) for p in src})


def random_incarnation(rng: random.Random, max_points=4, max_ops=3, max_meas=8) -> Incarnation:
    """Data set closed under a few random endomorphisms, which then act on it."""
    while True:
        n = rng.randint(2, max_points)
        dom = Domain([f"x{i}" for i in range(1, n + 1)])
        ops = [random_point_map(rng, dom, dom) for _ in range(rng.randint(0, max_ops))]
        if rng.random() < 0.4:
            ops.append(PointMap.identity(dom))
        seeds = {
            tuple(rng.choice(HALF_LATTICE) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        }
        meas = set(seeds)
        frontier = list(seeds)
        while frontier and len(meas) <= max_meas:
            cur = frontier.pop()
            for g in ops:
                img = tuple(cur[dom.index(g(p))] for p in dom.points)
                if img not in meas:
                    meas.add(img)
                    frontier.append(img)
        if len(meas) > max_meas:
            continue
        ds = DataSet(dom, [(None, v) for v in sorted(meas)])
        return Incarnation(ds, ops)


def random_permutation(rng: random.Random, dom: Domain) -> PointMap:
    images = list(dom.points)
    rng.shuffle(images)
    return PointMap(dom, dom, dict(zip(dom.points, images)))


def cyclic_group(g: PointMap) -> list:
    """Powers of a bijection, as a list starting at the identity."""
    out = [PointMap.identity(g.source)]
    cur = g
    while cur != out[0]:
        out.append(cur)
        cur = g * cur
    return out


def random_transitive_group_incarnation(rng: random.Random, max_points=5):
    """Orbit of one measurement under a cyclic permutation group."""
    while True:
        n = rng.randint(2, max_points)
        dom = Domain([f"x{i}" for i in range(1, n + 1)])
        group = cyclic_group(random_permutation(rng, dom))
        seed = tuple(rng.choice(HALF_LATTICE) for _ in range(n))
        orbit = set()
        for g in group:
            orbit.add(tuple(seed[dom.index(g(p))] for p in dom.points))
        ds = DataSet(dom, [(None, v) for v in sorted(orbit)])
        inc = Incarnation(ds, group)
        if inc.kind == "group":
            return inc


# ---------------------------------------------------------------------------
# encoding oracle: a data set read with Fractions only


def oracle_reading(points, measurements) -> dict:
    """What a data set of (name, values) pairs holds, read with Fractions
    only: the value vectors deduplicated as Fraction tuples and named by
    _name in their sorted order, and the pseudometric as the largest
    difference of Fractions, with its scale grid."""
    found = [(tuple(map(parse_rational, vals)), (name,) if name else ()) for name, vals in measurements]
    named = _name(found, "m", "value vectors")
    vecs, n = [vals for vals, _ in named], len(points)
    rows = tuple(
        tuple(max((abs(v[i] - v[j]) for v in vecs), default=Fraction(0)) for j in range(n)) for i in range(n)
    )
    return {
        "names": tuple(aliases[0] for _, aliases in named),
        "values": tuple(vecs),
        "rows": rows,
        "scales": tuple(sorted({Fraction(0), *(d for row in rows for d in row)})),
    }


# ---------------------------------------------------------------------------
# brute-force operation oracles: every map or permutation, PointMap products


def _is_operation_by_values(g: PointMap, ds: DataSet) -> bool:
    vals = {m.values for m in ds}
    return all(tuple(m.at(g(p)) for p in ds.domain) in vals for m in ds)


def oracle_end(ds: DataSet) -> list:
    """Every operation among all |X|^|X| maps, in lexicographic order of point indices."""
    pts = ds.domain.points
    maps = (
        PointMap(ds.domain, ds.domain, dict(zip(pts, images)))
        for images in itertools.product(pts, repeat=len(pts))
    )
    return [g for g in maps if _is_operation_by_values(g, ds)]


def oracle_aut(ds: DataSet) -> list:
    """Every operation among all permutations, sorted by image tuple (point names)."""
    pts = ds.domain.points
    maps = (
        PointMap(ds.domain, ds.domain, dict(zip(pts, images)))
        for images in itertools.permutations(pts)
    )
    return sorted((g for g in maps if _is_operation_by_values(g, ds)), key=lambda g: g.image_tuple())


def oracle_kind(ops, domain: Domain) -> str:
    """Incarnation kind from all pairwise PointMap products."""
    ops = set(ops)
    has_id = PointMap.identity(domain) in ops
    closed = all(g * h in ops for g in ops for h in ops)
    all_bij = all(g.is_bijective for g in ops)
    if has_id and closed:
        assert not all_bij or all(g.inverse() in ops for g in ops)
        return "group" if all_bij else "monoid"
    return "group-like" if all_bij else "general"


# ---------------------------------------------------------------------------
# action oracle: every composite phi . g built afresh by Measurement.compose


def oracle_edges(inc: Incarnation) -> list:
    """The edges (phi, g, phi . g) in build_graph's order, each image composed
    and looked up anew."""
    return [(m, g, inc.dataset.find(m.compose(g))) for m in inc.dataset for g in inc.ops]


def oracle_reach(inc: Incarnation) -> dict:
    """Each measurement's reachable set, by breadth-first search over oracle_edges."""
    step = {m: [] for m in inc.dataset}
    for a, _, b in oracle_edges(inc):
        step[a].append(b)
    out = {}
    for m in inc.dataset:
        seen, queue = {m}, collections.deque([m])
        while queue:
            for b in step[queue.popleft()]:
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        out[m] = frozenset(seen)
    return out


# ---------------------------------------------------------------------------
# independent homology oracle: full boundary matrices, simple row reduction


def oracle_rank(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c] % p, p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _axpy(acc: dict, f: int, col: dict, p: int) -> None:
    for i, v in col.items():
        nv = (acc.get(i, 0) + f * v) % p
        if nv:
            acc[i] = nv
        else:
            del acc[i]


class HistorySolver:
    """Column reduction that stores, beside each reduced column, the whole
    combination of added columns that produced it: the oracle for the tags
    that ColumnSolver carries instead."""

    def __init__(self, p: int):
        self.p = p
        self.pivots = {}  # pivot row -> number of the stored column
        self._stored = {}  # column number -> (reduced column, combination of added columns)
        self.n_added = 0

    def _reduce(self, col):
        """(residue, combo) with residue = col + sum(combo[k] * column k)."""
        p = self.p
        col = {i: v % p for i, v in col.items() if v % p}
        combo = {}
        while col:
            low = max(col)
            j = self.pivots.get(low)
            if j is None:
                break
            reduced, history = self._stored[j]
            f = p - col[low]
            _axpy(col, f, reduced, p)
            _axpy(combo, f, history, p)
        return col, combo

    def add(self, col):
        """None if col is stored; else a vanishing combination of added
        columns, 1 at col's own number."""
        col, combo = self._reduce(col)
        idx = self.n_added
        self.n_added += 1
        combo[idx] = 1
        if not col:
            return combo
        low = max(col)
        inv = pow(col[low], self.p - 2, self.p)
        self.pivots[low] = idx
        self._stored[idx] = (
            {i: v * inv % self.p for i, v in col.items()},
            {k: v * inv % self.p for k, v in combo.items()},
        )
        return None

    def coords(self, col):
        """Coefficients over the stored columns reproducing col, or None."""
        col, combo = self._reduce(col)
        if col:
            return None
        return {k: self.p - v for k, v in combo.items()}


def oracle_homology_dim(vertices, dist, r, d: int, p: int) -> int:
    """dim H_d of the Vietoris-Rips complex, built from scratch."""
    verts = list(vertices)

    def level(k):
        return [
            c
            for c in itertools.combinations(verts, k + 1)
            if all(dist(a, b) <= r for a, b in itertools.combinations(c, 2))
        ]

    s_low = level(d - 1) if d > 0 else []
    s_mid = level(d)
    s_high = level(d + 1)
    if not s_mid:
        return 0
    idx_low = {s: i for i, s in enumerate(s_low)}
    idx_mid = {s: i for i, s in enumerate(s_mid)}
    bd = [[0] * len(s_mid) for _ in s_low]
    for j, s in enumerate(s_mid):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face:
                bd[idx_low[face]][j] = (-1) ** i % p
    bd_up = [[0] * len(s_high) for _ in s_mid]
    for j, s in enumerate(s_high):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            bd_up[idx_mid[face]][j] = (-1) ** i % p
    rank_down = oracle_rank(bd, p) if s_low else 0
    rank_up = oracle_rank(bd_up, p) if s_high else 0
    return len(s_mid) - rank_down - rank_up


class OracleHomologySpace:
    """A homology space built the same way in every degree: the boundaries
    of the degree-(d + 1) simplices go into a ColumnSolver, then each vector
    of kernel_basis of d_d that stays independent of them and of the earlier
    ones becomes a representative.  The oracle for HomologySpace's degree 0
    by components and its H_1 = 0 test; induced_map reads it as it reads a
    HomologySpace."""

    def __init__(self, cx, degree: int, p: int):
        self.complex, self.degree, self.p = cx, degree, p
        faces, cells = cx._index.get(degree - 1, {}), cx._index.get(degree, {})

        def boundary(simplex, index):
            if len(simplex) == 1:
                return {}
            return {index[simplex[:i] + simplex[i + 1 :]]: (-1) ** i % p for i in range(len(simplex))}

        self._solver = ColumnSolver(p)
        reps = []
        for simplex in cx.dim_simplices(degree + 1):
            self._solver.add(boundary(simplex, cells))
        for z in kernel_basis([boundary(s, faces) for s in cx.dim_simplices(degree)], p):
            if self._solver.add(z, -1 - len(reps)) is None:
                reps.append(z)
        self.dim = len(reps)
        self.representatives = tuple(reps)

    def coords_of(self, chain) -> tuple:
        combo = self._solver.coords(chain)
        if combo is None:
            raise ValueError("chain is not a cycle modulo the stored boundaries")
        return tuple(combo.get(-1 - k, 0) for k in range(self.dim))


def oracle_matching(left_count: int, adjacency) -> bool:
    """Perfect matching by brute augmenting paths, independent of the library."""
    match = {}

    def augment(u, seen):
        for v in adjacency.get(u, ()):
            if v in seen:
                continue
            seen.add(v)
            if v not in match or augment(match[v], seen):
                match[v] = u
                return True
        return False

    return all(augment(u, set()) for u in range(left_count))


# ---------------------------------------------------------------------------
# inclusion oracle: the inclusion as a vertex map, walked simplex by simplex


def oracle_vertex_map(src_space, dst_space, vmap) -> ModMatrix:
    """The matrix of a vertex map, through verify_simplicial and chain_image,
    with coords_of on every representative whatever the dimensions."""
    src, dst = src_space.complex, dst_space.complex
    verify_simplicial(src, dst, vmap)
    k, p = src_space.degree, src_space.p
    cols = [dst_space.coords_of(chain_image(src, dst, vmap, rep, k, p)) for rep in src_space.representatives]
    return ModMatrix.from_columns(cols, dst_space.dim, p)


def oracle_inclusion_map(src_space, dst_space) -> ModMatrix:
    """The matrix of the inclusion of src_space's complex into dst_space's:
    the identity vertex map, walked simplex by simplex."""
    return oracle_vertex_map(src_space, dst_space, {v: v for v in src_space.complex.points})


# ---------------------------------------------------------------------------
# interleaving oracle: every map looked up by (vertices, scale) pairs


def oracle_interleave_upper(dataset: DataSet, phi, psi, degree: int, p: int, evaluator=None) -> InterleavingResult:
    """The sublevel-inclusion certificate of interleave_upper, walked by
    sublevel and scale values through PHEvaluator.inclusion_matrix."""
    phi, psi = dataset.find(phi), dataset.find(psi)
    ev = evaluator if evaluator is not None else PHEvaluator(dataset, p)
    eps = sup_distance(phi, psi)
    rv = scale_grid(dataset)
    sv = tuple(sorted(set(level_grid([phi])) | set(level_grid([psi]))))
    triangles = squares = 0
    seen = set()

    def incl(sub_a, r_a, sub_b, r_b):
        return ev.inclusion_matrix(sub_a, r_a, sub_b, r_b, degree)

    def nested(*pairs):
        for small, big in pairs:
            if not set(small) <= set(big):
                raise VerificationError((small, big), f"sublevel {small!r} is not inside {big!r}")

    for s in sv:
        for a, b in ((phi, psi), (psi, phi)):
            A0, B1, A2 = sublevel(a, s), sublevel(b, s + eps), sublevel(a, s + 2 * eps)
            key = (frozenset(A0), frozenset(B1), frozenset(A2), a is phi)
            if key not in seen:
                seen.add(key)
                nested((A0, B1), (B1, A2))
                for r in rv:
                    if incl(B1, r, A2, r) @ incl(A0, r, B1, r) != incl(A0, r, A2, r):
                        raise VerificationError((A0, B1, A2, r), "interleaving triangle does not commute")
                    triangles += 1
            for r0, r1 in zip(rv, rv[1:]):
                if incl(B1, r0, B1, r1) @ incl(A0, r0, B1, r0) != incl(A0, r1, B1, r1) @ incl(A0, r0, A0, r1):
                    raise VerificationError((A0, B1, r0, r1), "shift maps not natural in the scale direction")
                squares += 1
    for s0, s1 in zip(sv, sv[1:]):
        for a, b in ((phi, psi), (psi, phi)):
            A0, A1 = sublevel(a, s0), sublevel(a, s1)
            B0, B1 = sublevel(b, s0 + eps), sublevel(b, s1 + eps)
            key = (frozenset(A0), frozenset(A1), frozenset(B0), frozenset(B1), a is phi)
            if key in seen:
                continue
            seen.add(key)
            nested((B0, B1), (A0, B0), (A1, B1), (A0, A1))
            for r in rv:
                if incl(B0, r, B1, r) @ incl(A0, r, B0, r) != incl(A1, r, B1, r) @ incl(A0, r, A1, r):
                    raise VerificationError((A0, A1, B0, B1, r), "shift maps not natural in the level direction")
                squares += 1
    return InterleavingResult(
        upper=eps,
        certificate={"triangles": triangles, "squares": squares, "epsilon": format_rational(eps)},
    )


# ---------------------------------------------------------------------------
# bottleneck oracles: every candidate tried in order, Kuhn's matching for
# infinite and finite bars alike, and nothing shared between calls


def oracle_bottleneck_distance(bars_a, bars_b):
    """The least candidate eps at which a perfect matching of all bars exists."""
    fin_a = [b for b in bars_a if b[1] != INF]
    fin_b = [b for b in bars_b if b[1] != INF]
    inf_a = sorted(b[0] for b in bars_a if b[1] == INF)
    inf_b = sorted(b[0] for b in bars_b if b[1] == INF)
    if len(inf_a) != len(inf_b):
        return INF

    def cost(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    halves_a = [(d - b) / 2 for b, d in fin_a]
    halves_b = [(d - b) / 2 for b, d in fin_b]
    candidates = {Fraction(0)}
    candidates.update(abs(x - y) for x, y in itertools.product(inf_a, inf_b))
    candidates.update(cost(x, y) for x, y in itertools.product(fin_a, fin_b))
    candidates.update(halves_a)
    candidates.update(halves_b)
    na, nb = len(fin_a), len(fin_b)

    def feasible(eps):
        edges = {
            i: [j for j, y in enumerate(inf_b) if abs(inf_a[i] - y) <= eps]
            for i in range(len(inf_a))
        }
        if not oracle_matching(len(inf_a), edges):
            return False
        edges = {}
        for i, x in enumerate(fin_a):
            opts = [j for j, y in enumerate(fin_b) if cost(x, y) <= eps]
            if halves_a[i] <= eps:
                opts.append(nb + i)
            edges[i] = opts
        for jj in range(nb):
            opts = [jj] if halves_b[jj] <= eps else []
            opts.extend(range(nb, nb + na))
            edges[na + jj] = opts
        return oracle_matching(na + nb, edges)

    for eps in sorted(candidates):
        if feasible(eps):
            return eps
    return INF


def oracle_slice_barcode(dataset: DataSet, m, degree: int, p: int, r) -> list:
    """The level-direction barcode at scale r, keyed by Fraction values: a
    fresh VR complex at r, its simplices sorted by (highest value, dimension,
    simplex), and HistorySolver's column reduction of the filtered boundary
    matrix pairing each creator with its killer."""
    m = dataset.find(m)
    cx = vr_complex(dataset.domain.points, dataset.pseudometric().at, r, degree + 1)
    simplices = sorted(
        (max(m.at(v) for v in s), k, s) for k, level in cx.simplices.items() for s in level
    )
    pos = {s: j for j, (_, _, s) in enumerate(simplices)}
    solver = HistorySolver(p)
    for _, k, s in simplices:
        solver.add({pos[s[:i] + s[i + 1 :]]: (-1) ** i % p for i in range(len(s))} if k else {})
    killers = set(solver.pivots.values())
    bars = []
    for j, (birth, k, _) in enumerate(simplices):
        if k != degree or j in killers:
            continue
        death = simplices[solver.pivots[j]][0] if j in solver.pivots else INF
        if death != birth:
            bars.append((birth, death))
    return sorted(bars)


def oracle_bottleneck_lower(dataset: DataSet, phi, psi, degree: int, p: int):
    """The per-scale maximum of oracle_bottleneck_distance between
    oracle_slice_barcode's barcodes, so that nothing is shared with any
    other call."""
    best = Fraction(0)
    for r in sorted({Fraction(0), *dataset.pseudometric().distinct_values()}):
        d = oracle_bottleneck_distance(
            oracle_slice_barcode(dataset, phi, degree, p, r),
            oracle_slice_barcode(dataset, psi, degree, p, r),
        )
        if d == INF:
            return INF
        best = max(best, d)
    return best
