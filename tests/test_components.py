"""Degree 0 by components and the H_1 = 0 test, against the kernel-basis
oracle: homology spaces, their coordinates and matrices, slice barcodes
paired by the elder rule, and the refusals of the public homology()."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enriched_ph.persistence as persistence
from enriched_ph import (
    DataSet,
    Domain,
    PHEvaluator,
    SimplicialComplex,
    SimplicialMapError,
    homology,
    induced_map,
    level_grid,
    scale_grid,
    slice_barcode,
    vr_complex,
)
from enriched_ph.linalg import _components
from enriched_ph.persistence import INF, _check_nested, _grade, _grades, _sublevels
from conftest import HALF_LATTICE, OracleHomologySpace, oracle_slice_barcode

F = Fraction


@st.composite
def complexes(draw, cap):
    """A complex on 0-6 points, closed under faces up to cap: any edges, and
    any higher simplices whose faces are all present, each level listed in
    a shuffled order, the vertices too."""
    points = [f"v{i}" for i in range(draw(st.integers(0, 6)))]
    simplices = {}
    present = set()
    for k in range(cap + 1):
        candidates = [
            c for c in itertools.combinations(points, k + 1)
            if k == 0 or all(c[:i] + c[i + 1 :] in present for i in range(k + 1))
        ]
        level = [c for c in candidates if k == 0 or draw(st.booleans())]
        if level:
            simplices[k] = draw(st.permutations(level))
            present.update(level)
    return SimplicialComplex(points, simplices, cap)


def boundary(cx, simplex, p):
    return {cx.index_of(simplex[:i] + simplex[i + 1 :]): (-1) ** i % p for i in range(len(simplex))}


def outcome(space, chain):
    try:
        return space.coords_of(chain)
    except ValueError as exc:
        return str(exc)


def test_components_root_each_component_at_its_oldest_vertex():
    roots, kills = _components(6, [(4, 5), (2, 5), (1, 3), (3, 4), (1, 2), (0, 0)])
    assert roots == [0, 1, 1, 1, 1, 1]
    # (2, 5) joins 2 to the component of 5, rooted at 4, and kills 4; (3, 4) joins the roots 1 and 2
    assert kills == [5, 4, 3, 2, -1, -1]
    assert _components(0, []) == ([], [])


# ---------------------------------------------------------------------------
# degree 0


@settings(max_examples=200, deadline=None, database=None)
@given(complexes(1), st.sampled_from([2, 3]), st.data())
def test_degree_0_spaces_equal_the_kernel_basis_oracle(cx, p, data):
    space, want = homology(cx, 0, p), OracleHomologySpace(cx, 0, p)
    assert (space.dim, space.representatives) == (want.dim, want.representatives)
    n = len(cx.dim_simplices(0))
    if n:
        chain = st.dictionaries(st.integers(0, n - 1), st.integers(-7, 7), max_size=n)
        for z in data.draw(st.lists(chain, min_size=1, max_size=4)):
            assert space.coords_of(z) == want.coords_of(z)
    assert space.coords_of({}) == want.coords_of({}) == (0,) * want.dim


@settings(max_examples=150, deadline=None, database=None)
@given(complexes(2), st.sampled_from([0, 1]), st.sampled_from([2, 3]), st.data())
def test_vertex_map_matrices_equal_those_of_the_kernel_basis_oracle(src, degree, p, data):
    # the target holds the source and the image of each of its simplices, so both the
    # map and the inclusion are simplicial
    points = src.points
    if not points:
        return
    f = {v: data.draw(st.sampled_from(points)) for v in points}
    dst_simplices = {k: list(level) for k, level in src.simplices.items()}
    for k, level in src.simplices.items():
        for s in level:
            image = src.sort_vertices(set(f[v] for v in s))
            if image not in dst_simplices[len(image) - 1]:
                dst_simplices[len(image) - 1].append(image)
    dst = SimplicialComplex(points, dst_simplices, src.dim_cap)
    space, target = homology(src, degree, p), homology(dst, degree, p)
    want, want_target = OracleHomologySpace(src, degree, p), OracleHomologySpace(dst, degree, p)
    for vmap in (f, {v: v for v in points}):
        assert induced_map(space, target, vmap) == induced_map(want, want_target, vmap)


def test_degree_0_of_the_empty_complex_and_isolated_vertices():
    empty = SimplicialComplex((), {}, 1)
    space = homology(empty, 0, 2)
    assert (space.dim, space.representatives, space.coords_of({})) == (0, (), ())
    isolated = SimplicialComplex("cab", {0: [("a",), ("c",), ("b",)]}, 1)
    space = homology(isolated, 0, 3)
    assert space.representatives == ({0: 1}, {1: 1}, {2: 1})
    assert space.coords_of({0: 4, 2: -1}) == (1, 0, 2)
    with pytest.raises(ValueError, match="not a cycle"):
        space.coords_of({3: 1})


# ---------------------------------------------------------------------------
# degree 1


@settings(max_examples=200, deadline=None, database=None)
@given(complexes(2), st.sampled_from([2, 3]), st.data())
def test_degree_1_spaces_equal_the_kernel_basis_oracle(cx, p, data):
    space, want = homology(cx, 1, p), OracleHomologySpace(cx, 1, p)
    assert (space.dim, space.representatives) == (want.dim, want.representatives)
    edges, triangles = len(cx.dim_simplices(1)), cx.dim_simplices(2)
    if not edges:
        return
    # a cycle: a combination of the representatives plus a boundary
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=space.dim, max_size=space.dim))
    cycle = {}
    for c, rep in zip(coeffs, space.representatives):
        for j, v in rep.items():
            cycle[j] = cycle.get(j, 0) + c * v
    filled = data.draw(st.lists(st.sampled_from(triangles), max_size=3)) if triangles else []
    for t in filled:
        for j, v in boundary(cx, t, p).items():
            cycle[j] = cycle.get(j, 0) + v
    assert space.coords_of(cycle) == want.coords_of(cycle) == tuple(coeffs)
    # any 1-chain: the same class, or the same refusal
    chain = data.draw(st.dictionaries(st.integers(0, edges - 1), st.integers(-3, 3), max_size=edges))
    assert outcome(space, chain) == outcome(want, chain)
    with pytest.raises(ValueError, match="not a cycle"):
        space.coords_of({0: 1})


FILLED = {0: [("a",), ("b",), ("c",)], 1: [("a", "b"), ("a", "c"), ("b", "c")], 2: [("a", "b", "c")]}
HOLLOW = {0: FILLED[0], 1: FILLED[1]}
PATH = {0: FILLED[0], 1: [("a", "b"), ("b", "c")]}


@pytest.mark.parametrize("simplices, dim", [(FILLED, 0), (PATH, 0), (HOLLOW, 1)])
@pytest.mark.parametrize("p", [2, 3])
def test_degree_1_builds_a_kernel_basis_exactly_when_h1_is_not_zero(monkeypatch, simplices, dim, p):
    calls = []
    real = persistence.kernel_basis
    monkeypatch.setattr(persistence, "kernel_basis", lambda cols, q: calls.append(q) or real(cols, q))
    cx = SimplicialComplex("abc", simplices, 2)
    space = homology(cx, 1, p)
    assert (space.dim, len(calls)) == (dim, dim)
    assert space.representatives == OracleHomologySpace(cx, 1, p).representatives
    # the stored boundaries still tell cycles from other chains
    with pytest.raises(ValueError, match="not a cycle"):
        space.coords_of({0: 1})
    assert space.coords_of({}) == (0,) * dim
    if simplices is FILLED:
        assert space.coords_of(boundary(cx, ("a", "b", "c"), p)) == ()


# ---------------------------------------------------------------------------
# inclusions between complexes cut from the filtration


@st.composite
def datasets(draw, values, max_points=6):
    """(data set, measurement, p): 1-max_points points, 1-3 measurements."""
    n = draw(st.integers(1, max_points))
    vector = st.tuples(*[st.sampled_from(values)] * n)
    vecs = draw(st.lists(vector, min_size=1, max_size=3, unique=True))
    ds = DataSet(Domain([f"x{i}" for i in range(1, n + 1)]), [(f"f{i}", v) for i, v in enumerate(vecs)])
    return ds, draw(st.sampled_from(list(ds))), draw(st.sampled_from([2, 3]))


@settings(max_examples=60, deadline=None, database=None)
@given(datasets(HALF_LATTICE), st.sampled_from([0, 1]))
def test_inclusion_matrices_equal_those_of_the_kernel_basis_oracle(case, degree):
    ds, m, p = case
    ev = PHEvaluator(ds, p)
    rv = scale_grid(ds)
    subs = _sublevels(ds.domain.points, m.values, level_grid([m]))
    for small, big in [*zip(subs, subs[1:]), (subs[1], subs[-1])]:
        for r, bigger in zip(rv, [*rv[1:], rv[-1]]):
            a, b = ev.homology(small, r, degree), ev.homology(big, bigger, degree)
            want = induced_map(OracleHomologySpace(a.complex, degree, p), OracleHomologySpace(b.complex, degree, p), None)
            assert ev._map(a, b) == want


def test_nesting_of_cut_complexes_compares_scales(fixture_a):
    both = fixture_a["both"]
    # the whole domain's row: every grid index is a distance among its points
    row = PHEvaluator(both, 2)._row(both.domain.points, 1)
    low, high = row[1].complex, row[2].complex
    assert (low.scale, high.scale) == (F(1), F(2))
    _check_nested(low, high)
    with pytest.raises(SimplicialMapError, match="a larger scale") as info:
        _check_nested(high, low)
    assert _grade(high) in str(info.value) and _grade(low) in str(info.value)
    # a complex from vr_complex is compared with a row's by scale too
    plain = vr_complex(both.domain.points, both.pseudometric().at, F(2), 2)
    with pytest.raises(SimplicialMapError, match="a larger scale"):
        _check_nested(plain, low)
    _check_nested(plain, high)


# ---------------------------------------------------------------------------
# slice barcodes


@settings(max_examples=80, deadline=None, database=None)
@given(datasets([F(0), F(1, 2), F(1)]), st.sampled_from([0, 1, 2]))
def test_slice_barcode_with_tied_values_equals_the_oracle(case, degree):
    # three values, so many simplices enter at one level and many distances tie
    ds, m, p = case
    for r in scale_grid(ds):
        assert slice_barcode(ds, m, degree, p, r) == oracle_slice_barcode(ds, m, degree, p, r)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(datasets([F(0), F(1, 2), F(1)]), datasets(HALF_LATTICE, max_points=5)), st.sampled_from([0, 1, 2, 3]))
def test_each_sweep_entry_equals_the_oracle_in_integer_codes(case, degree):
    # one sweep per measurement gives every scale's barcode, in numerators over the denominator
    ds, m, p = case
    grades = _grades(ds)
    with pytest.raises(ValueError, match="scale parameter must be nonnegative"):
        slice_barcode(ds, m, degree, p, F(-1, 2))
    assert grades.barcodes == {}  # a refused scale sweeps nothing
    sweep, den = grades.slices(m, degree, p), grades.denominator
    assert grades.slices(m, degree, p) is sweep and len(sweep) == len(scale_grid(ds))
    for bars, r in zip(sweep, scale_grid(ds)):
        assert all(type(b) is int and (d is INF or type(d) is int) for b, d in bars)
        assert [(F(b, den), INF if d is INF else F(d, den)) for b, d in bars] == oracle_slice_barcode(ds, m, degree, p, r)


def test_slice_barcode_kills_the_younger_component():
    # at scale 2 the edges are a-b and b-c: a enters at 0, c at 1, and b at 2 with both
    # edges; b-c joins c to a's component and kills c, the younger root
    ds = DataSet(Domain(["a", "b", "c"]), [("f", ["0", "2", "1"]), ("g", ["0", "2", "4"])])
    assert slice_barcode(ds, ds.by_name("f"), 0, 2, F(2)) == [(F(0), INF), (F(1), F(2))]


# ---------------------------------------------------------------------------
# the public homology()


@pytest.mark.parametrize("degree, p", [(-1, 2), (0, 4), (0, 0), (0, 1), (1, 561), (-2, 0)])
def test_homology_refuses_a_negative_degree_and_a_modulus_that_is_not_prime(degree, p):
    cx = SimplicialComplex("ab", {0: [("a",), ("b",)], 1: [("a", "b")]}, 2)
    with pytest.raises(ValueError, match="is negative" if degree < 0 else "is not prime"):
        homology(cx, degree, p)
