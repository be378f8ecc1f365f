import bisect
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriched_ph import (
    BigradedPersistence,
    DataSet,
    Domain,
    GridMap,
    Incarnation,
    InterleavingResult,
    PHEvaluator,
    PointMap,
    SimplicialComplex,
    SimplicialMapError,
    ValueMap,
    VerificationError,
    bottleneck_distance,
    bottleneck_lower,
    build_graph,
    change_units,
    compose_functor,
    critical_grid,
    domain_change,
    find_all_realizations,
    homology,
    induced_map,
    interleave_upper,
    interleaving_bounds,
    level_grid,
    ph_functor,
    ph_grid,
    ph_map,
    scale_grid,
    slice_barcode,
    sublevel,
    superlevel_duality_check,
    sup_distance,
    universal_incarnation,
    vr_complex,
)
from enriched_ph.persistence import (
    INF,
    ComponentMap,
    HomologySpace,
    _grade,
    _grades,
    _prefix,
    _sublevels,
    check_prime,
)
from enriched_ph.linalg import ModMatrix
from conftest import (
    HALF_LATTICE,
    oracle_bottleneck_distance,
    oracle_bottleneck_lower,
    oracle_homology_dim,
    oracle_inclusion_map,
    oracle_interleave_upper,
    oracle_slice_barcode,
    oracle_vertex_map,
    random_dataset,
    random_incarnation,
    run_under_python_O,
)

F = Fraction


# ---------------------------------------------------------------------------
# sublevel sets and complexes


def test_sublevel_fixture_a(fixture_a):
    phi = fixture_a["both"].by_name("phi")
    assert sublevel(phi, F(0)) == ("x1", "x2", "x3")
    assert sublevel(phi, F(-2)) == ()
    assert sublevel(phi, F(1)) == ("x1", "x2", "x3", "x4")


def test_vr_complex_four_cycle(fixture_a):
    metric = fixture_a["both"].pseudometric()
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
    assert len(cx.dim_simplices(0)) == 4
    assert set(cx.dim_simplices(1)) == {
        ("x1", "x2"), ("x1", "x3"), ("x2", "x4"), ("x3", "x4")
    }
    assert cx.dim_simplices(2) == ()


def test_vr_complex_zero_scale_zero_metric():
    dom = Domain(["a", "b", "c"])
    ds = DataSet(dom, [("c0", [1, 1, 1])])
    cx = vr_complex(dom.points, ds.pseudometric().at, F(0), 2)
    assert len(cx.dim_simplices(2)) == 1  # full simplex


def test_vr_complex_zero_scale_general(fixture_a):
    metric = fixture_a["phi_only"].pseudometric()
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(0), 2)
    assert cx.dim_simplices(1) == (("x2", "x3"),)


def test_vr_complex_rejects_negative_scale(fixture_a):
    metric = fixture_a["phi_only"].pseudometric()
    with pytest.raises(ValueError):
        vr_complex(fixture_a["domain"].points, metric.at, F(-1), 2)


@pytest.mark.parametrize("cap", [-1, -3])
def test_vr_complex_refuses_a_negative_dimension_cap(fixture_a, cap):
    metric = fixture_a["phi_only"].pseudometric()
    with pytest.raises(ValueError, match=f"dimension cap {cap} is negative"):
        vr_complex(fixture_a["domain"].points, metric.at, F(0), cap)


# ---------------------------------------------------------------------------
# homology


def test_four_cycle_has_one_loop(fixture_a):
    metric = fixture_a["both"].pseudometric()
    for p in (2, 3, 5):
        cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
        h = homology(cx, 1, p)
        assert h.dim == 1
        assert len(h.representatives) == 1


def test_full_simplex_no_loops():
    dom = Domain(["a", "b", "c", "d"])
    ds = DataSet(dom, [("c0", [0, 0, 0, 0])])
    cx = vr_complex(dom.points, ds.pseudometric().at, F(0), 2)
    assert homology(cx, 1, 2).dim == 0


def test_two_points_two_components():
    dom = Domain(["a", "b"])
    ds = DataSet(dom, [("f", [0, 5])])
    cx = vr_complex(dom.points, ds.pseudometric().at, F(1), 1)
    assert homology(cx, 0, 2).dim == 2


def test_homology_cap_too_low(fixture_a):
    metric = fixture_a["both"].pseudometric()
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 1)
    with pytest.raises(ValueError):
        homology(cx, 1, 2)


def test_homology_matches_oracle_random():
    rng = random.Random(61)
    for _ in range(25):
        ds = random_dataset(rng, max_points=5)
        metric = ds.pseudometric()
        rs = metric.distinct_values()
        r = rng.choice(rs)
        for d in (0, 1):
            cx = vr_complex(ds.domain.points, metric.at, r, d + 1)
            ours = homology(cx, d, 2).dim
            assert ours == oracle_homology_dim(ds.domain.points, metric.at, r, d, 2)


# ---------------------------------------------------------------------------
# induced maps


def test_induced_identity(fixture_a):
    metric = fixture_a["both"].pseudometric()
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
    h = homology(cx, 1, 2)
    m = induced_map(h, h, {v: v for v in cx.points})
    assert m.rows == ((1,),)


def test_cycle_dies_in_bigger_complex(fixture_a):
    metric = fixture_a["both"].pseudometric()
    small = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
    big = vr_complex(fixture_a["domain"].points, metric.at, F(2), 2)
    h1 = homology(small, 1, 2)
    h2 = homology(big, 1, 2)
    assert h2.dim == 0
    m = induced_map(h1, h2, {v: v for v in small.points})
    assert m.shape == (0, 1)


def test_collapsing_edge_maps_to_zero():
    dom = Domain(["a", "b"])
    ds = DataSet(dom, [("f", [0, 0])])
    cx = vr_complex(dom.points, ds.pseudometric().at, F(0), 2)
    from enriched_ph.persistence import chain_image

    edges = dict.fromkeys(range(len(cx.dim_simplices(1))), 1)
    assert chain_image(cx, cx, {"a": "a", "b": "a"}, edges, 1, 2) == {}


def test_reflection_reverses_the_square_cycle_at_p3(fixture_a):
    metric = fixture_a["both"].pseudometric()
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
    h = homology(cx, 1, 3)
    flip = {"x1": "x1", "x2": "x3", "x3": "x2", "x4": "x4"}
    turn = {"x1": "x2", "x2": "x4", "x3": "x1", "x4": "x3"}
    assert induced_map(h, h, flip).rows == ((2,),)
    assert induced_map(h, h, turn).rows == ((1,),)


# a square a-b-c-d with a filled roof a-b-e (H_1 of rank 1), and a solid
# tetrahedron a-b-c-d with a hollow one a-b-c-e on its face a-b-c (H_2 of rank 1)
HOUSE = {
    0: [(v,) for v in "abcde"],
    1: [("a", "b"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "e"), ("c", "d")],
    2: [("a", "b", "e")],
}
TWO_TETRAHEDRA = {
    0: [(v,) for v in "abcde"],
    1: [e for e in itertools.combinations("abcde", 2) if e != ("d", "e")],
    2: [t for t in itertools.combinations("abcde", 3) if not {"d", "e"} <= set(t)],
    3: [("a", "b", "c", "d")],
}


@pytest.mark.parametrize("simplices, degree, p", [(HOUSE, 1, 2), (TWO_TETRAHEDRA, 2, 3)])
def test_coords_of_gives_boundaries_zero_and_rejects_non_cycles(simplices, degree, p):
    cx = SimplicialComplex("abcde", simplices, degree + 1)
    space = homology(cx, degree, p)
    assert space.dim == 1

    def boundary(simplex):
        return {cx.index_of(simplex[:i] + simplex[i + 1 :]): (-1) ** i % p for i in range(len(simplex))}

    (top,) = cx.dim_simplices(degree + 1)
    assert space.coords_of(boundary(top)) == (0,)
    (rep,) = space.representatives
    assert space.coords_of(rep) == (1,)
    moved = dict(rep)
    for j, v in boundary(top).items():
        moved[j] = (moved.get(j, 0) + 2 * v) % p
    assert space.coords_of(moved) == (1,)
    assert space.coords_of({j: 2 * v for j, v in rep.items()}) == (2 % p,)
    with pytest.raises(ValueError, match="not a cycle"):
        space.coords_of({0: 1})


def _square_cycle():
    """The 4-cycle a-b-c-d: sides at distance 1, diagonals at distance 2."""
    diagonals = {frozenset("ac"), frozenset("bd")}
    return vr_complex("abcd", lambda x, y: F(0) if x == y else F(2 if {x, y} in diagonals else 1), F(1), 2)


@pytest.mark.parametrize("vmap", [None, {v: v for v in "abcd"}], ids=["inclusion", "vertex map"])
@pytest.mark.parametrize("src, dst", [((1, 2), (0, 2)), ((0, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (1, 2))])
def test_induced_map_refuses_ends_of_another_degree_or_modulus(src, dst, vmap):
    cx = _square_cycle()
    assert homology(cx, 1, 2).dim == homology(cx, 0, 2).dim == 1
    with pytest.raises(ValueError) as info:
        induced_map(homology(cx, *src), homology(cx, *dst), vmap)
    (d, p), (e, q) = src, dst
    assert str(info.value) == f"the source space is H_{d} over F_{p}, the target H_{e} over F_{q}"


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_coords_of_refuses_negative_simplex_numbers(d, p):
    # negative rows tag the representatives inside the solver, so no chain may name one
    space = homology(SimplicialComplex("abcde", HOUSE if d == 1 else TWO_TETRAHEDRA, d + 1), d, p)
    assert space.dim == 1
    for chain in ({-1: 1}, {-2: 1}, {**space.representatives[0], -1: 1}):
        with pytest.raises(ValueError, match="^chain is not a cycle modulo the stored boundaries$"):
            space.coords_of(chain)
    assert space.coords_of(space.representatives[0]) == (1,)


def test_non_simplicial_map_rejected(fixture_a):
    metric = fixture_a["both"].pseudometric()
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
    h = homology(cx, 1, 2)
    # x2 -> x2, x1 -> x4: the edge (x1, x2) would map to the non-edge (x2, x4)? it is an edge;
    # send x1 -> x4 and x3 -> x2 so the edge (x1, x3) maps to the diagonal (x4, x2)... still an edge.
    # use the genuinely missing diagonal (x1, x4): map x2 -> x4 sends edge (x1, x2) onto it.
    vmap = {"x1": "x1", "x2": "x4", "x3": "x3", "x4": "x4"}
    with pytest.raises(SimplicialMapError):
        induced_map(h, h, vmap)


def test_check_prime_agrees_with_trial_division():
    for n in range(-2, 5000):
        trial = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        try:
            accepted = check_prime(n) == n
        except ValueError:
            accepted = False
        assert accepted == trial, n
    # a Carmichael number, then the least strong pseudoprimes to the prime bases
    # up to 7, 37 and 41; the last is the bound, refused as too large
    for n in (561, 3215031751, 318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError):
            check_prime(n)
    assert check_prime(2**61 - 1) == 2**61 - 1 and check_prime(2**64 - 59) == 2**64 - 59


# ---------------------------------------------------------------------------
# grids


def test_critical_grid_fixture_a(fixture_a):
    grid = critical_grid(fixture_a["both"], fixture_a["both"].by_name("phi"))
    assert grid.r_values == (F(0), F(1), F(2))
    assert grid.s_values == (F(-2), F(-1), F(0), F(1))


def test_ph_grid_fixture_a_golden(fixture_a):
    phi0 = fixture_a["phi_only"]
    bp0 = ph_grid(phi0, phi0.by_name("phi"), 1, 2)
    assert all(v == 0 for row in bp0.dims() for v in row)

    both = fixture_a["both"]
    bp1 = ph_grid(both, both.by_name("phi"), 1, 2)
    expected = [
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
    assert bp1.dims() == expected


def test_ph_grid_single_point():
    dom = Domain(["a"])
    ds = DataSet(dom, [("f", [3])])
    bp = ph_grid(ds, ds.by_name("f"), 0, 2)
    assert bp.grid.s_values == (F(2), F(3))
    assert bp.dims() == [[0, 1]]


def test_tameness_at_cell_midpoints(fixture_a):
    both = fixture_a["both"]
    phi = both.by_name("phi")
    ev = PHEvaluator(both, 2)
    bp = ph_grid(both, phi, 1, 2, evaluator=ev)
    rv, sv = bp.grid.r_values, bp.grid.s_values
    for i, j in itertools.product(range(len(rv)), range(len(sv))):
        r_mid = rv[i] + (rv[i + 1] - rv[i]) / 2 if i + 1 < len(rv) else rv[i] + 1
        s_mid = sv[j] + (sv[j + 1] - sv[j]) / 2 if j + 1 < len(sv) else sv[j] + 1
        direct = ev.homology(sublevel(phi, s_mid), r_mid, 1)
        assert direct.dim == bp.spaces[i][j].dim


def test_tameness_random():
    rng = random.Random(62)
    for _ in range(10):
        ds = random_dataset(rng, max_points=5, max_meas=3)
        m = next(iter(ds))
        ev = PHEvaluator(ds, 2)
        bp = ph_grid(ds, m, 1, 2, evaluator=ev)
        rv, sv = bp.grid.r_values, bp.grid.s_values
        for i, j in itertools.product(range(len(rv) - 1), range(len(sv) - 1)):
            r_mid = rv[i] + (rv[i + 1] - rv[i]) / 2
            s_mid = sv[j] + (sv[j + 1] - sv[j]) / 2
            assert ev.homology(sublevel(m, s_mid), r_mid, 1).dim == bp.spaces[i][j].dim


def test_internal_maps_compose(fixture_a):
    both = fixture_a["both"]
    bp = ph_grid(both, both.by_name("phi"), 1, 2)
    assert bp.verify_squares()


FAILING_SQUARE = """
import enriched_ph.persistence as persistence
from enriched_ph import DataSet, Domain, VerificationError, ph_grid
from enriched_ph.linalg import ModMatrix

real = persistence.induced_map


def induced(src, dst, vmap):
    m = real(src, dst, vmap)
    if len(src.complex.points) == len(dst.complex.points) == 4:
        return ModMatrix.zeros(m.nrows, m.ncols, m.p)
    return m


persistence.induced_map = induced
ds = DataSet(Domain(["x1", "x2", "x3", "x4"]), [("phi", ["-1", "0", "0", "1"])])
try:
    ph_grid(ds, ds.by_name("phi"), 0, 2)
except VerificationError as exc:
    print(__debug__, exc.witness)
"""


def test_failing_square_raises_under_python_O():
    # zeroing the scale maps of the full sublevel set (the only maps between
    # two spaces on all four points) breaks the square below them
    assert run_under_python_O(FAILING_SQUARE).split() == ["False", "(0,", "2)"]


ONE_WRONG_LEVEL_MAP = """
import enriched_ph.persistence as persistence
from enriched_ph import DataSet, Domain, VerificationError, ph_grid
from enriched_ph.linalg import ModMatrix

real = persistence.induced_map


def induced(src, dst, vmap):
    m = real(src, dst, vmap)
    if (src.complex.points, dst.complex.points, dst.complex.scale) == (("x1",), ("x1", "x2", "x3"), 0):
        return ModMatrix.zeros(m.nrows, m.ncols, m.p)
    return m


persistence.induced_map = induced
ds = DataSet(Domain(["x1", "x2", "x3", "x4"]), [("phi", ["-1", "0", "0", "1"]), ("psi", ["0", "1", "-1", "0"])])
try:
    ph_grid(ds, ds.by_name("phi"), 0, 2)
except VerificationError as exc:
    print(__debug__, exc.witness, exc, sep="|")
"""


def test_one_wrong_level_map_names_its_grid_cell_under_python_O():
    # the level map from sublevel(phi, -1) = {x1} to sublevel(phi, 0) at scale
    # 0 is the only map between those two spaces; zeroed, it breaks the
    # square at cell (0, 1), whose other side maps the component of x1 to one
    # component of {x1, x2, x3} at scale 1
    out = run_under_python_O(ONE_WRONG_LEVEL_MAP)
    assert out == "False|(0, 1)|internal grid square at cell (0, 1) does not commute\n"


def test_lower_bound_above_upper_is_a_verification_error():
    with pytest.raises(VerificationError) as info:
        InterleavingResult(upper=F(1), lower=F(2))
    assert info.value.witness == (F(2), F(1))


def test_grid_json(fixture_a):
    both = fixture_a["both"]
    bp = ph_grid(both, both.by_name("phi"), 1, 2)
    data = bp.to_json_dict()
    assert data["r"] == ["0", "1", "2"]
    assert data["dims"][1][3] == 1
    assert "right_ranks" in data["maps"]


# ---------------------------------------------------------------------------
# functor over the incarnation graph


def test_ph_functor_identity_only(fixture_a):
    inc = Incarnation(fixture_a["both"], [PointMap.identity(fixture_a["domain"])])
    functor = ph_functor(inc, 0, 2)
    for edge, arrow in functor.arrows.items():
        for i, row in enumerate(arrow.mats):
            for m in row:
                assert m.nrows == m.ncols
                assert m == type(m).identity(m.nrows, 2)


def test_ph_functor_fixture_b_functorial(fixture_b):
    inc = fixture_b["incarnation"]
    for d in (0, 1):
        functor = ph_functor(inc, d, 2)
        assert functor.verify(lambda a, b: a * b)


def test_ph_functor_arrows_are_natural(fixture_b):
    functor = ph_functor(fixture_b["incarnation"], 0, 2)
    for arrow in functor.arrows.values():
        assert arrow.is_natural()


@pytest.mark.parametrize("side", ["right", "up"])
def test_grid_map_against_one_wrong_internal_matrix_is_not_natural(fixture_b, side):
    # the arrow of g1 from phi1's persistence to itself, against a copy of its
    # target whose right (or up) matrix at cell (0, 2) is zeroed: that matrix
    # after the arrow's is nonzero there, so one square at (0, 2) breaks.  Only
    # the right loop reads right matrices and only the up loop reads up ones.
    ds, g1 = fixture_b["dataset"], fixture_b["ops"]["g1"]
    phi1 = ds.by_name("phi1")
    arrow = ph_functor(fixture_b["incarnation"], 0, 2).arrows[(phi1, g1, phi1)]
    t = arrow.target
    assert arrow.is_natural()
    internal = {"right": [list(row) for row in t.right], "up": [list(row) for row in t.up]}
    good = internal[side][0][2]
    assert (good @ arrow.at(0, 2)).rank() > 0
    internal[side][0][2] = ModMatrix.zeros(good.nrows, good.ncols, 2)
    wrong = BigradedPersistence(
        t.dataset, t.measurement, t.degree, t.p, t.grid, t.spaces, internal["right"], internal["up"], t.evaluator
    )
    assert GridMap(arrow.grid, arrow.mats, arrow.source, wrong).is_natural() is False


def test_ph_functor_names_the_edges_around_one_wrong_arrow_matrix(fixture_b, monkeypatch):
    # g1 on sublevel(phi1, 2) = {x1, x2} at scale 0, and nothing else, maps by
    # zero: only the arrow of the edge (phi1, g1, phi1) reads that matrix
    import enriched_ph.persistence as persistence

    real = persistence.induced_map

    def induced(src, dst, vmap):
        m = real(src, dst, vmap)
        wrong = vmap == {"x1": "x2", "x2": "x2"} and src.complex.scale == 0
        return ModMatrix.zeros(m.nrows, m.ncols, m.p) if wrong else m

    monkeypatch.setattr(persistence, "induced_map", induced)
    ds, ops = fixture_b["dataset"], fixture_b["ops"]
    p1, p2 = ds.by_name("phi1"), ds.by_name("phi2")
    with pytest.raises(VerificationError, match="persistence functor not functorial at edges") as info:
        ph_functor(fixture_b["incarnation"], 0, 2)
    assert info.value.witness == ((p1, ops["g1"], p1), (p1, ops["g3"], p2))


def test_ph_functor_composition_rule(fixture_b):
    # explicit check of one composite: edges through phi2 out of phi1
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    functor = ph_functor(inc, 0, 2)
    p1, p2 = ds.by_name("phi1"), ds.by_name("phi2")
    g2, g3 = fixture_b["ops"]["g2"], fixture_b["ops"]["g3"]
    left = functor.arrows[(p1, g2, p2)]
    right = functor.arrows[(p2, g3, p2)]
    composite = functor.arrows[(p1, g2 * g3, inc.act(p1, g2 * g3))]
    assert composite == left @ right


def test_canonical_seo_functor_compatibility(fixture_b):
    inc = fixture_b["incarnation"]
    universal = universal_incarnation(inc.dataset)
    big = ph_functor(universal, 0, 2)
    small = ph_functor(inc, 0, 2)
    pulled = compose_functor(
        big, {m: m for m in inc.dataset}, {g: g for g in inc.ops}, build_graph(inc)
    )
    assert pulled == small


# ---------------------------------------------------------------------------
# geometric maps between data sets


def _composable_geometric_pair(rng):
    ds = random_dataset(rng, max_points=4, max_meas=3)
    y = Domain([f"y{i}" for i in range(rng.randint(1, 4))])
    z = Domain([f"z{i}" for i in range(rng.randint(1, 4))])
    f = PointMap(y, ds.domain, {p: rng.choice(ds.domain.points) for p in y})
    mid, alpha = domain_change(ds, f)
    g = PointMap(z, y, {p: rng.choice(y.points) for p in z})
    far, beta = domain_change(mid, g)
    return ds, mid, far, f, g, alpha, beta


def _shared_grid(datasets, measurements):
    rs = {F(0)}
    for ds in datasets:
        rs.update(ds.pseudometric().distinct_values())
    ss = sorted({v for m in measurements for v in m.values})
    return tuple(sorted(rs)), (ss[0] - 1,) + tuple(ss)


def test_ph_functoriality_of_geometric_composition():
    rng = random.Random(63)
    for _ in range(8):
        ds, mid, far, f, g, alpha, beta = _composable_geometric_pair(rng)
        phi = next(iter(ds))
        rv, sv = _shared_grid(
            [ds, mid, far], [phi, alpha[phi], beta[alpha[phi]]]
        )
        for d in (0, 1):
            bp_src = ph_grid(ds, phi, d, 2, r_values=rv, s_values=sv)
            bp_mid = ph_grid(mid, alpha[phi], d, 2, r_values=rv, s_values=sv)
            bp_far = ph_grid(far, beta[alpha[phi]], d, 2, r_values=rv, s_values=sv)
            m_alpha = ph_map(bp_mid, bp_src, f)
            m_beta = ph_map(bp_far, bp_mid, g)
            m_comp = ph_map(bp_far, bp_src, f * g)
            assert m_comp == m_alpha @ m_beta
            assert m_alpha.is_natural() and m_beta.is_natural()


def test_realization_independence():
    rng = random.Random(64)
    found_multi = 0
    while found_multi < 6:
        ds = random_dataset(rng, max_points=4, max_meas=2)
        y = Domain([f"y{i}" for i in range(rng.randint(1, 3))])
        f = PointMap(y, ds.domain, {p: rng.choice(ds.domain.points) for p in y})
        mid, alpha = domain_change(ds, f)
        realizations = find_all_realizations(ds, mid, alpha)
        if len(realizations) < 2:
            continue
        found_multi += 1
        phi = next(iter(ds))
        rv, sv = _shared_grid([ds, mid], [phi, alpha[phi]])
        bp_src = ph_grid(ds, phi, 1, 2, r_values=rv, s_values=sv)
        bp_mid = ph_grid(mid, alpha[phi], 1, 2, r_values=rv, s_values=sv)
        first = ph_map(bp_mid, bp_src, realizations[0])
        for other in realizations[1:]:
            assert ph_map(bp_mid, bp_src, other) == first


def _fresh_space(ds, m, r, s, d):
    """H_d at (r, s) with no evaluator and no cache."""
    return homology(vr_complex(sublevel(m, s), ds.pseudometric().at, r, d + 1), d, 2)


def test_map_memo_equals_maps_between_fresh_spaces():
    # in the swap incarnation the edges (phi, id, phi) and (phi, swap, psi)
    # map between the same spaces wherever both sublevels are {a, b}
    dom = Domain(["a", "b"])
    swap = PointMap(dom, dom, {"a": "b", "b": "a"})
    swapped = Incarnation(DataSet(dom, [("phi", [0, 1]), ("psi", [1, 0])]), [PointMap.identity(dom), swap])
    rng = random.Random(71)
    for inc in [swapped] + [random_incarnation(rng) for _ in range(6)]:
        d = 0 if inc is swapped else rng.choice((0, 1))
        functor = ph_functor(inc, d, 2)
        grid = next(iter(functor.objects.values())).grid
        cells = list(itertools.product(enumerate(grid.r_values), enumerate(grid.s_values)))
        for (m, g, mg), arrow in functor.arrows.items():
            for (i, r), (j, s) in cells:
                src, dst = _fresh_space(inc.dataset, mg, r, s, d), _fresh_space(inc.dataset, m, r, s, d)
                assert arrow.at(i, j) == induced_map(src, dst, {v: g(v) for v in src.complex.points})
        for m, bp in functor.objects.items():
            _assert_grid_maps_are_fresh_inclusions(inc.dataset, m, bp)
    for _ in range(6):
        ds, mid, _, f, _, alpha, _ = _composable_geometric_pair(rng)
        phi = next(iter(ds))
        rv, sv = _shared_grid([ds, mid], [phi, alpha[phi]])
        d = rng.choice((0, 1))
        bp_src = ph_grid(ds, phi, d, 2, r_values=rv, s_values=sv)
        bp_mid = ph_grid(mid, alpha[phi], d, 2, r_values=rv, s_values=sv)
        grid_map = ph_map(bp_mid, bp_src, f)
        assert ph_map(bp_mid, bp_src, f) == grid_map  # read back from the memo
        for (i, r), (j, s) in itertools.product(enumerate(rv), enumerate(sv)):
            src, dst = _fresh_space(mid, alpha[phi], r, s, d), _fresh_space(ds, phi, r, s, d)
            assert grid_map.at(i, j) == induced_map(src, dst, {v: f(v) for v in src.complex.points})
        _assert_grid_maps_are_fresh_inclusions(ds, phi, bp_src)
        _assert_grid_maps_are_fresh_inclusions(mid, alpha[phi], bp_mid)
    ds = random_dataset(rng, max_points=5, max_meas=3)
    m = next(iter(ds))
    _assert_grid_maps_are_fresh_inclusions(ds, m, ph_grid(ds, m, 1, 2))


def _assert_grid_maps_are_fresh_inclusions(ds, m, bp):
    """Every right and up matrix of bp equals the by-value inclusion lookup
    of a fresh evaluator on the same sublevel sets and scales."""
    ev, d = PHEvaluator(ds, 2), bp.degree
    rv, sv = bp.grid.r_values, bp.grid.s_values
    for i, j in itertools.product(range(len(rv)), range(len(sv))):
        sub = sublevel(m, sv[j])
        if i + 1 < len(rv):
            assert bp.right[i][j] == ev.inclusion_matrix(sub, rv[i], sub, rv[i + 1], d)
        if j + 1 < len(sv):
            assert bp.up[i][j] == ev.inclusion_matrix(sub, rv[i], sublevel(m, sv[j + 1]), rv[i], d)


def test_ph_grid_looks_each_space_up_once_and_maps_by_space(fixture_a, monkeypatch):
    # one row per level set, read once; no cell goes through homology or inclusion_matrix
    both = fixture_a["both"]
    phi = both.by_name("phi")
    calls = {"homology": 0, "inclusion_matrix": 0, "_row": 0}
    for name in calls:
        real = getattr(PHEvaluator, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(PHEvaluator, name, counted)
    ev = PHEvaluator(both, 2)
    bp = ph_grid(both, phi, 1, 2, evaluator=ev)
    assert calls == {"homology": 0, "inclusion_matrix": 0, "_row": len(bp.grid.s_values)}
    grades = _grades(both)
    for (i, r), (j, s) in itertools.product(enumerate(bp.grid.r_values), enumerate(bp.grid.s_values)):
        assert bp.spaces[i][j] is ev._rows[(frozenset(sublevel(phi, s)), 1)][grades.scale_index(r)]


def test_homology_shares_a_space_between_scales_exactly_when_their_complexes_agree(fixture_a):
    rng = random.Random(94)
    for ds in [fixture_a["both"]] + [random_dataset(rng) for _ in range(5)]:
        ev, metric, pts = PHEvaluator(ds, 2), ds.pseudometric(), ds.domain.points
        grid = scale_grid(ds)
        scales = sorted({*grid, *((a + b) / 2 for a, b in zip(grid, grid[1:])), grid[-1] + 1})
        subsets = [pts, ()]
        for _ in range(4):
            chosen = rng.sample(pts, rng.randint(1, len(pts)))
            subsets.append(tuple(x for x in pts if x in chosen))
        for subset, d in itertools.product(subsets, (0, 1)):
            fresh = {r: vr_complex(subset, metric.at, r, d + 1).simplices for r in scales}
            for r, t in itertools.product(scales, repeat=2):
                same = ev.homology(subset, r, d) is ev.homology(subset[::-1], t, d)
                assert same == (fresh[r] == fresh[t]), (subset, r, t, d)


def test_homology_at_the_edge_scales(fixture_a):
    rng = random.Random(95)
    for ds in [fixture_a["both"]] + [random_dataset(rng, min_points=3) for _ in range(5)]:
        ev, metric, pts = PHEvaluator(ds, 2), ds.pseudometric(), ds.domain.points
        grid = scale_grid(ds)
        with pytest.raises(ValueError, match="scale parameter must be nonnegative"):
            ev.homology(pts, F(-1, 2), 1)
        assert ev._rows == {}
        for d in (0, 1):
            above = ev.homology(pts, grid[-1] + 1, d)
            assert above is ev.homology(pts, grid[-1], d)
            below_first = ev.homology(pts, grid[1] / 2, d)  # grid[1] is the least positive distance
            assert below_first is ev.homology(pts, grid[0], d)
            empty = ev.homology((), F(1), d)
            assert empty.dim == 0
            for space, r in ((above, grid[-1] + 1), (below_first, grid[1] / 2), (empty, F(1))):
                assert space.dim == oracle_homology_dim(space.complex.points, metric.at, r, d, 2)


def test_homology_rejects_unknown_points_and_negative_degrees(fixture_a):
    ev = PHEvaluator(fixture_a["both"], 2)
    with pytest.raises(ValueError, match=r"points not in the domain: \['zz'\]"):
        ev.homology({"zz", "x1"}, F(1), 0)
    with pytest.raises(ValueError, match="degree -1 is negative"):
        ev.homology({"x1"}, F(1), -1)
    assert ev._rows == {}


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"r_values": [1, 0]}, "r_values must be strictly increasing, but 1 is followed by 0"),
        ({"r_values": [0, 1, 1]}, "r_values must be strictly increasing, but 1 is followed by 1"),
        ({"r_values": [-1, 0]}, "r_values must be nonnegative, but start at -1"),
        ({"s_values": [F(-2), F(1), F(0)]}, "s_values must be strictly increasing, but 1 is followed by 0"),
    ],
)
def test_grids_must_increase_and_scales_be_nonnegative(fixture_a, fixture_b, kwargs, message):
    both = fixture_a["both"]
    ev = PHEvaluator(both, 2)
    with pytest.raises(ValueError, match=message):
        ph_grid(both, both.by_name("phi"), 0, 2, evaluator=ev, **kwargs)
    assert ev._rows == {}  # rejected before any space was built
    with pytest.raises(ValueError, match=message):
        ph_functor(fixture_b["incarnation"], 0, 2, **kwargs)


def test_evaluators_and_persistences_of_another_data_set_prime_or_degree_are_refused(fixture_a):
    both, dom = fixture_a["both"], fixture_a["domain"]
    phi, psi = both.by_name("phi"), both.by_name("psi")
    moved = DataSet(dom, [("phi", ["-1", "0", "0", "1"]), ("psi", ["0", "5", "-1", "0"])])
    for ev, message in (
        (PHEvaluator(both, 2), "the evaluator computes over F_2, not F_3"),
        (PHEvaluator(moved, 3), "the evaluator belongs to another data set"),
    ):
        with pytest.raises(ValueError, match=message):
            ph_grid(both, phi, 1, 3, evaluator=ev)
        with pytest.raises(ValueError, match=message):
            interleave_upper(both, phi, psi, 1, 3, evaluator=ev)
        assert ev._rows == {}
    # an evaluator on an equal data set serves it
    twin = DataSet(dom, [("phi", ["-1", "0", "0", "1"]), ("psi", ["0", "1", "-1", "0"])])
    assert ph_grid(both, phi, 0, 3, evaluator=PHEvaluator(twin, 3)) == ph_grid(both, phi, 0, 3)
    ident = PointMap.identity(dom)
    with pytest.raises(ValueError, match="the source persistence is H_1 over F_2, the target H_1 over F_3"):
        ph_map(ph_grid(both, phi, 1, 2), ph_grid(both, phi, 1, 3), ident)
    with pytest.raises(ValueError, match="the source persistence is H_0 over F_2, the target H_1 over F_2"):
        ph_map(ph_grid(both, phi, 0, 2), ph_grid(both, phi, 1, 2), ident)


# ---------------------------------------------------------------------------
# interleavings


def test_interleave_same_measurement(fixture_a):
    both = fixture_a["both"]
    phi = both.by_name("phi")
    res = interleave_upper(both, phi, phi, 1, 2)
    assert res.upper == 0


def test_interleave_fixture_a(fixture_a):
    both = fixture_a["both"]
    res = interleaving_bounds(both, both.by_name("phi"), both.by_name("psi"), 1, 2)
    assert res.upper == sup_distance(both.by_name("phi"), both.by_name("psi")) == 1
    assert res.lower <= res.upper
    assert res.certificate["triangles"] > 0


def test_interleave_shifted_measurement():
    dom = Domain(["a", "b", "c", "d"])
    base = [F(0), F(1), F(3), F(1)]
    c = F(3, 2)
    ds = DataSet(dom, [("f", base), ("g", [v + c for v in base])])
    assert sup_distance(ds.by_name("f"), ds.by_name("g")) == c
    res = interleaving_bounds(ds, ds.by_name("f"), ds.by_name("g"), 0, 2)
    assert res.upper == c
    assert res.lower == c  # slice barcodes shift by exactly c
    for r in scale_grid(ds):
        bars_f = slice_barcode(ds, ds.by_name("f"), 0, 2, r)
        bars_g = slice_barcode(ds, ds.by_name("g"), 0, 2, r)
        shifted = [
            (b + c, d + c if d != INF else INF) for b, d in bars_f
        ]
        assert sorted(shifted) == sorted(bars_g)


def test_interleave_names_the_sublevels_that_do_not_nest(fixture_a, monkeypatch):
    # at half the true distance, sublevel(phi, -1) is not inside sublevel(psi, -1/2);
    # the pair is checked before its diagrams are kept, so every call fails alike
    import enriched_ph.persistence as persistence

    monkeypatch.setattr(persistence, "sup_distance", lambda a, b: sup_distance(a, b) / 2)
    both = fixture_a["both"]
    for p in (2, 3):
        for d in (1, 0):
            with pytest.raises(VerificationError) as info:
                interleave_upper(both, both.by_name("phi"), both.by_name("psi"), d, p)
            assert info.value.witness == (("x1",), ("x3",))
    assert _grades(both).pair_diagrams == {}


def test_interleave_random_never_fails():
    rng = random.Random(65)
    for _ in range(10):
        ds = random_dataset(rng, min_meas=2)
        ms = list(ds)
        phi, psi = rng.sample(ms, 2)
        ev = PHEvaluator(ds, 2)
        for d in (0, 1):
            res = interleave_upper(ds, phi, psi, d, 2, evaluator=ev)
            assert res.upper == sup_distance(phi, psi)



@st.composite
def interleave_cases(draw):
    """(data set, phi, psi, degree, p): 2-6 points, 2-4 half-integer measurements."""
    n = draw(st.integers(2, 6))
    vector = st.tuples(*[st.sampled_from(HALF_LATTICE)] * n)
    vecs = draw(st.lists(vector, min_size=2, max_size=4, unique=True))
    ds = DataSet(Domain([f"x{i}" for i in range(1, n + 1)]), [(f"f{i}", v) for i, v in enumerate(vecs)])
    phi, psi = draw(st.sampled_from(list(ds))), draw(st.sampled_from(list(ds)))
    return ds, phi, psi, draw(st.sampled_from([0, 1])), draw(st.sampled_from([2, 3]))


@st.composite
def sevenths_cases(draw):
    """(data set, measurement, degree, p): 7-10 points, 1-3 measurements with values k/7."""
    n = draw(st.integers(7, 10))
    vector = st.tuples(*[st.sampled_from([F(k, 7) for k in range(-14, 15)])] * n)
    vecs = draw(st.lists(vector, min_size=1, max_size=3, unique=True))
    ds = DataSet(Domain([f"x{i}" for i in range(1, n + 1)]), [(f"f{i}", v) for i, v in enumerate(vecs)])
    return ds, draw(st.sampled_from(list(ds))), draw(st.sampled_from([0, 1])), draw(st.sampled_from([2, 3]))


def maps_read(ev):
    """Every pair of (vertex set, grid index the space was built at, degree)
    of two non-empty spaces the evaluator computed a map between, as a
    matrix in _maps or as a degree-0 entry of a link row; a map with a
    zero-dimensional end is the empty matrix, computed or not."""
    key_of = {}
    for (vs, d), row in ev._rows.items():
        for i, space in enumerate(row):
            key_of.setdefault(space, (vs, i, d))
    pairs = [(src, dst) for src, dst, _ in ev._maps]
    for a, b, d in ev._links:
        if d == 0:
            src = ev._row(a, d)
            pairs.extend(zip(src, src[1:] if b is None else ev._row(b, d)))
    return {(key_of[src], key_of[dst]) for src, dst in pairs if src.dim and dst.dim}


def matrix_of(entry, p):
    """A link entry as a matrix over F_p: column c of a ComponentMap's is
    the unit vector at its entry c."""
    if isinstance(entry, ComponentMap):
        cols = [[int(i == t) for i in range(entry.dim)] for t in entry.targets]
        return ModMatrix.from_columns(cols, entry.dim, p)
    return entry


@settings(max_examples=100, deadline=None, database=None)
@given(interleave_cases())
def test_interleave_equals_the_lookup_walker(case):
    ds, phi, psi, d, p = case
    ev, oracle_ev = PHEvaluator(ds, p), PHEvaluator(ds, p)
    res = interleave_upper(ds, phi, psi, d, p, evaluator=ev)
    want = oracle_interleave_upper(ds, phi, psi, d, p, evaluator=oracle_ev)
    assert (res.upper, res.certificate) == (want.upper, want.certificate)
    assert maps_read(ev) == maps_read(oracle_ev)


@pytest.mark.parametrize("d", [0, 1])
def test_interleave_of_a_measurement_with_itself_equals_the_walker(fixture_a, d):
    # psi is phi: both sides of every diagram are the same side, and each is checked and counted once
    rng = random.Random(66)
    for ds in [fixture_a["both"]] + [random_dataset(rng) for _ in range(4)]:
        for phi in ds:
            res = interleave_upper(ds, phi, phi, d, 2)
            want = oracle_interleave_upper(ds, phi, phi, d, 2)
            assert (res.upper, res.certificate) == (want.upper, want.certificate)


@settings(max_examples=25, deadline=None, database=None)
@given(interleave_cases())
def test_interleave_on_one_shared_evaluator_equals_fresh_walkers(case):
    # every pair and degree in turn on one evaluator, as a job runs them: rows
    # checked by an earlier call are skipped, and the answers and maps stay the walker's
    ds, _, _, _, p = case
    ev, union = PHEvaluator(ds, p), set()
    for (phi, psi), d in itertools.product(itertools.product(ds, repeat=2), (0, 1)):
        oracle_ev = PHEvaluator(ds, p)
        res = interleave_upper(ds, phi, psi, d, p, evaluator=ev)
        want = oracle_interleave_upper(ds, phi, psi, d, p, evaluator=oracle_ev)
        assert (res.upper, res.certificate) == (want.upper, want.certificate)
        union |= maps_read(oracle_ev)
    assert maps_read(ev) == union


FULL = ("x1", "x2", "x3", "x4")


def square_dataset():
    """The square of four points that the CLI checks read, at scales 0, 2, 3
    and 4: in degree 0 some scale squares of f and g end in a space of two
    components, where those of fixture_a all end in one."""
    return DataSet(
        Domain(["a", "b", "c", "d"]),
        [("f", ["0", "2", "0", "-2"]), ("g", ["2", "0", "-2", "0"]), ("h", ["-2", "-2", "-2", "1"])],
    )


def shift_inclusions(monkeypatch, chosen):
    """Send each source component to the next target component (mod the
    target's dimension) in the degree-0 inclusions of the chosen (source,
    target) spaces: in the component maps of the link rows, and in the
    matrices of persistence.induced_map, which the oracle reads."""
    import enriched_ph.persistence as persistence

    real_map, real_induced = persistence._component_map, persistence.induced_map

    def component_map(src, dst, at):
        m = real_map(src, dst, at)
        return ComponentMap(tuple((t + 1) % m.dim for t in m.targets), m.dim) if chosen(src, dst) else m

    def induced(src, dst, vmap):
        m = real_induced(src, dst, vmap)
        # row t moves to row t + 1, and with it the unit vector of each column
        return ModMatrix(m.rows[-1:] + m.rows[:-1], m.ncols, m.p) if chosen(src, dst) else m

    monkeypatch.setattr(persistence, "_component_map", component_map)
    monkeypatch.setattr(persistence, "induced_map", induced)


@pytest.mark.parametrize(
    "pair, chosen, message, witness",
    [
        # the shift from sublevel(phi, -1) straight to sublevel(phi, 1)
        (
            ("phi", "psi"),
            lambda src, dst: (src.complex.points, dst.complex.points) == (("x1",), FULL),
            "interleaving triangle",
            (("x1",), ("x1", "x3", "x4"), FULL, F(0)),
        ),
        # every scale map of sublevel(g, 0): the first scale square of f and g whose
        # end has two components, since no map into one component can be wrong
        (
            ("f", "g"),
            lambda src, dst: src.complex.points == dst.complex.points == ("b", "c", "d") and src is not dst,
            "scale direction",
            (("d",), ("b", "c", "d"), F(0), F(2)),
        ),
        # the level map from sublevel(phi, -1) to sublevel(phi, 0)
        (
            ("phi", "psi"),
            lambda src, dst: (src.complex.points, dst.complex.points) == (("x1",), ("x1", "x2", "x3")),
            "level direction",
            (("x1",), ("x1", "x2", "x3"), ("x1", "x3", "x4"), FULL, F(0)),
        ),
    ],
    ids=["triangle", "scale-square", "level-square"],
)
def test_interleave_names_the_first_failing_check(fixture_a, monkeypatch, pair, chosen, message, witness):
    shift_inclusions(monkeypatch, chosen)
    ds = fixture_a["both"] if pair == ("phi", "psi") else square_dataset()
    phi, psi = (ds.by_name(name) for name in pair)
    ev = PHEvaluator(ds, 2)
    for _ in range(2):  # a failed row is not certified, so a second call fails alike
        with pytest.raises(VerificationError, match=message) as info:
            interleave_upper(ds, phi, psi, 0, 2, evaluator=ev)
        assert info.value.witness == witness
    with pytest.raises(VerificationError) as oracle:
        oracle_interleave_upper(ds, phi, psi, 0, 2)
    assert oracle.value.witness == witness


FAILING_LEVEL_SQUARE = """
import enriched_ph.persistence as persistence
from conftest import oracle_interleave_upper
from enriched_ph import DataSet, Domain, PHEvaluator, VerificationError, interleave_upper
from enriched_ph.linalg import ModMatrix
from enriched_ph.persistence import ComponentMap

real_map, real_induced = persistence._component_map, persistence.induced_map


def chosen(src, dst):
    return (src.complex.points, dst.complex.points) == (("x1",), ("x1", "x2", "x3"))


def component_map(src, dst, at):
    m = real_map(src, dst, at)
    return ComponentMap(tuple((t + 1) % m.dim for t in m.targets), m.dim) if chosen(src, dst) else m


def induced(src, dst, vmap):
    m = real_induced(src, dst, vmap)
    return ModMatrix(m.rows[-1:] + m.rows[:-1], m.ncols, m.p) if chosen(src, dst) else m


persistence._component_map, persistence.induced_map = component_map, induced
ds = DataSet(Domain(["x1", "x2", "x3", "x4"]), [("phi", ["-1", "0", "0", "1"]), ("psi", ["0", "1", "-1", "0"])])
phi, psi = ds.by_name("phi"), ds.by_name("psi")
ev, witnesses = PHEvaluator(ds, 2), []
for _ in range(2):
    try:
        interleave_upper(ds, phi, psi, 0, 2, evaluator=ev)
    except VerificationError as exc:
        witnesses.append(exc.witness)
try:
    oracle_interleave_upper(ds, phi, psi, 0, 2)
except VerificationError as exc:
    witnesses.append(exc.witness)
print(__debug__, len(witnesses[0]), witnesses[0][-1], witnesses[1] == witnesses[0] == witnesses[2])
"""


def test_failing_level_square_raises_under_python_O():
    # the oracle lives in conftest, beside this file
    tests = os.path.dirname(os.path.abspath(__file__))
    script = f"import sys\nsys.path.insert(0, {tests!r})\n" + FAILING_LEVEL_SQUARE
    assert run_under_python_O(script).split() == ["False", "5", "0", "True"]


# ---------------------------------------------------------------------------
# inclusions: complexes read from one VR filtration per data set, checked by grade


def test_cut_complex_equals_the_vr_complex_on_the_subset():
    rng = random.Random(91)
    for _ in range(12):
        ds = random_dataset(rng, max_points=6, max_meas=3)
        ev, metric, pts = PHEvaluator(ds, 2), ds.pseudometric(), ds.domain.points
        scales = list(scale_grid(ds))
        scales.append(scales[-1] / 2 + F(1, 3))  # a scale off the grid
        for _ in range(8):
            subset = rng.sample(pts, rng.randint(0, len(pts)))
            r, d = rng.choice(scales), rng.choice((0, 1, 2))
            cut = ev.homology(subset, r, d).complex
            fresh = vr_complex([x for x in pts if x in subset], metric.at, r, d + 1)
            assert cut.points == fresh.points
            assert list(cut.simplices.items()) == list(fresh.simplices.items())
            assert cut._index == fresh._index
            assert (cut.metric, cut.dim_cap) == (fresh.metric, fresh.dim_cap)
            grid = scale_grid(ds)
            agree = [t for t in grid if vr_complex(cut.points, metric.at, t, d + 1).simplices == cut.simplices]
            assert cut.scale == min(agree)


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(interleave_cases().map(lambda case: case[0]), sevenths_cases().map(lambda case: case[0])))
def test_filtration_prefixes_equal_vr_complexes_and_the_definition(ds):
    grades, metric, pts = _grades(ds), ds.pseudometric(), ds.domain.points
    for cap in (1, 2, 3):
        levels = grades.filtration(cap)
        assert grades.filtration(cap) is levels
        # the whole domain's row has a space at every index: each is a distance among its points
        row = PHEvaluator(ds, 2)._row(pts, cap - 1)
        for i, r in enumerate(scale_grid(ds)):
            fresh = vr_complex(pts, metric.at, r, cap)
            defined = [
                [
                    c for c in itertools.combinations(pts, k + 1)
                    if all(metric.at(a, b) <= r for a, b in itertools.combinations(c, 2))
                ]
                for k in range(cap + 1)
            ]
            assert list(_prefix(levels, i).items()) == list(fresh.simplices.items())
            assert fresh.simplices == {k: tuple(level) for k, level in enumerate(defined) if level}
            cx = row[i].complex
            assert cx.points == fresh.points
            assert list(cx.simplices.items()) == list(fresh.simplices.items())
            assert cx._index == fresh._index
            assert (cx.scale, cx.metric, cx.dim_cap, cx._grid_index) == (fresh.scale, fresh.metric, fresh.dim_cap, i)
            assert type(cx.scale) is Fraction


@settings(max_examples=100, deadline=None, database=None)
@given(interleave_cases())
def test_sublevels_by_bisection_equal_the_scan(case):
    ds, phi, psi, _, _ = case
    eps, grades, pts = sup_distance(phi, psi), _grades(ds), ds.domain.points
    grid = level_grid([phi, psi])  # the sentinel, then every value
    off_grid = [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [grid[0] - 1, grid[-1] + 1]
    shifted = [s + k * eps for s in grid for k in range(3)]
    levels = [*grid, *off_grid, *shifted]
    # the integer numerators of interleave_upper, over a denominator that eps's divides
    den = grades.denominator * eps.denominator
    assert all((s * den).denominator == 1 for s in shifted)
    for m in (phi, psi):
        assert _sublevels(pts, m.values, levels) == [sublevel(m, s) for s in levels]
        nums = [n * eps.denominator for n in grades.numerators[m]]
        assert _sublevels(pts, nums, [int(s * den) for s in shifted]) == [sublevel(m, s) for s in shifted]
        supers = [tuple(x for x in pts if m.at(x) >= -s) for s in levels]
        assert _sublevels(pts, [-v for v in m.values], levels) == supers


def test_evaluator_builds_one_filtration_per_cap(monkeypatch):
    import enriched_ph.persistence as persistence

    ds = random_dataset(random.Random(92), min_points=5, max_points=5, min_meas=3, max_meas=3)
    phi, psi, _ = ds
    real, built, complexes = persistence._rips, [], []

    def counted(points, diameter, dim_cap):
        built.append(dim_cap)
        return real(points, diameter, dim_cap)

    monkeypatch.setattr(persistence, "_rips", counted)
    monkeypatch.setattr(persistence, "vr_complex", lambda *args: complexes.append(args))
    spaces = 0
    for d in (1, 0, 1):
        ev = PHEvaluator(ds, 2)
        interleave_upper(ds, phi, psi, d, 2, evaluator=ev)
        ph_grid(ds, phi, d, 2, evaluator=ev)
        bottleneck_lower(ds, phi, psi, d, 2)
        spaces += len({space for row in ev._rows.values() for space in row})
    # the data set's filtration at each cap, shared by every evaluator and slice
    # barcode, enumerated once from integer distance indices; no VR complex is built
    assert built == [2, 1] and complexes == []
    assert sorted(_grades(ds).filtrations) == [1, 2]
    assert all(type(t) is int for levels in _grades(ds).filtrations.values() for level in levels for _, t in level)
    assert spaces > len(built)
    assert scale_grid(ds) is scale_grid(ds)


def test_a_cap_above_the_domain_lists_no_empty_levels():
    # three points span no simplex above dimension 2, however large the cap
    ds = DataSet(Domain(["a", "b", "c"]), [("f", [0, 1, 2]), ("g", [2, 1, 0])])
    f, g = ds
    assert len(_grades(ds).filtration(2000)) == 3
    assert _grades(ds).filtration(2000) == _grades(ds).filtration(2)
    assert vr_complex(ds.domain.points, ds.pseudometric().at, 2, 2000).dim_cap == 2000
    assert {**ph_grid(ds, f, 2000, 2).to_json_dict(), "degree": 5} == ph_grid(ds, f, 5, 2).to_json_dict()
    assert interleave_upper(ds, f, g, 2000, 3) == interleave_upper(ds, f, g, 5, 3)


@st.composite
def row_cases(draw):
    """(data set, vertex sets, degree, p): 2-6 points, 1-4 random vertex sets."""
    ds = draw(interleave_cases())[0]
    subsets = draw(st.lists(st.lists(st.sampled_from(ds.domain.points), unique=True), min_size=1, max_size=4))
    return ds, subsets, draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([2, 3]))


@settings(max_examples=100, deadline=None, database=None)
@given(row_cases())
def test_a_row_holds_a_space_at_every_scale_and_changes_only_at_its_distances(case):
    ds, subsets, d, p = case
    ev, metric, grades, pts = PHEvaluator(ds, p), ds.pseudometric(), _grades(ds), ds.domain.points
    grid = scale_grid(ds)
    with pytest.raises(ValueError, match="points not in the domain"):
        ev.homology([*subsets[0], "zz"], grid[-1], d)
    with pytest.raises(ValueError, match="degree -1 is negative"):
        ev.homology(subsets[0], grid[-1], -1)
    with pytest.raises(ValueError, match="scale parameter must be nonnegative"):
        ev.homology(subsets[0], F(-1, 2), d)
    assert ev._rows == {}  # no refusal builds a row
    off_grid = [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [grid[-1] + 1]
    for vs, r in itertools.product(subsets, (*grid, *off_grid)):
        assert ev.homology(vs[::-1], r, d) is ev._rows[(frozenset(vs), d)][grades.scale_index(r)]
    assert len(ev._rows) == len({frozenset(vs) for vs in subsets})
    for (vs, degree), row in ev._rows.items():
        assert degree == d and len(row) == len(grid)
        distances = {metric.at(x, y) for x, y in itertools.combinations(vs, 2)}
        points = [x for x in pts if x in vs]
        for i, space in enumerate(row):
            assert space.dim == oracle_homology_dim(points, metric.at, grid[i], d, p)
            if i:
                assert (space is row[i - 1]) == (grid[i] not in distances), (vs, i)


@settings(max_examples=60, deadline=None, database=None)
@given(interleave_cases())
def test_inclusions_by_grade_equal_the_per_simplex_walk(case):
    ds, phi, psi, d, p = case
    ev = PHEvaluator(ds, p)
    interleave_upper(ds, phi, psi, d, p, evaluator=ev)
    for (src, dst, g), mat in ev._maps.items():
        assert g is None and mat == oracle_inclusion_map(src, dst)
    for (a, b, _), link in ev._links.items():
        src = ev._row(a, d)
        for x, y, mat in zip(src, src[1:] if b is None else ev._row(b, d), link):
            assert matrix_of(mat, p) == oracle_inclusion_map(x, y)
    bp = ph_grid(ds, psi, d, p)
    spaces, nr, ns = bp.spaces, len(bp.grid.r_values), len(bp.grid.s_values)
    for i, j in itertools.product(range(nr), range(ns)):
        if i + 1 < nr:
            assert bp.right[i][j] == oracle_inclusion_map(spaces[i][j], spaces[i + 1][j])
        if j + 1 < ns:
            assert bp.up[i][j] == oracle_inclusion_map(spaces[i][j], spaces[i][j + 1])


def compared_paths(ev, phi, psi, d):
    """The paths a -> b -> c that interleave_upper compares, walked by
    sublevel values: each distinct diagram row once, at the scales where
    its spaces change."""
    eps = sup_distance(phi, psi)
    sv = sorted(set(level_grid([phi])) | set(level_grid([psi])))
    rows = {}
    for s, (a, b) in itertools.product(sv, ((phi, psi), (psi, phi))):
        A0, B1, A2 = sublevel(a, s), sublevel(b, s + eps), sublevel(a, s + 2 * eps)
        rows[A0, B1, A2] = lambda a0, b1, a2: [(a0, b1, a2)]
        rows[A0, B1] = lambda a, b, a_next, b_next: [(a, b, b_next), (a, a_next, b_next)]
    for (s0, s1), (a, b) in itertools.product(zip(sv, sv[1:]), ((phi, psi), (psi, phi))):
        A0, A1, B0, B1 = sublevel(a, s0), sublevel(a, s1), sublevel(b, s0 + eps), sublevel(b, s1 + eps)
        rows[A0, A1, B0, B1] = lambda a0, a1, b0, b1: [(a0, b0, b1), (a0, a1, b1)]
    paths = []
    for vertex_sets, diagram in rows.items():
        spaces = [ev._row(vs, d) for vs in vertex_sets]
        if len(spaces) == 2:  # a scale square: both rows, then both one scale up
            spaces += [row[1:] for row in spaces]
        last = None
        for at in zip(*spaces):
            if at != last:
                paths += diagram(*at)
            last = at
    return paths


def test_interleave_multiplies_only_paths_of_two_nonempty_ends_and_no_identity_leg(fixture_a, monkeypatch):
    both = fixture_a["both"]
    phi, psi = both.by_name("phi"), both.by_name("psi")
    products = []

    def counting(real):
        def counted(self, other):
            products.append((self, other))
            return real(self, other)
        return counted

    # matrix products, and in degree 0 compositions of component maps
    for kind in (ModMatrix, ComponentMap):
        monkeypatch.setattr(kind, "__matmul__", counting(kind.__matmul__))
    made = []
    for d in (0, 1):
        products.clear()
        ev = PHEvaluator(both, 2)
        res = interleave_upper(both, phi, psi, d, 2, evaluator=ev)
        # one product per compared path of two non-empty ends and no identity leg,
        # fewer than one per triangle and two per square
        multiplied = [(a, b, c) for a, b, c in compared_paths(ev, phi, psi, d)
                      if a.dim and c.dim and a is not b and b is not c]
        assert len(products) == len(multiplied) < res.certificate["triangles"] + 2 * res.certificate["squares"]
        made.append(len(products))
    assert made[0] > 0  # H_0 has such paths; H_1's maps here are all empty or identities


def _inclusion_fault(src, dst):
    with pytest.raises(SimplicialMapError) as info:
        induced_map(src, dst, None)
    return str(info.value)


def test_inclusion_refuses_grades_that_do_not_nest(fixture_a):
    both = fixture_a["both"]
    ev = PHEvaluator(both, 2)
    pts = both.domain.points
    full = ev.homology(pts, F(1), 1)
    fault = _inclusion_fault(full, ev.homology(pts[:3], F(1), 1))
    assert "points outside the target" in fault
    assert "(scale 1, cap 2, points ('x1', 'x2', 'x3', 'x4'))" in fault
    assert "(scale 1, cap 2, points ('x1', 'x2', 'x3'))" in fault
    assert "a larger scale" in _inclusion_fault(ev.homology(pts, F(2), 1), full)
    capped = homology(vr_complex(pts, both.pseudometric().at, F(1), 3), 1, 2)
    assert "another dimension cap" in _inclusion_fault(capped, full)
    # the same domain, vertex set and scale in another data set's evaluator
    other = PHEvaluator(fixture_a["phi_only"], 2).homology(pts, F(1), 1)
    assert "another metric" in _inclusion_fault(other, full)
    # a complex listing its points in another order than the target
    shuffled = homology(vr_complex(pts[::-1], both.pseudometric().at, F(1), 2), 1, 2)
    assert "out of its order" in _inclusion_fault(shuffled, full)
    # a complex without a grade nests in nothing
    bare = homology(SimplicialComplex(pts, full.complex.simplices, 2), 1, 2)
    assert "another metric" in _inclusion_fault(bare, full)
    assert induced_map(full, ev.homology(pts, F(2), 1), None) == oracle_inclusion_map(
        full, ev.homology(pts, F(2), 1)
    )


def test_empty_and_identity_inclusions_equal_the_per_simplex_walk(fixture_a, monkeypatch):
    # a zero-dimensional end gives the empty matrix and a space's inclusion into
    # itself the identity, neither through coords_of
    real, solved = HomologySpace.coords_of, []

    def counted(space, chain):
        solved.append(chain)
        return real(space, chain)

    monkeypatch.setattr(HomologySpace, "coords_of", counted)
    rng = random.Random(94)
    # fixture_a's square cycle, filled in at scale 2: a zero-dimensional target
    ev = PHEvaluator(fixture_a["both"], 3)
    pts = fixture_a["domain"].points
    pairs = [(ev.homology(pts, F(1), 1), ev.homology(pts, F(2), 1))]
    for _ in range(15):
        ds = random_dataset(rng, max_points=6, max_meas=3)
        ev, pts, grid = PHEvaluator(ds, rng.choice((2, 3))), ds.domain.points, scale_grid(ds)
        for _ in range(20):
            big = rng.sample(pts, rng.randint(0, len(pts)))
            small = rng.sample(big, rng.randint(0, len(big)))
            i = rng.randrange(len(grid))
            j, d = rng.randrange(i, len(grid)), rng.choice((0, 1))
            pairs.append((ev.homology(small, grid[i], d), ev.homology(big, grid[j], d)))
    kinds = set()
    for src, dst in pairs:
        for a, b in ((src, dst), (src, src), (dst, dst)):
            if a.dim and b.dim and a is not b:
                continue
            kinds.add("self" if a is b else "zero source" if not a.dim else "zero target")
            solved.clear()
            got = induced_map(a, b, None)
            assert solved == []
            assert got == oracle_inclusion_map(a, b) and got.shape == (b.dim, a.dim)
            if a is b:
                assert got == ModMatrix.identity(a.dim, a.p)
    assert kinds == {"self", "zero source", "zero target"}


def test_inclusions_and_vertex_maps_with_an_empty_end_are_still_checked(fixture_a):
    both = fixture_a["both"]
    ev = PHEvaluator(both, 2)
    pts = both.domain.points
    loop, filled, bare = ev.homology(pts, F(1), 1), ev.homology(pts, F(2), 1), ev.homology(pts, F(0), 1)
    path = ev.homology(pts[:3], F(1), 1)
    assert (loop.dim, filled.dim, bare.dim, path.dim) == (1, 0, 0, 0)
    for src, dst, fault in (
        (filled, loop, "a larger scale"),
        (loop, path, "points outside the target"),
        (bare, path, "points outside the target"),
    ):
        message = _inclusion_fault(src, dst)
        assert fault in message and _grade(src.complex) in message and _grade(dst.complex) in message
    # the edge (x1, x2) onto the missing diagonal (x1, x4)
    with pytest.raises(SimplicialMapError, match="is not a simplex"):
        induced_map(path, loop, {"x1": "x1", "x2": "x4", "x3": "x3"})


def test_vertex_permutation_of_a_space_onto_itself_is_not_taken_for_the_identity(fixture_a):
    # swapping x2 and x3 keeps phi and the metric and reverses the square cycle,
    # so over F_3 ph_map sends a space to itself by -1 where the cycle lives
    both = fixture_a["both"]
    bp = ph_grid(both, both.by_name("phi"), 1, 3)
    flip = PointMap(both.domain, both.domain, {"x1": "x1", "x2": "x3", "x3": "x2", "x4": "x4"})
    grid = ph_map(bp, bp, flip)
    reversed_cycle = 0
    for row, mats in zip(bp.spaces, grid.mats):
        for space, mat in zip(row, mats):
            assert mat == oracle_vertex_map(space, space, {v: flip(v) for v in space.complex.points})
            reversed_cycle += space.dim > 0 and mat == ModMatrix([[2]], 1, 3)
    assert reversed_cycle > 0


NOT_NESTED = """
from fractions import Fraction
from enriched_ph import DataSet, Domain, PHEvaluator, SimplicialMapError, induced_map

ds = DataSet(Domain(["x1", "x2", "x3", "x4"]), [("phi", ["-1", "0", "0", "1"]), ("psi", ["0", "1", "-1", "0"])])
ev = PHEvaluator(ds, 2)
pts = ds.domain.points
try:
    induced_map(ev.homology(pts, Fraction(2), 1), ev.homology(pts, Fraction(1), 1), None)
except SimplicialMapError as exc:
    print(__debug__, "larger scale" in str(exc))
"""


def test_inclusion_grade_check_runs_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NOT_NESTED], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


@settings(max_examples=60, deadline=None, database=None)
@given(interleave_cases(), st.data())
def test_a_link_row_holds_the_inclusion_of_its_rows_at_every_scale(case, data):
    ds, _, _, d, p = case
    ev, pts = PHEvaluator(ds, p), ds.domain.points
    drawn, kept = (set(data.draw(st.lists(st.sampled_from(pts), unique=True))) for _ in range(2))
    big = tuple(x for x in pts if x in drawn)
    small = tuple(x for x in big if x in kept)
    real, mapped = ev._map, []

    def recorded(src, dst):
        mapped.append((src, dst))
        return real(src, dst)

    ev._map = recorded
    for a, b in ((small, big), (big, None), (small, small), (big, big)):
        link = ev._link(a, b, d)
        assert ev._link(a, b, d) is link
        src = ev._row(a, d)
        dst = src[1:] if b is None else ev._row(b, d)
        assert len(link) == len(dst)
        for x, y, mat in zip(src, dst, link):
            assert matrix_of(mat, p) == oracle_inclusion_map(x, y)
            if d and not (x.dim and y.dim):
                assert mat is ModMatrix.zeros(y.dim, x.dim, p)
    # an entry with a zero-dimensional end is never computed
    assert all(x.dim and y.dim for x, y in mapped)
    for a, b in ((big, small), (tuple(x for x in pts if x not in drawn), big)):
        if set(a) <= set(b):
            continue
        with pytest.raises(SimplicialMapError) as info:
            ev._link(a, b, d)
        for end in (ev._row(a, d)[-1], ev._row(b, d)[-1]):
            assert _grade(end.complex) in str(info.value)
        assert (a, b, d) not in ev._links


@settings(max_examples=60, deadline=None, database=None)
@given(interleave_cases(), st.data())
def test_component_maps_of_link_rows_are_the_inclusion_matrices_and_compose_as_them(case, data):
    # the degree-0 fast path against the per-simplex walk, over inclusion and step links
    ds, _, _, _, p = case
    ev, pts = PHEvaluator(ds, p), ds.domain.points
    drawn = [set(data.draw(st.lists(st.sampled_from(pts), unique=True))) for _ in range(3)]
    big = tuple(x for x in pts if x in drawn[0])
    mid = tuple(x for x in big if x in drawn[1])
    small = tuple(x for x in mid if x in drawn[2])
    rows = {vs: ev._row(vs, 0) for vs in (small, mid, big)}
    links = {}  # (source space, target space) -> its component map
    for a, b in ((small, mid), (mid, big), (small, big), (small, None), (mid, None), (big, None)):
        src = rows[a]
        for x, y, entry in zip(src, src[1:] if b is None else rows[b], ev._link(a, b, 0)):
            assert isinstance(entry, ComponentMap)
            assert matrix_of(entry, p) == oracle_inclusion_map(x, y)
            links[x, y] = entry
    entries = list(links.items())
    for ((x, y), f), ((y2, z), g) in itertools.product(entries, repeat=2):
        if y is y2:
            assert matrix_of(g @ f, p) == oracle_inclusion_map(y, z) @ oracle_inclusion_map(x, y)
        elif y.dim != y2.dim:
            with pytest.raises(ValueError):
                g @ f


def test_interleave_computes_each_pairs_sublevels_once_for_every_degree_and_modulus(fixture_a, monkeypatch):
    import enriched_ph.persistence as persistence

    real, calls = persistence._sublevels, []

    def counted(points, values, levels):
        calls.append(len(levels))
        return real(points, values, levels)

    monkeypatch.setattr(persistence, "_sublevels", counted)
    rng = random.Random(67)
    for ds in [fixture_a["both"]] + [random_dataset(rng, min_meas=2) for _ in range(3)]:
        calls.clear()
        evs = [PHEvaluator(ds, p) for p in (2, 3)]
        pairs = list(itertools.product(ds, repeat=2))
        for (phi, psi), d, ev in itertools.product(pairs, (0, 1), evs):
            res = interleave_upper(ds, phi, psi, d, ev.p, evaluator=ev)
            want = oracle_interleave_upper(ds, phi, psi, d, ev.p)
            assert (res.upper, res.certificate) == (want.upper, want.certificate)
        # one call for each measurement of each ordered pair
        assert len(calls) == 2 * len(pairs)
        assert set(_grades(ds).pair_diagrams) == set(pairs)


LINK_NOT_NESTED = """
from enriched_ph import DataSet, Domain, PHEvaluator, SimplicialMapError
from enriched_ph.persistence import _grade

ds = DataSet(Domain(["x1", "x2", "x3", "x4"]), [("phi", ["-1", "0", "0", "1"]), ("psi", ["0", "1", "-1", "0"])])
ev = PHEvaluator(ds, 2)
try:
    ev._link(("x1", "x2"), ("x2", "x3"), 1)
except SimplicialMapError as exc:
    ends = [ev._row(vs, 1)[-1].complex for vs in (("x1", "x2"), ("x2", "x3"))]
    print(__debug__, all(_grade(cx) in str(exc) for cx in ends))
"""


def test_a_link_between_rows_that_do_not_nest_is_refused_under_python_O():
    assert run_under_python_O(LINK_NOT_NESTED).split() == ["False", "True"]


# ---------------------------------------------------------------------------
# slice barcodes and bottleneck


def test_slice_barcode_fixture_a(fixture_a):
    both = fixture_a["both"]
    bars = slice_barcode(both, both.by_name("phi"), 1, 2, F(1))
    assert bars == [(F(1), INF)]
    assert slice_barcode(fixture_a["phi_only"], fixture_a["phi_only"].by_name("phi"), 1, 2, F(1)) == []


def test_slice_barcode_matches_grid_dims():
    rng = random.Random(66)
    for _ in range(10):
        ds = random_dataset(rng, max_points=5, max_meas=3)
        m = next(iter(ds))
        for d in (0, 1):
            bp = ph_grid(ds, m, d, 2)
            for i, r in enumerate(bp.grid.r_values):
                bars = slice_barcode(ds, m, d, 2, r)
                for j, s in enumerate(bp.grid.s_values):
                    alive = sum(1 for b, death in bars if b <= s and (death == INF or death > s))
                    assert alive == bp.spaces[i][j].dim


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(interleave_cases().map(lambda case: (case[0], case[1], case[3], case[4])), sevenths_cases()))
def test_slice_barcode_equals_the_fraction_keyed_oracle(case):
    ds, m, d, p = case
    for r in scale_grid(ds):
        bars = slice_barcode(ds, m, d, p, r)
        assert bars == oracle_slice_barcode(ds, m, d, p, r)
        for birth, death in bars:
            assert type(birth) is Fraction and (death is INF or type(death) is Fraction)


def test_bottleneck_simple_cases():
    assert bottleneck_distance([], []) == 0
    assert bottleneck_distance([(F(0), F(2))], []) == 1
    assert bottleneck_distance([(F(0), F(2))], [(F(0), F(2))]) == 0
    assert bottleneck_distance([(F(0), INF)], [(F(3), INF)]) == 3
    assert bottleneck_distance([(F(0), INF)], []) == INF
    assert bottleneck_distance([(F(0), F(4)), (F(1), F(2))], [(F(0), F(4))]) == F(1, 2)


def test_bottleneck_lower_self_zero(fixture_a):
    both = fixture_a["both"]
    assert bottleneck_lower(both, both.by_name("phi"), both.by_name("phi"), 1, 2) == 0


def test_bottleneck_lower_bounded_by_upper():
    rng = random.Random(67)
    for _ in range(10):
        ds = random_dataset(rng, min_meas=2, max_points=5)
        ms = list(ds)
        phi, psi = rng.sample(ms, 2)
        for d in (0, 1):
            lower = bottleneck_lower(ds, phi, psi, d, 2)
            assert lower <= sup_distance(phi, psi)


# ---------------------------------------------------------------------------
# superlevel duality


def test_superlevel_duality_constant():
    dom = Domain(["a", "b"])
    ds = DataSet(dom, [("c", [2, 2])])
    assert superlevel_duality_check(ds, ds.by_name("c"), 0, 2)


def test_superlevel_duality_fixture_a(fixture_a):
    both = fixture_a["both"]
    for d in (0, 1):
        assert superlevel_duality_check(both, both.by_name("phi"), d, 2)


def test_superlevel_duality_symmetric_measurement():
    # phi = -(phi . sigma) for the operation sigma reversing the square
    dom = Domain(["a", "b", "c", "d"])
    ds = DataSet(dom, [("phi", [-1, -1, 1, 1]), ("nphi", [1, 1, -1, -1])])
    sigma = PointMap(dom, dom, {"a": "c", "b": "d", "c": "a", "d": "b"})
    phi = ds.by_name("phi")
    assert phi.compose(sigma).values == tuple(-v for v in phi.values)
    assert superlevel_duality_check(ds, phi, 0, 2)
    assert superlevel_duality_check(ds, phi, 1, 2)
    neg_ds, fwd = change_units(ValueMap.negate(), ds)
    sub = ph_grid(ds, phi, 0, 2)
    sup = ph_grid(neg_ds, fwd[phi], 0, 2)
    assert sorted(map(sorted, sub.dims())) == sorted(map(sorted, sup.dims()))


def test_superlevel_duality_rejects_a_shifted_negation(fixture_a, monkeypatch):
    # with x -> 1 - x in place of negation the negated grid sits one level off
    import enriched_ph.core as core

    real = core.change_units
    monkeypatch.setattr(core, "change_units", lambda f, ds: real(ValueMap.affine(-1, 1), ds))
    both = fixture_a["both"]
    for name, d in itertools.product(("phi", "psi"), (0, 1)):
        assert superlevel_duality_check(both, both.by_name(name), d, 2) is False


def test_superlevel_duality_random():
    rng = random.Random(68)
    for _ in range(10):
        ds = random_dataset(rng, max_points=5, max_meas=3)
        m = next(iter(ds))
        assert superlevel_duality_check(ds, m, rng.choice((0, 1)), 2)


# ---------------------------------------------------------------------------
# naturality of the comparison maps along a geometric operator


def test_geometric_seo_gives_natural_transformation(fixture_b):
    from enriched_ph import restriction, verify_natural_transformation
    from enriched_ph.ggraph import compose_functor as pull

    inc = fixture_b["incarnation"]
    sub, seo = restriction(inc, ["x2", "x3"])
    rv, sv = _shared_grid(
        [inc.dataset, sub.dataset], list(inc.dataset) + list(sub.dataset)
    )
    for d in (0, 1):
        p_functor = ph_functor(inc, d, 2, r_values=rv, s_values=sv)
        q_base = ph_functor(sub, d, 2, r_values=rv, s_values=sv)
        pulled = pull(q_base, seo.measurement_map, seo.operation_map, build_graph(inc))
        f = seo.realization
        components = {
            phi: ph_map(pulled.objects[phi], p_functor.objects[phi], f)
            for phi in inc.dataset
        }
        assert verify_natural_transformation(pulled, p_functor, components)


def test_matrix_rank():
    assert ModMatrix([[1, 2, 0], [0, 1, 1]], 3, 5).rank() == 2
    assert ModMatrix([[1, 2], [2, 4], [0, 0]], 2, 5).rank() == 1


def test_space_at_cell_lookup(fixture_a):
    both = fixture_a["both"]
    phi = both.by_name("phi")
    bp = ph_grid(both, phi, 1, 2)
    # right-continuous: a point of a cell reads the space at the cell's lower-left corner
    for r, s, dim in ((F(3, 2), F(10), 1), (F(2), F(10), 0), (F(1), F(1, 2), 0)):   # [1,2) x [1,inf) first
        i = bisect.bisect_right(bp.grid.r_values, r) - 1
        j = bisect.bisect_right(bp.grid.s_values, s) - 1
        assert bp.spaces[i][j] is bp.evaluator.homology(sublevel(phi, s), r, 1)
        assert bp.spaces[i][j].dim == dim


def brute_bottleneck(bars_a, bars_b):
    """Minimize the max cost over all partial matchings, by enumeration."""
    fin_a = [b for b in bars_a if b[1] != INF]
    fin_b = [b for b in bars_b if b[1] != INF]
    inf_a = sorted(b[0] for b in bars_a if b[1] == INF)
    inf_b = sorted(b[0] for b in bars_b if b[1] == INF)
    if len(inf_a) != len(inf_b):
        return INF
    inf_cost = F(0)
    if inf_a:
        inf_cost = min(
            max(abs(x - y) for x, y in zip(inf_a, perm))
            for perm in itertools.permutations(inf_b)
        )

    def cost(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    na, nb = len(fin_a), len(fin_b)
    best = None
    for k in range(min(na, nb) + 1):
        for asub in itertools.combinations(range(na), k):
            for bsub in itertools.permutations(range(nb), k):
                worst = F(0)
                for i, j in zip(asub, bsub):
                    worst = max(worst, cost(fin_a[i], fin_b[j]))
                for i in range(na):
                    if i not in asub:
                        worst = max(worst, (fin_a[i][1] - fin_a[i][0]) / 2)
                for j in range(nb):
                    if j not in bsub:
                        worst = max(worst, (fin_b[j][1] - fin_b[j][0]) / 2)
                if best is None or worst < best:
                    best = worst
    return max(best if best is not None else F(0), inf_cost)


def test_bottleneck_matches_brute_force():
    rng = random.Random(69)

    def random_bars(max_bars):
        bars = []
        for _ in range(rng.randint(0, max_bars)):
            b = F(rng.randint(-6, 6), 2)
            if rng.random() < 0.25:
                bars.append((b, INF))
            else:
                bars.append((b, b + F(rng.randint(1, 8), 2)))
        return bars

    for _ in range(120):
        a, b = random_bars(4), random_bars(4)
        assert bottleneck_distance(a, b) == brute_bottleneck(a, b)


def test_bottleneck_on_real_slices_matches_brute_force():
    rng = random.Random(70)
    for _ in range(15):
        ds = random_dataset(rng, max_points=4, min_meas=2, max_meas=3)
        ms = list(ds)
        phi, psi = rng.sample(ms, 2)
        for d in (0, 1):
            for r in ds.pseudometric().distinct_values():
                bars_a = slice_barcode(ds, phi, d, 2, r)
                bars_b = slice_barcode(ds, psi, d, 2, r)
                if len(bars_a) <= 5 and len(bars_b) <= 5:
                    assert bottleneck_distance(bars_a, bars_b) == brute_bottleneck(bars_a, bars_b)


BIRTHS = st.sampled_from(HALF_LATTICE)
FINITE_BARS = st.tuples(BIRTHS, st.sampled_from(HALF_LATTICE[6:])).map(lambda t: (t[0], t[0] + t[1]))


@st.composite
def diagram_pairs(draw):
    """Two shuffled interval lists with shared and repeated bars and some
    infinite bars, whose numbers agree half of the time; one draw in four
    is a diagram and a shuffled copy of it."""
    shared = draw(st.lists(FINITE_BARS, max_size=3))
    n_inf = draw(st.integers(0, 3))

    def diagram(k):
        bars = shared + draw(st.lists(FINITE_BARS, max_size=3))
        bars += [(b, INF) for b in draw(st.lists(BIRTHS, min_size=k, max_size=k))]
        bars += bars[: draw(st.integers(0, 2))]
        return draw(st.permutations(bars))

    a = diagram(n_inf)
    if draw(st.integers(0, 3)) == 0:
        return a, draw(st.permutations(a))
    return a, diagram(n_inf if draw(st.booleans()) else draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None, database=None)
@given(diagram_pairs())
def test_bottleneck_distance_equals_the_full_search(pair):
    a, b = pair
    got, want = bottleneck_distance(a, b), oracle_bottleneck_distance(a, b)
    assert got == want and type(got) is type(want)


def test_bottleneck_lower_shared_across_pairs_equals_fresh_oracle():
    rng = random.Random(71)
    for _ in range(4):
        ds = random_dataset(rng, max_points=5, min_meas=2, max_meas=4)
        calls = [(a, b, d, p) for a in ds for b in ds for d in (0, 1) for p in (2, 3)]
        rng.shuffle(calls)
        for phi, psi, d, p in calls:
            assert bottleneck_lower(ds, phi, psi, d, p) == oracle_bottleneck_lower(ds, phi, psi, d, p)


def test_slice_memo_belongs_to_one_data_set():
    # chi widens the pseudometric, so phi has other barcodes in the larger data set
    dom = Domain(["x1", "x2", "x3", "x4"])
    phi, psi, chi = ("phi", [2, 0, 0, 2]), ("psi", [-2, 1, -1, -2]), ("chi", [-1, -2, 0, 1])
    small, large = DataSet(dom, [phi, psi]), DataSet(dom, [phi, psi, chi])
    lowers = []
    for ds in (small, large):
        lowers.append(bottleneck_lower(ds, ds.by_name("phi"), ds.by_name("psi"), 0, 2))
        assert lowers[-1] == oracle_bottleneck_lower(ds, ds.by_name("phi"), ds.by_name("psi"), 0, 2)
    assert lowers == [2, 3]
    assert any(
        slice_barcode(small, small.by_name("phi"), 0, 2, r)
        != slice_barcode(large, large.by_name("phi"), 0, 2, r)
        for r in scale_grid(small)
    )


def test_bottleneck_lower_computes_only_the_new_measurements_barcodes(monkeypatch):
    import enriched_ph.persistence as persistence

    ds = random_dataset(random.Random(72), min_points=4, max_points=4, min_meas=3, max_meas=3)
    phi, psi, chi = ds
    n = len(scale_grid(ds))
    real, seen = persistence.slice_barcode, []

    def counted(dataset, m, *rest):
        seen.append(m)
        return real(dataset, m, *rest)

    monkeypatch.setattr(persistence, "slice_barcode", counted)
    bottleneck_lower(ds, phi, psi, 1, 3)
    assert [seen.count(m) for m in ds] == [n, n, 0]
    seen.clear()
    bottleneck_lower(ds, phi, chi, 1, 3)
    assert seen == [chi] * n


@settings(max_examples=60, deadline=None, database=None)
@given(interleave_cases(), st.integers(0, 4))
def test_bottleneck_lower_matches_each_change_of_the_barcode_pair_once(case, cut):
    # cut > 0 makes the cut-th matching infinite, as an unmatched infinite bar would be
    import enriched_ph.persistence as persistence

    ds, phi, psi, d, p = case
    grid = scale_grid(ds)
    for m, degree in itertools.product(ds, (0, 1, 2)):  # every measurement's sorted filtration first
        slice_barcode(ds, m, degree, p, grid[0])
    for m, degree, r in itertools.product(ds, (0, 1, 2), grid):
        assert slice_barcode(ds, m, degree, p, r) == oracle_slice_barcode(ds, m, degree, p, r)
    pairs = [(oracle_slice_barcode(ds, phi, d, p, r), oracle_slice_barcode(ds, psi, d, p, r)) for r in grid]
    changes = [pair for k, pair in enumerate(pairs) if k == 0 or pair != pairs[k - 1]]
    real, matched = persistence.bottleneck_distance, []

    def counted(a, b):
        matched.append((list(a), list(b)))
        return INF if len(matched) == cut else real(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persistence, "bottleneck_distance", counted)
        got = bottleneck_lower(ds, phi, psi, d, p)
    if 0 < cut <= len(changes):
        assert got == INF and matched == changes[:cut]
    else:
        assert got == oracle_bottleneck_lower(ds, phi, psi, d, p) and matched == changes


def test_orientation_reversal_sign_odd_characteristic(fixture_a):
    # swapping x2 and x3 is an isometry reversing the 4-cycle, so it acts as
    # -1 on H_1 over F_3 and as 1 over F_2
    metric = fixture_a["both"].pseudometric()
    swap = {"x1": "x1", "x2": "x3", "x3": "x2", "x4": "x4"}
    for a, b in itertools.combinations(fixture_a["domain"].points, 2):
        assert metric.at(swap[a], swap[b]) == metric.at(a, b)
    cx = vr_complex(fixture_a["domain"].points, metric.at, F(1), 2)
    h3 = homology(cx, 1, 3)
    m3 = induced_map(h3, h3, swap)
    assert m3.rows == ((2,),)  # -1 mod 3
    assert (m3 @ m3).rows == ((1,),)
    h2 = homology(cx, 1, 2)
    assert induced_map(h2, h2, swap).rows == ((1,),)


def test_ph_functor_odd_characteristic(fixture_b):
    functor = ph_functor(fixture_b["incarnation"], 1, 3)
    assert functor.verify(lambda a, b: a * b)
    for arrow in functor.arrows.values():
        assert arrow.is_natural()


def test_ph_map_refuses_a_realization_between_other_domains(fixture_b):
    # f: Y -> X carries the image persistence on Y to that of the preimage on X
    xs, ys, sx = Domain(["a", "b", "c"]), Domain(["u", "v", "w"]), Domain(["b", "a", "c"])
    on_x, on_y = DataSet(xs, [("f", ["0", "1", "3"])]), DataSet(ys, [("f", ["0", "1", "3"])])
    bp_x, bp_y = ph_grid(on_x, on_x.by_name("f"), 0, 2), ph_grid(on_y, on_y.by_name("f"), 0, 2)
    f = PointMap(ys, xs, {"u": "a", "v": "b", "w": "c"})
    assert ph_map(bp_y, bp_x, f).is_natural()
    for realization, end in (
        (PointMap.identity(xs), "source"),
        (PointMap.identity(ys), "target"),
        (PointMap(ys, sx, {"u": "a", "v": "b", "w": "c"}), "target"),
    ):
        with pytest.raises(ValueError, match=f"the realization's {end} domain is not the {end} persistence's"):
            ph_map(bp_y, bp_x, realization)
    assert ph_functor(fixture_b["incarnation"], 0, 2).verify(lambda a, b: a * b)
