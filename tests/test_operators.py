import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriched_ph import operators
from enriched_ph import (
    DataSet,
    Domain,
    EquivarianceError,
    HypothesisViolation,
    Incarnation,
    NotInvariant,
    PointMap,
    Relation,
    ValueMap,
    VerificationError,
    blocks,
    canonical_seo,
    change_units_apply,
    change_units_seo,
    compose_seo,
    decompose,
    dimension,
    domain_change,
    domain_change_incarnation,
    enumerate_geos,
    extend_from_basis,
    find_all_realizations,
    find_basis,
    find_realization,
    find_seo_realization,
    identity_seo,
    is_independent,
    restriction,
    validate_seo,
)
from conftest import (
    random_dataset,
    random_incarnation,
    random_permutation,
    random_point_map,
    random_transitive_group_incarnation,
)


def ident_maps(inc):
    return {m: m for m in inc.dataset}, {g: g for g in inc.ops}


# ---------------------------------------------------------------------------
# validation


def test_identity_seo(fixture_b):
    inc = fixture_b["incarnation"]
    seo = identity_seo(inc)
    assert seo.is_monoid_operator
    assert seo.is_geometric


def test_canonical_seo_valid(fixture_b):
    inc = fixture_b["incarnation"]
    seo = canonical_seo(inc)
    assert seo.target.kind == "monoid"
    assert set(seo.target.ops) >= set(inc.ops)


def test_collapse_alpha_is_equivariant(fixture_b):
    # every single-step instance checks out, so this map is accepted
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    alpha = {p1: p2, p2: p2, p3: p3}
    seo = validate_seo(inc, inc, alpha, {g: g for g in inc.ops})
    assert seo.measurement_map[p1] == p2


def test_swap_alpha_rejected_with_genuine_witness(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    alpha = {p1: p3, p2: p2, p3: p1}
    with pytest.raises(EquivarianceError) as err:
        validate_seo(inc, inc, alpha, {g: g for g in inc.ops})
    m, g = err.value.witness
    assert alpha[inc.act(m, g)] != inc.act(alpha[m], g)


def test_t_image_outside_target_rejected(fixture_b):
    inc = fixture_b["incarnation"]
    small = Incarnation(fixture_b["dataset"], [PointMap.identity(fixture_b["domain"])])
    with pytest.raises(EquivarianceError):
        validate_seo(inc, small, {m: m for m in inc.dataset}, {g: g for g in inc.ops})


# ---------------------------------------------------------------------------
# composition


def test_compose_with_identity(fixture_b):
    inc = fixture_b["incarnation"]
    seo = canonical_seo(inc)
    assert compose_seo(identity_seo(inc), seo) == seo
    assert compose_seo(seo, identity_seo(seo.target)) == seo


def test_compose_endpoint_mismatch(fixture_b, fixture_a):
    inc = fixture_b["incarnation"]
    other = Incarnation(fixture_a["both"], [])
    with pytest.raises(ValueError):
        compose_seo(identity_seo(inc), identity_seo(other))


def test_compose_geometric_realizations():
    rng = random.Random(31)
    for _ in range(10):
        inc = random_incarnation(rng, max_points=4, max_ops=2)
        f = random_permutation(rng, inc.dataset.domain)
        mid, s1 = domain_change_incarnation(inc, f)
        g = random_permutation(rng, mid.dataset.domain)
        _, s2 = domain_change_incarnation(mid, g)
        composite = compose_seo(s1, s2)
        assert composite.realization == f * g
        assert composite.is_geometric


def test_compose_associative():
    rng = random.Random(32)
    for _ in range(8):
        inc = random_incarnation(rng, max_points=4, max_ops=2)
        chain = [identity_seo(inc)]
        cur = inc
        for _ in range(3):
            f = random_permutation(rng, cur.dataset.domain)
            cur, seo = domain_change_incarnation(cur, f)
            chain.append(seo)
        s1, s2, s3 = chain[1], chain[2], chain[3]
        assert compose_seo(compose_seo(s1, s2), s3) == compose_seo(s1, compose_seo(s2, s3))


# ---------------------------------------------------------------------------
# realizations


def test_domain_change_map_is_geometric():
    rng = random.Random(33)
    for _ in range(10):
        ds = random_dataset(rng, max_points=4, max_meas=3)
        src = Domain([f"y{i}" for i in range(rng.randint(1, 4))])
        f = random_point_map(rng, src, ds.domain)
        out, fwd = domain_change(ds, f)
        found = find_realization(ds, out, fwd)
        assert found is not None
        for m in ds:
            assert m.compose(found) == fwd[m]


def test_identity_realized_by_identity(fixture_a):
    ds = fixture_a["both"]
    found = find_realization(ds, ds, {m: m for m in ds})
    assert found == PointMap.identity(ds.domain)


def test_fixture_c_alpha_has_no_realization(fixture_c):
    assert find_realization(fixture_c["left"], fixture_c["right"], fixture_c["alpha"]) is None


def test_seo_realization_for_restriction(fixture_b):
    inc = fixture_b["incarnation"]
    sub, seo = restriction(inc, ["x2"])
    found = find_seo_realization(seo)
    assert found is not None
    assert found.mapping == {"x2": "x2"}


def test_seo_realization_for_domain_change_bijection(fixture_b):
    inc = fixture_b["incarnation"]
    dom = fixture_b["domain"]
    f = PointMap(Domain(["y1", "y2", "y3"]), dom, {"y1": "x2", "y2": "x3", "y3": "x1"})
    out, seo = domain_change_incarnation(inc, f)
    assert seo.realization == f
    assert find_seo_realization(seo) is not None


@st.composite
def small_incarnations(draw):
    """1-4 points, up to two random self-maps, and the closure of one or two
    measurements with values in {0, 1, 2} under them (at most five)."""
    n = draw(st.integers(1, 4))
    dom = Domain([f"x{i}" for i in range(1, n + 1)])
    images = draw(st.lists(st.tuples(*[st.sampled_from(dom.points)] * n), max_size=2))
    ops = [PointMap(dom, dom, dict(zip(dom.points, img))) for img in images]
    meas = set(draw(st.lists(st.tuples(*[st.sampled_from((0, 1, 2))] * n), min_size=1, max_size=2)))
    frontier = list(meas)
    while frontier and len(meas) <= 5:
        cur = frontier.pop()
        for g in ops:
            img = tuple(cur[dom.index(g(p))] for p in dom.points)
            if img not in meas:
                meas.add(img)
                frontier.append(img)
    assume(len(meas) <= 5)
    return Incarnation(DataSet(dom, [(None, v) for v in sorted(meas)]), ops)


@st.composite
def validated_operators(draw):
    """An operator between two small incarnations: a random operation map,
    then one of the measurement maps equivariant for it."""
    source, target = draw(small_incarnations()), draw(small_incarnations())
    assume(target.ops or not source.ops)
    tmap = {g: draw(st.sampled_from(target.ops)) for g in source.ops}
    ms = list(source.dataset)
    maps = [dict(zip(ms, images)) for images in itertools.product(list(target.dataset), repeat=len(ms))]
    equivariant = [
        alpha for alpha in maps if all(alpha[source.act(m, g)] == target.act(alpha[m], tmap[g]) for m in ms for g in tmap)
    ]
    assume(equivariant)
    return validate_seo(source, target, draw(st.sampled_from(equivariant)), tmap)


def realizes(seo, f: dict) -> bool:
    """phi . f = alpha(phi) for every source measurement phi, and f . T(g) = g . f for every operation g."""
    ys = seo.target.dataset.domain.points
    return all(
        phi.at(f[y]) == alpha_phi.at(y) for phi, alpha_phi in seo.measurement_map.items() for y in ys
    ) and all(f[tg(y)] == g(f[y]) for g, tg in seo.operation_map.items() for y in ys)


@settings(max_examples=300, deadline=None, database=None)
@given(validated_operators())
def test_seo_realization_search_equals_brute_force(seo):
    xs, ys = seo.source.dataset.domain.points, seo.target.dataset.domain.points
    brute = [f for f in (dict(zip(ys, img)) for img in itertools.product(xs, repeat=len(ys))) if realizes(seo, f)]
    found = find_seo_realization(seo)
    assert (found is None) == (not brute)
    if found is not None:
        assert (found.source, found.target) == (seo.target.dataset.domain, seo.source.dataset.domain)
        assert realizes(seo, found.mapping)


def test_realization_search_names_a_changed_operation_map():
    # alpha swaps the points; T(id) = g0 is not equivariant, but is set only after validation
    dom = Domain(["x1", "x2"])
    source = Incarnation(DataSet(dom, [("m0", [1, Fraction(-3, 2)])]), [PointMap.identity(dom)])
    target = Incarnation(
        DataSet(dom, [("m0", [Fraction(-3, 2), 1]), ("m1", [1, 1])]),
        [PointMap.identity(dom), PointMap(dom, dom, {"x1": "x2", "x2": "x2"}, ("g0",))],
    )
    m0 = source.dataset.by_name("m0")
    seo = validate_seo(source, target, {m0: target.dataset.by_name("m0")}, {source.ops[0]: target.op_by_name("id")})
    assert seo.realization.mapping == {"x1": "x2", "x2": "x1"}
    seo.operation_map[source.ops[0]] = target.op_by_name("g0")
    with pytest.raises(VerificationError, match="x2 is not a candidate for x2") as info:
        find_seo_realization(seo)
    assert info.value.witness == ("x2", "x2")


def test_find_all_realizations_counts():
    # one measurement constant on two points: the fiber has two choices
    dom = Domain(["a", "b"])
    ds = DataSet(dom, [("f", [1, 1])])
    alpha = {ds.by_name("f"): ds.by_name("f")}
    assert len(find_all_realizations(ds, ds, alpha)) == 4


# ---------------------------------------------------------------------------
# restriction


def test_restriction_full_domain_is_identity_shaped(fixture_b):
    inc = fixture_b["incarnation"]
    sub, seo = restriction(inc, list(fixture_b["domain"]))
    assert sub.dataset == inc.dataset
    assert seo.is_isomorphism


def test_restriction_fixture_b_invariant_point(fixture_b):
    inc = fixture_b["incarnation"]
    sub, seo = restriction(inc, ["x2"])
    assert [m.values for m in sub.dataset] == [(Fraction(2),)]
    assert seo.realization.mapping == {"x2": "x2"}


def test_restriction_non_invariant_rejected(fixture_b):
    inc = fixture_b["incarnation"]
    with pytest.raises(NotInvariant) as err:
        restriction(inc, ["x1"])
    y, g = err.value.witness
    assert y == "x1" and g(y) not in {"x1"}


# ---------------------------------------------------------------------------
# domain change of incarnations


def test_domain_change_identity_same(fixture_b):
    inc = fixture_b["incarnation"]
    out, seo = domain_change_incarnation(inc, PointMap.identity(fixture_b["domain"]))
    assert out == inc
    assert seo == identity_seo(inc)


def test_domain_change_needs_bijection(fixture_b):
    inc = fixture_b["incarnation"]
    with pytest.raises(ValueError):
        domain_change_incarnation(inc, fixture_b["ops"]["g2"])


def test_relabeling_preserves_dimension_and_blocks():
    rng = random.Random(34)
    for _ in range(15):
        inc = random_incarnation(rng)
        f = random_permutation(rng, inc.dataset.domain)
        out, seo = domain_change_incarnation(inc, f)
        assert seo.is_isomorphism
        assert dimension(out) == dimension(inc)
        assert len(blocks(out)) == len(blocks(inc))
        # isomorphisms carry bases to bases
        basis = find_basis(inc)
        image = [seo.measurement_map[m] for m in basis]
        assert is_independent(image, out)
        from enriched_ph import deformation_closure

        assert set(deformation_closure(image, out)) == set(out.dataset)


def test_conjugation_is_multiplicative(fixture_b):
    inc = fixture_b["incarnation"]
    dom = fixture_b["domain"]
    cycle = PointMap(Domain(["y1", "y2", "y3"]), dom, {"y1": "x2", "y2": "x3", "y3": "x1"})
    _, seo = domain_change_incarnation(inc, cycle)
    t = seo.operation_map
    for g in inc.ops:
        for h in inc.ops:
            assert t[g * h] == t[g] * t[h]


# ---------------------------------------------------------------------------
# change of units


def test_change_units_seo_negate(fixture_a):
    inc = Incarnation(fixture_a["both"], [PointMap.identity(fixture_a["domain"])])
    out, seo = change_units_seo(ValueMap.negate(), inc)
    assert {m.values for m in out.dataset} == {
        tuple(-v for v in m.values) for m in inc.dataset
    }
    assert seo.is_monoid_operator


def test_change_units_identity_functor(fixture_b):
    inc = fixture_b["incarnation"]
    values = {v for m in inc.dataset for v in m.values}
    f = ValueMap.from_table({v: v for v in values})
    out, seo = change_units_seo(f, inc)
    assert out == inc


def test_change_units_functor_round_trip():
    rng = random.Random(35)
    f = ValueMap.affine(2, 1)
    for _ in range(10):
        inc = random_incarnation(rng, max_points=4, max_ops=2)
        seo = identity_seo(inc)
        # also try a nontrivial operator when one exists
        src1, tgt1, once = change_units_apply(f, seo)
        src2, tgt2, twice = change_units_apply(f.inverse(), once)
        assert src2 == seo.source and tgt2 == seo.target
        assert twice == seo


def test_change_units_functor_needs_invertible(fixture_b):
    inc = fixture_b["incarnation"]
    with pytest.raises(ValueError):
        change_units_apply(ValueMap.clamp_sign(), identity_seo(inc))


def test_change_units_preserves_kind(fixture_b):
    inc = fixture_b["incarnation"]
    out, _ = change_units_seo(ValueMap.clamp_sign(), inc)
    assert out.kind == "monoid"


# ---------------------------------------------------------------------------
# extension from a basis


def test_extension_round_trip(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    seo = validate_seo(inc, inc, {p1: p2, p2: p2, p3: p3}, {g: g for g in inc.ops})
    basis = find_basis(inc)
    for variant in ("SEO", "MEO"):
        rebuilt = extend_from_basis(
            inc, inc, basis, {w: seo.measurement_map[w] for w in basis}, seo.operation_map, variant
        )
        assert rebuilt == seo


def test_extension_swap_rejected(fixture_b):
    # phi1.g2 = phi1.g3 = phi2 but the swapped images differ: no extension
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p3 = ds.by_name("phi1"), ds.by_name("phi3")
    for variant in ("SEO", "MEO"):
        with pytest.raises(HypothesisViolation):
            extend_from_basis(
                inc, inc, [p1, p3], {p1: p3, p3: p1}, {g: g for g in inc.ops}, variant
            )


def test_extension_requires_independent_generating(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p2 = ds.by_name("phi1"), ds.by_name("phi2")
    with pytest.raises(HypothesisViolation):
        # phi2 is a deformation of phi1: not independent
        extend_from_basis(inc, inc, [p1, p2], {p1: p1, p2: p2}, {g: g for g in inc.ops}, "SEO")
    with pytest.raises(HypothesisViolation):
        # {phi2} is independent but does not generate
        extend_from_basis(inc, inc, [p2], {p2: p2}, {g: g for g in inc.ops}, "SEO")


def test_extension_unique_against_all_seos():
    rng = random.Random(36)
    for _ in range(10):
        inc = random_incarnation(rng, max_points=3, max_ops=2, max_meas=4)
        basis = find_basis(inc)
        seo = identity_seo(inc)
        rebuilt = extend_from_basis(
            inc, inc, basis, {w: w for w in basis}, seo.operation_map, "SEO"
        )
        assert rebuilt == seo


def test_geo_extension_isotropy():
    rng = random.Random(37)
    count = 0
    while count < 10:
        src = random_transitive_group_incarnation(rng, max_points=4)
        tgt = random_transitive_group_incarnation(rng, max_points=4)
        # trivial homomorphism always exists
        ident_t = PointMap.identity(tgt.dataset.domain)
        tmap = {g: ident_t for g in src.ops}
        omega = next(iter(src.dataset))
        count += 1
        for psi in tgt.dataset:
            fixed = all(tgt.act(psi, tmap[g]) == psi for g in src.ops if src.act(omega, g) == omega)
            assert fixed  # trivial homomorphism: condition always holds
            seo = extend_from_basis(src, tgt, [omega], {omega: psi}, tmap, "GEO")
            assert seo.is_group_operator


# ---------------------------------------------------------------------------
# GEO enumeration


def test_enumerate_geos_contains_identity(fixture_b):
    rng = random.Random(38)
    inc = random_transitive_group_incarnation(rng)
    omega = next(iter(inc.dataset))
    out = enumerate_geos(inc, omega, inc, {g: g for g in inc.ops})
    assert identity_seo(inc) in out


def test_enumerate_geos_trivial_target_group():
    rng = random.Random(39)
    src = random_transitive_group_incarnation(rng)
    dom = Domain(["z1", "z2"])
    tgt = Incarnation(DataSet(dom, [("a", [0, 1]), ("b", [2, 3])]), [PointMap.identity(dom)])
    assert tgt.kind == "group"
    ident_t = PointMap.identity(dom)
    out = enumerate_geos(src, next(iter(src.dataset)), tgt, {g: ident_t for g in src.ops})
    assert len(out) == len(tgt.dataset)  # isotropy condition is vacuous


def brute_force_equivariant_maps(src, tgt, tmap):
    out = []
    ms = list(src.dataset)
    for images in itertools.product(list(tgt.dataset), repeat=len(ms)):
        alpha = dict(zip(ms, images))
        if all(
            alpha[src.act(m, g)] == tgt.act(alpha[m], tmap[g]) for m in ms for g in src.ops
        ):
            out.append(alpha)
    return out


def test_enumerate_geos_matches_brute_force():
    rng = random.Random(40)
    done = 0
    while done < 10:
        src = random_transitive_group_incarnation(rng, max_points=4)
        tgt = random_transitive_group_incarnation(rng, max_points=4)
        ident_t = PointMap.identity(tgt.dataset.domain)
        tmap = {g: ident_t for g in src.ops}
        if len(tgt.dataset) ** len(src.dataset) > 50000:
            continue
        done += 1
        omega = next(iter(src.dataset))
        geos = enumerate_geos(src, omega, tgt, tmap)
        brute = brute_force_equivariant_maps(src, tgt, tmap)
        assert len(geos) == len(brute)
        assert {frozenset((k, v) for k, v in s.measurement_map.items()) for s in geos} == {
            frozenset(a.items()) for a in brute
        }


def test_enumerate_geos_checks_the_homomorphism_once(monkeypatch):
    inc = random_transitive_group_incarnation(random.Random(38))
    omega = next(iter(inc.dataset))
    calls, violation = [], operators._homomorphism_violation

    def counted(source, target, tmap):
        calls.append(tmap)
        return violation(source, target, tmap)

    monkeypatch.setattr(operators, "_homomorphism_violation", counted)
    out = enumerate_geos(inc, omega, inc, {g: g for g in inc.ops})
    assert len(out) == 4 and len(calls) == 1
    # a constant operation map does not keep the identity, whatever isotropy says
    g0 = next(g for g in inc.ops if g != PointMap.identity(inc.dataset.domain))
    with pytest.raises(HypothesisViolation, match="^operation map does not preserve the identity$") as err:
        enumerate_geos(inc, omega, inc, {g: g0 for g in inc.ops})
    assert err.value.witness == (inc.op_by_name("id"),)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_transitive_single_block(fixture_b):
    inc = fixture_b["incarnation"]
    diag, seo = decompose(inc)
    assert len(diag.dataset.domain) == len(fixture_b["domain"])
    assert seo.is_isomorphism
    assert dimension(diag) == dimension(inc)


def test_decompose_identity_only(fixture_a):
    inc = Incarnation(fixture_a["both"], [PointMap.identity(fixture_a["domain"])])
    diag, seo = decompose(inc)
    assert len(diag.dataset.domain) == 2 * 4
    assert len(blocks(diag)) == 2
    assert seo.is_isomorphism
    assert dimension(diag) == dimension(inc) == 2


def test_decompose_random_isomorphism():
    rng = random.Random(41)
    for _ in range(15):
        inc = random_incarnation(rng)
        diag, seo = decompose(inc)
        assert seo.is_isomorphism
        assert dimension(diag) == dimension(inc)
        assert len(blocks(diag)) == len(blocks(inc))
        basis = find_basis(inc)
        image = [seo.measurement_map[m] for m in basis]
        assert is_independent(image, diag)


def test_a_decomposition_that_is_not_an_isomorphism_fails_the_certificate(fixture_b, monkeypatch):
    # validate_seo hands decompose an operator that sends every measurement to one
    validate = operators.validate_seo

    def merged(*args):
        seo = validate(*args)
        seo.measurement_map = dict.fromkeys(seo.measurement_map, next(iter(seo.measurement_map.values())))
        return seo

    monkeypatch.setattr(operators, "validate_seo", merged)
    with pytest.raises(VerificationError, match="^block decomposition is not an isomorphism$") as err:
        decompose(fixture_b["incarnation"])
    assert len(set(err.value.witness.measurement_map.values())) == 1


def test_change_units_maps_form_natural_transformation():
    # whiskering: units . (alpha, T) == C(f)(alpha, T) . units
    rng = random.Random(42)
    f = ValueMap.affine(-1, 2)
    for _ in range(8):
        inc = random_incarnation(rng, max_points=4, max_ops=2)
        fwd = random_permutation(rng, inc.dataset.domain)
        target, seo = domain_change_incarnation(inc, fwd)
        new_src, new_tgt, mapped = change_units_apply(f, seo)
        _, units_src = change_units_seo(f, inc)
        _, units_tgt = change_units_seo(f, target)
        assert compose_seo(seo, units_tgt) == compose_seo(units_src, mapped)


def test_extension_violation_carries_valid_relation(fixture_b):
    from enriched_ph import Relation

    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p3 = ds.by_name("phi1"), ds.by_name("phi3")
    alpha_bar = {p1: p3, p3: p1}
    for variant in ("SEO", "MEO"):
        with pytest.raises(HypothesisViolation) as err:
            extend_from_basis(inc, inc, [p1, p3], alpha_bar, {g: g for g in inc.ops}, variant)
        bad = err.value.witness
        assert isinstance(bad, Relation)
        assert bad.holds_in(inc)  # the coincidence is real
        assert not bad.image(alpha_bar, {g: g for g in inc.ops}).holds_in(inc)


# ---------------------------------------------------------------------------
# monoid and group hypotheses: each failure names its witness


def _swap_group(points, measurements):
    """A group incarnation: the identity and the swap of two points."""
    dom = Domain(points)
    a, b = points
    swap = PointMap(dom, dom, {a: b, b: a}, ("swap",))
    return Incarnation(DataSet(dom, measurements), [PointMap.identity(dom), swap])


def _not_homomorphism(inc):
    # swapping g1 and g2 breaks g3 . g2 = g2: T(g3) . T(g2) = g3 . g1 = g2, not g1
    g1, g2, g3, ident = (inc.op_by_name(n) for n in ("g1", "g2", "g3", "id"))
    return {ident: ident, g1: g2, g2: g1, g3: g3}


def test_meo_geo_extension_needs_the_right_kinds(fixture_b):
    inc = fixture_b["incarnation"]
    basis = find_basis(inc)
    ident = {g: g for g in inc.ops}
    with pytest.raises(HypothesisViolation) as err:
        extend_from_basis(inc, inc, basis, {w: w for w in basis}, ident, "GEO")
    assert err.value.witness == ("monoid", "monoid")
    assert str(err.value) == "GEO extension needs ('group',) incarnations"
    general = Incarnation(fixture_b["dataset"], [fixture_b["ops"]["g1"]])
    assert general.kind == "general"
    g1 = general.ops[0]
    basis = find_basis(general)
    with pytest.raises(HypothesisViolation) as err:
        extend_from_basis(general, inc, basis, {w: w for w in basis}, {g1: g1}, "MEO")
    assert err.value.witness == ("general", "monoid")
    assert str(err.value) == "MEO extension needs ('monoid', 'group') incarnations"


def test_meo_extension_needs_the_identity_preserved(fixture_b):
    inc = fixture_b["incarnation"]
    basis = find_basis(inc)
    g2 = inc.op_by_name("g2")
    with pytest.raises(HypothesisViolation) as err:
        extend_from_basis(inc, inc, basis, {w: w for w in basis}, {g: g2 for g in inc.ops}, "MEO")
    assert err.value.witness == (inc.op_by_name("id"),)
    assert str(err.value) == "operation map does not preserve the identity"


def test_meo_extension_needs_a_homomorphism(fixture_b):
    inc = fixture_b["incarnation"]
    basis = find_basis(inc)
    with pytest.raises(HypothesisViolation) as err:
        extend_from_basis(inc, inc, basis, {w: w for w in basis}, _not_homomorphism(inc), "MEO")
    assert err.value.witness == (inc.op_by_name("g3"), inc.op_by_name("g2"))
    assert str(err.value) == "operation map is not a homomorphism"


def test_geo_extension_needs_isotropy_kept():
    # swap fixes a, but T(swap) = swap moves c, the image of a, to d
    src = _swap_group(["x1", "x2"], [("a", [0, 0])])
    tgt = _swap_group(["z1", "z2"], [("c", [0, 1]), ("d", [1, 0])])
    a, c = src.dataset.by_name("a"), tgt.dataset.by_name("c")
    tmap = {src.op_by_name(n): tgt.op_by_name(n) for n in ("id", "swap")}
    with pytest.raises(HypothesisViolation) as err:
        extend_from_basis(src, tgt, [a], {a: c}, tmap, "GEO")
    swap = src.op_by_name("swap")
    assert err.value.witness == Relation(a, a, (swap,), ())
    assert str(err.value) == "T(swap) does not fix the image of a"


@pytest.mark.parametrize("variant", ["SEO", "MEO", "GEO"])
def test_a_conflict_once_the_hypotheses_hold_fails_the_certificate(fixture_b, monkeypatch, variant):
    # the closure walk reports a conflict: for SEO the walk is the hypothesis, so the
    # conflict is a HypothesisViolation; MEO and GEO verified theirs, so it is internal
    inc = _swap_group(["x1", "x2"], [("c", [0, 1]), ("d", [1, 0])]) if variant == "GEO" else fixture_b["incarnation"]
    basis = find_basis(inc)
    conflict, closure_pairs = Relation(basis[0], basis[0], (), ()), operators._closure_pairs
    monkeypatch.setattr(operators, "_closure_pairs", lambda *args: (closure_pairs(*args)[0], conflict))
    expected = HypothesisViolation if variant == "SEO" else VerificationError
    with pytest.raises(expected) as err:
        extend_from_basis(inc, inc, basis, {w: w for w in basis}, {g: g for g in inc.ops}, variant)
    assert type(err.value) is expected and err.value.witness == conflict


def test_is_monoid_operator_false_cases(fixture_b):
    # every measurement goes to the constant phi2, which every operation
    # fixes, so any operation map is equivariant
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    const = {m: ds.by_name("phi2") for m in ds}
    g2 = inc.op_by_name("g2")
    assert validate_seo(inc, inc, const, {g: g for g in inc.ops}).is_monoid_operator
    assert not validate_seo(inc, inc, const, {g: g2 for g in inc.ops}).is_monoid_operator
    assert not validate_seo(inc, inc, const, _not_homomorphism(inc)).is_monoid_operator
    general = Incarnation(ds, [fixture_b["ops"]["g1"]])
    g1 = general.ops[0]
    seo = validate_seo(general, inc, const, {g1: inc.op_by_name("g1")})
    assert not seo.is_monoid_operator
    assert not seo.is_group_operator


def test_enumerate_geos_guards(fixture_b):
    monoid = fixture_b["incarnation"]
    group = _swap_group(["x1", "x2"], [("a", [0, 1]), ("b", [1, 0])])
    a = group.dataset.by_name("a")
    ident = {g: g for g in group.ops}
    with pytest.raises(HypothesisViolation) as err:
        enumerate_geos(monoid, fixture_b["dataset"].by_name("phi1"), group, {})
    assert err.value.witness == ("monoid",)
    assert str(err.value) == "source must be a group incarnation"
    with pytest.raises(HypothesisViolation) as err:
        enumerate_geos(group, a, monoid, ident)
    assert err.value.witness == ("monoid",)
    assert str(err.value) == "target must be a group incarnation"
    split = _swap_group(["x1", "x2"], [("a", [0, 0]), ("b", [1, 1])])
    with pytest.raises(HypothesisViolation) as err:
        enumerate_geos(split, split.dataset.by_name("a"), group, {})
    assert err.value.witness == (2,)
    assert str(err.value) == "source must be transitive"


def test_enumerate_geos_checks_the_operation_map():
    group = _swap_group(["x1", "x2"], [("a", [0, 1]), ("b", [1, 0])])
    a, dom = group.dataset.by_name("a"), group.dataset.domain
    with pytest.raises(ValueError, match="^operation map must send id to a target operation$"):
        enumerate_geos(group, a, group, {})
    constant = PointMap(dom, dom, {"x1": "x1", "x2": "x1"})
    tmap = {g: g for g in group.ops}
    tmap[group.op_by_name("swap")] = constant
    with pytest.raises(ValueError, match="^operation map must send swap to a target operation$"):
        enumerate_geos(group, a, group, tmap)
