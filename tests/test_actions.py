import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriched_ph import actions
from enriched_ph import (
    DataSet,
    Domain,
    GuardExceeded,
    Incarnation,
    Measurement,
    NotOperation,
    PointMap,
    VerificationError,
    block_incarnation,
    blocks,
    build_graph,
    deformation_closure,
    dimension,
    enumerate_aut,
    enumerate_bases,
    enumerate_end,
    find_basis,
    generated_submonoid,
    indistinguishable,
    is_independent,
    is_operation,
    operation_violation,
    universal_incarnation,
)
from conftest import (
    oracle_aut,
    oracle_edges,
    oracle_end,
    oracle_kind,
    oracle_reach,
    random_incarnation,
    random_permutation,
    random_point_map,
    random_transitive_group_incarnation,
    run_under_python_O,
)


def two_orbit_group():
    """Swap of two point pairs acting on two separate measurement orbits."""
    dom = Domain(["a", "b", "c", "d"])
    swap = PointMap(dom, dom, {"a": "b", "b": "a", "c": "d", "d": "c"})
    ds = DataSet(
        dom,
        [("u", [0, 1, 5, 5]), ("u2", [1, 0, 5, 5]), ("v", [7, 7, 2, 3]), ("v2", [7, 7, 3, 2])],
    )
    return Incarnation(ds, [PointMap.identity(dom), swap])


# ---------------------------------------------------------------------------
# operation checks and enumeration


def test_fixture_b_operations(fixture_b):
    ds = fixture_b["dataset"]
    for name in ("g1", "g2", "g3", "id"):
        assert is_operation(fixture_b["ops"][name], ds)


def test_identity_always_operation(fixture_a):
    ds = fixture_a["both"]
    assert is_operation(PointMap.identity(ds.domain), ds)


def test_transposition_not_operation(fixture_a):
    ds = fixture_a["phi_only"]
    g = PointMap(ds.domain, ds.domain, {"x1": "x4", "x2": "x2", "x3": "x3", "x4": "x1"})
    assert not is_operation(g, ds)  # phi.g = (1,0,0,-1) is not in the set


def test_enumerate_aut_full_symmetric_group():
    dom = Domain(["a", "b", "c"])
    base = [0, 1, 2]
    ds = DataSet(dom, [(None, p) for p in itertools.permutations(base)])
    aut = enumerate_aut(ds)
    assert len(aut.ops) == 6
    end = enumerate_end(ds)
    assert set(aut.ops) <= set(end.ops)


def test_enumerate_end_rigid_measurement():
    dom = Domain(["a", "b", "c"])
    ds = DataSet(dom, [("f", [0, 1, 3])])
    assert [g.image_tuple() for g in enumerate_end(ds).ops] == [("a", "b", "c")]


def test_enumerate_end_contains_fixture_b_monoid(fixture_b):
    end = enumerate_end(fixture_b["dataset"])
    assert set(fixture_b["incarnation"].ops) <= set(end.ops)


def test_enumerate_guard():
    dom = Domain([f"x{i}" for i in range(7)])
    ds = DataSet(dom, [("f", [0] * 7)])
    with pytest.raises(GuardExceeded):
        enumerate_end(ds)
    small = DataSet(Domain(["a", "b", "c"]), [("f", [0, 0, 0])])
    with pytest.raises(GuardExceeded):
        enumerate_end(small, guard=2)
    assert len(enumerate_end(small, guard=3).ops) == 27  # override admits it


# point names that do not sort in domain order, so the two enumeration orders differ
NAME_SETS = (("b", "a", "c", "e", "d"), ("x10", "x2", "x1", "x3", "x0"), ("p0", "p1", "p2", "p3", "p4"))


@st.composite
def datasets_under_maps(draw):
    """A data set on 2-5 points, closed (up to about 10 measurements) under
    a few random maps, together with those maps."""
    n = draw(st.integers(2, 5))
    names = draw(st.permutations(draw(st.sampled_from(NAME_SETS))[:n]))
    images = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=3))
    meas = set(draw(st.lists(st.tuples(*[st.sampled_from((0, 1, 2))] * n), min_size=1, max_size=3)))
    frontier = list(meas)
    while frontier and len(meas) < 10:
        cur = frontier.pop()
        for img in images:
            nxt = tuple(cur[j] for j in img)
            if nxt not in meas:
                meas.add(nxt)
                frontier.append(nxt)
    dom = Domain(names)
    maps = [PointMap(dom, dom, {p: names[j] for p, j in zip(names, img)}) for img in images]
    return DataSet(dom, [(None, v) for v in sorted(meas)]), maps


@settings(max_examples=60, deadline=None, database=None)
@given(datasets_under_maps())
def test_search_equals_brute_force(case):
    ds, maps = case
    end, aut = enumerate_end(ds).ops, enumerate_aut(ds).ops
    assert list(end) == oracle_end(ds)
    assert list(aut) == oracle_aut(ds)
    given_ops = [g for g in maps if g in end]
    # the oracle multiplies every pair of PointMaps, so a large End is checked on a prefix
    for ops in (given_ops, given_ops + [PointMap.identity(ds.domain)], aut, end[:300]):
        assert Incarnation(ds, ops).kind == oracle_kind(ops, ds.domain)


def test_operation_violation_names_the_first_measurement_that_leaves(fixture_a):
    ds = fixture_a["both"]
    g = PointMap(ds.domain, ds.domain, {"x1": "x4", "x2": "x2", "x3": "x3", "x4": "x1"})
    bad = operation_violation(g, ds)
    assert bad is ds.measurements[0]
    with pytest.raises(NotOperation) as info:
        Incarnation(ds, [g])
    assert info.value.measurement is bad
    assert operation_violation(PointMap.identity(ds.domain), ds) is None


# each value of the pool written four ways
SPELLINGS = (
    ("0", "-0", "0/5", "0.0"),
    ("1/2", "0.5", "2/4", "0.50"),
    ("-1/2", "-0.5", "-2/4", "-3/6"),
    ("1", "2/2", "1.0", "3/3"),
)


@st.composite
def spelled_datasets(draw):
    """A data set on 1-4 points from up to 20 value vectors, closed under a
    few random maps while it stays that small; every value is spelled one of
    several ways, so a vector may come twice in two spellings."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations(draw(st.sampled_from(NAME_SETS))[:n]))
    vecs = draw(st.lists(st.tuples(*[st.integers(0, len(SPELLINGS) - 1)] * n), min_size=1, max_size=20))
    images = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=2))
    frontier = list(vecs)
    while frontier and len(vecs) < 20:
        cur = frontier.pop()
        for img in images:
            nxt = tuple(cur[j] for j in img)
            if nxt not in vecs:
                vecs.append(nxt)
                frontier.append(nxt)
    rows = [[draw(st.sampled_from(SPELLINGS[v])) for v in vec] for vec in vecs]
    return DataSet(Domain(names), [(None, row) for row in rows])


@settings(max_examples=60, deadline=None, database=None)
@given(spelled_datasets())
def test_value_codes_agree_with_the_oracles(ds):
    assert list(ds._codes.values()) == list(ds)
    end, aut = enumerate_end(ds).ops, enumerate_aut(ds).ops
    assert list(end) == oracle_end(ds)
    assert list(aut) == oracle_aut(ds)
    uni = universal_incarnation(ds)
    assert uni.kind == oracle_kind(end, ds.domain)
    assert [(m, g, uni.act(m, g)) for m in ds for g in uni.ops] == oracle_edges(uni)


def test_one_closure_verdict_per_operation_set(monkeypatch):
    calls, closure_violation = [], actions._closure_violation

    def counted(images):
        calls.append(len(images))
        return closure_violation(images)

    monkeypatch.setattr(actions, "_closure_violation", counted)
    ds = DataSet(Domain(["a", "b", "c", "d"]), [("f", [0, 0, 0, 0])])
    for search, size in ((enumerate_end, 256), (enumerate_aut, 24), (universal_incarnation, 256)):
        calls.clear()
        search(ds)
        assert calls == [size]


def search_without(mp, image):
    """Make the operation search drop the operation with one image tuple."""
    search = actions._operations
    mp.setattr(actions, "_operations", lambda *args: {k: g for k, g in search(*args).items() if k != image})


CONSTANT = DataSet(Domain(["a", "b", "c"]), [("f", [0, 0, 0])])


@pytest.mark.parametrize("search", [enumerate_end, enumerate_aut, universal_incarnation])
def test_a_missing_composite_fails_the_certificate(monkeypatch, search):
    search_without(monkeypatch, (1, 2, 0))
    with pytest.raises(VerificationError, match="^operation set not closed$") as info:
        search(CONSTANT)
    x, y = info.value.witness
    assert (x * y).image_tuple() == ("b", "c", "a")


@pytest.mark.parametrize("search", [enumerate_end, enumerate_aut, universal_incarnation])
def test_a_missing_identity_fails_the_certificate(monkeypatch, search):
    search_without(monkeypatch, (0, 1, 2))
    with pytest.raises(VerificationError, match="^the identity is not an operation$") as info:
        search(CONSTANT)
    assert info.value.witness == PointMap.identity(CONSTANT.domain)


MISSING_COMPOSITE = """
import enriched_ph.actions as actions
from enriched_ph import DataSet, Domain, VerificationError, universal_incarnation

search = actions._operations
actions._operations = lambda *args: {k: g for k, g in search(*args).items() if k != (1, 2, 0)}
try:
    universal_incarnation(DataSet(Domain(["a", "b", "c"]), [("f", [0, 0, 0])]))
except VerificationError as err:
    x, y = err.witness
    print((x * y).image_tuple(), err)
"""


def test_a_missing_composite_fails_the_certificate_under_python_O():
    assert run_under_python_O(MISSING_COMPOSITE) == "('b', 'c', 'a') operation set not closed\n"


def test_operations_are_checked_without_building_measurements(fixture_b):
    for ds, ops in ((fixture_b["dataset"], fixture_b["ops"].values()), (two_orbit_group().dataset, ())):
        with pytest.MonkeyPatch.context() as mp:
            counts = count_measurements(mp)
            inc = Incarnation(ds, ops)
            for m in ds:
                for g in inc.ops:
                    inc.act(m, g)
            inc.reach()
            enumerate_end(ds)
            enumerate_aut(ds)
            universal_incarnation(ds)
        assert counts == {"compose": 0, "built": 0}


# ---------------------------------------------------------------------------
# the action table


def count_measurements(mp) -> dict:
    """Count Measurement.compose calls and Measurement constructions from now on."""
    counts = {"compose": 0, "built": 0}
    compose, init = Measurement.compose, Measurement.__init__

    def counted_compose(self, g):
        counts["compose"] += 1
        return compose(self, g)

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    mp.setattr(Measurement, "compose", counted_compose)
    mp.setattr(Measurement, "__init__", counted_init)
    return counts


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_action_table_equals_composing_afresh(seed):
    rng = random.Random(seed)
    inc = random_incarnation(rng)
    ds = inc.dataset
    edges, reach = oracle_edges(inc), oracle_reach(inc)
    with pytest.MonkeyPatch.context() as mp:
        counts = count_measurements(mp)
        acted = [(m, g, inc.act(m, g)) for m in ds for g in inc.ops]
        found, graph = inc.reach(), build_graph(inc)
        assert counts == {"compose": 0, "built": 0}
    assert acted == edges
    assert [b.aliases for _, _, b in acted] == [b.aliases for _, _, b in edges]
    assert found == reach
    assert list(graph.edges) == edges
    # aliases are ignored: an operation under another name acts the same
    for g in inc.ops:
        renamed = g.with_aliases(("another name",))
        assert all(inc.act(m, renamed) is inc.act(m, g) for m in ds)
    # any other map is refused by name, whether or not its composites stay in the set
    g = random_point_map(rng, ds.domain, ds.domain)
    if g not in inc.ops:
        for m in ds:
            with pytest.raises(KeyError, match=re.escape(f"{g!r} is not an operation of this incarnation")):
                inc.act(m, g)
    # an operation given again under other names is acted out once, by value
    # codes: no composite is built as a Measurement
    with pytest.MonkeyPatch.context() as mp:
        counts = count_measurements(mp)
        counts["action"], action = 0, actions._action

        def counted_action(g, dataset):
            counts["action"] += 1
            return action(g, dataset)

        mp.setattr(actions, "_action", counted_action)
        again = Incarnation(ds, [*inc.ops, *((f"again{i}", g) for i, g in enumerate(inc.ops))])
    assert counts == {"compose": 0, "built": 0, "action": len(inc.ops)}
    assert again == inc


def test_act_refuses_an_operation_of_the_data_set_outside_the_incarnation(fixture_b):
    ds, ops = fixture_b["dataset"], fixture_b["ops"]
    inc = Incarnation(ds, [ops["g1"]])
    phi1, phi2 = ds.by_name("phi1"), ds.by_name("phi2")
    # g2 is an operation of the data set, and phi1 . g2 = phi2 lies in it
    assert is_operation(ops["g2"], ds) and phi1.compose(ops["g2"]) == phi2
    with pytest.raises(KeyError, match=re.escape("PointMap(g2) is not an operation of this incarnation")):
        inc.act(phi1, ops["g2"])
    assert inc.act(phi2, ops["g1"]) is phi2


# ---------------------------------------------------------------------------
# generated submonoid


def test_generated_submonoid_empty():
    dom = Domain(["a", "b"])
    assert generated_submonoid([], domain=dom) == (PointMap.identity(dom),)


def test_generated_submonoid_fixture_b_closed(fixture_b):
    gens = [fixture_b["ops"][n] for n in ("g1", "g2", "g3")]
    closure = generated_submonoid(gens)
    assert set(closure) == set(fixture_b["incarnation"].ops)


def test_generated_submonoid_three_cycle():
    dom = Domain(["a", "b", "c"])
    cycle = PointMap(dom, dom, {"a": "b", "b": "c", "c": "a"})
    closure = generated_submonoid([cycle])
    assert len(closure) == 3
    ident = PointMap.identity(dom)
    assert all(any(g * h == ident for h in closure) for g in closure)


def test_group_like_closure_has_inverses():
    rng = random.Random(21)
    for _ in range(10):
        dom = Domain([f"x{i}" for i in range(rng.randint(2, 5))])
        gens = [random_permutation(rng, dom) for _ in range(rng.randint(1, 2))]
        closure = generated_submonoid(gens)
        ident = PointMap.identity(dom)
        assert all(any(g * h == ident and h * g == ident for h in closure) for g in closure)


# ---------------------------------------------------------------------------
# incarnation kinds


def test_fixture_b_kind_is_monoid(fixture_b):
    assert fixture_b["incarnation"].kind == "monoid"


def test_kind_group():
    assert two_orbit_group().kind == "group"


def test_kind_group_like():
    dom = Domain(["a", "b", "c"])
    cycle = PointMap(dom, dom, {"a": "b", "b": "c", "c": "a"})
    ds = DataSet(dom, [(None, p) for p in itertools.permutations([0, 1, 2])])
    inc = Incarnation(ds, [cycle])  # no identity, not closed
    assert inc.kind == "group-like"


def test_kind_general(fixture_b):
    inc = Incarnation(fixture_b["dataset"], [fixture_b["ops"]["g1"], fixture_b["ops"]["g2"]])
    assert inc.kind == "general"


def test_non_operation_rejected(fixture_a):
    ds = fixture_a["phi_only"]
    g = PointMap(ds.domain, ds.domain, {"x1": "x4", "x2": "x2", "x3": "x3", "x4": "x1"})
    with pytest.raises(NotOperation):
        Incarnation(ds, [g])


def test_one_name_for_two_operations_rejected(fixture_b):
    ops = fixture_b["ops"]
    with pytest.raises(ValueError, match="name 's' bound to two different operations"):
        Incarnation(fixture_b["dataset"], [("s", ops["g1"]), ("s", ops["id"])])
    # one operation under two entries keeps both names
    inc = Incarnation(fixture_b["dataset"], [("s", ops["g1"]), ("t", ops["g1"])])
    assert inc.op_by_name("s") is inc.op_by_name("t")
    # an unnamed identity does not take a name another operation holds
    dom = fixture_b["domain"]
    unnamed = PointMap(dom, dom, {p: p for p in dom})
    inc = Incarnation(fixture_b["dataset"], [("id", ops["g1"]), unnamed])
    assert inc.op_by_name("g0") == unnamed and inc.op_by_name("id") == ops["g1"]


def test_incarnation_json_operation_must_be_an_object(fixture_b):
    data = fixture_b["incarnation"].to_json_dict()
    data["M"]["g1"] = [["x1", "x2"], ["x2", "x2"], ["x3", "x3"]]
    with pytest.raises(TypeError, match="operation 'g1' must be a JSON object, not list"):
        Incarnation.from_json_dict(data)


def test_incarnation_json_builds_each_named_operation_once(fixture_b, monkeypatch):
    data = json.loads(json.dumps(fixture_b["incarnation"].to_json_dict()))
    mappings = data["M"]
    assert len({tuple(sorted(m.items())) for m in mappings.values()}) == len(mappings) > 1
    real, built = PointMap.__init__, []

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PointMap, "__init__", counted)
    inc = Incarnation.from_json_dict(data)
    assert len(built) == len(mappings)
    dom = inc.dataset.domain
    pairs = Incarnation(inc.dataset, [(name, PointMap(dom, dom, m)) for name, m in mappings.items()])
    assert inc.ops == pairs.ops
    assert [g.aliases for g in inc.ops] == [g.aliases for g in pairs.ops]
    assert inc.kind == pairs.kind


def test_empty_operation_set_allowed(fixture_a):
    inc = Incarnation(fixture_a["both"], [])
    assert deformation_closure([m for m in inc.dataset][:1], inc) == tuple(inc.dataset)[:1]
    assert all(len(b) == 1 for b in blocks(inc))


def test_incarnation_json_round_trip(fixture_b):
    inc = fixture_b["incarnation"]
    again = Incarnation.from_json_dict(json.loads(json.dumps(inc.to_json_dict())))
    assert again == inc
    assert again.kind == "monoid"


def test_unnamed_operations_take_free_names_in_image_order():
    dom = Domain(["x1", "x2", "x3"])
    ds = DataSet(dom, [("c", [0, 0, 0])])

    def op(*images):
        return PointMap(dom, dom, dict(zip(dom.points, images)))

    inc = Incarnation(
        ds,
        [op("x3", "x3", "x3"), ("g2", op("x1", "x1", "x1")), op("x1", "x1", "x2"), ("g0", op("x2", "x2", "x2"))],
    )
    assert [(g.name, g.image_tuple()) for g in inc.ops] == [
        ("g2", ("x1", "x1", "x1")),
        ("g1", ("x1", "x1", "x2")),
        ("g0", ("x2", "x2", "x2")),
        ("g3", ("x3", "x3", "x3")),
    ]


# ---------------------------------------------------------------------------
# deformation closure


def test_closure_of_everything_is_everything(fixture_b):
    inc = fixture_b["incarnation"]
    assert set(deformation_closure(inc.dataset, inc)) == set(inc.dataset)


def test_closure_fixture_b_values(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    assert {m.name for m in deformation_closure([ds.by_name("phi1")], inc)} == {"phi1", "phi2"}
    assert set(deformation_closure([ds.by_name("phi1"), ds.by_name("phi3")], inc)) == set(ds)


def test_closure_equals_closure_over_monoid():
    rng = random.Random(22)
    for _ in range(30):
        inc = random_incarnation(rng)
        monoid = Incarnation(inc.dataset, inc.monoid_closure())
        for m in inc.dataset:
            assert deformation_closure([m], inc) == deformation_closure([m], monoid)


# ---------------------------------------------------------------------------
# blocks


def test_blocks_identity_only(fixture_a):
    inc = Incarnation(fixture_a["both"], [PointMap.identity(fixture_a["domain"])])
    assert all(len(b) == 1 for b in blocks(inc))
    assert len(blocks(inc)) == 2


def test_blocks_fixture_b_transitive(fixture_b):
    part = blocks(fixture_b["incarnation"])
    assert len(part) == 1
    assert set(part.blocks[0]) == set(fixture_b["dataset"])


def test_blocks_two_orbits():
    inc = two_orbit_group()
    part = blocks(inc)
    assert len(part) == 2
    assert sorted(len(b) for b in part) == [2, 2]


def test_blocks_equal_blocks_over_closure_and_union_find_oracle():
    rng = random.Random(23)
    for _ in range(30):
        inc = random_incarnation(rng)
        part = blocks(inc)
        monoid = Incarnation(inc.dataset, inc.monoid_closure())
        assert blocks(monoid).blocks == part.blocks
        # oracle: one-step union-find, repeated to a fixed point
        groups = {m: {m} for m in inc.dataset}
        changed = True
        while changed:
            changed = False
            for m in inc.dataset:
                for g in inc.ops:
                    a, b = groups[m], groups[inc.act(m, g)]
                    if a is not b:
                        union = a | b
                        for x in union:
                            groups[x] = union
                        changed = True
        oracle = {frozenset(v) for v in groups.values()}
        assert {frozenset(b) for b in part} == oracle


# ---------------------------------------------------------------------------
# independence, bases, dimension


def test_transitive_group_dimension_one():
    rng = random.Random(24)
    for _ in range(10):
        inc = random_transitive_group_incarnation(rng)
        assert dimension(inc) == 1
        assert all((m,) in enumerate_bases(inc) for m in inc.dataset)


def test_fixture_b_basis(fixture_b):
    inc = fixture_b["incarnation"]
    basis = find_basis(inc)
    assert {m.name for m in basis} == {"phi1", "phi3"}
    assert dimension(inc) == 2
    assert is_independent(basis, inc)


def test_group_incarnation_basis_is_block_transversal():
    rng = random.Random(25)
    checked = 0
    while checked < 12:
        inc = random_incarnation(rng, max_points=4, max_ops=2, max_meas=6)
        bij = [g for g in inc.ops if g.is_bijective]
        if not bij:
            continue
        inc = Incarnation(inc.dataset, generated_submonoid(bij))
        if inc.kind != "group":
            continue
        checked += 1
        part = blocks(inc)
        assert dimension(inc) == len(part)
        bases = {frozenset(b) for b in enumerate_bases(inc)}
        transversals = {frozenset(t) for t in itertools.product(*[list(b) for b in part])}
        assert bases == transversals


def test_all_bases_same_cardinality_random():
    rng = random.Random(26)
    for _ in range(25):
        inc = random_incarnation(rng)
        bases = enumerate_bases(inc)
        assert bases, "every incarnation has a basis"
        sizes = {len(b) for b in bases}
        assert sizes == {dimension(inc)}
        fb = find_basis(inc)
        assert set(map(frozenset, bases)) >= {frozenset(fb)}


def test_enumerate_bases_guard(fixture_b):
    with pytest.raises(GuardExceeded):
        enumerate_bases(fixture_b["incarnation"], guard=2)


# ---------------------------------------------------------------------------
# indistinguishability


def test_indistinguishable_reflexive(fixture_b):
    inc = fixture_b["incarnation"]
    for m in inc.dataset:
        assert indistinguishable(m, m, inc)


def test_indistinguishable_fixture_b(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    assert not indistinguishable(ds.by_name("phi1"), ds.by_name("phi2"), inc)


def test_group_indistinguishable_is_same_orbit():
    rng = random.Random(27)
    for _ in range(10):
        inc = random_transitive_group_incarnation(rng)
        for a in inc.dataset:
            for b in inc.dataset:
                same_orbit = any(inc.act(a, g) == b for g in inc.ops)
                assert indistinguishable(a, b, inc) == same_orbit


# ---------------------------------------------------------------------------
# block incarnations


def test_block_incarnation_transitive_is_self(fixture_b):
    inc = fixture_b["incarnation"]
    sub = block_incarnation(inc, fixture_b["dataset"].by_name("phi2"))
    assert sub.dataset == inc.dataset
    assert set(sub.ops) == set(inc.ops)


def test_block_incarnation_identity_only(fixture_a):
    inc = Incarnation(fixture_a["both"], [PointMap.identity(fixture_a["domain"])])
    phi = fixture_a["both"].by_name("phi")
    sub = block_incarnation(inc, phi)
    assert len(sub.dataset) == 1
    assert phi in sub.dataset


def test_block_incarnation_two_orbits():
    inc = two_orbit_group()
    for m in inc.dataset:
        sub = block_incarnation(inc, m)
        assert len(blocks(sub)) == 1
        assert dimension(sub) == 1


def test_a_block_that_is_not_transitive_fails_the_certificate(fixture_a, monkeypatch):
    # the first partition merges the blocks of phi and psi; the block's own is the true one
    inc = Incarnation(fixture_a["both"], [PointMap.identity(fixture_a["domain"])])
    phi, real, calls = fixture_a["both"].by_name("phi"), actions.blocks, []

    def merged_once(of):
        calls.append(of)
        part = real(of)
        return actions.Partition((sum(part.blocks, ()),)) if len(calls) == 1 else part

    monkeypatch.setattr(actions, "blocks", merged_once)
    with pytest.raises(VerificationError, match="^the block of phi is not transitive$") as info:
        block_incarnation(inc, phi)
    assert info.value.witness == phi and len(calls) == 2


def test_universal_incarnation(fixture_b):
    uni = universal_incarnation(fixture_b["dataset"])
    assert uni.kind == "monoid"
    assert set(fixture_b["incarnation"].ops) <= set(uni.ops)


def test_group_like_dimension_equals_block_count():
    rng = random.Random(28)
    checked = 0
    while checked < 10:
        inc = random_incarnation(rng, max_points=4, max_ops=2, max_meas=6)
        bij = [g for g in inc.ops if g.is_bijective and g != PointMap.identity(inc.dataset.domain)]
        if not bij:
            continue
        inc = Incarnation(inc.dataset, bij)  # no identity: group-like, not a monoid
        if inc.kind != "group-like":
            continue
        checked += 1
        part = blocks(inc)
        assert dimension(inc) == len(part)
        bases = {frozenset(b) for b in enumerate_bases(inc)}
        transversals = {frozenset(t) for t in itertools.product(*[list(b) for b in part])}
        assert bases == transversals
