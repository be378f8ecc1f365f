import copy
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriched_ph import (
    DataSet,
    Domain,
    DomainMismatch,
    EquivarianceError,
    HypothesisViolation,
    Measurement,
    NotInvariant,
    PointMap,
    ValueMap,
    ValueMapMiss,
    VerificationError,
    change_units,
    copair,
    coproduct,
    coproduct_point_map,
    domain_change,
    pair,
    product,
    sup_distance,
)
from enriched_ph.core import parse_rational
from conftest import HALF_LATTICE, random_dataset, random_point_map


# ---------------------------------------------------------------------------
# sup distance


def test_sup_distance_fixture_a(fixture_a):
    ds = fixture_a["both"]
    phi, psi = ds.by_name("phi"), ds.by_name("psi")
    # componentwise: |-1-0|, |0-1|, |0+1|, |1-0| -> max 1
    assert sup_distance(phi, psi) == 1
    assert sup_distance(psi, phi) == 1


def test_sup_distance_identity(fixture_a):
    phi = fixture_a["both"].by_name("phi")
    assert sup_distance(phi, phi) == 0


def test_sup_distance_fixture_b_values(fixture_b):
    ds = fixture_b["dataset"]
    assert sup_distance(ds.by_name("phi1"), ds.by_name("phi2")) == 1


def test_sup_distance_domain_mismatch(fixture_a, fixture_b):
    with pytest.raises(DomainMismatch):
        sup_distance(fixture_a["both"].by_name("phi"), fixture_b["dataset"].by_name("phi1"))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sup_distance_is_a_metric(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    dom = Domain([f"x{i}" for i in range(n)])
    vec = st.tuples(*[st.sampled_from(HALF_LATTICE)] * n)
    a = Measurement(dom, data.draw(vec))
    b = Measurement(dom, data.draw(vec))
    c = Measurement(dom, data.draw(vec))
    assert sup_distance(a, b) == sup_distance(b, a) >= 0
    assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)
    assert (sup_distance(a, b) == 0) == (a == b)


# ---------------------------------------------------------------------------
# pseudometric


def test_pseudometric_fixture_a_reference_values(fixture_a):
    m = fixture_a["phi_only"].pseudometric()
    assert m.at("x2", "x3") == 0
    assert m.at("x1", "x4") == 2
    assert m.at("x1", "x2") == 1
    q = fixture_a["both"].pseudometric()
    assert q.at("x2", "x3") == 2
    assert q.at("x1", "x4") == 2
    for a, b in [("x1", "x2"), ("x1", "x3"), ("x2", "x4"), ("x3", "x4")]:
        assert q.at(a, b) == 1


def test_pseudometric_constant_measurement():
    dom = Domain(["a", "b", "c"])
    ds = DataSet(dom, [("c5", [5, 5, 5])])
    assert all(v == 0 for row in ds.pseudometric().rows for v in row)


def test_pseudometric_empty_dataset_flag():
    dom = Domain(["a", "b"])
    with pytest.raises(ValueError):
        DataSet(dom, [])
    ds = DataSet(dom, [], allow_empty=True)
    assert all(v == 0 for row in ds.pseudometric().rows for v in row)


def test_pseudometric_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        m = random_dataset(rng).pseudometric()
        assert m.satisfies_triangle()


def test_precomposition_contracts_sup_distance():
    rng = random.Random(12)
    for _ in range(40):
        ds = random_dataset(rng, min_meas=2)
        g = random_point_map(rng, ds.domain, ds.domain)
        ms = list(ds)
        for a in ms:
            for b in ms:
                assert sup_distance(a.compose(g), b.compose(g)) <= sup_distance(a, b)


# ---------------------------------------------------------------------------
# coproduct / product


def test_coproduct_fixture_c(fixture_c):
    cp = coproduct(fixture_c["left"], fixture_c["right"])
    vecs = sorted(m.values for m in cp.dataset)
    F = Fraction
    assert vecs == [
        (F(0), F(0), F(-1), F(-1)),
        (F(0), F(0), F(1), F(1)),
        (F(1), F(1), F(0), F(0)),
        (F(2), F(2), F(0), F(0)),
    ]
    assert len(cp.dataset.domain) == 4
    # injections land on the extended vectors
    one = fixture_c["left"].by_name("one")
    assert cp.left[one].values == (F(1), F(1), F(0), F(0))


def test_coproduct_zero_collapse():
    d1, d2 = Domain(["a"]), Domain(["b", "c"])
    z1 = DataSet(d1, [("z", [0])])
    z2 = DataSet(d2, [("w", [0, 0])])
    cp = coproduct(z1, z2)
    assert len(cp.dataset) == 1
    assert cp.left[z1.by_name("z")] == cp.right[z2.by_name("w")]


def test_product_fixture_c(fixture_c):
    pr = product(fixture_c["left"], fixture_c["right"])
    F = Fraction
    assert sorted(m.values for m in pr.dataset) == [
        (F(1), F(1), F(-1), F(-1)),
        (F(1), F(1), F(1), F(1)),
        (F(2), F(2), F(-1), F(-1)),
        (F(2), F(2), F(1), F(1)),
    ]


def test_product_with_singleton_keeps_cardinality():
    rng = random.Random(13)
    ds = random_dataset(rng, min_meas=3)
    single = DataSet(Domain(["y"]), [("s", [7])])
    assert len(product(ds, single).dataset) == len(ds)


def test_distribution_over_domain_change():
    rng = random.Random(14)
    for _ in range(25):
        a = random_dataset(rng, max_points=4, max_meas=3)
        b = random_dataset(rng, max_points=4, max_meas=3)
        z1 = Domain([f"z{i}" for i in range(rng.randint(1, 3))])
        z2 = Domain([f"w{i}" for i in range(rng.randint(1, 3))])
        f1 = random_point_map(rng, z1, a.domain)
        f2 = random_point_map(rng, z2, b.domain)
        both = coproduct_point_map(f1, f2)

        lhs_cp, _ = domain_change(coproduct(a, b).dataset, both)
        rhs_cp = coproduct(domain_change(a, f1)[0], domain_change(b, f2)[0]).dataset
        assert lhs_cp == rhs_cp

        lhs_pr, _ = domain_change(product(a, b).dataset, both)
        rhs_pr = product(domain_change(a, f1)[0], domain_change(b, f2)[0]).dataset
        assert lhs_pr == rhs_pr


def test_change_units_distributes_when_zero_fixed():
    # a value map fixing 0 commutes with both constructions on the nose
    rng = random.Random(15)
    f = ValueMap.affine(2, 0)
    for _ in range(15):
        a = random_dataset(rng, max_points=3, max_meas=3)
        b = random_dataset(rng, max_points=3, max_meas=3)
        assert change_units(f, coproduct(a, b).dataset)[0] == coproduct(
            change_units(f, a)[0], change_units(f, b)[0]
        ).dataset
        assert change_units(f, product(a, b).dataset)[0] == product(
            change_units(f, a)[0], change_units(f, b)[0]
        ).dataset


# ---------------------------------------------------------------------------
# copair / pair universal properties


def test_copair_fold(fixture_c):
    left = fixture_c["left"]
    cp = coproduct(left, left)
    ident = {m: m for m in left}
    mu = copair(cp, ident, ident)
    for m in left:
        assert mu[cp.left[m]] == m
        assert mu[cp.right[m]] == m


def test_pair_with_constant(fixture_c):
    left, right = fixture_c["left"], fixture_c["right"]
    pr = product(left, right)
    psi = right.by_name("pos")
    mu = pair(pr, {m: m for m in left}, {m: psi for m in left})
    for m in left:
        assert pr.proj_left[mu[m]] == m
        assert pr.proj_right[mu[m]] == psi


def _all_functions(src, tgt):
    import itertools

    src, tgt = list(src), list(tgt)
    for images in itertools.product(tgt, repeat=len(src)):
        yield dict(zip(src, images))


def test_copair_uniqueness_exhaustive():
    da = Domain(["a"])
    a = DataSet(da, [("u", [1]), ("v", [2])])
    b = DataSet(da, [("w", [3]), ("x", [4])])
    pi = DataSet(da, [("p", [5]), ("q", [6])])
    cp = coproduct(a, b)
    for alpha in _all_functions(a, pi):
        for beta in _all_functions(b, pi):
            mu = copair(cp, alpha, beta)
            solutions = [
                cand
                for cand in _all_functions(cp.dataset, pi)
                if all(cand[cp.left[m]] == alpha[m] for m in a)
                and all(cand[cp.right[m]] == beta[m] for m in b)
            ]
            assert solutions == [mu]


def test_pair_uniqueness_exhaustive():
    da = Domain(["a"])
    a = DataSet(da, [("u", [1]), ("v", [2])])
    b = DataSet(da, [("w", [3]), ("x", [4])])
    pi = DataSet(da, [("p", [5]), ("q", [6])])
    pr = product(a, b)
    for alpha in _all_functions(pi, a):
        for beta in _all_functions(pi, b):
            mu = pair(pr, alpha, beta)
            solutions = [
                cand
                for cand in _all_functions(pi, pr.dataset)
                if all(pr.proj_left[cand[m]] == alpha[m] for m in pi)
                and all(pr.proj_right[cand[m]] == beta[m] for m in pi)
            ]
            assert solutions == [mu]


# ---------------------------------------------------------------------------
# change of units


def test_change_units_clamp_sign_fixture_c(fixture_c):
    f = ValueMap.clamp_sign()
    img, fwd = change_units(f, fixture_c["left"])
    assert [m.values for m in img] == [(Fraction(1), Fraction(1))]
    img2, fwd2 = change_units(f, fixture_c["right"])
    assert len(img2) == 2
    assert all(k.values == v.values for k, v in fwd2.items())  # identity map


def test_change_units_identity_table():
    rng = random.Random(16)
    ds = random_dataset(rng)
    values = {v for m in ds for v in m.values}
    f = ValueMap.from_table({v: v for v in values})
    img, fwd = change_units(f, ds)
    assert img == ds
    assert all(k.values == v.values for k, v in fwd.items())


def test_change_units_invertible_bijection():
    rng = random.Random(17)
    for _ in range(20):
        ds = random_dataset(rng)
        f = ValueMap.affine(3, Fraction(1, 2))
        img, fwd = change_units(f, ds)
        assert len(img) == len(ds)
        back, bwd = change_units(f.inverse(), img)
        assert back == ds
        # inverse of phi -> f phi is given by the inverse map
        for m in ds:
            assert bwd[fwd[m]] == m


def test_change_units_table_miss():
    dom = Domain(["a"])
    ds = DataSet(dom, [("u", [1])])
    with pytest.raises(ValueMapMiss):
        change_units(ValueMap.from_table({Fraction(2): Fraction(0)}), ds)


def test_value_map_json_round_trip():
    for vm in [ValueMap.negate(), ValueMap.clamp_sign(), ValueMap.affine(2, 1),
               ValueMap.from_table({Fraction(1): Fraction(-1), Fraction(1, 2): Fraction(3)})]:
        again = ValueMap.from_json_dict(json.loads(json.dumps(vm.to_json_dict())))
        assert again.kind == vm.kind
        for q in [Fraction(1), Fraction(1, 2)]:
            if vm.kind != "table" or q in vm.table:
                assert again(q) == vm(q)


# ---------------------------------------------------------------------------
# domain change


def test_domain_change_identity(fixture_a):
    ds = fixture_a["both"]
    out, fwd = domain_change(ds, PointMap.identity(ds.domain))
    assert out == ds
    assert all(k.values == v.values for k, v in fwd.items())


def test_domain_change_constant_collapse(fixture_b):
    ds = fixture_b["dataset"]
    g2 = fixture_b["ops"]["g2"]
    out, _ = domain_change(ds, g2)
    assert [m.values for m in out] == [(Fraction(2), Fraction(2), Fraction(2))]


def test_domain_change_never_grows():
    rng = random.Random(18)
    for _ in range(30):
        ds = random_dataset(rng)
        src = Domain([f"y{i}" for i in range(rng.randint(1, 5))])
        f = random_point_map(rng, src, ds.domain)
        out, fwd = domain_change(ds, f)
        assert len(out) <= len(ds)
        assert set(fwd) == set(ds.measurements)


def test_domain_change_wrong_target(fixture_a, fixture_b):
    f = PointMap.identity(fixture_b["domain"])
    with pytest.raises(DomainMismatch):
        domain_change(fixture_a["both"], f)


# ---------------------------------------------------------------------------
# data set plumbing


def test_measurements_are_extensional():
    dom = Domain(["a", "b"])
    ds = DataSet(dom, [("u", [1, 2]), ("v", [1, 2]), ("w", [0, 0])])
    assert len(ds) == 2
    assert ds.by_name("u") == ds.by_name("v")
    assert set(ds.by_name("u").aliases) == {"u", "v"}


def test_conflicting_names_rejected():
    dom = Domain(["a"])
    with pytest.raises(ValueError, match="name 'u' bound to two different value vectors"):
        DataSet(dom, [("u", [1]), ("u", [2])])


def test_unnamed_measurements_take_the_least_free_m_name():
    # an empty name is no name; "m0" is taken, so the unnamed [1] becomes m1,
    # and [2] takes the name "u" given later to the same value vector
    ds = DataSet(Domain(["a"]), [("", [2]), ("m0", [3]), (None, [1]), ("u", [2])])
    assert [(m.name, m.values[0]) for m in ds] == [("m1", 1), ("u", 2), ("m0", 3)]
    assert all(len(m.aliases) == 1 for m in ds)


def test_membership_needs_the_same_domain():
    ds = DataSet(Domain(["a", "b"]), [("u", [1, 2])])
    assert Measurement(Domain(["a", "b"]), [1, 2]) in ds
    assert Measurement(Domain(["b", "a"]), [1, 2]) not in ds
    assert (1, 2) not in ds


def test_find_returns_the_stored_copy_with_its_aliases():
    dom = Domain(["a", "b"])
    ds = DataSet(dom, [("u", [1, 2]), ("v", [1, 2]), ("w", [0, 0])])
    found = ds.find(Measurement(dom, ["1", "2"]))
    assert found.aliases == ("u", "v")
    assert found is ds.by_name("v")
    with pytest.raises(KeyError, match="not in data set"):
        ds.find(Measurement(dom, [2, 1]))


def test_find_needs_the_same_domain():
    # an equal value vector over another domain is another measurement
    ds = DataSet(Domain(["a", "b"]), [("u", [1, 2])])
    assert ds.find(Measurement(Domain(["a", "b"]), [1, 2])) is ds.by_name("u")
    for dom in (Domain(["b", "a"]), Domain(["c", "d"])):
        with pytest.raises(KeyError, match="not in data set"):
            ds.find(Measurement(dom, [1, 2]))


def test_dataset_json_round_trip(fixture_a):
    ds = fixture_a["both"]
    again = DataSet.from_json_dict(json.loads(json.dumps(ds.to_json_dict())))
    assert again == ds
    assert again.names() == ds.names()


def test_point_map_json_round_trip(fixture_b):
    g1 = fixture_b["ops"]["g1"]
    again = PointMap.from_json_dict(json.loads(json.dumps(g1.to_json_dict())))
    assert again == g1


def test_rational_parsing():
    dom = Domain(["a"])
    ds = DataSet(dom, [("u", ["1/2"]), ("v", ["-0.25"]), ("w", [3])])
    vals = {m.name: m.values[0] for m in ds}
    assert vals["u"] == Fraction(1, 2)
    assert vals["v"] == Fraction(-1, 4)
    assert vals["w"] == 3


def reference_rational(text):
    """parse_rational on a string before it read plain integers with int()."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


ODD_SPELLINGS = [
    "3", "-3", "+3", " 3", "3 ", "\t-3/4\n", "3/4", "-3/4", "+3/4", "007", "00/01", "-0", "-0/1", "0/5",
    "1/0", "-1/0", "12/0000", "1/-2", "1/+2", "1 /2", "1/ 2", "1.5", "-.5", "1.", "1e3", "1E-2", "1.5/2",
    "1_000", "1__0", "_1", "1/2_0", "\u0663", "-\u0663/\u0664", "1/\u0664", "\u00b2", "1/\u00b2", "12\u00a0",
    "", " ", "-", "/2", "1/", "1/2/3", "--1", "- 1", "0x10", "inf", "nan", "1/2 3",
]


def assert_parses_as_the_reference(text):
    try:
        want = reference_rational(text)
    except ValueError as error:
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == str(error)
    else:
        got = parse_rational(text)
        assert got == want and type(got) is Fraction


@pytest.mark.parametrize("text", ODD_SPELLINGS)
def test_rational_strings_parse_as_fraction_reads_them(text):
    assert_parses_as_the_reference(text)


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(alphabet="0123456789-+/ ._e\u0663\u00b2", max_size=8))
def test_any_rational_spelling_parses_as_fraction_reads_it(text):
    assert_parses_as_the_reference(text)


@pytest.mark.parametrize(
    "data, what",
    [
        ({"domain": "ab", "measurements": {"f": ["1", "2"]}}, "domain"),
        ({"domain": ["a", "b"], "measurements": {"f": "12"}}, "measurement 'f'"),
    ],
)
def test_dataset_json_needs_lists_not_strings(data, what):
    with pytest.raises(TypeError, match=f"{what} must be a JSON list, not str"):
        DataSet.from_json_dict(data)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_measurement_hash_is_the_value_hash_and_stays_so(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    dom = Domain([f"x{i}" for i in range(n)])
    values = data.draw(st.tuples(*[st.sampled_from(HALF_LATTICE)] * n))
    m = Measurement(dom, values, ("u",))
    expected = hash((m.domain, m.values))
    assert hash(m) == expected
    table = {m: "stored"}
    assert hash(m) == expected and {m} == {m}
    for other in (
        Measurement(Domain(dom.points), [str(v) for v in values]),
        m.with_aliases(("v", "w")),
        m.with_aliases(()),
        copy.copy(m),
        copy.deepcopy(m),
        pickle.loads(pickle.dumps(m)),
    ):
        assert hash(other) == expected
        assert table[other] == "stored"


def test_pickled_measurement_rehashes_in_another_process():
    # string hashes are salted per process, so a hash carried in the pickle would be stale
    m = Measurement(Domain(["a", "b"]), ["1/2", "3"], ("u",))
    hash(m)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    code = (
        "import pickle, sys; m = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(m) == hash((m.domain, m.values)), m.aliases)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(m), capture_output=True, env=env, timeout=60
    )
    assert proc.stdout.decode().split() == ["True", "('u',)"], proc.stderr


@pytest.mark.parametrize("flag", ["no", 1, None, []])
def test_dataset_json_allow_empty_must_be_a_boolean(flag):
    with pytest.raises(TypeError, match="allow_empty must be a JSON boolean"):
        DataSet.from_json_dict({"domain": ["p"], "measurements": {}, "allow_empty": flag})
    empty = DataSet.from_json_dict({"domain": ["p"], "measurements": {}, "allow_empty": True})
    assert empty.to_json_dict() == {"domain": ["p"], "measurements": {}, "allow_empty": True}


@pytest.mark.parametrize("entry", [["a"], {"a": 1}, True, None])
def test_dataset_json_domain_entries_must_be_scalars(entry):
    with pytest.raises(TypeError, match="domain entries must be strings or numbers"):
        DataSet.from_json_dict({"domain": [entry, "b"], "measurements": {"f": ["1", "2"]}})
    # Python callers keep str() on points
    assert Domain([("a",), 2]).points == ("('a',)", "2")


def test_value_map_json_table_must_be_an_object():
    with pytest.raises(TypeError, match="table must be a JSON object, not list"):
        ValueMap.from_json_dict({"table": [["1", "-1"]]})
    # Python callers may still pass pairs
    assert ValueMap.from_table([("1", "-1")])(1) == -1


@pytest.mark.parametrize(
    "cls, base, default",
    [
        (EquivarianceError, ValueError, "equivariance fails at ('phi', 'g')"),
        (HypothesisViolation, ValueError, "extension hypothesis fails: ('phi', 'g')"),
        (NotInvariant, ValueError, "subset not invariant: ('phi', 'g')"),
        (VerificationError, AssertionError, "verification fails at ('phi', 'g')"),
    ],
)
def test_witnessed_errors_keep_their_bases_witness_and_messages(cls, base, default):
    err = cls(("phi", "g"))
    assert isinstance(err, base) and err.witness == ("phi", "g")
    assert str(err) == default
    given_message = cls(("phi", "g"), "a {!r} message with braces")
    assert str(given_message) == "a {!r} message with braces" and given_message.witness == ("phi", "g")
