import itertools
import random
import re

import pytest

from enriched_ph import (
    DataSet,
    Domain,
    EquivarianceError,
    Incarnation,
    PointMap,
    VerificationError,
    build_graph,
    category,
    compose_functor,
    is_monoid_compatible,
    sup_distance,
    validate_graph,
    validate_morphism,
    validate_pseudometric,
    validate_seo,
    verify_natural_transformation,
)
from enriched_ph.ggraph import GraphFunctor, GrothendieckGraph, graph_violation
from enriched_ph.linalg import ModMatrix
from conftest import random_incarnation

mul = lambda a, b: a * b


# ---------------------------------------------------------------------------
# construction and validation


def test_build_graph_fixture_b(fixture_b):
    inc = fixture_b["incarnation"]
    g = build_graph(inc)
    assert len(g.vertices) == 3
    assert len(g.colors) == 4
    assert len(g.edges) == 12
    ds = fixture_b["dataset"]
    edge = (ds.by_name("phi1"), fixture_b["ops"]["g3"], ds.by_name("phi2"))
    assert edge in set(g.edges)


def test_edge_count_is_product():
    rng = random.Random(51)
    for _ in range(10):
        inc = random_incarnation(rng)
        g = build_graph(inc)
        assert len(g.edges) == len(g.vertices) * len(g.colors)


def test_empty_color_graph(fixture_a):
    inc = Incarnation(fixture_a["both"], [])
    g = build_graph(inc)
    assert g.edges == ()
    assert validate_graph(g)


def test_deleting_edge_invalidates(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    broken = GrothendieckGraph(g.vertices, g.colors, g.edges[1:])
    assert not validate_graph(broken)
    assert graph_violation(broken) == (g.edges[0][0], g.edges[0][1])


def test_an_action_out_of_the_data_set_fails_the_certificate(fixture_b, monkeypatch):
    # phi1 . g1 lands on a measurement that is not in the data set
    ds, act = fixture_b["dataset"], Incarnation.act
    outside = DataSet(ds.domain, [("out", [0, 0, 0])]).by_name("out")
    edge = (ds.by_name("phi1"), fixture_b["ops"]["g1"])
    monkeypatch.setattr(Incarnation, "act", lambda inc, m, g: outside if (m, g) == edge else act(inc, m, g))
    with pytest.raises(VerificationError) as info:
        build_graph(fixture_b["incarnation"])
    assert info.value.witness == edge


def test_doubled_edge_invalidates(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    v, c, w = g.edges[0]
    other = next(u for u in g.vertices if u != w)
    doubled = GrothendieckGraph(g.vertices, g.colors, g.edges + ((v, c, other),))
    assert not validate_graph(doubled)


# ---------------------------------------------------------------------------
# morphisms


def test_identity_morphism(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    assert validate_morphism(g, g, {v: v for v in g.vertices}, {c: c for c in g.colors})


def test_seo_gives_morphism(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    seo = validate_seo(inc, inc, {p1: p2, p2: p2, p3: p3}, {g: g for g in inc.ops})
    g = build_graph(inc)
    assert validate_morphism(g, g, seo.measurement_map, seo.operation_map)


def test_broken_morphism(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    g = build_graph(inc)
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    vmap = {p1: p3, p2: p2, p3: p1}  # the swap is not equivariant
    assert not validate_morphism(g, g, vmap, {c: c for c in g.colors})


def test_operators_to_graph_morphisms_full_and_faithful(fixture_b):
    """Every pair passing the edge condition is an operator, and conversely."""
    inc = fixture_b["incarnation"]
    g = build_graph(inc)
    ms, ops = list(inc.dataset), list(inc.ops)
    morphisms = set()
    operators = set()
    for images in itertools.product(ms, repeat=len(ms)):
        vmap = dict(zip(ms, images))
        for op_images in itertools.product(ops, repeat=len(ops)):
            cmap = dict(zip(ops, op_images))
            key = (tuple(images), tuple(op_images))
            if validate_morphism(g, g, vmap, cmap):
                morphisms.add(key)
            try:
                validate_seo(inc, inc, vmap, cmap)
                operators.add(key)
            except (EquivarianceError, ValueError):
                pass
    assert morphisms == operators


# ---------------------------------------------------------------------------
# monoid compatibility


def test_fixture_b_graph_monoid_compatible(fixture_b):
    inc = fixture_b["incarnation"]
    g = build_graph(inc)
    ident = fixture_b["ops"]["id"]
    assert is_monoid_compatible(g, mul, ident)
    cat = category(g, mul, ident)
    assert cat.verify()
    ds = fixture_b["dataset"]
    p1, p2 = ds.by_name("phi1"), ds.by_name("phi2")
    g1, g3 = fixture_b["ops"]["g1"], fixture_b["ops"]["g3"]
    e = cat.compose((p1, g1, p1), (p1, g3, p2))
    assert e == (p1, g1 * g3, p2)
    assert e in set(g.edges)


def test_graph_without_identity_not_compatible(fixture_b):
    inc = Incarnation(fixture_b["dataset"], [fixture_b["ops"]["g1"], fixture_b["ops"]["g2"]])
    g = build_graph(inc)
    assert not is_monoid_compatible(g, mul, fixture_b["ops"]["id"])


def test_category_rejects_incompatible(fixture_b):
    inc = Incarnation(fixture_b["dataset"], [fixture_b["ops"]["g1"]])
    g = build_graph(inc)
    with pytest.raises(ValueError):
        category(g, mul, fixture_b["ops"]["id"])


# ---------------------------------------------------------------------------
# pseudometrics on graphs


def test_sup_distance_is_graph_pseudometric():
    rng = random.Random(52)
    for _ in range(15):
        inc = random_incarnation(rng)
        g = build_graph(inc)
        assert validate_pseudometric(g, sup_distance)


def test_zero_is_graph_pseudometric(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    assert validate_pseudometric(g, lambda v, w: 0)


def test_adversarial_pseudometric_fails(fixture_b):
    # inflate d(phi1, phi2) past d(phi1, phi3) while keeping the axioms:
    # the edge colored g1 sends (phi1, phi3) to (phi1, phi2)
    ds = fixture_b["dataset"]
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    dist = {
        frozenset((p1, p2)): 5,
        frozenset((p1, p3)): 1,
        frozenset((p2, p3)): 4,
    }

    def d(v, w):
        return 0 if v == w else dist[frozenset((v, w))]

    # triangle inequality holds: 5 <= 1 + 4
    g = build_graph(fixture_b["incarnation"])
    assert not validate_pseudometric(g, d)


# ---------------------------------------------------------------------------
# graph functors with matrix payloads


def build_matrix_functor(graph, mul_fn, p=5):
    """Assign F_p line objects and entries multiplicative along edges.

    Weight 1 for every edge keeps functoriality trivially true; the test for
    failure perturbs one arrow afterwards.
    """
    objects = {v: 1 for v in graph.vertices}
    arrows = {e: ModMatrix([[1]], 1, p) for e in graph.edges}
    return GraphFunctor(graph, objects, arrows)


def test_functor_verify_and_perturb(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    functor = build_matrix_functor(g, mul)
    assert functor.verify(mul)
    bad_edge = next(
        e for e in g.edges if e[1] == fixture_b["ops"]["g2"] and e[0] == e[2]
    )
    functor.arrows[bad_edge] = ModMatrix([[2]], 1, 5)
    # g2 = g2 * g2, so the perturbed arrow must equal its own square: 2 != 4
    assert not functor.verify(mul)


def test_compose_functor_identity(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    functor = build_matrix_functor(g, mul)
    pulled = compose_functor(functor, {v: v for v in g.vertices}, {c: c for c in g.colors}, g)
    assert pulled == functor


def test_compose_functor_along_seo(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    seo = validate_seo(inc, inc, {p1: p2, p2: p2, p3: p3}, {g: g for g in inc.ops})
    g = build_graph(inc)
    functor = build_matrix_functor(g, mul)
    pulled = compose_functor(functor, seo.measurement_map, seo.operation_map, g)
    assert pulled.verify(mul)
    assert pulled.objects[p1] == functor.objects[p2]


def test_compose_functor_rejects_non_morphism(fixture_b):
    inc = fixture_b["incarnation"]
    ds = fixture_b["dataset"]
    g = build_graph(inc)
    functor = build_matrix_functor(g, mul)
    p1, p2, p3 = ds.by_name("phi1"), ds.by_name("phi2"), ds.by_name("phi3")
    with pytest.raises(ValueError):
        compose_functor(functor, {p1: p3, p2: p2, p3: p1}, {c: c for c in g.colors}, g)


def test_natural_transformation_squares(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    f1 = build_matrix_functor(g, mul)
    f2 = build_matrix_functor(g, mul)
    components = {v: ModMatrix([[3]], 1, 5) for v in g.vertices}
    assert verify_natural_transformation(f1, f2, components)
    components[g.vertices[0]] = ModMatrix([[2]], 1, 5)
    assert not verify_natural_transformation(f1, f2, components)


# ---------------------------------------------------------------------------
# serialization


def test_graph_json_round_trip(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    data = g.to_json_dict()
    again = GrothendieckGraph.from_json_dict(data)
    assert validate_graph(again)
    assert len(again.edges) == 12
    assert sorted(data["colors"]) == ["g1", "g2", "g3", "id"]


def test_graph_dot_export(fixture_b):
    g = build_graph(fixture_b["incarnation"])
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 12
    assert 'label="g1"' in dot


def test_dot_escapes_quotes_and_backslashes_in_names():
    dom = Domain(["x", "y"])
    ds = DataSet(dom, [('a"b', [0, 1]), ("c", [1, 0])])
    swap = PointMap(dom, dom, {"x": "y", "y": "x"}, ("s\\",))
    dot = build_graph(Incarnation(ds, [swap])).to_dot()
    string = re.compile(r'"(?:[^"\\]|\\.)*"')
    # every quoted string closes on its line, and reads back as the name it holds
    assert all('"' not in string.sub("", line) for line in dot.splitlines()), dot
    assert {re.sub(r"\\(.)", r"\1", s[1:-1]) for s in string.findall(dot)} == {'a"b', "c", "s\\"}
