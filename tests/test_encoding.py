"""Differential tests of the integer encoding: a data set's values as
numerators over one denominator, and a point map's images as target indices,
against a reading with Fractions only."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from enriched_ph import DataSet, Domain, PHEvaluator, PointMap, enumerate_aut, enumerate_end, scale_grid, sup_distance
from conftest import oracle_aut, oracle_end, oracle_reading, oracle_vertex_map

DENOMINATORS = (1, 2, 4, 7, 11, 13)  # 7, 11 and 13 coprime to each other and to the rest


def spellings(q: Fraction) -> list:
    """Ways the JSON input and the constructor accept q: p/q, the same
    fraction unreduced, and an int, a plain integer, "-0" or a decimal where
    one exists."""
    out = [f"{q.numerator}/{q.denominator}", f"{2 * q.numerator}/{2 * q.denominator}"]
    if q.denominator == 1:
        out += [q.numerator, str(q.numerator)] + (["-0"] if q == 0 else [])
    if q.denominator in (2, 4):
        out.append(str(q.numerator / q.denominator))  # exact: "0.5", "-0.25"
    return out


@st.composite
def readings(draw):
    """(points, [(name, spelled values)]): 1 to 4 points out of name order, 0
    to 5 measurements drawn from up to 3 value vectors, each value spelled
    anew, so equal vectors come in several spellings."""
    points = draw(st.permutations(("b", "a", "d", "c")))[: draw(st.integers(1, 4))]
    fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENOMINATORS))
    vectors = draw(st.lists(st.lists(fractions, min_size=len(points), max_size=len(points)), min_size=1, max_size=3))
    out = []
    for k in range(draw(st.integers(0, 5))):
        vec = draw(st.sampled_from(vectors))
        spelled = [draw(st.sampled_from(spellings(q))) for q in vec]
        out.append((draw(st.sampled_from((None, "", f"f{k}"))), spelled))
    return tuple(points), out


@settings(max_examples=150, deadline=None)
@given(readings())
def test_the_encoding_reads_as_fractions_do(reading):
    points, ms = reading
    ds, oracle = DataSet(Domain(points), ms, allow_empty=True), oracle_reading(points, ms)
    assert ds.names() == oracle["names"]
    assert tuple(m.values for m in ds) == oracle["values"]
    assert ds.pseudometric().rows == oracle["rows"]
    assert scale_grid(ds) == oracle["scales"]
    assert tuple(enumerate_end(ds)) == tuple(oracle_end(ds))
    assert tuple(enumerate_aut(ds)) == tuple(oracle_aut(ds))
    # each code holds a stored measurement's values as numerators over the denominator
    assert tuple(ds._codes.values()) == ds.measurements
    for code, m in ds._codes.items():
        assert tuple(Fraction(c, ds.denominator) for c in code) == m.values
    for phi, psi in itertools.product(ds, repeat=2):
        assert ds.denominator % sup_distance(phi, psi).denominator == 0


def test_the_empty_data_set_has_denominator_one():
    for points in ((), ("p",)):
        ds = DataSet(Domain(points), [], allow_empty=True)
        assert (ds.denominator, ds._codes, ds.pseudometric().rows) == (1, {}, tuple((Fraction(0),) for _ in points))


def test_point_map_equality_and_hash_ignore_aliases_and_mapping_order():
    dom = Domain(["b", "a", "c"])
    g = PointMap(dom, dom, {"b": "a", "a": "a", "c": "b"})
    h = PointMap(dom, dom, {"c": "b", "a": "a", "b": "a"}, aliases=("h", "k"))
    assert g.images == h.images == (1, 1, 0)
    assert g == h and hash(g) == hash(h) and {g: 1}[h] == 1


def test_maps_onto_a_permuted_target_are_neither_equal_nor_one_memo_entry():
    # g and h have the image indices (0, 1), onto the domains (a, b) and (b, a):
    # g sends y1 to a, h sends it to b
    ys, ab, ba = Domain(["y1", "y2"]), Domain(["a", "b"]), Domain(["b", "a"])
    g = PointMap(ys, ab, {"y1": "a", "y2": "b"})
    h = PointMap(ys, ba, {"y1": "b", "y2": "a"})
    assert g.images == h.images and g != h
    src_ev = PHEvaluator(DataSet(ys, [("f", ["0", "1"])]))
    dst_ev = PHEvaluator(DataSet(ab, [("f", ["0", "1"])]))
    src, dst = src_ev.homology(ys.points, 0, 0), dst_ev.homology(ab.points, 0, 0)
    g_mat, h_mat = src_ev._map(src, dst, g), src_ev._map(src, dst, h)
    assert g_mat == oracle_vertex_map(src, dst, g.mapping)
    assert h_mat == oracle_vertex_map(src, dst, h.mapping)
    assert g_mat != h_mat and len(src_ev._maps) == 2
