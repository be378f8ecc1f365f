"""Differential tests of the sparse F_p column reduction against the dense
row-reduction oracle in conftest, on random matrices and random complexes."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from enriched_ph import homology, level_grid, scale_grid, sublevel, vr_complex
from enriched_ph.linalg import ColumnSolver, ModMatrix, kernel_basis
from conftest import HistorySolver, oracle_homology_dim, oracle_rank, random_dataset

PRIMES = [2, 3, 5, 7]
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def matrices(draw):
    """(p, rows, ncols) with mostly zero entries, some not reduced mod p."""
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-p, 2 * p))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return p, rows, ncols


def sparse_columns(rows, ncols):
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]


def combination(cols, coeffs, p):
    out = {}
    for col, c in zip(cols, coeffs):
        for i, v in col.items():
            out[i] = (out.get(i, 0) + c * v) % p
    return {i: v for i, v in out.items() if v}


@SETTINGS
@given(matrices())
def test_rank_matches_oracle(case):
    p, rows, ncols = case
    assert ModMatrix(rows, ncols, p).rank() == oracle_rank(rows, p)


@SETTINGS
@given(matrices())
def test_kernel_basis_is_the_canonical_kernel_basis(case):
    p, rows, ncols = case
    cols = sparse_columns(rows, ncols)
    basis = kernel_basis(cols, p)
    assert len(basis) == ncols - oracle_rank(rows, p)
    # column j depends on the columns before it exactly when it adds no rank
    dependent = [
        j
        for j in range(ncols)
        if oracle_rank([r[: j + 1] for r in rows], p) == oracle_rank([r[:j] for r in rows], p)
    ]
    assert [max(vec) for vec in basis] == dependent
    for vec in basis:
        own = max(vec)
        assert vec[own] == 1
        assert not set(vec) & set(dependent) - {own}
        assert all(0 < v < p for v in vec.values())
        assert combination([cols[k] for k in vec], vec.values(), p) == {}


@SETTINGS
@given(matrices(), st.lists(st.integers(0, 6), min_size=8, max_size=8), st.data())
def test_coords_reproduce_accepted_columns(case, coeffs, data):
    p, rows, ncols = case
    cols = sparse_columns(rows, ncols)
    solver = ColumnSolver(p)
    for j, col in enumerate(cols):
        solver.add({**col, -1 - j: 1})
    nrows = len(rows)
    arbitrary = st.dictionaries(
        st.integers(0, max(nrows - 1, 0)), st.integers(-p, 2 * p), max_size=nrows
    )
    for target in (combination(cols, coeffs, p), data.draw(arbitrary)):
        found = solver.coords(target)
        if found is not None:
            found = {-1 - t: v for t, v in found.items()}
        dense_target = [target.get(i, 0) for i in range(nrows)]
        extended = [r + [t] for r, t in zip(rows, dense_target)]
        in_span = oracle_rank(extended, p) == oracle_rank(rows, p)
        assert (found is not None) == in_span
        if found is not None:
            assert set(found) <= set(solver.pivots.values())
            rebuilt = combination([cols[k] for k in found], found.values(), p)
            assert rebuilt == combination([target], [1], p)


@SETTINGS
@given(matrices(), st.lists(st.integers(0, 6), min_size=8, max_size=8), st.data())
def test_tags_equal_the_history_restricted_to_tagged_columns(case, coeffs, data):
    """Pivots, relations and coordinates against the solver that keeps every
    column's whole combination, with a random subset of columns tagged."""
    p, rows, ncols = case
    cols = sparse_columns(rows, ncols)
    tagged = data.draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))

    def restricted(combo):
        return {-1 - k: v for k, v in combo.items() if tagged[k]}

    solver, oracle = ColumnSolver(p), HistorySolver(p)
    for j, col in enumerate(cols):
        rel = solver.add({**col, -1 - j: 1} if tagged[j] else col)
        want = oracle.add(col)
        assert (rel is None) == (want is None)
        if want is not None:
            assert rel == restricted(want)
    assert solver.pivots == oracle.pivots
    assert solver.n_added == oracle.n_added == ncols
    nrows = len(rows)
    arbitrary = st.dictionaries(
        st.integers(0, max(nrows - 1, 0)), st.integers(-p, 2 * p), max_size=nrows
    )
    for target in (combination(cols, coeffs, p), data.draw(arbitrary), {}):
        found, want = solver.coords(target), oracle.coords(target)
        assert (found is None) == (want is None)
        if want is not None:
            assert found == restricted(want)


@SETTINGS
@given(matrices(), st.data())
def test_product_equals_the_constructed_dense_product(case, data):
    p, rows, ncols = case
    a = ModMatrix(rows, ncols, p)
    k = data.draw(st.integers(0, 5))
    row = st.lists(st.one_of(st.just(0), st.integers(0, p - 1)), min_size=k, max_size=k)
    b = ModMatrix(data.draw(st.lists(row, min_size=ncols, max_size=ncols)), k, p)
    dense = [[sum(x * y[j] for x, y in zip(r, b.rows)) for j in range(k)] for r in a.rows]
    want = ModMatrix(dense, k, p)
    got = a @ b
    assert got == want and hash(got) == hash(want)
    assert (got.rows, got.nrows, got.ncols) == (want.rows, want.nrows, want.ncols)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 10**9), st.sampled_from([3, 5]))
def test_homology_dims_match_oracle_at_odd_primes(seed, p):
    ds = random_dataset(random.Random(seed), max_points=5, max_meas=2)
    metric = ds.pseudometric()
    for m in ds:
        for r in scale_grid(ds):
            for s in level_grid([m]):
                pts = sublevel(m, s)
                for d in (0, 1, 2):
                    ours = homology(vr_complex(pts, metric.at, r, d + 1), d, p).dim
                    assert ours == oracle_homology_dim(pts, metric.at, r, d, p)
