"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Random populations are seeded, so every run checks the same
instances.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from enriched_ph import (
    DataSet,
    Domain,
    Incarnation,
    PHEvaluator,
    PointMap,
    ValueMap,
    blocks,
    bottleneck_lower,
    change_units,
    decompose,
    deformation_closure,
    dimension,
    domain_change,
    enumerate_bases,
    enumerate_geos,
    find_all_realizations,
    find_basis,
    interleave_upper,
    is_independent,
    level_grid,
    ph_grid,
    ph_map,
    scale_grid,
    sublevel,
    sup_distance,
    superlevel_duality_check,
)
from enriched_ph.cli import main as cli_main
from conftest import (
    HALF_LATTICE,
    oracle_homology_dim,
    oracle_matching,
    random_dataset,
    random_incarnation,
    random_transitive_group_incarnation,
)

F = Fraction


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def fixture_a_datasets():
    dom = Domain(["x1", "x2", "x3", "x4"])
    phi = ("phi", ["-1", "0", "0", "1"])
    psi = ("psi", ["0", "1", "-1", "0"])
    return DataSet(dom, [phi]), DataSet(dom, [phi, psi])


def fixture_b_incarnation():
    dom = Domain(["x1", "x2", "x3"])
    ds = DataSet(dom, [("phi1", [2, 2, 3]), ("phi2", [2, 2, 2]), ("phi3", [1, 2, 2])])
    ops = [
        PointMap.identity(dom),
        PointMap(dom, dom, {"x1": "x2", "x2": "x2", "x3": "x3"}, ("g1",)),
        PointMap(dom, dom, {"x1": "x2", "x2": "x2", "x3": "x2"}, ("g2",)),
        PointMap(dom, dom, {"x1": "x1", "x2": "x2", "x3": "x2"}, ("g3",)),
    ]
    return Incarnation(ds, ops)


# ---------------------------------------------------------------------------


def test_criterion_01_golden_persistence_grid():
    t0 = time.monotonic()
    phi_only, both = fixture_a_datasets()
    bp0 = ph_grid(phi_only, phi_only.by_name("phi"), 1, 2)
    zero_everywhere = all(v == 0 for row in bp0.dims() for v in row)
    bp1 = ph_grid(both, both.by_name("phi"), 1, 2)
    ok_grid = bp1.grid.r_values == (F(0), F(1), F(2)) and bp1.grid.s_values == (
        F(-2), F(-1), F(0), F(1),
    )
    expected = [[1 if (r == 1 and s == 1) else 0 for s in bp1.grid.s_values] for r in bp1.grid.r_values]
    elapsed = time.monotonic() - t0
    report(
        1,
        zero_everywhere and ok_grid and bp1.dims() == expected and elapsed < 1.0,
        f"single-measurement grid vanishes; enriched grid is 1 exactly on [1,2)x[1,inf) ({elapsed:.3f}s)",
    )


def test_criterion_02_golden_analysis(tmp_path):
    t0 = time.monotonic()
    inc = fixture_b_incarnation()
    path = tmp_path / "b.json"
    path.write_text(json.dumps(inc.to_json_dict()))
    out = tmp_path / "report.json"
    code = cli_main(["analyze", str(path), "-o", str(out)])
    got = json.loads(out.read_text())
    elapsed = time.monotonic() - t0
    expected = {
        "kind": "monoid",
        "blocks": [["phi1", "phi2", "phi3"]],
        "basis": ["phi1", "phi3"],
        "dimension": 2,
    }
    report(
        2,
        code == 0 and got == expected and elapsed < 1.0,
        f"analysis reports monoid, one block, basis {{phi1, phi3}}, dimension 2 ({elapsed:.3f}s)",
    )


def test_criterion_03_golden_change_of_units(tmp_path):
    dom = Domain(["x1", "x2"])
    left = DataSet(dom, [("one", [1, 1]), ("two", [2, 2])])
    right = DataSet(dom, [("neg", [-1, -1]), ("pos", [1, 1])])
    f = ValueMap.clamp_sign()
    img_left, _ = change_units(f, left)
    img_right, fwd_right = change_units(f, right)
    collapsed = [m.values for m in img_left] == [(F(1), F(1))]
    identity_map = len(img_right) == 2 and all(k.values == v.values for k, v in fwd_right.items())
    for name, payload in (
        ("left.json", left.to_json_dict()),
        ("right.json", right.to_json_dict()),
        ("alpha.json", {"one": "neg", "two": "pos"}),
    ):
        (tmp_path / name).write_text(json.dumps(payload))
    out = tmp_path / "verdict.json"
    code = cli_main(
        [
            "seo", "realize",
            "--source", str(tmp_path / "left.json"),
            "--target", str(tmp_path / "right.json"),
            "--alpha", str(tmp_path / "alpha.json"),
            "-o", str(out),
        ]
    )
    verdict = json.loads(out.read_text())
    report(
        3,
        collapsed and identity_map and code == 0 and verdict["realizable"] is False,
        "sign clamp collapses {1,2} to {1}, fixes {-1,1} pointwise, and the cross map has no realization",
    )


def test_criterion_04_non_expansiveness_population():
    t0 = time.monotonic()
    rng = random.Random(1234)
    datasets = pair_checks = 0
    for _ in range(500):
        ds = random_dataset(rng, min_meas=2)
        datasets += 1
        ev = PHEvaluator(ds, 2)
        for phi, psi in itertools.combinations(list(ds), 2):
            eps = sup_distance(phi, psi)
            for d in (0, 1):
                res = interleave_upper(ds, phi, psi, d, 2, evaluator=ev)
                assert res.upper == eps
                lower = bottleneck_lower(ds, phi, psi, d, 2)
                assert lower <= eps
                pair_checks += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        datasets == 500 and elapsed < 300,
        f"{datasets} data sets, {pair_checks} pair-degree interleavings certified at "
        f"eps = sup distance with bottleneck lower bounds ({elapsed:.1f}s)",
    )


def test_criterion_05_basis_invariants():
    rng = random.Random(2345)
    incarnations = 0
    for _ in range(200):
        inc = random_incarnation(rng, max_points=4, max_ops=4, max_meas=8)
        incarnations += 1
        reach = inc.reach()
        fb = find_basis(inc)
        assert is_independent(fb, inc)
        assert set(deformation_closure(fb, inc)) == set(inc.dataset)
        bases = enumerate_bases(inc)
        assert frozenset(fb) in {frozenset(b) for b in bases}
        dim = len(fb)
        assert all(len(b) == dim for b in bases)

        def matched(om1, om2):
            adjacency = {
                i: [j for j, w in enumerate(om2) if w in reach[v] and v in reach[w]]
                for i, v in enumerate(om1)
            }
            return oracle_matching(len(om1), adjacency)

        for other in bases:
            assert matched(fb, other) and matched(other, fb)
    report(
        5,
        incarnations == 200,
        f"{incarnations} incarnations: bases equicardinal, matched by indistinguishability, "
        "and the constructed basis always generates independently",
    )


def _shared_grid(datasets, measurements):
    rs = {F(0)}
    for ds in datasets:
        rs.update(ds.pseudometric().distinct_values())
    ss = sorted({v for m in measurements for v in m.values})
    return tuple(sorted(rs)), (ss[0] - 1,) + tuple(ss)


def test_criterion_06_functoriality_and_realization_independence():
    rng = random.Random(3456)
    pairs = independence_checked = 0
    while pairs < 100:
        ds = random_dataset(rng, max_points=4, max_meas=3)
        y = Domain([f"y{i}" for i in range(rng.randint(1, 4))])
        z = Domain([f"z{i}" for i in range(rng.randint(1, 4))])
        f = PointMap(y, ds.domain, {p: rng.choice(ds.domain.points) for p in y})
        mid, alpha = domain_change(ds, f)
        g = PointMap(z, y, {p: rng.choice(y.points) for p in z})
        far, beta = domain_change(mid, g)
        pairs += 1
        phi = next(iter(ds))
        fs = find_all_realizations(ds, mid, alpha)
        gs = find_all_realizations(mid, far, beta)
        assert f in fs and g in gs
        rv, sv = _shared_grid([ds, mid, far], [phi, alpha[phi], beta[alpha[phi]]])
        d = rng.choice((0, 1))
        bp_src = ph_grid(ds, phi, d, 2, r_values=rv, s_values=sv)
        bp_mid = ph_grid(mid, alpha[phi], d, 2, r_values=rv, s_values=sv)
        bp_far = ph_grid(far, beta[alpha[phi]], d, 2, r_values=rv, s_values=sv)
        m_alpha = ph_map(bp_mid, bp_src, fs[0])
        m_beta = ph_map(bp_far, bp_mid, gs[0])
        m_comp = ph_map(bp_far, bp_src, fs[0] * gs[0])
        assert m_comp == m_alpha @ m_beta
        if len(fs) > 1:
            independence_checked += 1
            for other in fs[1:]:
                assert ph_map(bp_mid, bp_src, other) == m_alpha
    report(
        6,
        pairs == 100,
        f"{pairs} composable geometric pairs compose exactly on homology; "
        f"realization independence verified on {independence_checked} multi-realization cases",
    )


def test_criterion_07_decomposition_isomorphism():
    rng = random.Random(4567)
    checked = 0
    population = [fixture_b_incarnation()]
    population.extend(random_incarnation(rng) for _ in range(100))
    for inc in population:
        diag, seo = decompose(inc)
        assert seo.is_isomorphism
        assert dimension(diag) == dimension(inc)
        assert len(blocks(diag)) == len(blocks(inc))
        basis_image = [seo.measurement_map[m] for m in find_basis(inc)]
        assert is_independent(basis_image, diag)
        assert set(deformation_closure(basis_image, diag)) == set(diag.dataset)
        checked += 1
    report(
        7,
        checked == len(population),
        f"{checked} decompositions are isomorphisms preserving dimension, blocks, and bases",
    )


def test_criterion_08_universal_properties_exhaustive():
    from enriched_ph import copair, coproduct, pair, product

    dom = Domain(["pt"])

    def make(k, base):
        return DataSet(dom, [(f"c{base + i}", [base + i]) for i in range(k)])

    combos = 0
    for na, nb, nc in itertools.product((1, 2, 3), repeat=3):
        a, b, pi = make(na, 10), make(nb, 20), make(nc, 30)
        a_list, b_list, pi_list = list(a), list(b), list(pi)
        cp = coproduct(a, b)
        cp_list = list(cp.dataset)
        cp_pos = {m: i for i, m in enumerate(cp_list)}
        left_idx = [cp_pos[cp.left[m]] for m in a_list]
        right_idx = [cp_pos[cp.right[m]] for m in b_list]
        for alpha_img in itertools.product(range(nc), repeat=na):
            for beta_img in itertools.product(range(nc), repeat=nb):
                alpha = {a_list[i]: pi_list[alpha_img[i]] for i in range(na)}
                beta = {b_list[i]: pi_list[beta_img[i]] for i in range(nb)}
                mu = copair(cp, alpha, beta)
                mu_tuple = tuple(pi_list.index(mu[m]) for m in cp_list)
                solutions = [
                    cand
                    for cand in itertools.product(range(nc), repeat=len(cp_list))
                    if all(cand[left_idx[i]] == alpha_img[i] for i in range(na))
                    and all(cand[right_idx[i]] == beta_img[i] for i in range(nb))
                ]
                assert solutions == [mu_tuple]

        pr = product(a, b)
        pr_list = list(pr.dataset)
        pr_pos = {m: i for i, m in enumerate(pr_list)}
        proj_l = [a_list.index(pr.proj_left[m]) for m in pr_list]
        proj_r = [b_list.index(pr.proj_right[m]) for m in pr_list]
        for alpha_img in itertools.product(range(na), repeat=nc):
            for beta_img in itertools.product(range(nb), repeat=nc):
                alpha = {pi_list[i]: a_list[alpha_img[i]] for i in range(nc)}
                beta = {pi_list[i]: b_list[beta_img[i]] for i in range(nc)}
                mu = pair(pr, alpha, beta)
                mu_tuple = tuple(pr_pos[mu[m]] for m in pi_list)
                solutions = [
                    cand
                    for cand in itertools.product(range(len(pr_list)), repeat=nc)
                    if all(proj_l[cand[i]] == alpha_img[i] for i in range(nc))
                    and all(proj_r[cand[i]] == beta_img[i] for i in range(nc))
                ]
                assert solutions == [mu_tuple]
        combos += 1
    report(
        8,
        combos == 27,
        "copair and pair factor uniquely through every coproduct and product up to size 3x3x3, "
        "exhaustively over all functions",
    )


def _symmetric_group_incarnation(rng):
    """Full permutation group on three of the points, fixing the rest."""
    n = rng.randint(3, 5)
    dom = Domain([f"x{i}" for i in range(1, n + 1)])
    moved = list(dom.points[:3])
    fixed = list(dom.points[3:])
    group = []
    for perm in itertools.permutations(moved):
        mapping = dict(zip(moved, perm))
        mapping.update({p: p for p in fixed})
        group.append(PointMap(dom, dom, mapping))
    seed = tuple(rng.choice(HALF_LATTICE) for _ in range(n))
    orbit = {tuple(seed[dom.index(g(p))] for p in dom.points) for g in group}
    ds = DataSet(dom, [(None, v) for v in sorted(orbit)])
    return Incarnation(ds, group)


def _order(g, ident):
    k, cur = 1, g
    while cur != ident:
        cur = g * cur
        k += 1
    return k


def _random_hom(rng, src, tgt):
    """A homomorphism from a cyclic source group, or the trivial one."""
    ident_t = PointMap.identity(tgt.dataset.domain)
    if rng.random() < 0.3:
        return {g: ident_t for g in src.ops}
    ident_s = PointMap.identity(src.dataset.domain)
    gens = [g for g in src.ops if set(generated_by(g, ident_s)) == set(src.ops)]
    if not gens:
        return {g: ident_t for g in src.ops}
    c = rng.choice(gens)
    k = _order(c, ident_s)
    options = [n for n in tgt.ops if _order(n, ident_t) and pow_map(n, k, ident_t) == ident_t]
    n = rng.choice(options)
    out, cur_s, cur_t = {ident_s: ident_t}, ident_s, ident_t
    for _ in range(k - 1):
        cur_s, cur_t = c * cur_s, n * cur_t
        out[cur_s] = cur_t
    return out


def generated_by(g, ident):
    out, cur = [ident], g
    while cur != ident:
        out.append(cur)
        cur = g * cur
    return out


def pow_map(g, k, ident):
    cur = ident
    for _ in range(k):
        cur = g * cur
    return cur


def test_criterion_09_geo_isotropy_correspondence():
    rng = random.Random(5678)
    instances = 0
    while instances < 50:
        if rng.random() < 0.3:
            src = _symmetric_group_incarnation(rng)
        else:
            src = random_transitive_group_incarnation(rng, max_points=5)
        tgt = random_transitive_group_incarnation(rng, max_points=4)
        if len(tgt.dataset) ** len(src.dataset) > 100000:
            continue
        tmap = _random_hom(rng, src, tgt)
        omega = next(iter(src.dataset))
        geos = enumerate_geos(src, omega, tgt, tmap)
        brute = []
        ms = list(src.dataset)
        for images in itertools.product(list(tgt.dataset), repeat=len(ms)):
            alpha = dict(zip(ms, images))
            if all(
                alpha[src.act(m, g)] == tgt.act(alpha[m], tmap[g])
                for m in ms
                for g in src.ops
            ):
                brute.append(alpha)
        assert len(geos) == len(brute)
        got = {tuple(sorted((k.values, v.values) for k, v in s.measurement_map.items())) for s in geos}
        want = {tuple(sorted((k.values, v.values) for k, v in a.items())) for a in brute}
        assert got == want
        instances += 1
    report(
        9,
        instances == 50,
        f"{instances} transitive group sources: operator enumeration equals brute-force "
        "equivariant-map enumeration exactly",
    )


def test_criterion_10_oracle_equivalence():
    checked = 0
    # fixture grids from criterion 1
    for ds in fixture_a_datasets():
        metric = ds.pseudometric()
        ev = PHEvaluator(ds, 2)
        for m in ds:
            for r in scale_grid(ds):
                for s in level_grid([m]):
                    pts = sublevel(m, s)
                    for d in (0, 1):
                        ours = ev.homology(pts, r, d).dim
                        assert ours == oracle_homology_dim(pts, metric.at, r, d, 2)
                        checked += 1
    # the criterion-4 population (same generator and seed, subsampled)
    rng = random.Random(1234)
    for i in range(40):
        ds = random_dataset(rng, min_meas=2)
        metric = ds.pseudometric()
        ev = PHEvaluator(ds, 2)
        for m in ds:
            for r in scale_grid(ds):
                for s in level_grid([m]):
                    pts = sublevel(m, s)
                    for d in (0, 1):
                        assert ev.homology(pts, r, d).dim == oracle_homology_dim(
                            pts, metric.at, r, d, 2
                        )
                        checked += 1
    # criterion-6 style composed domains
    rng = random.Random(3456)
    for i in range(10):
        ds = random_dataset(rng, max_points=4, max_meas=3)
        y = Domain([f"y{i}" for i in range(rng.randint(1, 4))])
        f = PointMap(y, ds.domain, {p: rng.choice(ds.domain.points) for p in y})
        mid, _ = domain_change(ds, f)
        for d2 in (mid,):
            metric = d2.pseudometric()
            ev = PHEvaluator(d2, 2)
            for m in d2:
                for r in scale_grid(d2):
                    for s in level_grid([m]):
                        pts = sublevel(m, s)
                        for d in (0, 1):
                            assert ev.homology(pts, r, d).dim == oracle_homology_dim(
                                pts, metric.at, r, d, 2
                            )
                            checked += 1
    report(10, checked > 4000, f"{checked} homology dimensions match the independent boundary-matrix oracle")


def test_criterion_11_superlevel_duality():
    _, both = fixture_a_datasets()
    for d in (0, 1):
        assert superlevel_duality_check(both, both.by_name("phi"), d, 2)
    rng = random.Random(6789)
    verified = 0
    for _ in range(100):
        ds = random_dataset(rng, max_points=5, max_meas=3)
        m = rng.choice(list(ds))
        assert superlevel_duality_check(ds, m, rng.choice((0, 1)), 2)
        verified += 1
    report(
        11,
        verified == 100,
        f"negated-data persistence equals superlevel persistence on the fixture and {verified} random instances",
    )
