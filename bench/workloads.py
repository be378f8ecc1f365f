"""Seeded inputs and one job per workload.

Each workload has a fixed population of inputs, generated from fixed
per-item seeds so that every job's output bytes have a recorded digest.  The
run seed only chooses the order in which a run draws from the population.
The library sees nothing but the files and objects built here.

A job returns its time, the bytes it produced (for the digest) and a value
the checker reads.  The timer covers the job's own steps, including the
files a structure job writes for its next step, but not reading its outputs
back for the checks.
"""

import json
import os
import random
import time
from fractions import Fraction

WORKLOADS = ("grid", "interleave", "structure")
HALF_LATTICE = [Fraction(k, 2) for k in range(-6, 7)]

# Population sizes: an untraced run draws a prefix of the seed's order, part
# of the population (grid, interleave) or about all of it (structure), so
# different seeds draw different mixes of the same population.
POPULATION = {"grid": 240, "interleave": 600, "structure": 240}

STRATA = 20

# Jobs in one traced pass: a fixed prefix of the seed's order, so counts
# repeat exactly across traced runs of one seed.
TRACE_JOBS = {"grid": 40, "interleave": 120, "structure": 40}


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def run_order(workload: str, seed: int, costs) -> list:
    """The seed's order over the population, stratified by recorded cost.

    Items are ranked by cost and cut into STRATA equal strata; every round of
    STRATA jobs draws one unused item from each stratum.  Any prefix of whole
    rounds therefore has the population's cost mix, which keeps run-to-run
    spread low without dropping the expensive tail.
    """
    rng = random.Random(f"enriched-ph-bench/order/{workload}/{seed}")
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    size = len(ranked) // STRATA
    strata = [ranked[k * size:(k + 1) * size] for k in range(STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for r in range(size):
        round_ = [stratum[r] for stratum in strata]
        rng.shuffle(round_)
        order.extend(round_)
    return order


def _distinct_vectors(rng, n, k, draw):
    vecs = set()
    while len(vecs) < k:
        vecs.add(tuple(draw() for _ in range(n)))
    return sorted(vecs)


def _dataset_dict(n, vecs) -> dict:
    return {
        "domain": [f"x{i}" for i in range(1, n + 1)],
        "measurements": {f"f{i}": [fmt(v) for v in vec] for i, vec in enumerate(vecs)},
    }


# ---------------------------------------------------------------------------
# generators: plain data, no library objects


def gen_grid(rng: random.Random) -> dict:
    """Two measurements on 7-10 points, values k/7 with k uniform in [-60, 60]."""
    n = rng.randint(7, 10)
    vecs = _distinct_vectors(rng, n, 2, lambda: Fraction(rng.randint(-60, 60), 7))
    return {"dataset": _dataset_dict(n, vecs)}


def gen_interleave(rng: random.Random) -> dict:
    """2-6 points, 2-4 measurements of half-integers in [-3, 3]."""
    n = rng.randint(2, 6)
    k = rng.randint(2, 4)
    vecs = _distinct_vectors(rng, n, k, lambda: rng.choice(HALF_LATTICE))
    return {"dataset": _dataset_dict(n, vecs)}


def _random_map(rng, n) -> tuple:
    return tuple(rng.randrange(n) for _ in range(n))


def gen_structure(rng: random.Random, n=5, max_meas=12) -> dict:
    """A data set on 5 points closed under 1-2 random endomorphisms and, half
    the time, one permutation; at most 12 measurements of half-integers."""
    while True:
        maps = [_random_map(rng, n) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            maps.append(tuple(perm))
        seeds = {
            tuple(rng.choice(HALF_LATTICE) for _ in range(n)) for _ in range(rng.randint(1, 3))
        }
        meas = set(seeds)
        frontier = list(seeds)
        while frontier and len(meas) <= max_meas:
            cur = frontier.pop()
            for g in maps:
                img = tuple(cur[g[i]] for i in range(n))
                if img not in meas:
                    meas.add(img)
                    frontier.append(img)
        if len(meas) <= max_meas:
            break
    pts = [f"x{i}" for i in range(1, n + 1)]
    ops = {f"g{k}": {pts[i]: pts[g[i]] for i in range(n)} for k, g in enumerate(maps)}
    return {"dataset": _dataset_dict(n, sorted(meas)), "ops": ops}


GENERATORS = {"grid": gen_grid, "interleave": gen_interleave, "structure": gen_structure}


def generate(workload: str, index: int) -> dict:
    return GENERATORS[workload](random.Random(f"enriched-ph-bench/{workload}/{index}"))


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def write_inputs(workload: str, item: dict, prefix: str) -> None:
    """Input files a job reads, named prefix + suffix; interleave jobs take
    objects, not files."""
    if workload in ("grid", "structure"):
        write_json(prefix + "-data.json", item["dataset"])
    if workload == "structure":
        write_json(prefix + "-inc.json", {"dataset": item["dataset"], "M": item["ops"]})


# ---------------------------------------------------------------------------
# jobs: each returns (seconds, output bytes, value for the checker)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _run_cli(lib, argv) -> None:
    code = lib.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"enriched-ph {' '.join(argv[:2])} exited with {code}")


def job_grid(lib, item, prefix, outdir):
    data = prefix + "-data.json"
    grid, bars = os.path.join(outdir, "grid.json"), os.path.join(outdir, "bars.csv")
    t0 = time.perf_counter()
    _run_cli(lib, ["ph", data, "-m", "f0", "-d", "1", "--grid", grid, "--barcodes", bars])
    elapsed = time.perf_counter() - t0
    outputs = [("grid.json", _read(grid)), ("bars.csv", _read(bars))]
    return elapsed, outputs, None


def job_interleave(lib, item, prefix, outdir):
    spec = item["dataset"]
    p = lib.persistence
    t0 = time.perf_counter()
    ds = lib.core.DataSet.from_json_dict(spec)
    ev = p.PHEvaluator(ds, 2)
    ms = list(ds)
    rows = []
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            for d in (0, 1):
                upper = p.interleave_upper(ds, ms[a], ms[b], d, 2, evaluator=ev)
                lower = p.bottleneck_lower(ds, ms[a], ms[b], d, 2)
                rows.append((ms[a].name, ms[b].name, d, upper, lower))
    elapsed = time.perf_counter() - t0
    record = [
        {
            "phi": phi,
            "psi": psi,
            "degree": d,
            "upper": fmt(up.upper),
            "lower": "inf" if lo == p.INF else fmt(lo),
            "triangles": up.certificate["triangles"],
            "squares": up.certificate["squares"],
        }
        for phi, psi, d, up, lo in rows
    ]
    text = json.dumps(record, sort_keys=True).encode()
    return elapsed, [("record.json", text)], record


def job_structure(lib, item, prefix, outdir):
    data, inc = prefix + "-data.json", prefix + "-inc.json"
    out = {
        name: os.path.join(outdir, name)
        for name in ("end.json", "aut.json", "univ.json", "an_univ.json", "an_inc.json",
                     "map.json", "extend.json", "decompose.json")
    }
    functor_dir = os.path.join(outdir, "functor")
    t0 = time.perf_counter()
    _run_cli(lib, ["ops", "end", data, "-o", out["end.json"]])
    _run_cli(lib, ["ops", "aut", data, "-o", out["aut.json"]])
    with open(out["end.json"]) as fh:
        end_ops = json.load(fh)
    write_json(out["univ.json"], {"dataset": item["dataset"], "M": end_ops})
    _run_cli(lib, ["analyze", out["univ.json"], "-o", out["an_univ.json"]])
    _run_cli(lib, ["analyze", inc, "-o", out["an_inc.json"]])
    with open(out["an_inc.json"]) as fh:
        basis = json.load(fh)["basis"]
    write_json(
        out["map.json"],
        {"basis": basis, "alpha_bar": {b: b for b in basis}, "T": {g: g for g in item["ops"]}},
    )
    _run_cli(lib, ["seo", "extend", "--source", inc, "--target", inc,
                   "--map", out["map.json"], "-o", out["extend.json"]])
    _run_cli(lib, ["seo", "decompose", inc, "-o", out["decompose.json"]])
    _run_cli(lib, ["ph", inc, "-m", "f0", "-d", "1", "--functor", functor_dir])
    elapsed = time.perf_counter() - t0
    outputs = [(name, _read(path)) for name, path in out.items() if name not in ("univ.json", "map.json")]
    outputs += [
        ("functor/" + name, _read(os.path.join(functor_dir, name)))
        for name in sorted(os.listdir(functor_dir))
    ]
    return elapsed, outputs, None


JOBS = {"grid": job_grid, "interleave": job_interleave, "structure": job_structure}
