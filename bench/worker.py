"""One benchmark client: a fresh process, one thread, a closed loop.

Modes (the last line of stdout is a JSON result):
  measure  WORKLOAD SEED START COUNT SECONDS MIN_JOBS CAP RUNDIR
                                         untraced closed loop over the COUNT items at
                                         position START of the seed's order, for SECONDS
                                         of job time and at least MIN_JOBS jobs, starting
                                         none after CAP seconds of wall time; works in
                                         RUNDIR, which the caller removes
  pass     WORKLOAD SEED JOBS [SPANS]    the first JOBS jobs; traced when SPANS names
                                         a file (or "-" to trace without writing spans)
  record   WORKLOAD                      every population item once, for population.json
"""

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POPULATION_FILE = os.path.join(HERE, "population.json")


def load_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"enriched_ph.{m}") for m in ("cli", "core", "persistence")}
    )


def load_population(workload):
    with open(POPULATION_FILE) as fh:
        return json.load(fh)[workload]


def setup(workload, workdir, indices):
    """Import the library, generate the population items a worker runs and
    write their input files."""
    lib = load_library()
    items = {i: workloads.generate(workload, i) for i in sorted(set(indices))}
    os.makedirs(os.path.join(workdir, "in"))
    for i, item in items.items():
        workloads.write_inputs(workload, item, os.path.join(workdir, "in", str(i)))
    return lib, items


def digest(outputs) -> str:
    h = hashlib.sha256()
    for name, data in outputs:
        h.update(b"%s\0%d\0" % (name.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def run_job(lib, workload, items, index, seq, workdir, expected=None, tracer=None):
    """One job, then its checks; returns (seconds, digest, problems)."""
    item = items[index]
    prefix = os.path.join(workdir, "in", str(index))
    outdir = os.path.join(workdir, "out", str(seq))
    os.makedirs(outdir)
    job = workloads.JOBS[workload]
    started = time.perf_counter()
    try:
        if tracer is None:
            elapsed, outputs, value = job(lib, item, prefix, outdir)
        else:
            elapsed, outputs, value = tracer.run_job(index, job, lib, item, prefix, outdir)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        return time.perf_counter() - started, None, [f"job {index} raised {exc!r}"]
    problems = [f"job {index}: {p}" for p in check.check(workload, item, dict(outputs), value, index)]
    got = digest(outputs)
    if expected is not None and expected[index] != got:
        problems.append(f"job {index}: output digest differs from the recorded one")
    return elapsed, got, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, start, count, seconds, min_jobs, cap_s, workdir):
    population = load_population(workload)
    order = workloads.run_order(workload, seed, population["cost_s"])
    mine = [order[(start + k) % len(order)] for k in range(count)]
    lib, items = setup(workload, workdir, mine)
    setup_s = time.perf_counter() - STARTED
    busy, latencies, problems, failed = 0.0, [], [], 0
    begun = time.perf_counter()
    while (busy < seconds or len(latencies) < min_jobs) and time.perf_counter() - begun < cap_s:
        index = mine[len(latencies) % count]
        elapsed, _, probs = run_job(lib, workload, items, index, len(latencies), workdir,
                                    population["digests"])
        busy += elapsed
        latencies.append(elapsed)
        problems.extend(probs)
        failed += bool(probs)
    return {
        "setup_s": setup_s,
        "busy_s": busy,
        "attempted": len(latencies),
        "failed": failed,
        "latencies": latencies,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb(),
    }


def run_pass(workload, seed, jobs, spans_path, workdir):
    population = load_population(workload)
    order = workloads.run_order(workload, seed, population["cost_s"])
    mine = [order[seq % len(order)] for seq in range(jobs)]
    lib, items = setup(workload, workdir, mine)
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracer.install()
    busy, digests, problems = 0.0, [], []
    for seq, index in enumerate(mine):
        elapsed, got, probs = run_job(lib, workload, items, index, seq, workdir,
                                      population["digests"], tracer)
        busy += elapsed
        digests.append(got)
        problems.extend(probs)
    out = {"busy_s": busy, "digests": digests, "problems": problems[:20],
           "failed": sum(1 for d in digests if d is None)}
    if tracer is not None:
        out["counts"] = tracing.exact_counts(tracer)
        out["metrics"] = tracing.layer_metrics(tracer)
        if spans_path != "-":
            tracer.write(spans_path)
    return out


def record(workload, workdir):
    """Digest and cost of every population item, run in index order."""
    lib, items = setup(workload, workdir, range(workloads.POPULATION[workload]))
    digests, costs, problems = [], [], []
    for index in range(len(items)):
        elapsed, got, probs = run_job(lib, workload, items, index, index, workdir)
        digests.append(got)
        costs.append(round(elapsed, 4))
        problems.extend(probs)
    return {"digests": digests, "cost_s": costs, "problems": problems}


def main(argv):
    mode, workload = argv[0], argv[1]
    # outputs stay until the worker ends; a measuring worker works under its
    # caller's run directory and leaves the removal to the caller, so that no
    # job or set-up follows a mass delete
    root = argv[8] if mode == "measure" else os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(root, f"{mode}-{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if mode == "measure":
            seed, start, count, seconds, min_jobs, cap_s = argv[2:8]
            result = measure(workload, int(seed), int(start), int(count), float(seconds),
                             int(min_jobs), float(cap_s), workdir)
        elif mode == "pass":
            spans = argv[4] if len(argv) > 4 else None
            result = run_pass(workload, int(argv[2]), int(argv[3]), spans, workdir)
        elif mode == "record":
            result = record(workload, workdir)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if mode != "measure":
            shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
