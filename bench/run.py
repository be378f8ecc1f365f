"""Benchmark of enriched-ph: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload structure --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1              # every workload
    python3 bench/run.py --workload interleave --trace 1      # per-layer run
    python3 bench/run.py --record-population                  # rewrite population.json

Measurements run in fresh worker processes (bench/worker.py), one after
another: one client, no threads, a closed loop.  An untraced run is cut into
CHUNKS workers that go on in the seed's job order one after another, so each
worker's set-up is one setup_s sample and the samples are spread over the
whole run.  The last line of stdout is one JSON object with keys correct,
attempted, failed and metrics; the lines above it list the same metrics for
people.  See bench/NOTES.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CHUNKS = 10  # workers per untraced run, and so setup_s samples
MIN_JOBS = 100  # job_p90_s needs ten samples beyond it
JOBS_CAP_S = 120.0  # wall time after which no worker starts a new job
RUN_LIMIT_S = 170.0  # every run ends within 180 s


class BenchError(Exception):
    pass


def spawn(deadline, *args):
    """Run one worker to completion and return the JSON on its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *map(str, args)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} ran past the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(samples):
    """Nearest-rank 90th percentile; valid only with ten samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise BenchError(f"job_p90_s needs ten samples beyond it, has {beyond}")
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline):
    """CHUNKS workers in turn, each with an equal share of the job time and of
    the MIN_JOBS floor.  Each worker goes on in the seed's order where the
    last one stopped, over a window of `size` items that it sets up (cycling
    through them if it has time left), so the run covers a prefix of the
    order; latencies are pooled and setup_s is the median set-up."""
    setups, lat, problems, failed, busy, rss, pos = [], [], [], 0, 0.0, 0.0, 0
    rundir = os.path.join(ROOT, ".bench_work", f"run-{workload}-{os.getpid()}")
    size = math.ceil(workloads.POPULATION[workload] / CHUNKS)
    os.makedirs(rundir)
    try:
        for _ in range(CHUNKS):
            run = spawn(deadline, "measure", workload, seed, pos, size, seconds / CHUNKS,
                        math.ceil(MIN_JOBS / CHUNKS), JOBS_CAP_S / CHUNKS, rundir)
            pos += min(run["attempted"], size)
            setups.append(run["setup_s"])
            lat += run["latencies"]
            problems += run["problems"]
            failed += run["failed"]
            busy += run["busy_s"]
            rss = max(rss, run["peak_rss_mb"])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric((len(lat) - failed) / busy, "1/s"),
        "job_p50_s": metric(statistics.median(lat), "s"),
        "job_p90_s": metric(p90(lat), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    note = (f"{len(lat)} jobs in {busy:.1f} s of job time, {CHUNKS} workers, "
            f"set-ups {min(setups):.3f}-{max(setups):.3f} s")
    return len(lat), failed, metrics, note, problems[:20]


def traced(workload, seed, deadline):
    """Untraced pass, then two traced passes over the same fixed jobs."""
    jobs = workloads.TRACE_JOBS[workload]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    spans = os.path.join(ROOT, ".bench_work", f"spans-{workload}.json.gz")
    plain = spawn(deadline, "pass", workload, seed, jobs)
    first = spawn(deadline, "pass", workload, seed, jobs, spans)
    second = spawn(deadline, "pass", workload, seed, jobs, "-")
    problems = plain["problems"] + first["problems"] + second["problems"]
    if first["digests"] != plain["digests"] or second["digests"] != plain["digests"]:
        problems.append("traced outputs differ from untraced outputs")
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"].get(k))
        problems.append(f"counts differ between two traced passes: {diff[:10]}")
    metrics = dict(first["metrics"])
    metrics["trace_overhead_ratio"] = metric(first["busy_s"] / plain["busy_s"], "ratio")
    failed = max(plain["failed"], first["failed"], second["failed"])
    note = f"{jobs} jobs per pass, spans of seed {seed} in {os.path.relpath(spans, ROOT)}"
    return jobs, failed, metrics, note, problems


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = traced(workload, seed, deadline) if trace else end_to_end(
        workload, seed, seconds, deadline)
    attempted, failed, metrics, note, problems = measure
    print(f"# {workload} seed {seed} trace {trace}: {note}")
    for problem in problems:
        print(f"# problem: {problem}")
    rows = list(metrics.items()) + [("failed_share", metric(failed / attempted, "ratio"))]
    for name, m in rows:
        print(f"{workload:<10} {name:<42} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_population():
    """Run every population item once and store its digest and cost."""
    out = {}
    deadline = time.monotonic() + 3600
    for workload in workloads.WORKLOADS:
        result = spawn(deadline, "record", workload)
        if result["problems"] or None in result["digests"]:
            raise BenchError(f"{workload}: {result['problems'][:5]}")
        out[workload] = {"digests": result["digests"], "cost_s": result["cost_s"]}
        print(f"{workload}: {len(result['digests'])} items, {sum(result['cost_s']):.1f} s")
    with open(os.path.join(HERE, "population.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-population", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "enriched_ph", "__init__.py")):
        print("error: no enriched_ph sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    try:
        if args.record_population:
            record_population()
            return 0
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
