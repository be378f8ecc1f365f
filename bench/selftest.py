"""Self-tests for the benchmark's own code: python3 bench/selftest.py"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_library, load_population  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(run.p90(samples), 90.0)
        self.assertEqual(sum(1 for s in samples if s > run.p90(samples)), 10)

    def test_too_few_samples_rejected(self):
        with self.assertRaises(run.BenchError):
            run.p90([float(i) for i in range(99)])


class SelfTimes(unittest.TestCase):
    def test_nested_tree(self):
        spans = [
            ["job", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 2.0, 3.0, 1, 0],
            ["a", 5.0, 6.0, 0, 0],
        ]
        self.assertEqual(tracing.self_times(spans), {"job": 6.0, "a": 3.0, "b": 1.0})

    def test_overlapping_children_counted_once(self):
        spans = [["p", 0.0, 4.0, -1, 0], ["c", 1.0, 3.0, 0, 0], ["c", 2.0, 5.0, 0, 0]]
        self.assertEqual(tracing.self_times(spans)["p"], 1.0)


class TracedPass(unittest.TestCase):
    def test_wrappers_reach_imported_names_and_keep_outputs(self):
        # cli imports ph_grid and persistence imports kernel_basis; both must
        # be traced, and the outputs must still match the recorded digests
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "pass", "grid", "1", "2", "-"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(result["problems"], [])
        self.assertEqual(result["counts"]["persistence.ph_grid.calls"], 4)
        self.assertGreater(result["counts"]["linalg.kernel_basis.calls"], 0)
        self.assertEqual(result["counts"]["job.calls"], 2)


class Generation(unittest.TestCase):
    def test_items_repeat_for_an_index(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(workload, 7), workloads.generate(workload, 7))
            self.assertNotEqual(workloads.generate(workload, 7), workloads.generate(workload, 8))

    def test_order_repeats_for_a_seed_and_is_stratified(self):
        for workload in workloads.WORKLOADS:
            costs = load_population(workload)["cost_s"]
            order = workloads.run_order(workload, 3, costs)
            self.assertEqual(order, workloads.run_order(workload, 3, costs))
            self.assertNotEqual(order, workloads.run_order(workload, 4, costs))
            self.assertEqual(sorted(order), list(range(workloads.POPULATION[workload])))
            ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
            size = len(costs) // workloads.STRATA
            stratum = {item: rank // size for rank, item in enumerate(ranked)}
            first_round = order[: workloads.STRATA]
            self.assertEqual(sorted(stratum[i] for i in first_round), list(range(workloads.STRATA)))


class CheckerRejectsPerturbedOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = load_library()
        work = os.path.join(os.path.dirname(HERE), ".bench_work")
        os.makedirs(work, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def _run(self, workload, index):
        item = workloads.generate(workload, index)
        outdir = os.path.join(self.tmp, f"{workload}-{index}")
        os.makedirs(outdir)
        prefix = os.path.join(outdir, "input")
        workloads.write_inputs(workload, item, prefix)
        _, outputs, value = workloads.JOBS[workload](self.lib, item, prefix, outdir)
        return item, dict(outputs), value

    def test_grid(self):
        item, outputs, _ = self._run("grid", 0)
        self.assertEqual(check.check_grid(item, outputs, 0), [])
        grid = json.loads(outputs["grid.json"])
        grid["dims"][-1][-1] += 1
        bad = dict(outputs, **{"grid.json": json.dumps(grid).encode()})
        self.assertTrue(check.check_grid(item, bad, 0))
        bars = outputs["bars.csv"].decode().splitlines()
        self.assertGreater(len(bars), 1)
        bad = dict(outputs, **{"bars.csv": ("\n".join(bars[:-1]) + "\n").encode()})
        self.assertTrue(check.check_grid(item, bad, 0))

    def test_interleave(self):
        item, _, record = self._run("interleave", 0)
        self.assertEqual(check.check_interleave(item, record), [])
        bad = [dict(row) for row in record]
        bad[0]["upper"] = str(Fraction(bad[0]["upper"]) + Fraction(1, 2))
        self.assertTrue(check.check_interleave(item, bad))
        bad = [dict(row) for row in record]
        bad[-1]["lower"] = str(Fraction(bad[-1]["upper"]) + 1)
        self.assertTrue(check.check_interleave(item, bad))

    def test_oracle_on_a_known_cycle(self):
        # a square with sides 1 and diagonals 2: one 1-cycle at scale 1,
        # filled in at scale 2
        pts = ["a", "b", "c", "d"]
        diagonals = ({"a", "c"}, {"b", "d"})
        dist = {(x, y): 0 if x == y else 2 if {x, y} in diagonals else 1 for x in pts for y in pts}
        self.assertEqual(check.oracle_betti(pts, dist, 1, 1), 1)
        self.assertEqual(check.oracle_betti(pts, dist, 2, 1), 0)
        self.assertEqual(check.oracle_betti(pts, dist, 0, 0), 4)


class BenchmarkFile(unittest.TestCase):
    def test_lists_every_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        # grid stays runnable by hand but is left out: three workloads of
        # 50-second runs do not fit the time the benchmark's check allows
        self.assertEqual([w["name"] for w in spec["workloads"]], ["interleave", "structure"])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracing.METRICS
        )
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["setup_s", "jobs_per_s", "job_p50_s", "job_p90_s", "peak_rss_mb"],
        )


if __name__ == "__main__":
    unittest.main()
