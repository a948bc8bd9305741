"""Tests of the benchmark's own math, plus a tiny-size run of every workload.

    python3 -m unittest discover -s perfbench/tests -v

The tiny runs build perfbench_driver on first use (about a minute); to run
only the math, name its classes, e.g. `-k PercentileRule -k SelfTime`.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics as M  # noqa: E402
import run as R  # noqa: E402


def span(id_, parent, name, start, end, scenario=-1):
    return {"id": id_, "parent": parent, "name": name, "scenario": scenario,
            "start_ns": start, "end_ns": end}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(M.tail_percentile(100000), 99.99)
        self.assertEqual(M.tail_percentile(10000), 99.9)
        self.assertEqual(M.tail_percentile(9999), 99.0)
        self.assertEqual(M.tail_percentile(1000), 99.0)
        self.assertEqual(M.tail_percentile(999), 90.0)
        self.assertEqual(M.tail_percentile(100), 90.0)
        self.assertEqual(M.tail_percentile(99), 50.0)
        self.assertEqual(M.tail_percentile(20), 50.0)

    def test_no_percentile_below_twenty_samples(self):
        self.assertIsNone(M.tail_percentile(19))
        self.assertIsNone(M.tail_percentile(0))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.percentile(values, 50.0), 50)
        self.assertEqual(M.percentile(values, 90.0), 90)
        self.assertEqual(M.percentile(values, 99.0), 99)
        self.assertEqual(M.percentile(list(reversed(values)), 99.0), 99)
        self.assertEqual(M.percentile([7], 99.0), 7)

    def test_summary_reports_tail_and_count(self):
        s = M.timing_summary(list(range(1, 1001)))
        self.assertEqual((s["n"], s["p50"], s["tail"], s["tail_pct"]), (1000, 500, 990, 99.0))
        small = M.timing_summary([3, 1, 2])
        self.assertEqual((small["tail"], small["tail_pct"]), (3, None))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [span(0, -1, "cell", 0, 100),
                 span(1, 0, "a", 10, 30), span(2, 0, "b", 20, 40),  # overlap
                 span(3, 0, "c", 90, 120)]                         # runs past the parent
        self.assertEqual(M.self_times(spans)[0], 100 - 30 - 10)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, -1, "cell", 0, 100), span(1, 0, "a", 0, 50),
                 span(2, 1, "b", 10, 20)]
        selfs = M.self_times(spans)
        self.assertEqual((selfs[0], selfs[1], selfs[2]), (50, 40, 10))

    def test_ledger_counts_only_spans_inside_cells(self):
        spans = [span(0, -1, "traffic.index_build", 0, 1000),
                 span(1, 0, "sim.walk.pr", 0, 900),
                 span(2, -1, "cell", 1000, 1100, 0),
                 span(3, 2, "sim.walk.pr", 1000, 1060, 0),
                 span(4, 2, "bench.digest", 1060, 1090, 0),
                 span(5, -1, "analysis.persist", 2000, 2500)]
        ledger = M.span_ledger(spans)
        self.assertEqual(ledger["cells"], [100])
        self.assertEqual(ledger["self"], {"sim.walk.pr": 60, "bench.digest": 30})
        self.assertEqual(ledger["outside"]["analysis.persist"], [500])
        # bench.* is the benchmark's own work: not a layer of the program.
        self.assertAlmostEqual(M.layer_coverage(ledger), 0.6)


def synthetic_run():
    passes = [{"pass": 0, "threads": 1, "scenarios": 100, "wall_s": 1.0},
              {"pass": 0, "threads": 4, "scenarios": 100, "wall_s": 0.5},
              {"pass": 1, "threads": 1, "scenarios": 100, "wall_s": 0.5},
              {"pass": 1, "threads": 4, "scenarios": 100, "wall_s": 0.125},
              {"pass": 2, "threads": 1, "scenarios": 100, "wall_s": 0.25},
              {"pass": 2, "threads": 4, "scenarios": 100, "wall_s": 0.0625}]
    walk = {p: {"flows": 10, "hops": 400, "delivered_hops": 100, "ttl_expired": 2}
            for p in M.PROTOCOLS}
    return {
        "threads_par": 4,
        "passes": passes,
        "setups": [{"total_s": t, "suite_build_s": t / 2, "pristine_build_s": t / 4}
                   for t in (0.3, 0.1, 0.2)],
        "peak_rss_mb": 42.0,
        "trace": {"tally": {"walk": walk, "replay_adds": 600, "probes": 4,
                            "probed_flows": 400, "affected_flows": 50,
                            "cache_hits": 1, "cache_rebuilds": 3},
                  "checkpoint_bytes": 3000, "persists": 3, "unit_busy_frac": 0.9,
                  "traced_wall_s": 1.5, "untraced_wall_s": 1.2},
    }


class RatioBases(unittest.TestCase):
    def test_zero_base_is_zero(self):
        self.assertEqual(M.ratio(5, 0), 0.0)
        self.assertEqual(M.ratio(1, 4), 0.25)

    def test_end_to_end_medians(self):
        m = M.end_to_end(synthetic_run())
        self.assertEqual(m["scen_per_s_1t"], (200.0, "1/s"))   # median of 100, 200, 400
        self.assertEqual(m["scen_per_s_par"], (800.0, "1/s"))  # median of 200, 800, 1600
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertEqual(m["peak_rss_mb"], (42.0, "MB"))

    def test_per_layer_ratio_bases(self):
        spans = [span(0, -1, "cell", 0, 1000, 0), span(1, 0, "sim.walk.pr", 0, 800, 0),
                 span(2, -1, "cell", 1000, 1500, 1), span(3, 2, "sim.walk.pr", 1000, 1400, 1),
                 span(4, -1, "analysis.persist", 2000, 2100)]
        m, _ = M.per_layer(synthetic_run(), spans)
        # Per-scenario layer times: summed self time over traced scenarios.
        self.assertEqual(m["sim.walk_ns.pr"][0], 600.0)
        # ns per hop: walk self time over hops walked.
        self.assertEqual(m["sim.ns_per_hop.pr"][0], 1200 / 400)
        self.assertEqual(m["sim.hops_per_scenario.pr"][0], 200.0)
        # Useful hops: hops of delivered flows over all hops walked.
        self.assertEqual(m["sim.useful_hop_frac.pr"][0], 0.25)
        # TTL expiry: flows over flows walked.
        self.assertEqual(m["sim.ttl_expired_flow_frac.pr"][0], 0.2)
        # Affected flows: over the flow universe of every probe.
        self.assertEqual(m["traffic.affected_flow_frac"][0], 50 / 400)
        self.assertEqual(m["traffic.replay_adds"][0], 300.0)
        # Parallel efficiency: N-thread rate over N times the 1-thread rate.
        self.assertEqual(m["sim.par_efficiency"][0], 800.0 / (4 * 200.0))
        self.assertEqual(m["analysis.checkpoint_bytes"][0], 1000.0)
        self.assertEqual(m["analysis.persist_ns"][0], 100)
        self.assertAlmostEqual(m["trace_overhead_frac"][0], 1.5 / 1.2 - 1.0)
        self.assertEqual(m["trace.layer_coverage_frac"][0], 1200 / 1500)
        self.assertEqual(m["embed.suite_build_s"][0], 0.1)
        self.assertEqual(m["route.pristine_build_s"][0], 0.05)


class LedgerChecks(unittest.TestCase):
    @staticmethod
    def ledger(coverage, walk, spf):
        return {"trace.layer_coverage_frac": (coverage, "frac"),
                "sim.walk_ns": (walk, "ns/scen"), "route.spf_repair_ns": (spf, "ns/scen")}

    def test_coverage_floor(self):
        self.assertEqual(R.check_ledger("dual-link-geant", self.ledger(0.9, 5, 5)), [])
        self.assertEqual(len(R.check_ledger("dual-link-geant", self.ledger(0.89, 5, 5))), 1)

    def test_stressed_layer_dominates(self):
        self.assertEqual(R.check_ledger("storm-geant", self.ledger(0.97, 1000, 100)), [])
        self.assertEqual(len(R.check_ledger("storm-geant", self.ledger(0.97, 999, 100))), 1)
        self.assertEqual(R.check_ledger("backbone-isp1024", self.ledger(0.97, 0, 800)), [])
        self.assertEqual(len(R.check_ledger("backbone-isp1024", self.ledger(0.97, 100, 800))), 1)


class TinyRuns(unittest.TestCase):
    """Each workload at tiny size, traced and untraced, on two seeds: the run
    must pass its own checks and emit exactly the metrics BENCHMARK.json names."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                     1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    def run_bench(self, workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric(self):
        for workload in self.workloads:
            for seed in (1, 2):
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        out = self.run_bench(workload, seed, trace)
                        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                                    "metrics"})
                        self.assertTrue(out["correct"])
                        self.assertGreaterEqual(out["attempted"], 1)
                        self.assertEqual(out["failed"], 0)
                        got = {k: v["unit"] for k, v in out["metrics"].items()}
                        self.assertEqual(got, self.names[trace])


if __name__ == "__main__":
    unittest.main()
