"""Tests of the perfbench benchmark itself.

Run from the repository root (the first run builds the benchmark):

    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ("static_serve", "fit_wide", "dynamic_mixed", "local_multiprobe")
SECONDS = "1"
# Per-layer values that are counts of work, not times: two runs of one
# seed must report them identically.
COUNTS = ("reduction.kept_dims", "index.dist_evals_per_query",
          "index.nodes_per_query", "index.pruned_frac", "cache.hit_ratio",
          "cache.evictions", "core.insert_bytes_copied", "core.refits",
          "core.rerank_per_query", "cluster.iterations")
FACTS = ("corpus_fingerprint", "queries_fingerprint", "inserts_fingerprint",
         "kept_dims", "accuracy")


def run(workload, seed, trace, *extra):
    """Runs one workload; returns (exit code, facts, result)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               SECONDS, "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    facts = json.loads(lines[-2])["facts"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, facts, result


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


class SameSeedDeterminismTest(unittest.TestCase):
    def test_counts_fingerprints_and_accuracy_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, facts_a, result_a = run(workload, 7, "1")
                code_b, facts_b, result_b = run(workload, 7, "1")
                self.assertEqual((code_a, code_b), (0, 0))
                for key in FACTS:
                    self.assertEqual(facts_a[key], facts_b[key], key)
                for name in COUNTS:
                    self.assertEqual(result_a["metrics"][name],
                                     result_b["metrics"][name], name)


class HeldOutSeedTest(unittest.TestCase):
    def test_every_check_passes_and_every_metric_is_reported(self):
        for workload in WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, facts, result = run(workload, 424242, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertGreater(facts["checks"], 0)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(declared_metrics(section)))
                    if section == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class CorruptedAnswerTest(unittest.TestCase):
    def test_a_wrong_answer_fails_the_run(self):
        code, _, result = run("fit_wide", 7, "0", "--corrupt-answer")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
