"""Tests of the benchmark's own code.

    python3 -m unittest discover -s e2e_bench/tests

The statistics, configuration and output checks run anywhere. The last two
classes build the benchmark (as run.py does) and are skipped without cmake.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def load_descriptor():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_result(workload="hub_coded", seed=43, trace=0, threads=1):
    """A run result shaped like the program's output line."""
    outcome = {"fingerprint": "00ff", "events": 10, "packets_sent": 5,
               "delivered_direct": 3, "recovered": 1, "lost": 1, "sessions": 1,
               "paths_not_conserved": 0, "leaked_flows": 0, "recovery_tail_pct": 50,
               "recovery_samples": 20}
    env = dict(run.PINNED, JQOS_SIM_THREADS=str(threads), JQOS_DEBUG_OPS="<unset>")
    config = {"env": env, "evq_backend": "ladder", "gf_backend": "avx2", "obj_pool": 1,
              "threads_requested": threads, "threads_used": threads, "shards": 1,
              "nproc": 4, "cpu_model": "test", "compiler": "test", "build_type": "Release",
              "ndebug": 1}
    r = {"workload": workload, "seed": seed, "trace": trace, "outcome": outcome,
         "config": config}
    if trace == 0:
        r["metrics"] = {name: 1.5 for name, _ in run.END_TO_END}
        r["metrics"].update({name: 2.5 for name, _ in run.OUTCOMES})
    else:
        r["untraced_outcome"] = dict(outcome)
        r["layers"] = {name: 3.5 for name, _ in run.PER_LAYER}
    return r


class Statistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q[0], q[2]))
        self.assertEqual(run.quartiles([1.0, 2.0, 3.0, 4.0]), (1.25, 3.75))

    def test_quartiles_of_one_value(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0))

    def test_relative_spread(self):
        self.assertAlmostEqual(run.relative_spread([1.0, 2.0, 3.0, 4.0]), 2.5 / 2.5)
        self.assertEqual(run.relative_spread([2.0, 2.0, 2.0]), 0.0)
        self.assertEqual(run.relative_spread([0.0, 0.0]), 0.0)

    def test_sub_seeds(self):
        seeds = [run.sub_seed(43, i) for i in range(run.SUB_SEEDS)]
        self.assertEqual(seeds[0], 43)
        self.assertEqual(len(set(seeds)), run.SUB_SEEDS)
        self.assertEqual(seeds, [run.sub_seed(43, i) for i in range(run.SUB_SEEDS)])
        self.assertNotIn(run.sub_seed(42, 1), seeds)


class Configuration(unittest.TestCase):
    def test_pinned_env_clears_stray_knobs(self):
        os.environ["JQOS_SIM_LANES"] = "4"
        os.environ["JQOS_DEBUG_OPS"] = "1"
        try:
            env = run.pinned_env(3)
        finally:
            del os.environ["JQOS_SIM_LANES"]
            del os.environ["JQOS_DEBUG_OPS"]
        self.assertEqual(env["JQOS_SIM_LANES"], "0")
        self.assertEqual(env["JQOS_SIM_THREADS"], "3")
        self.assertNotIn("JQOS_DEBUG_OPS", env)

    def test_pinned_config_passes(self):
        self.assertEqual(run.config_errors(fake_result()["config"], 1), [])

    def test_stray_knob_and_debug_build_fail(self):
        config = fake_result()["config"]
        config["env"]["JQOS_SIM_LANES"] = "2"
        config["build_type"] = "Debug"
        config["ndebug"] = 0
        errors = run.config_errors(config, 1)
        self.assertEqual(len(errors), 3, errors)


class OutputChecks(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(run.run_errors(fake_result(), 1, 0), [])
        self.assertEqual(run.run_errors(fake_result(trace=1), 1, 1), [])

    def test_conservation_and_leaks(self):
        r = fake_result()
        r["outcome"]["paths_not_conserved"] = 2
        r["outcome"]["leaked_flows"] = 1
        self.assertEqual(len(run.run_errors(r, 1, 0)), 2)

    def test_traced_fingerprint_must_match(self):
        r = fake_result(trace=1)
        r["untraced_outcome"]["fingerprint"] = "beef"
        self.assertEqual(len(run.run_errors(r, 1, 1)), 1)

    def test_repeats_must_agree(self):
        a, b, c = fake_result(seed=1), fake_result(seed=1), fake_result(seed=2)
        self.assertEqual(run.repeat_errors([a, b, c]), [])
        b["outcome"]["events"] = 11
        self.assertEqual(len(run.repeat_errors([a, b, c])), 1)


class Descriptor(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        d = load_descriptor()
        self.assertEqual([(m["name"], m["unit"]) for m in d["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in d["per_layer"]], run.PER_LAYER)
        for w in d["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)

    def test_result_line_names_every_metric(self):
        d = load_descriptor()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [fake_result(trace=trace), fake_result(seed=44, trace=trace)]
            table = run.aggregate(results, trace)
            line = json.loads(run.result_line(True, 2, 0, table))
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(line["metrics"]), {m["name"] for m in d[key]})
            for m in d[key]:
                self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])


@unittest.skipIf(shutil.which("cmake") is None, "cmake not available")
class CppSelfTest(unittest.TestCase):
    def test_tail_rule_and_wrapper_bit_identity(self):
        run.build()
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target", "jqos_e2e_selftest"],
                       check=True, stdout=subprocess.DEVNULL)
        done = subprocess.run([os.path.join(run.BUILD_DIR, "jqos_e2e_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


@unittest.skipIf(shutil.which("cmake") is None, "cmake not available")
class EndToEnd(unittest.TestCase):
    def test_real_output_parses_and_names_every_metric(self):
        d = load_descriptor()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "hub_coded",
                 "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertEqual(set(line["metrics"]), {m["name"] for m in d[key]})


if __name__ == "__main__":
    unittest.main()
