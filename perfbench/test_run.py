"""Self-tests of run.py: seeded inputs, the generated configuration, and
the aggregation of runner samples."""

import json
import math
import os
import tempfile
import unittest

import run


class SeededInputs(unittest.TestCase):
    def test_seed_zero_is_the_default_geometry(self):
        self.assertEqual(run.geometry_for_seed(0), run.GEOMETRY_DEFAULTS)

    def test_same_seed_same_inputs(self):
        for seed in (1, 7, 123456):
            self.assertEqual(run.runner_config("solve_assembled", seed),
                             run.runner_config("solve_assembled", seed))

    def test_other_seeds_stay_within_their_bands(self):
        for seed in range(1, 200):
            geo = run.geometry_for_seed(seed)
            for key, value in geo.items():
                base = run.GEOMETRY_DEFAULTS[key]
                self.assertLessEqual(abs(value / base - 1.0),
                                     run.GEOMETRY_BANDS[key] + 1e-15)
        self.assertNotEqual(run.geometry_for_seed(1),
                            run.geometry_for_seed(2))

    def test_config_round_trips_floats_exactly(self):
        args = run.runner_config("solve_matfree", 5)
        geo = run.geometry_for_seed(5)
        for key, value in geo.items():
            self.assertEqual(float(args[args.index("--" + key) + 1]), value)


class Cores(unittest.TestCase):
    def test_one_worker_and_no_ranks_runs_on_one_core(self):
        allowed = os.sched_getaffinity(0)
        for workload in ("solve_assembled", "forecast_thermal"):
            cores = run.cores_for(workload)
            self.assertEqual(len(cores), 1)
            self.assertTrue(cores <= allowed)
        for workload in ("solve_matfree", "solve_ranks4"):
            self.assertEqual(run.cores_for(workload), allowed)


def sample(traced, solve_s, layers=None):
    return {"traced": traced, "setup_s": 0.01, "solve_s": solve_s,
            "cpu_s": 2 * solve_s, "mean_velocity": 100.0,
            "layers": layers or {}}


class Aggregation(unittest.TestCase):
    def result(self, samples, failed=0):
        return {"samples": samples, "failed": failed,
                "attempted": len(samples) + failed + 1,
                "deterministic": True, "trace_bit_identical": True,
                "trace_well_nested": True,
                "threads": 4, "warmup_peak_rss_kib": 51200,
                "setup_samples": [0.02]}

    def test_end_to_end_cpu_medians(self):
        res = self.result([sample(False, t) for t in (1.0, 3.0, 2.0)])
        correct, m = run.summarize(0, res)
        self.assertTrue(correct)
        self.assertEqual(m["solve_cpu_s"], {"value": 4.0, "unit": "s"})
        self.assertEqual(m["setup_s"]["value"], 0.01)
        self.assertEqual(m["peak_rss_mb"]["value"], 50.0)
        self.assertEqual(set(m), set(run.metric_units("end_to_end")))

    def test_a_failed_sample_makes_the_run_incorrect(self):
        res = self.result([sample(False, 1.0)], failed=1)
        correct, _ = run.summarize(0, res)
        self.assertFalse(correct)

    def test_traced_metrics_and_overhead(self):
        layers = {"trace.solve_s": 1.1, "physics.residual.calls": 10}
        res = self.result([sample(False, 1.0), sample(True, 1.1, layers)])
        correct, m = run.summarize(1, res)
        self.assertTrue(correct)
        self.assertEqual(set(m), set(run.metric_units("per_layer")))
        self.assertAlmostEqual(m["trace_overhead_frac"]["value"], 0.1)
        self.assertEqual(m["process.cpu_s"]["value"], 2.0)
        self.assertEqual(m["process.wall_s"]["value"], 1.0)
        self.assertEqual(m["physics.residual.calls"]["value"], 10)

    def test_a_malformed_trace_makes_the_run_incorrect(self):
        res = self.result([sample(False, 1.0), sample(True, 1.0)])
        res["trace_well_nested"] = False
        correct, _ = run.summarize(1, res)
        self.assertFalse(correct)


class References(unittest.TestCase):
    def test_committed_refs_cover_every_workload_and_seed(self):
        with open(run.REFS) as f:
            refs = json.load(f)
        self.assertEqual(set(refs), set(run.WORKLOADS))
        for workload, by_seed in refs.items():
            self.assertEqual(set(by_seed),
                             {str(s) for s in range(run.REF_SEEDS)})
            for value in by_seed.values():
                self.assertTrue(math.isfinite(value) and value > 0)

    def test_a_source_change_changes_the_cache_key(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src", "physics"))
            os.makedirs(os.path.join(root, "perfbench", "cpp"))
            source = os.path.join(root, "src", "physics", "a.cpp")
            with open(source, "w") as f:
                f.write("int a = 1;\n")
            before = run.source_hash(root)
            self.assertEqual(run.source_hash(root), before)
            with open(source, "w") as f:
                f.write("int a = 2;\n")
            self.assertNotEqual(run.source_hash(root), before)


if __name__ == "__main__":
    unittest.main()
