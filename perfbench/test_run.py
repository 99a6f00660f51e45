"""Tests of the benchmark's own logic: python3 -m unittest discover perfbench"""

import unittest

import run


class Percentile(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.supported_percentile(200), 95)
        self.assertEqual(run.supported_percentile(199), 90)
        self.assertEqual(run.supported_percentile(1000), 99)
        self.assertEqual(run.supported_percentile(10000), 99.9)
        self.assertEqual(run.supported_percentile(20), 50)
        self.assertIsNone(run.supported_percentile(19))

    def test_quantile_interpolates(self):
        self.assertEqual(run.quantile([3, 1, 2], 50), 2)
        self.assertAlmostEqual(run.quantile(range(101), 95), 95)
        self.assertAlmostEqual(run.quantile([0, 10], 95), 9.5)


class SelfTime(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        spans = [
            ["root", 0, 100, -1],
            ["a", 10, 40, 0],
            ["b", 50, 70, 0],
            ["a.inner", 15, 25, 1],
        ]
        self.assertEqual(run.self_times(spans), [50, 20, 20, 10])

    def test_overlapping_children_count_once(self):
        # Children on two threads overlap in [40, 60]; a child running past
        # its parent is clipped to the parent's interval.
        spans = [["root", 0, 100, -1], ["t1", 10, 60, 0], ["t2", 40, 120, 0]]
        self.assertEqual(run.self_times(spans), [10, 50, 80])

    def test_traced_run_drops_replay_work(self):
        spans = [
            ["rep", 0, 1000, -1],
            ["replay.new", 0, 100, 0],
            ["estimate.ingest", 100, 900, 0],
            ["estimate.shard", 100, 900, 2],
            ["replay.chunk", 500, 900, 3],
            ["estimate.shard", 100, 700, 2],
            ["replay.chunk", 300, 400, 5],
            ["estimate.finalize", 900, 1000, 0],
        ]
        # Slowest shard without its replay: max(800 - 400, 600 - 100) = 500.
        phases = run.traced_phases(spans)
        self.assertEqual(phases["run"], (1000 - 100 - 800 + 500) / 1e9)
        self.assertEqual(phases["ingest"], 500 / 1e9)
        self.assertEqual(phases["answer"], 100 / 1e9)


class Checks(unittest.TestCase):
    REF = {"greedy": 1000}

    def rep(self, estimate, words=77):
        return {"estimate": estimate, "estimate_bits": float(estimate).hex(), "space_words": words}

    def test_inflated_estimate_is_a_failure(self):
        good = self.rep(600.0)
        inflated = self.rep(1000 * run.GREEDY_CAP * 1.01)
        self.assertEqual(run.failures_of([good, good], self.REF, None), [])
        failures = run.failures_of([inflated, inflated], self.REF, None)
        self.assertEqual(len(failures), 2)
        self.assertIn("estimate_at_most_greedy_e_over_e_minus_1", failures[0]["checks"])

    def test_non_finite_small_and_drifting_estimates_fail(self):
        first = self.rep(600.0)
        self.assertIn("estimate_finite_and_at_least_1", run.check_rep(self.rep(0.5), self.REF, first))
        self.assertIn(
            "estimate_finite_and_at_least_1", run.check_rep(self.rep(float("nan")), self.REF, first)
        )
        self.assertEqual(
            run.check_rep(self.rep(600.0, words=78), self.REF, first), ["same_seed_bit_identical"]
        )

    def test_merged_estimate_must_equal_serial(self):
        ref = dict(self.REF, serial_estimate_bits=self.rep(601.0)["estimate_bits"])
        first = self.rep(600.0)
        self.assertEqual(run.check_rep(first, ref, first), ["merged_equals_serial"])

    def test_cli_disagreement_is_a_failure(self):
        rep = {"estimate": 1234.56, "space_words": 99}
        out = "estimate      = 1234.6\nwinning z     = 8\nspace (words) = 99\n"
        self.assertIsNone(run.cli_mismatch(out, rep))
        self.assertIsNotNone(run.cli_mismatch(out.replace("99", "98"), rep))
        self.assertIsNotNone(run.cli_mismatch("", rep))
        failures = run.failures_of([self.rep(600.0)], self.REF, "mismatch")
        self.assertEqual(failures, [{"rep": "cli", "checks": ["mismatch"]}])


if __name__ == "__main__":
    unittest.main()
