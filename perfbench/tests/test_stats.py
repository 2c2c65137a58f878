"""Tests of perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(stats.spread([2.5]), 0.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(stats.spread([7.0] * 10), 0.0)


class TrimmedMean(unittest.TestCase):
    def test_drops_a_tenth_from_each_end(self):
        values = [1.0] * 18 + [0.0, 100.0]
        self.assertEqual(stats.trimmed_mean(values), 1.0)

    def test_few_values_keep_all(self):
        self.assertEqual(stats.trimmed_mean([1.0, 2.0, 6.0]), 3.0)

    def test_follows_the_mix_of_two_modes(self):
        # A median jumps from one mode to the other as their mix
        # passes one half; a trimmed mean moves with the mix.
        fast, slow = [0.6] * 9, [1.1] * 11
        self.assertEqual(statistics.median(fast + slow), 1.1)
        self.assertAlmostEqual(stats.trimmed_mean(fast + slow),
                               (7 * 0.6 + 9 * 1.1) / 16)


class WorseBy(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(stats.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(stats.worse_by(10.0, 9.0, "higher"), 0.1)


class Compare(unittest.TestCase):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    def test_same_code_is_same(self):
        c = stats.compare(self.parent, list(reversed(self.parent)), "lower", 0.1)
        self.assertEqual(c["verdict"], "same")

    def test_consistent_speedup_is_gain(self):
        child = [v * 0.8 for v in self.parent]
        c = stats.compare(self.parent, child, "lower", 0.1)
        self.assertEqual(c["wins"], 10)
        self.assertEqual(c["verdict"], "gain")

    def test_gain_needs_nine_of_ten_wins(self):
        child = [v * 0.8 for v in self.parent]
        child[0] = child[1] = 2.0  # two lost pairs: 8/10
        c = stats.compare(self.parent, child, "lower", 0.5)
        self.assertEqual(c["wins"], 8)
        self.assertNotEqual(c["verdict"], "gain")

    def test_gain_needs_gap_beyond_parent_spread(self):
        # Every pair won, by less than the parent's interquartile range.
        child = [v - 0.001 for v in self.parent]
        c = stats.compare(self.parent, child, "lower", 0.1)
        self.assertEqual(c["wins"], 10)
        self.assertEqual(c["verdict"], "same")

    def test_slowdown_beyond_bound_is_regression(self):
        child = [v * 1.2 for v in self.parent]
        c = stats.compare(self.parent, child, "lower", 0.1)
        self.assertEqual(c["verdict"], "regression")
        c = stats.compare(self.parent, child, "lower", 0.25)
        self.assertEqual(c["verdict"], "same")

    def test_higher_is_better_metric(self):
        child = [v * 0.8 for v in self.parent]
        c = stats.compare(self.parent, child, "higher", 0.1)
        self.assertEqual(c["verdict"], "regression")

    def test_noisy_parent_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.6, 0.9, 1.2, 0.6, 1.4]
        c = stats.compare(noisy, [v * 1.05 for v in noisy], "lower", 0.1)
        self.assertEqual(c["verdict"], "unresolved")

    def test_fewer_than_ten_pairs_is_unresolved(self):
        # One won pair must not read as a gain, nor one lost pair as a
        # regression.
        self.assertEqual(stats.compare([1.0], [0.5], "lower", 0.1)["verdict"],
                         "unresolved")
        parent = self.parent[:9]
        for child in ([v * 0.8 for v in parent], [v * 1.2 for v in parent]):
            c = stats.compare(parent, child, "lower", 0.1)
            self.assertEqual(c["verdict"], "unresolved")

    def test_rejects_unpaired_runs(self):
        with self.assertRaises(ValueError):
            stats.compare([1.0, 2.0], [1.0], "lower", 0.1)


class LayerCounters(unittest.TestCase):
    @staticmethod
    def node(ctx, tlb_hits, busy, retrans):
        return {
            "kernel": {"contextSwitches": ctx, "proxyFaults": 1,
                       "fault_us": {"mean": 4.0, "count": 2}},
            "tlb": {"hits": tlb_hits, "misses": 10},
            "bus": {"busyTicks": busy},
            "udma0": {"transfersStarted": 5, "statusLoads": 20,
                      "initiate_us": {"mean": 3.0, "count": 5}},
            "udma0.engine": {"transfersCompleted": 5,
                             "xfer_us": {"mean": 100.0, "count": 5}},
            "ni": {"retransmits": retrans, "timeouts": 1, "fastRetransmits": 0,
                   "cwndCuts": 0, "ecnMarked": 0, "rxOooBuffered": 0,
                   "delivery_us": {"mean": 50.0, "count": 4}},
        }

    def test_folds_nodes_and_documents(self):
        docs = [
            {"sim": {"ticks": 1000},
             "net": {"bytesRouted": 300, "fault": {"dropped": 2, "corrupted": 1}},
             "nodes": [self.node(3, 90, 500, 6), self.node(4, 40, 900, 0)]},
            {"sim": {"ticks": 100}, "net": {"bytesRouted": 100},
             "nodes": [self.node(1, 50, 95, 0)]},
        ]
        m = stats.layer_counters(docs, payload_bytes=200)
        self.assertEqual(m["os.context_switches"], 8)
        self.assertEqual(m["dma.transfers"], 15)
        self.assertAlmostEqual(m["vm.tlb_hit_rate"], 180 / 210)
        self.assertAlmostEqual(m["bus.busy_frac_max"], 0.95)
        self.assertAlmostEqual(m["dma.status_loads_per_transfer"], 4.0)
        self.assertAlmostEqual(m["ni.retransmit_ratio"], 6 / 3)
        self.assertAlmostEqual(m["net.bytes_routed_per_payload_byte"], 2.0)
        self.assertAlmostEqual(m["dma.initiate_us_mean"], 3.0)

    def test_no_documents_gives_zeros(self):
        m = stats.layer_counters([], payload_bytes=0)
        self.assertEqual(m["ni.retransmits"], 0)
        self.assertEqual(m["vm.tlb_hit_rate"], 0.0)


if __name__ == "__main__":
    unittest.main()
