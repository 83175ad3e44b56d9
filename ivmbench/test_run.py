"""Unit tests of the benchmark runner's arithmetic.

    python3 -m unittest discover -s ivmbench
"""

import json
import os
import statistics
import tempfile
import unittest

import run


def span(name, start, end, sid, parent=0, op=0):
    return {"name": name, "start": start, "end": end, "id": sid,
            "parent": parent, "op": op}


def summary(n=100, value=1.0):
    return {"n": n, "mean": value, "p50": value, "p90": value, "p95": value,
            "p99": value, "p999": value, "max": value}


def fake_report(workload="railway_recheck"):
    """A bench_ivm report with every field the runner reads."""
    names = ["write_visible", "read", "apply", "commit", "submit", "queue_wait",
             "wake", "pin_new", "pin_same", "parse", "compile", "install",
             "register", "first_pin", "deregister", "evaluate_once"]
    return {
        "workload": workload, "correct": True, "errors": [], "attempted": 10,
        "failed": 0, "setup_s": [0.3, 0.2, 0.4], "populate_s": [0.1, 0.1],
        "active_s": 2.0, "ops": 10, "updates": 10, "batches": 5,
        "graph_changes": 20, "peak_rss_mb": 100.0,
        "rete": {"updates": 10, "changes": 20, "emitted": 40,
                 "source_emitted": 8, "epochs": 3},
        "registrations": 4, "replayed_entries": 8, "graph_primed_entries": 4,
        "registry_hits": 1, "registry_misses": 3, "graph_memory_mb": 1.0,
        "catalog_memory_mb": 2.0, "catalog_nodes": 7, "catalog_shared_nodes": 1,
        "samples_us": {n: summary() for n in names},
        "evaluate_once_total_ms": 5.0, "checkpoint": None,
        "profile": {"drain_mean_us": 1.0, "translate_mean_us": 1.0,
                    "wave_mean_us": 1.0, "busy_ms": {"Join": 2.0}},
        "trace": {"path": "", "spans": 0, "dropped": 0},
    }


class PercentileRuleTest(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertEqual(run.samples_beyond(999, 99), 9)
        self.assertEqual(run.samples_beyond(240, 90), 24)
        self.assertEqual(run.samples_beyond(400, 95), 20)
        self.assertEqual(run.samples_beyond(10000, 99.9), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.supported_percentile(10000), 99.9)
        self.assertEqual(run.supported_percentile(9999), 99)
        self.assertEqual(run.supported_percentile(1000), 99)
        self.assertEqual(run.supported_percentile(999), 95)
        self.assertEqual(run.supported_percentile(200), 95)
        self.assertEqual(run.supported_percentile(199), 90)
        self.assertEqual(run.supported_percentile(100), 90)
        self.assertEqual(run.supported_percentile(99), 50)
        self.assertEqual(run.supported_percentile(20), 50)
        self.assertIsNone(run.supported_percentile(19))
        self.assertIsNone(run.supported_percentile(0))

    def test_percentile_keys_name_report_fields(self):
        for p in run.PERCENTILES:
            self.assertIn(run.percentile_key(p), summary())

    def test_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / med)
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))


class CompareTest(unittest.TestCase):
    @staticmethod
    def side(values):
        return {"median": statistics.median(values), "values": values}

    def test_lower_is_better(self):
        base = self.side([100.0, 101.0, 102.0, 100.5])
        self.assertEqual(run.compare_metric(base, self.side([80.0, 81.0, 80.5, 80.2]), "lower", 0.1), "better")
        self.assertEqual(run.compare_metric(base, self.side([120.0, 121.0, 120.5, 120.2]), "lower", 0.1), "worse")
        self.assertEqual(run.compare_metric(base, self.side([105.0, 106.0, 105.5, 105.2]), "lower", 0.1), "same")

    def test_higher_is_better(self):
        base = self.side([100.0, 101.0, 102.0, 100.5])
        self.assertEqual(run.compare_metric(base, self.side([80.0, 81.0, 80.5, 80.2]), "higher", 0.1), "worse")
        self.assertEqual(run.compare_metric(base, self.side([120.0, 121.0, 120.5, 120.2]), "higher", 0.1), "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = self.side([60.0, 100.0, 140.0, 90.0, 120.0])
        quiet = self.side([70.0, 71.0, 70.5, 70.2])
        self.assertGreater(run.relative_spread(noisy["values"]), 0.1)
        self.assertEqual(run.compare_metric(noisy, self.side([80.0, 130.0, 100.0, 95.0]), "lower", 0.1),
                         "unresolved")
        # A noisy side is still resolved when every run of one side reads
        # better than every run of the other.
        self.assertEqual(run.compare_metric(noisy, self.side([30.0, 40.0, 50.0, 45.0]), "lower", 0.1),
                         "better")
        self.assertEqual(run.compare_metric(quiet, self.side([150.0, 200.0, 250.0]), "lower", 0.1),
                         "worse")

    def test_shift_beyond_bound_with_overlapping_runs_is_unresolved(self):
        base = self.side([314.0, 406.0, 410.0])
        new = self.side([285.0, 291.0, 330.0])
        self.assertEqual(run.compare_metric(base, new, "lower", 0.25), "unresolved")


class SelfTimeTest(unittest.TestCase):
    def test_children_overlapping_and_overhanging(self):
        spans = [span("bench.cycle", 0, 100, 1, op=1),
                 span("graph.apply", 10, 30, 2, parent=1, op=1),
                 span("rete.commit", 20, 50, 3, parent=1, op=1),
                 span("engine.pin", 90, 120, 4, parent=1, op=1),
                 span("catalog.first_pin", 15, 20, 5, parent=2, op=1)]
        own = run.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)  # [10,50) and [90,100)
        self.assertEqual(own[2], 20 - 5)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[5], 5)

    def test_per_op_by_layer_excludes_setup(self):
        spans = [span("bench.setup", 0, 1000, 9, op=9),
                 span("workload.populate", 0, 900, 10, parent=9, op=9),
                 span("bench.update", 0, 10000, 1, op=1),
                 span("engine.submit", 0, 1000, 2, parent=1, op=1),
                 span("rete.commit", 1000, 9000, 3, parent=1, op=1),
                 span("bench.update", 0, 4000, 5, op=5),
                 span("rete.commit", 0, 4000, 6, parent=5, op=5)]
        per_op, ops = run.self_time_per_op(spans)
        self.assertEqual(ops, 2)
        self.assertAlmostEqual(per_op["bench"], 1000 / 2 / 1000.0)
        self.assertAlmostEqual(per_op["rete"], 12000 / 2 / 1000.0)
        self.assertAlmostEqual(per_op["engine"], 1000 / 2 / 1000.0)
        self.assertNotIn("workload", per_op)

    def test_update_stage_partition(self):
        stages = [("engine.submit", 0, 3), ("engine.queue_wait", 3, 10),
                  ("graph.apply", 10, 14), ("rete.commit", 14, 40),
                  ("engine.wake", 40, 41)]
        spans = [span("bench.update", 0, 41, 1, op=1)]
        spans += [span(n, s, e, 2 + i, parent=1, op=1) for i, (n, s, e) in enumerate(stages)]
        self.assertEqual(run.partition_errors(spans), 0)
        spans[0]["end"] = 42
        self.assertEqual(run.partition_errors(spans), 1)

    def test_chrome_trace_round_trips_nanoseconds(self):
        trace = {"traceEvents": [
            {"name": "bench.batch", "ph": "X", "pid": 1, "tid": 0,
             "ts": 123456789.001, "dur": 0.999,
             "args": {"id": 7, "parent": 0, "op": 7}}], "droppedSpans": 3}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.json")
            with open(path, "w") as f:
                json.dump(trace, f)
            spans, dropped = run.load_spans(path)
        self.assertEqual(dropped, 3)
        self.assertEqual(spans[0]["start"], 123456789001)
        self.assertEqual(spans[0]["end"] - spans[0]["start"], 999)


class DefinitionTest(unittest.TestCase):
    def test_every_defined_metric_has_an_extractor(self):
        definition = run.load_definition()
        report = fake_report()
        self.assertEqual(set(run.end_to_end(report)),
                         {m["name"] for m in definition["end_to_end"]})
        self.assertEqual(set(run.per_layer(report, spans=[])),
                         {m["name"] for m in definition["per_layer"]})
        self.assertEqual([w["name"] for w in definition["workloads"]], run.WORKLOADS)

    def test_end_to_end_values(self):
        values = run.end_to_end(fake_report())
        self.assertEqual(values["setup_s"], 0.3)
        self.assertEqual(values["ops_per_s"], 5.0)
        self.assertEqual(values["peak_rss_mb"], 100.0)


if __name__ == "__main__":
    unittest.main()
