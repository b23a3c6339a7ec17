"""Unit tests for the latency SLO report."""

import json
import math
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.slo import LatencyReport, VectorLatency
from repro.serve.timeline import Ticket
from tests.conftest import make_vector


def completed_ticket(vector_id=0, arrival=0.0, dispatch=1.0, sched=1.5, complete=3.0, devices=(0,)):
    t = Ticket(vector=make_vector(n_pairs=2, vector_id=vector_id), arrival_s=arrival)
    t.dispatch_s = dispatch
    t.sched_done_s = sched
    t.complete_s = complete
    t.devices = list(devices)
    return t


def report_with(latencies):
    """Report of vectors completing exactly ``latencies`` after arrival."""
    rep = LatencyReport()
    for i, lat in enumerate(latencies):
        rep.add_completion(
            completed_ticket(vector_id=i, arrival=0.0, dispatch=0.0, sched=0.0, complete=lat)
        )
    return rep


class TestVectorLatency:
    def test_breakdown_sums_to_total(self):
        rep = LatencyReport()
        rec = rep.add_completion(completed_ticket())
        assert rec.queue_wait_s == pytest.approx(1.0)
        assert rec.schedule_s == pytest.approx(0.5)
        assert rec.execute_s == pytest.approx(1.5)
        assert rec.latency_s == pytest.approx(
            rec.queue_wait_s + rec.schedule_s + rec.execute_s
        )


class TestPercentiles:
    def test_known_values(self):
        rep = report_with([float(i) for i in range(1, 101)])
        assert rep.p50 == pytest.approx(50.5)
        assert rep.percentile(100) == pytest.approx(100.0)
        assert rep.p99 <= 100.0

    def test_empty_is_nan(self):
        rep = LatencyReport()
        assert math.isnan(rep.p50) and math.isnan(rep.mean_latency_s)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            report_with([1.0]).percentile(101)


class TestAggregates:
    def test_drop_rate(self):
        rep = report_with([1.0, 2.0])
        rep.add_drop(completed_ticket(vector_id=9))
        assert rep.offered == 3
        assert rep.drop_rate == pytest.approx(1 / 3)

    def test_empty_drop_rate_zero(self):
        assert LatencyReport().drop_rate == 0.0

    def test_throughput_timeline(self):
        rep = report_with([0.5, 1.5, 1.7, 2.5])
        windows = rep.throughput_timeline(1.0)
        assert [w["completions"] for w in windows] == [1, 2, 1]
        assert windows[1]["rate"] == pytest.approx(2.0)
        assert windows[-1]["t_end_s"] == pytest.approx(3.0)

    def test_throughput_empty(self):
        assert LatencyReport().throughput_timeline(1.0) == []

    def test_throughput_bad_window(self):
        with pytest.raises(ConfigurationError):
            report_with([1.0]).throughput_timeline(0.0)

    def test_summary_keys(self):
        s = report_with([1.0, 3.0]).summary()
        assert {
            "offered", "completed", "dropped", "drop_rate",
            "p50_s", "p95_s", "p99_s", "mean_latency_s",
            "mean_queue_wait_s", "makespan_s", "throughput_vps",
        } <= set(s)
        assert s["completed"] == 2
        assert s["throughput_vps"] == pytest.approx(2 / 3.0)

    def test_summary_stats_equal_the_properties_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for rep in (report_with(rng.exponential(size=257).tolist()), LatencyReport()):
            s = rep.summary()
            got = [s["p50_s"], s["p95_s"], s["p99_s"], s["mean_latency_s"]]
            want = [rep.p50, rep.p95, rep.p99, rep.mean_latency_s]
            assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in want]


class TestExports:
    def test_json_roundtrip(self, tmp_path):
        rep = report_with([1.0, 2.0])
        rep.add_drop(completed_ticket(vector_id=5))
        path = tmp_path / "report.json"
        rep.to_json(path, extra={"config": {"rate": 10.0}})
        payload = json.loads(path.read_text())
        assert payload["summary"]["completed"] == 2
        assert len(payload["completed"]) == 2
        assert len(payload["dropped"]) == 1
        assert payload["config"]["rate"] == 10.0

    def test_to_trace_spans(self, tmp_path):
        rep = LatencyReport()
        rep.add_completion(completed_ticket(vector_id=3))
        trace = rep.to_trace()
        kinds = [e.kind for e in trace.events]
        assert kinds == ["wait", "schedule", "execute"]
        wait, sched, execute = trace.events
        assert wait.end_s == pytest.approx(sched.start_s)
        assert sched.end_s == pytest.approx(execute.start_s)
        assert all(e.device == 3 for e in trace.events)
        trace.save_chrome_trace(tmp_path / "t.json")
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]
