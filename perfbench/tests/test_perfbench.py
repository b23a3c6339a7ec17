"""The benchmark's own tests: metric table, tracing arithmetic, smoke runs.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, trace
from perfbench.measure import measure
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SMOKE_TICKETS = 40
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_are_unique_and_well_formed():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert "setup_s" in END_TO_END


def test_benchmark_json_mirrors_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_every_layer_has_metrics():
    layers = {name.rsplit(".", 1)[0] for name in PER_LAYER if name.endswith(".calls")}
    assert layers == set(trace.LAYERS)


@pytest.fixture(scope="module")
def traced():
    return {
        name: measure(w, 0, 0, time.monotonic_ns(), "traced", tickets_per_tenant=SMOKE_TICKETS)
        for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_run_passes_every_check(traced, name):
    assert traced[name]["failures"] == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_and_residual_sum_to_traced_wall(traced, name):
    rec = traced[name]
    layers = rec["layers"]
    selfs = [layers[f"{layer}.self_s"] for layer in trace.LAYERS]
    assert all(s >= 0 for s in selfs)
    assert layers["loop.residual_s"] >= 0
    assert sum(selfs) + layers["loop.residual_s"] == pytest.approx(rec["traced_wall_s"], abs=1e-9)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_bypassed_layers_report_zero_calls_and_the_rest_are_called(traced, name):
    layers = traced[name]["layers"]
    for layer in trace.LAYERS:
        calls = layers[f"{layer}.calls"]
        if layer in WORKLOADS[name].bypassed:
            assert calls == 0, layer
        else:
            assert calls > 0, layer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_repeat_smoke_run_passes_every_check(name):
    rec = measure(
        WORKLOADS[name], 3, 1, time.monotonic_ns(), "repeat", tickets_per_tenant=SMOKE_TICKETS
    )
    assert rec["failures"] == []
    assert rec["offered"] == 2 * SMOKE_TICKETS
    assert rec["sim"]["offered"] == rec["offered"]


def test_uninstall_restores_every_entry_point():
    targets = [(owner, attr) for owner, attr, _ in trace._targets()]
    targets += [(trace.ExecutionEngine, "pair_runner"), (trace.AdmissionQueue, "__init__")]
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in targets]
    trace.install(trace.Tracer())()
    for owner, attr, fn in before:
        assert vars(owner)[attr] is fn


def test_spans_nest_and_self_time_excludes_children():
    tracer = trace.Tracer()
    inner = tracer.wrap("serve.timeline", "inner", lambda: time.sleep(0.01))

    def body():
        inner()
        time.sleep(0.01)

    tracer.wrap("serve.queueing", "outer", body)()
    times = tracer.layer_times()
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert times["serve.queueing"]["calls"] == times["serve.timeline"]["calls"] == 1
    outer_total = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    assert times["serve.queueing"]["self_s"] == pytest.approx(
        outer_total - times["serve.timeline"]["self_s"], abs=1e-9
    )


def test_pooled_sim_metrics_count_drops_as_misses():
    sims = [
        {"latency_ms": [1.0, 2.0], "within_slo": 1, "offered": 3, "completed": 2,
         "throughput_vps": 10.0},
        {"latency_ms": [3.0], "within_slo": 1, "offered": 1, "completed": 1,
         "throughput_vps": 20.0},
    ]
    m = run.pooled_sim_metrics(sims)
    assert m["sim_p50_ms"] == 2.0
    assert m["sim_slo_attainment"] == 0.5
    assert m["completed_frac"] == 0.75
    assert m["sim_throughput_vps"] == 15.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos_integrity",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
