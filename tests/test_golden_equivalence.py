"""Golden equivalence: attaching a trace recorder must not change behaviour.

The execution engine has one pair body; a trace recorder only adds
records to it.  For every mode the on-disk golden manifest pins, the
test here runs the same fixed-seed workload once by default and once
with ``ServeConfig(trace=TraceConfig("full"))``, which attaches a
recorder that keeps every event, and diffs the serialized artifacts
(the latency-report JSON and the Chrome trace rendered from it) and the
summary.

``run_mode`` and ``artifacts`` also define the fixed-seed modes that
``tests/test_golden_manifest.py`` pins on disk by hash.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import MiccoConfig
from repro.gpusim import CostModel, Topology, TraceConfig
from repro.gpusim.device import GIB
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import (
    AutoscalerConfig,
    HealthConfig,
    IntegrityConfig,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    serve,
)
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
SEED = 11


def stream(n=24, seed=3):
    params = WorkloadParams(
        vector_size=8, tensor_size=64, repeated_rate=0.6, num_vectors=n, batch=2
    )
    return SyntheticWorkload(params, seed=seed, uid_base=0).vectors()


def tenant_roster(n=12, rate=8_000.0):
    spec = WorkloadParams(vector_size=8, tensor_size=64, num_vectors=n, batch=2)
    return (
        TenantSpec("heavy", PoissonArrivals(rate), spec, weight=3.0),
        TenantSpec("light", PoissonArrivals(rate / 2), spec, weight=1.0),
    )


def sharded_cluster():
    """Two nodes of four 64 MiB devices (the sharded modes' topology)."""
    topo = Topology(num_devices=8, devices_per_node=4)
    return MiccoConfig(
        num_devices=8, memory_bytes=64 * MIB,
        cost_model=CostModel(topology=topo),
    )


class FixedPredictor:
    """Constant reuse-bound predictor: drives the per-round bounds path."""

    def predict_bounds(self, chars):
        return ReuseBounds(0, 3, 0)


def single_stream(cluster, *, n=24, rate=4_000.0, predictor=None):
    """``serve`` arguments for one run of ``stream(n)`` at ``rate`` vectors/s."""
    return dict(
        cluster=cluster, scheduler=MiccoScheduler(ReuseBounds(0, 4, 0)),
        predictor=predictor,
        vectors=stream(n), arrivals=PoissonArrivals(rate), seed=SEED,
    )


def integrity_plan(num_devices):
    return FaultPlan.generate(
        SEED, num_devices=num_devices, horizon_s=0.01,
        n_transient=1, n_data_corruption=1, n_tensor_bitflip=1,
        corruption_prob=0.6,
    )


def flap(device, time_s=0.002, duration_s=0.001, count=2):
    return FaultEvent(
        FaultKind.NODE_FLAP, time_s, device, duration_s=duration_s, count=count
    )


def run_mode(mode: str, trace: TraceConfig | None = None):
    """One fixed-seed serving run in ``mode``, optionally with ``trace`` set.

    Tensor uids surface in integrity and cross-node labels.  Tenant runs
    number them in run-scoped blocks and the single-stream vectors from
    an explicit base, so no process-global state feeds the artifacts.
    """
    cfg, kwargs = mode_setup(mode)
    if trace is not None:
        cfg = cfg.with_(trace=trace)
    return serve(cfg, **kwargs)


def mode_setup(mode: str):
    """``(ServeConfig, serve keyword arguments)`` for ``mode``."""
    if mode == "single":
        cfg = ServeConfig(queue_capacity=16)
        return cfg, single_stream(MiccoConfig(num_devices=4, memory_bytes=64 * MIB))
    if mode == "tenants":
        cfg = ServeConfig(queue_capacity=32, tenants=tenant_roster())
        cluster = MiccoConfig(num_devices=4, memory_bytes=2 * GIB)
        return cfg, dict(cluster=cluster, seed=SEED)
    if mode == "batched":
        cfg = ServeConfig(
            queue_capacity=32, tenants=tenant_roster(),
            max_batch_vectors=4, schedule_latency_per_pair_s=1e-4,
        )
        cluster = MiccoConfig(num_devices=4, memory_bytes=2 * GIB)
        return cfg, dict(cluster=cluster, seed=SEED)
    if mode == "integrity":
        # Spot-audit chaos run: silent corruption + bitflips, detection,
        # audit recomputation and blame must replay identically (the
        # integrity layer draws no RNG state — every decision is a
        # counter hash).
        cfg = ServeConfig(
            queue_capacity=16, faults=integrity_plan(4),
            integrity=IntegrityConfig(mode="spot", audit_fraction=0.3),
        )
        return cfg, single_stream(MiccoConfig(num_devices=4, memory_bytes=64 * MIB))
    if mode == "sharded":
        cfg = ServeConfig(sharded=True, routing="residency-affinity")
        return cfg, single_stream(sharded_cluster())
    if mode == "learned":
        # Learned routing adds an RNG stream (the exploration draws) and
        # online regression on completion latencies; both must replay
        # byte-identically.  Low knobs so the predictor warms up inside a
        # 24-vector run.
        cfg = ServeConfig(
            sharded=True, routing="learned", sync_interval_s=0.01,
            explore_floor=0.1, min_samples=6, refit_interval=4,
            health=HealthConfig(),
        )
        return cfg, single_stream(sharded_cluster())
    # ---- modes below run only against the on-disk golden manifest ----
    if mode == "sharded-least-loaded":
        cfg = ServeConfig(sharded=True, routing="least-loaded")
        return cfg, single_stream(sharded_cluster(), predictor=FixedPredictor())
    if mode == "sharded-threshold-local":
        cfg = ServeConfig(
            sharded=True, routing="threshold-local", queue_capacity=32,
            max_batch_vectors=4, schedule_latency_per_pair_s=1e-4,
        )
        return cfg, single_stream(sharded_cluster(), n=40, rate=8_000.0)
    if mode == "health-hedging":
        plan = FaultPlan((
            FaultEvent(
                FaultKind.NODE_FLAP, 2e-3, 5, duration_s=5e-3, count=2, period_s=1e-2
            ),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 4e-3, 1, duration_s=6e-3),
        ))
        cfg = ServeConfig(
            sharded=True, faults=plan,
            health=HealthConfig(
                heartbeat_interval_s=1e-3, hedging=True, hedge_deadline_s=2e-3
            ),
        )
        return cfg, single_stream(sharded_cluster(), n=48, rate=3_000.0)
    if mode == "node-loss":
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.002, 5),))
        cfg = ServeConfig(
            faults=plan, warm_restore=True, fault_aware_admission=True
        )
        return cfg, single_stream(sharded_cluster(), predictor=FixedPredictor())
    if mode == "sharded-node-loss":
        plan = FaultPlan((
            FaultEvent(FaultKind.LINK_LOST, 0.001, 6),
            FaultEvent(FaultKind.NODE_LOST, 0.002, 1),
        ))
        cfg = ServeConfig(
            sharded=True, faults=plan, warm_restore=True,
            fault_aware_admission=True,
        )
        return cfg, single_stream(sharded_cluster())
    if mode == "autoscale":
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.004, 0),))
        cfg = ServeConfig(
            faults=plan, warm_restore=True,
            autoscaler=AutoscalerConfig(
                min_devices=1, max_devices=4, initial_devices=1,
                up_queue_depth=2, warmup_s=5e-4, cooldown_s=1e-3,
                window_s=2e-3, replace_lost=True,
            ),
        )
        cluster = MiccoConfig(num_devices=4, memory_bytes=64 * MIB)
        return cfg, single_stream(cluster, n=40, rate=8_000.0)
    if mode == "sharded-autoscale":
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.001, 0),))
        cfg = ServeConfig(
            sharded=True, faults=plan,
            autoscaler=AutoscalerConfig(
                min_devices=2, max_devices=4, initial_devices=2,
                up_queue_depth=2, warmup_s=5e-4, cooldown_s=1e-3,
                window_s=2e-3, replace_lost=True,
            ),
        )
        return cfg, single_stream(sharded_cluster(), n=40, rate=8_000.0)
    if mode == "single-flap":
        cfg = ServeConfig(faults=FaultPlan((flap(4),)), warm_restore=True)
        return cfg, single_stream(sharded_cluster())
    if mode == "sharded-flap":
        cfg = ServeConfig(sharded=True, faults=FaultPlan((flap(1), flap(6, 0.003))))
        return cfg, single_stream(sharded_cluster())
    if mode == "single-quarantine":
        cfg = ServeConfig(
            faults=integrity_plan(4),
            integrity=IntegrityConfig(mode="suspect-full", audit_fraction=0.3),
        )
        cluster = MiccoConfig(num_devices=4, memory_bytes=64 * MIB)
        return cfg, single_stream(cluster, n=40)
    if mode in ("tenant-loss", "sharded-tenant-loss"):
        # Two tenants, several rounds in flight per pool, a device loss
        # and then a node loss: several tickets are orphaned at once, so
        # this pins the order their pairs re-execute in (pending-insertion
        # order in the single loop, vector-id order in the sharded one).
        # Each loop gets the variant whose orphan order shows in bytes.
        sharded = mode == "sharded-tenant-loss"
        inflight, lost, node_member = (2, 7, 2) if sharded else (3, 5, 6)
        plan = FaultPlan((
            FaultEvent(FaultKind.DEVICE_LOST, 0.001, lost),
            FaultEvent(FaultKind.NODE_LOST, 0.003, node_member),
        ))
        cfg = ServeConfig(
            queue_capacity=32, tenants=tenant_roster(16, 20_000.0),
            max_inflight=inflight, max_batch_vectors=2, faults=plan,
            sharded=sharded,
        )
        return cfg, dict(cluster=sharded_cluster(), seed=SEED)
    if mode == "single-pool-empty":
        # Both nodes flap down together while tickets are queued: the
        # single loop keeps dispatching into the empty pool (and sheds
        # those rounds) and does not refill when the devices return.
        plan = FaultPlan((flap(1, 0.002, 0.002, 1), flap(6, 0.002, 0.002, 1)))
        cfg = ServeConfig(faults=plan)
        return cfg, single_stream(sharded_cluster(), rate=20_000.0)
    if mode == "learned-wrap":
        # The ``learned`` config refit after every completion over 1200
        # vectors: every shard's model passes its 512-sample window, so
        # this pins refits over a window that has wrapped.
        cfg = ServeConfig(
            sharded=True, routing="learned", sync_interval_s=0.01,
            explore_floor=0.1, min_samples=6, refit_interval=1,
            health=HealthConfig(),
        )
        return cfg, single_stream(sharded_cluster(), n=1200)
    if mode == "sharded-integrity":
        cfg = ServeConfig(
            sharded=True, faults=integrity_plan(8),
            integrity=IntegrityConfig(mode="spot", audit_fraction=0.3),
        )
        return cfg, single_stream(sharded_cluster(), n=40)
    raise AssertionError(mode)


def artifacts(result, tmp_path, tag):
    """The two serialized artifacts the equivalence is defined over."""
    report_path = tmp_path / f"{tag}_report.json"
    result.to_json(report_path)
    trace_path = tmp_path / f"{tag}_trace.json"
    result.to_trace().save_chrome_trace(trace_path)
    return report_path.read_bytes(), trace_path.read_bytes()


#: Every mode ``tests/golden/manifest.json`` pins, read from the file
#: itself so a new golden mode is covered here without an edit.
MODES = sorted(
    json.loads((Path(__file__).parent / "golden" / "manifest.json").read_text())["modes"]
)
FULL_TRACE = TraceConfig("full")


@pytest.mark.parametrize("mode", MODES)
def test_reports_and_traces_byte_identical(mode, tmp_path):
    default = run_mode(mode)
    traced = run_mode(mode, trace=FULL_TRACE)
    assert default.engine_trace is None and len(traced.engine_trace) > 0
    assert artifacts(default, tmp_path, f"{mode}_default") == artifacts(
        traced, tmp_path, f"{mode}_traced"
    )


@pytest.mark.parametrize("mode", MODES)
def test_summaries_identical(mode):
    default = run_mode(mode)
    traced = run_mode(mode, trace=FULL_TRACE)
    assert json.dumps(default.summary(), sort_keys=True) == json.dumps(
        traced.summary(), sort_keys=True
    )
