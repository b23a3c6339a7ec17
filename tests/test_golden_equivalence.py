"""Golden-report equivalence: vectorized core vs the reference core.

The vectorized simulator core (numpy batch scoring, fused candidate
scans, lazy eviction bookkeeping, columnar traces) must produce
*byte-identical* results to the original object-at-a-time code paths
kept behind ``repro.compat.REFERENCE_CORE``.  Each test here runs the
same fixed-seed workload through both cores and diffs the fully
serialized artifacts — the latency-report JSON and the rendered Chrome
trace — across every serving mode.
"""

import json

import pytest

from repro import compat
from repro.core.config import MiccoConfig
from repro.gpusim import CostModel, Topology
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
from repro.tensor.spec import reset_uid_counter
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
SEED = 11


def stream(n=24, seed=3):
    params = WorkloadParams(
        vector_size=8, tensor_size=64, repeated_rate=0.6, num_vectors=n, batch=2
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def tenant_roster():
    spec = WorkloadParams(vector_size=8, tensor_size=64, num_vectors=12, batch=2)
    return (
        TenantSpec("heavy", PoissonArrivals(8_000.0), spec, weight=3.0),
        TenantSpec("light", PoissonArrivals(4_000.0), spec, weight=1.0),
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


def run_stream(cfg, cluster, *, n=24, rate=4_000.0, predictor=None):
    """One single-stream run of ``stream(n)`` at ``rate`` vectors/s."""
    return serve(
        cfg, cluster=cluster, scheduler=MiccoScheduler(ReuseBounds(0, 4, 0)),
        predictor=predictor,
        vectors=stream(n), arrivals=PoissonArrivals(rate), seed=SEED,
    )


def integrity_plan(num_devices):
    return FaultPlan.generate(
        SEED, num_devices=num_devices, horizon_s=0.01,
        n_transient=1, n_data_corruption=1, n_tensor_bitflip=1,
        corruption_prob=0.6,
    )


def flap(device, time_s=0.002):
    return FaultEvent(
        FaultKind.NODE_FLAP, time_s, device, duration_s=0.001, count=2
    )


def run_mode(mode: str):
    """One fixed-seed serving run in ``mode`` under the active core.

    Tensor uids come from a process-global counter and surface in
    integrity and cross-node labels, so every run starts it from zero.
    """
    reset_uid_counter()
    if mode == "single":
        cfg = ServeConfig(queue_capacity=16)
        return run_stream(cfg, MiccoConfig(num_devices=4, memory_bytes=64 * MIB))
    if mode == "tenants":
        cfg = ServeConfig(queue_capacity=32, tenants=tenant_roster())
        cluster = MiccoConfig(num_devices=4, memory_bytes=2 * GIB)
        return serve(cfg, cluster=cluster, seed=SEED)
    if mode == "batched":
        cfg = ServeConfig(
            queue_capacity=32, tenants=tenant_roster(),
            max_batch_vectors=4, schedule_latency_per_pair_s=1e-4,
        )
        cluster = MiccoConfig(num_devices=4, memory_bytes=2 * GIB)
        return serve(cfg, cluster=cluster, seed=SEED)
    if mode == "integrity":
        # Spot-audit chaos run: silent corruption + bitflips, detection,
        # audit recomputation and blame must replay identically through
        # both cores (the integrity layer draws no RNG state — every
        # decision is a counter hash).
        cfg = ServeConfig(
            queue_capacity=16, faults=integrity_plan(4),
            integrity=IntegrityConfig(mode="spot", audit_fraction=0.3),
        )
        return run_stream(cfg, MiccoConfig(num_devices=4, memory_bytes=64 * MIB))
    if mode == "sharded":
        cfg = ServeConfig(sharded=True, routing="residency-affinity")
        return run_stream(cfg, sharded_cluster())
    if mode == "learned":
        # Learned routing adds an RNG stream (the exploration draws) and
        # online regression on completion latencies; both must replay
        # byte-identically through the reference core.  Low knobs so the
        # predictor warms up inside a 24-vector run.
        cfg = ServeConfig(
            sharded=True, routing="learned", sync_interval_s=0.01,
            explore_floor=0.1, min_samples=6, refit_interval=4,
            health=HealthConfig(),
        )
        return run_stream(cfg, sharded_cluster())
    # ---- modes below run only against the on-disk golden manifest ----
    if mode == "sharded-least-loaded":
        cfg = ServeConfig(sharded=True, routing="least-loaded")
        return run_stream(cfg, sharded_cluster(), predictor=FixedPredictor())
    if mode == "sharded-threshold-local":
        cfg = ServeConfig(
            sharded=True, routing="threshold-local", queue_capacity=32,
            max_batch_vectors=4, schedule_latency_per_pair_s=1e-4,
        )
        return run_stream(cfg, sharded_cluster(), n=40, rate=8_000.0)
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
        return run_stream(cfg, sharded_cluster(), n=48, rate=3_000.0)
    if mode == "node-loss":
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.002, 5),))
        cfg = ServeConfig(
            faults=plan, warm_restore=True, fault_aware_admission=True
        )
        return run_stream(cfg, sharded_cluster(), predictor=FixedPredictor())
    if mode == "sharded-node-loss":
        plan = FaultPlan((
            FaultEvent(FaultKind.LINK_LOST, 0.001, 6),
            FaultEvent(FaultKind.NODE_LOST, 0.002, 1),
        ))
        cfg = ServeConfig(
            sharded=True, faults=plan, warm_restore=True,
            fault_aware_admission=True,
        )
        return run_stream(cfg, sharded_cluster())
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
        return run_stream(cfg, cluster, n=40, rate=8_000.0)
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
        return run_stream(cfg, sharded_cluster(), n=40, rate=8_000.0)
    if mode == "single-flap":
        cfg = ServeConfig(faults=FaultPlan((flap(4),)), warm_restore=True)
        return run_stream(cfg, sharded_cluster())
    if mode == "sharded-flap":
        cfg = ServeConfig(sharded=True, faults=FaultPlan((flap(1), flap(6, 0.003))))
        return run_stream(cfg, sharded_cluster())
    if mode == "single-quarantine":
        cfg = ServeConfig(
            faults=integrity_plan(4),
            integrity=IntegrityConfig(mode="suspect-full", audit_fraction=0.3),
        )
        cluster = MiccoConfig(num_devices=4, memory_bytes=64 * MIB)
        return run_stream(cfg, cluster, n=40)
    if mode == "sharded-integrity":
        cfg = ServeConfig(
            sharded=True, faults=integrity_plan(8),
            integrity=IntegrityConfig(mode="spot", audit_fraction=0.3),
        )
        return run_stream(cfg, sharded_cluster(), n=40)
    raise AssertionError(mode)


def artifacts(result, tmp_path, tag):
    """The two serialized artifacts the equivalence is defined over."""
    report_path = tmp_path / f"{tag}_report.json"
    result.to_json(report_path)
    trace_path = tmp_path / f"{tag}_trace.json"
    result.to_trace().save_chrome_trace(trace_path)
    return report_path.read_bytes(), trace_path.read_bytes()


MODES = ("single", "tenants", "batched", "sharded", "learned", "integrity")


@pytest.mark.parametrize("mode", MODES)
def test_reports_and_traces_byte_identical(mode, tmp_path):
    fast = run_mode(mode)
    with compat.reference_core():
        ref = run_mode(mode)
    assert not compat.REFERENCE_CORE  # context restored

    fast_report, fast_trace = artifacts(fast, tmp_path, f"{mode}_fast")
    ref_report, ref_trace = artifacts(ref, tmp_path, f"{mode}_ref")
    assert fast_report == ref_report
    assert fast_trace == ref_trace


@pytest.mark.parametrize("mode", MODES)
def test_summaries_identical(mode):
    fast = run_mode(mode)
    with compat.reference_core():
        ref = run_mode(mode)
    assert json.dumps(fast.summary(), sort_keys=True) == json.dumps(
        ref.summary(), sort_keys=True
    )


def test_reference_core_flag_actually_switches_paths():
    """Guard against the switch silently becoming a no-op."""
    scheduler = MiccoScheduler(ReuseBounds(0, 4, 0))
    assert type(scheduler).choose is not None
    with compat.reference_core():
        assert compat.REFERENCE_CORE
    assert not compat.REFERENCE_CORE
