"""Engine-level fault handling: retries, backoff, refetches, stragglers.

Fault hooks and trace records share one pair body, so every test class
runs twice: as written, with no trace recorder, and again as its
``...Traced`` subclass, whose ``traced`` fixture makes ``make_engine``
attach one.  Both runs must account identically, and with a recorder
attached every fault-lifecycle event the injector logs must also land
in the trace.
"""

import dataclasses

import pytest

from repro.errors import DeviceLostError, TransientFaultError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan, RetryPolicy
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.trace import TraceRecorder
from repro.tensor.spec import VectorSpec
from tests.conftest import make_cluster, make_pair


#: Trace kinds the engine emits for fault-lifecycle events.
FAULT_KINDS = ("fault", "retry", "xnode", "taint")


@pytest.fixture
def traced():
    """Whether ``make_engine`` attaches a recorder; ``Traced`` overrides it."""
    return False


@pytest.fixture
def make_engine(traced):
    """``ExecutionEngine`` factory; attaches a recorder when ``traced``."""

    def make(cluster, cost_model=None, **kwargs):
        trace = TraceRecorder() if traced else None
        return ExecutionEngine(cluster, cost_model or CostModel(), trace=trace, **kwargs)

    return make


def logged_kinds(engine) -> list[str]:
    """Kinds of the injector's fault log, checked against the trace.

    With a recorder attached, its fault-lane events must be exactly the
    injector's log, in order, with the same devices, durations and
    labels.
    """
    logged = [
        (e["kind"], e["device"], e["duration_s"], e["label"])
        for e in engine.injector.stats.events
    ]
    if engine.trace is not None:
        traced = [
            (e.kind, e.device, e.duration_s, e.label)
            for e in engine.trace.events
            if e.kind in FAULT_KINDS
        ]
        assert traced == logged
    return [kind for kind, *_ in logged]


def armed_injector(*events: FaultEvent) -> FaultInjector:
    """Injector with every event already armed (polled past all of them)."""
    inj = FaultInjector(FaultPlan(tuple(events)))
    inj.poll(max(e.time_s for e in events))
    return inj


class TestTransientRetry:
    def test_recovered_kernel_charges_wasted_time(self, make_engine):
        cluster = make_cluster()
        pair = make_pair()
        clean = make_engine(make_cluster())
        m_clean = ExecutionMetrics(num_devices=2)
        clean.execute_pair(pair, 0, m_clean)
        kt = m_clean.compute_s[0]

        retry = RetryPolicy(max_attempts=4, backoff_base_s=1e-3)
        inj = armed_injector(FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=2))
        engine = make_engine(cluster, injector=inj, retry=retry)
        m = ExecutionMetrics(num_devices=2)
        engine.execute_pair(pair, 0, m)

        # 2 wasted attempts + their backoffs + the successful kernel.
        waste = 2 * kt + retry.backoff_s(1) + retry.backoff_s(2)
        assert m.compute_s[0] == pytest.approx(kt + waste)
        assert inj.stats.transient_failures == 2
        assert inj.stats.transient_recovered == 1
        assert inj.stats.recovery_latency_s["transient"] == [pytest.approx(waste)]
        assert m.pairs_executed == 1
        assert logged_kinds(engine) == ["fault", "retry"] * 2

    def test_budget_exhaustion_raises_and_accounts(self, make_engine):
        cluster = make_cluster()
        retry = RetryPolicy(max_attempts=2)
        inj = armed_injector(FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=10))
        engine = make_engine(cluster, injector=inj, retry=retry)
        m = ExecutionMetrics(num_devices=2)
        with pytest.raises(TransientFaultError):
            engine.execute_pair(make_pair(), 0, m)
        assert inj.stats.transient_abandoned == 1
        assert inj.stats.transient_recovered == 0
        # Exactly max_attempts failures were consumed, and the wasted
        # device time is visible in the metrics.
        assert inj.stats.transient_failures == 2
        assert m.compute_s[0] > 0
        assert m.pairs_executed == 0
        assert logged_kinds(engine) == ["fault", "retry"] * 2

    def test_fault_events_logged_for_replay(self, make_engine):
        inj = armed_injector(FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=1))
        engine = make_engine(make_cluster(), injector=inj)
        engine.execute_pair(make_pair(), 0, ExecutionMetrics(num_devices=2))
        assert logged_kinds(engine) == ["fault", "retry"]


class TestTransferFault:
    def test_failed_d2d_refetches_from_host(self, make_engine):
        cluster = make_cluster()
        cm = CostModel()
        pair = make_pair()
        # Seat the left input on device 1 so device 0 would D2D it.
        cluster.register(pair.left, 1)
        inj = armed_injector(FaultEvent(FaultKind.TRANSFER, 0.0, 0, count=1))
        engine = make_engine(cluster, cm, injector=inj)
        m = ExecutionMetrics(num_devices=2)
        engine.execute_pair(pair, 0, m)
        # The recovered fetch is an H2D, and the source kept its copy
        # (the failed move never completed).
        assert m.counts.d2d_transfers == 0
        assert m.counts.h2d_transfers == 2  # left (refetch) + right
        assert cluster.is_resident(pair.left.uid, 1)
        assert inj.stats.transfer_refetches == 1
        wasted = cm.d2d_time(pair.left.nbytes, src=1, dst=0)
        refetch = cm.h2d_time(pair.left.nbytes)
        assert inj.stats.recovery_latency_s["transfer"] == [pytest.approx(wasted + refetch)]
        assert logged_kinds(engine) == ["fault", "retry"]

    def test_memop_time_includes_wasted_copy(self, make_engine):
        pair = make_pair()
        clean_cl, faulty_cl = make_cluster(), make_cluster()
        clean_cl.register(pair.left, 1)
        faulty_cl.register(pair.left, 1)
        m_clean = ExecutionMetrics(num_devices=2)
        make_engine(clean_cl).execute_pair(pair, 0, m_clean)
        inj = armed_injector(FaultEvent(FaultKind.TRANSFER, 0.0, 0))
        m_faulty = ExecutionMetrics(num_devices=2)
        engine = make_engine(faulty_cl, injector=inj)
        engine.execute_pair(pair, 0, m_faulty)
        assert m_faulty.memop_s[0] >= m_clean.memop_s[0]
        assert logged_kinds(engine) == ["fault", "retry"]


class TestStraggler:
    def test_kernel_time_scales_inside_window(self, make_engine):
        pair = make_pair()
        m_clean = ExecutionMetrics(num_devices=2)
        make_engine(make_cluster()).execute_pair(pair, 0, m_clean)
        inj = armed_injector(
            FaultEvent(FaultKind.STRAGGLER, 0.0, 0, duration_s=100.0, slow_factor=4.0)
        )
        m_slow = ExecutionMetrics(num_devices=2)
        make_engine(make_cluster(), injector=inj).execute_pair(pair, 0, m_slow)
        assert m_slow.compute_s[0] == pytest.approx(4.0 * m_clean.compute_s[0])

    def test_other_devices_unaffected(self, make_engine):
        pair = make_pair()
        inj = armed_injector(
            FaultEvent(FaultKind.STRAGGLER, 0.0, 0, duration_s=100.0, slow_factor=4.0)
        )
        m_clean = ExecutionMetrics(num_devices=2)
        make_engine(make_cluster()).execute_pair(pair, 1, m_clean)
        m = ExecutionMetrics(num_devices=2)
        make_engine(make_cluster(), injector=inj).execute_pair(pair, 1, m)
        assert m.compute_s[1] == pytest.approx(m_clean.compute_s[1])


class TestDeviceLoss:
    def test_execute_pair_on_dead_device_raises(self, make_engine):
        cluster = make_cluster()
        cluster.fail_device(1)
        engine = make_engine(cluster)
        with pytest.raises(DeviceLostError) as exc:
            engine.execute_pair(make_pair(), 1, ExecutionMetrics(num_devices=2))
        assert exc.value.device_id == 1
        assert exc.value.pair_index is None

    def test_execute_vector_reports_pair_index(self, make_engine):
        cluster = make_cluster()
        cluster.fail_device(1)
        engine = make_engine(cluster)
        v = VectorSpec(pairs=[make_pair() for _ in range(3)])
        with pytest.raises(DeviceLostError) as exc:
            engine.execute_vector(v, [0, 0, 1])
        assert exc.value.device_id == 1
        assert exc.value.pair_index == 2
        assert "device 1" in str(exc.value) and "pair index 2" in str(exc.value)


class Traced:
    """Mixin: rerun a test class's tests with a trace recorder attached."""

    @pytest.fixture
    def traced(self):
        return True


class TestTransientRetryTraced(Traced, TestTransientRetry):
    pass


class TestTransferFaultTraced(Traced, TestTransferFault):
    pass


class TestStragglerTraced(Traced, TestStraggler):
    pass


class TestDeviceLossTraced(Traced, TestDeviceLoss):
    pass


def metrics_fingerprint(m: ExecutionMetrics) -> tuple:
    """Every field of ``m`` as exact (hashable) values."""
    return (
        list(m.compute_s), list(m.memop_s), dataclasses.astuple(m.counts),
        m.total_flops, m.pairs_executed, list(m.pairs_per_device),
    )


def test_recorder_changes_no_accounting():
    """One mixed-fault workload, detached vs traced: bit-identical results."""
    # Each pair's left input is the previous pair's output, made on the
    # other device, so every pair after the first fetches it D2D.
    pairs = [make_pair(size=32)]
    for _ in range(5):
        pairs.append(make_pair(size=32, left=pairs[-1].out))

    def run(trace):
        inj = armed_injector(
            FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=1),
            FaultEvent(FaultKind.TRANSFER, 0.0, 1, count=1),
            FaultEvent(FaultKind.STRAGGLER, 0.0, 1, duration_s=100.0, slow_factor=3.0),
        )
        # Four 16 KiB tensors per device: every other pair evicts.
        cluster = make_cluster(memory_bytes=4 * 16 * 1024)
        engine = ExecutionEngine(cluster, CostModel(), trace=trace, injector=inj)
        m = ExecutionMetrics(num_devices=2)
        for i, pair in enumerate(pairs):
            engine.execute_pair(pair, i % 2, m)
        return metrics_fingerprint(m), inj.stats, cluster.busy_s.tolist()

    detached = run(None)
    recorder = TraceRecorder()
    traced = run(recorder)
    assert traced == detached
    kinds = {e.kind for e in recorder.events}
    assert {"fault", "retry", "evict", "d2d", "h2d", "kernel"} <= kinds
