"""Unit tests for the ExecutionEngine: counters, residency, costs."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.topology import Topology
from repro.gpusim.trace import TraceRecorder
from repro.tensor.flops import pair_flops
from repro.tensor.spec import TensorPair, VectorSpec
from repro.tensor.storage import TensorStore
from tests.conftest import MIB, make_cluster, make_pair, make_tensor, make_vector


def fresh(num_devices=2, memory_mib=64, **cm_kwargs):
    cluster = make_cluster(num_devices=num_devices, memory_bytes=memory_mib * 1024**2)
    engine = ExecutionEngine(cluster, CostModel(**cm_kwargs))
    return cluster, engine


class TestSinglePair:
    def test_new_pair_two_h2d_three_allocs(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(2)
        engine.execute_pair(make_pair(), 0, m)
        assert m.counts.h2d_transfers == 2
        assert m.counts.d2d_transfers == 0
        assert m.counts.allocations == 3  # two inputs + output
        assert m.counts.reuse_hits == 0

    def test_resident_input_is_reuse_hit(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 0)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.counts.reuse_hits == 1
        assert m.counts.h2d_transfers == 1

    def test_remote_input_is_d2d(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 1)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.counts.d2d_transfers == 1
        assert m.counts.h2d_transfers == 1

    def test_d2d_moves_source_copy(self):
        cluster, engine = fresh()  # default cost model: d2d_moves=True
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 1)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert cluster.devices_holding(p.left.uid) == {0}

    def test_d2d_copy_semantics_keeps_source(self):
        cluster, engine = fresh(d2d_moves=False)
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 1)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert cluster.devices_holding(p.left.uid) == {0, 1}

    def test_duplicate_input_fetched_once(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        t = make_tensor()
        p = TensorPair.make(t, t)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.counts.h2d_transfers == 1
        assert m.counts.reuse_hits == 1

    def test_output_registered_on_device(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.begin_vector(2)
        engine.execute_pair(p, 1, m)
        assert cluster.is_resident(p.out.uid, 1)

    def test_flops_and_compute_time(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.total_flops == pair_flops(p)
        assert m.compute_s[0] > 0
        assert m.compute_s[1] == 0

    def test_invalid_device_raises(self):
        cluster, engine = fresh()
        with pytest.raises(SchedulingError):
            engine.execute_pair(make_pair(), 5, ExecutionMetrics(num_devices=2))

    def test_slot_accounting(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(4)
        engine.execute_pair(make_pair(), 0, m)
        engine.execute_pair(make_pair(), 0, m)
        assert cluster.assigned_slots[0] == 4


class TestEvictions:
    def test_oversubscription_triggers_eviction(self):
        t = make_tensor(size=64, batch=8)
        cluster, engine = fresh(memory_mib=int(3.2 * t.nbytes / 1024**2) or 1)
        # Capacity ~3 tensors; a pair needs 3 (two inputs + output).
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(4)
        p1 = make_pair(size=64, batch=8)
        p2 = make_pair(size=64, batch=8)
        engine.execute_pair(p1, 0, m)
        engine.execute_pair(p2, 0, m)
        assert m.counts.evictions > 0
        assert m.counts.eviction_bytes > 0

    def test_current_pair_tensors_protected(self):
        t = make_tensor(size=64, batch=8)
        cluster, engine = fresh(memory_mib=max(1, int(3.2 * t.nbytes / 1024**2)))
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(2)
        p = make_pair(size=64, batch=8)
        engine.execute_pair(p, 0, m)
        # All three tensors of the pair survived its own execution.
        assert cluster.is_resident(p.left.uid, 0)
        assert cluster.is_resident(p.right.uid, 0)
        assert cluster.is_resident(p.out.uid, 0)


class TestVectorExecution:
    def test_counter_invariant(self):
        """Every input slot is exactly one of: reuse hit, h2d, d2d."""
        cluster, engine = fresh()
        v = make_vector(n_pairs=6)
        m = engine.execute_vector(v, [0, 1, 0, 1, 0, 1])
        c = m.counts
        assert c.reuse_hits + c.h2d_transfers + c.d2d_transfers == v.num_tensors

    def test_assignment_length_checked(self):
        cluster, engine = fresh()
        with pytest.raises(SchedulingError):
            engine.execute_vector(make_vector(n_pairs=3), [0, 1])

    def test_outputs_drained_by_default(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=2)
        engine.execute_vector(v, [0, 0])
        for p in v.pairs:
            assert cluster.devices_holding(p.out.uid) == frozenset()

    def test_keep_outputs(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=2)
        engine.execute_vector(v, [0, 1], keep_outputs=True)
        assert cluster.is_resident(v.pairs[0].out.uid, 0)
        assert cluster.is_resident(v.pairs[1].out.uid, 1)

    def test_pairs_per_device(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=4)
        m = engine.execute_vector(v, [0, 0, 0, 1])
        assert list(m.pairs_per_device) == [3, 1]

    def test_reuse_across_vectors(self):
        """A tensor left resident by vector 1 is a reuse hit in vector 2."""
        cluster, engine = fresh()
        t1, t2 = make_tensor(), make_tensor()
        v1 = VectorSpec(pairs=[TensorPair.make(t1, t2)], vector_id=0)
        v2 = VectorSpec(pairs=[TensorPair.make(t1, make_tensor())], vector_id=1)
        engine.execute_vector(v1, [0])
        m = engine.execute_vector(v2, [0])
        assert m.counts.reuse_hits == 1

    def test_numeric_validation_via_store(self):
        store = TensorStore(seed=0)
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel(), store=store)
        v = make_vector(n_pairs=2, size=6)
        engine.execute_vector(v, [0, 1])
        for p in v.pairs:
            assert p.out.uid in store

    def test_makespan_is_max_device_time(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=4)
        m = engine.execute_vector(v, [0, 0, 0, 0])
        assert m.makespan_s == pytest.approx(float(m.device_time_s[0]))
        assert m.device_time_s[1] == 0


class TestD2DSourceSelection:
    def test_cheapest_holder_wins_on_topology(self):
        """With a multi-node topology the intra-node holder is the source."""
        from repro.gpusim.topology import Topology

        cluster, engine = fresh(num_devices=4, topology=Topology(num_devices=4, devices_per_node=2))
        shared = make_tensor()
        cluster.register(shared, 0)  # node 0 (remote to target)
        cluster.register(shared, 3)  # node 1 (local to target)
        p = make_pair(left=shared, right=make_tensor())
        m = ExecutionMetrics(num_devices=4)
        cluster.begin_vector(2)
        engine.execute_pair(p, 2, m)
        assert m.counts.d2d_transfers == 1
        # Single-residency runtime: the chosen source (device 3) moved;
        # the remote copy on device 0 is untouched.
        assert cluster.devices_holding(shared.uid) == frozenset({0, 2})

    def test_lowest_id_breaks_cost_ties(self):
        """Without a topology all holders cost the same: lowest id wins."""
        cluster, engine = fresh(num_devices=4)
        shared = make_tensor()
        cluster.register(shared, 3)
        cluster.register(shared, 1)
        p = make_pair(left=shared, right=make_tensor())
        m = ExecutionMetrics(num_devices=4)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert cluster.devices_holding(shared.uid) == frozenset({0, 3})


class TestDrainOutputs:
    def test_writeback_charged_exactly_once(self):
        from repro.gpusim.trace import TraceRecorder

        cluster = make_cluster()
        trace = TraceRecorder()
        engine = ExecutionEngine(cluster, CostModel(drain_writeback=True), trace=trace)
        v = make_vector(n_pairs=3)
        assignment = [0, 1, 0]
        m = engine.execute_vector(v, assignment, keep_outputs=True)
        memop_before = list(m.memop_s)
        engine.drain_outputs(v, assignment, m)
        drains = trace.events_of("drain")
        assert len(drains) == 3
        expected = sum(
            engine.cost_model.interconnect.d2h_time(p.out.nbytes) for p in v.pairs
        )
        assert float(np.subtract(m.memop_s, memop_before).sum()) == pytest.approx(expected)
        # Outputs are gone; a second drain is a no-op.
        engine.drain_outputs(v, assignment, m)
        assert len(trace.events_of("drain")) == 3
        assert float(np.subtract(m.memop_s, memop_before).sum()) == pytest.approx(expected)

    def test_already_evicted_output_skipped(self):
        from repro.gpusim.trace import TraceRecorder

        cluster = make_cluster()
        trace = TraceRecorder()
        engine = ExecutionEngine(cluster, CostModel(drain_writeback=True), trace=trace)
        v = make_vector(n_pairs=2)
        assignment = [0, 0]
        m = engine.execute_vector(v, assignment, keep_outputs=True)
        cluster.drop(v.pairs[0].out.uid, 0)  # as if evicted under pressure
        engine.drain_outputs(v, assignment, m)
        drains = trace.events_of("drain")
        assert len(drains) == 1
        assert drains[0].uid == v.pairs[1].out.uid

    def test_no_writeback_mode_only_frees(self):
        cluster, engine = fresh()  # drain_writeback defaults to False
        v = make_vector(n_pairs=2)
        m = engine.execute_vector(v, [0, 1], keep_outputs=True)
        memop_before = list(m.memop_s)
        engine.drain_outputs(v, [0, 1], m)
        assert m.memop_s == memop_before
        for p in v.pairs:
            assert cluster.devices_holding(p.out.uid) == frozenset()


class TestCostTables:
    """The engine's cached kernel and node tables reproduce the cost model bit for bit."""

    @staticmethod
    def run_one(engine, pair, device_id):
        cluster = engine.cluster
        m = ExecutionMetrics(num_devices=cluster.num_devices)
        cluster.begin_vector(2)
        engine.execute_pair(pair, device_id, m)
        return m

    @pytest.mark.parametrize("ranks", [(2, 2), (3, 3), (2, 3)])
    def test_kernel_seconds_equal_cost_model(self, ranks):
        cluster = ClusterState(
            [DeviceSpec(d, memory_bytes=64 * MIB, peak_gflops=peak)
             for d, peak in enumerate((1000.0, 2500.0, 7300.0))]
        )
        engine = ExecutionEngine(cluster, CostModel())
        for device_id in range(3):
            # The second pair of each shape and device reads the table.
            for _ in range(2):
                pair = TensorPair.make(make_tensor(8, rank=ranks[0]), make_tensor(8, rank=ranks[1]))
                m = self.run_one(engine, pair, device_id)
                assert m.compute_s[device_id] == engine.cost_model.kernel_time(
                    pair, cluster.devices[device_id]
                )
                assert m.total_flops == pair_flops(pair)

    def test_new_cost_model_or_device_list_applies_to_next_pair(self):
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())

        def kernel_s():
            pair = make_pair(size=8)
            got = self.run_one(engine, pair, 0).compute_s[0]
            assert got == engine.cost_model.kernel_time(pair, cluster.devices[0])
            return got

        first = kernel_s()
        engine.cost_model = CostModel(kernel_launch_s=1e-3, efficiency_half_size=64)
        second = kernel_s()
        cluster.devices = [DeviceSpec(d, memory_bytes=64 * MIB, peak_gflops=50.0) for d in range(2)]
        third = kernel_s()
        assert len({first, second, third}) == 3

    def test_d2d_cost_and_cheapest_holder_follow_topology(self):
        topo = Topology(
            num_devices=4, devices_per_node=2,
            intra_node_bandwidth=20e9, inter_node_bandwidth=2e9,
        )
        cm = CostModel(topology=topo, d2d_moves=False)
        cluster = make_cluster(num_devices=4)
        trace = TraceRecorder()
        engine = ExecutionEngine(cluster, cm, trace=trace)
        pair = make_pair(size=32)
        # Left: holders on both nodes, so device 3 fetches from its
        # node peer 2.  Right: only remote holders, the lower id serves.
        for d in (0, 1, 2):
            cluster.register(pair.left, d)
        for d in (0, 1):
            cluster.register(pair.right, d)
        m = self.run_one(engine, pair, 3)
        lat = cm.interconnect.latency_s
        left_nb, right_nb = pair.left.nbytes, pair.right.nbytes
        assert [e.duration_s for e in trace.events_of("d2d")] == [
            topo.d2d_time(2, 3, left_nb, lat),
            topo.d2d_time(0, 3, right_nb, lat),
        ]
        assert topo.d2d_time(2, 3, left_nb, lat) < topo.d2d_time(0, 3, left_nb, lat)
        assert m.counts.d2d_transfers == 2
        assert m.counts.cross_node_fetches == 1
        # Replicating runtime: every source keeps its copy.
        assert cluster.devices_holding(pair.left.uid) == {0, 1, 2, 3}
