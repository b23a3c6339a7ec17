"""Additional property-based tests for the extension modules."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.memory import EVICTION_POLICIES, MemoryPool
from repro.gpusim.topology import Topology
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.costgreedy import CostGreedyScheduler
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.micco import MiccoScheduler, would_evict
from repro.core.session import run_stream
from repro.serve import ShardView
from repro.tensor.spec import TensorPair
from repro.workloads.serialize import stream_from_dict, stream_to_dict
from repro.workloads.synth import SyntheticWorkload, WorkloadParams
from tests.conftest import make_cluster, make_tensor


@st.composite
def small_streams(draw):
    params = WorkloadParams(
        vector_size=draw(st.sampled_from([4, 8])),
        tensor_size=16,
        repeated_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        distribution=draw(st.sampled_from(["uniform", "gaussian"])),
        num_vectors=draw(st.integers(1, 3)),
        batch=2,
    )
    return SyntheticWorkload(params, seed=draw(st.integers(0, 1000))).vectors()


@st.composite
def cluster_states(draw):
    """``(view, pairs)``: a random cluster mid-vector and pairs to place.

    2–64 devices with random residency and filler tensors in tight
    memory (so some placements would evict), per-device load and lost
    devices; the view is the cluster itself or a shard view over a
    random device subset that keeps at least one survivor.  ``pairs``
    combines every placed tensor with every placed tensor (itself
    included) and with one fresh tensor.
    """
    n = draw(st.integers(2, 64))
    tensors = [make_tensor() for _ in range(draw(st.integers(1, 6)))]
    nbytes = tensors[0].nbytes
    capacity = draw(st.sampled_from([2, 3, 4, 64]))
    cluster = make_cluster(num_devices=n, memory_bytes=capacity * nbytes)
    devices = st.integers(0, n - 1)
    for spec in tensors:
        for dev in draw(st.lists(devices, max_size=6)):
            cluster.register(spec, dev)
    for dev in range(n):
        for _ in range(draw(st.integers(0, min(capacity - 1, 3)))):
            cluster.register(make_tensor(), dev)
    if draw(st.booleans()):
        members = sorted(draw(st.sets(devices, min_size=1)))
    else:
        members = list(range(n))
    keep = draw(st.sampled_from(members))
    for dev in draw(st.sets(devices)) - {keep}:
        cluster.fail_device(dev)
    view = cluster if len(members) == n else ShardView(cluster, members)
    view.begin_vector(draw(st.integers(2, 4 * n)))
    loads = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=n, max_size=n)
    cluster.assigned_slots[:] = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    cluster.compute_s[:] = draw(loads)
    cluster.memop_s[:] = draw(loads)
    inputs = tensors + [make_tensor()]
    return view, [TensorPair.make(a, b) for a in tensors for b in inputs]


class TestDecisionPathProperties:
    """Each scheduler's ``choose`` against a plain scalar restatement."""

    @given(
        cluster_states(),
        st.tuples(*[st.sampled_from([0.0, 1.0, 4.0])] * 3),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_micco_choose_is_select_of_candidates(self, state, bounds, aware, sensitive):
        view, pairs = state
        sched = MiccoScheduler(
            ReuseBounds(*bounds), pattern_aware=aware, eviction_sensitive=sensitive
        )
        compute, free = view.compute_s, view.free_bytes
        alive = set(view.alive_ids())
        for pair in pairs:
            candidates = sched.build_candidates(pair, view)
            assert candidates and set(candidates) <= alive
            pick = sched.select(candidates, pair, view)
            assert sched.choose(pair, view) == pick

            # Alg. 2 as a key-based min over the scalar eviction test.
            evict = sensitive and any(would_evict(pair, g, view) for g in candidates)
            if evict:
                key = lambda g: (-free(g), compute[g], g)
            else:
                key = lambda g: (compute[g], -free(g), g)
            assert pick == min(candidates, key=key)

    @given(cluster_states())
    @settings(max_examples=50, deadline=None)
    def test_groute_picks_least_busy_alive(self, state):
        view, pairs = state
        busy = view.busy_s
        best = None
        for g in view.alive_ids():
            if best is None or busy[g] < busy[best]:
                best = g
        assert GrouteScheduler().choose(pairs[0], view) == best

    @given(cluster_states())
    @settings(max_examples=100, deadline=None)
    def test_costgreedy_picks_min_scalar_estimate(self, state):
        view, pairs = state
        sched = CostGreedyScheduler()
        busy = view.busy_s
        for pair in pairs:
            best = None
            best_t = float("inf")
            for g in view.alive_ids():
                t = busy[g] + sched.estimate_added_time(pair, g, view)
                if t < best_t:
                    best, best_t = g, t
            assert sched.choose(pair, view) == best


class TestSerializationProperties:
    @given(small_streams())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_identity_structure(self, vectors):
        loaded = stream_from_dict(stream_to_dict(vectors))
        for a, b in zip(vectors, loaded):
            assert [p.input_uids for p in a.pairs] == [p.input_uids for p in b.pairs]
            assert a.num_tensors == b.num_tensors
            assert a.input_bytes_unique() == b.input_bytes_unique()

    @given(small_streams())
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_runs_identically(self, vectors):
        from repro.schedulers.micco import MiccoScheduler

        loaded = stream_from_dict(stream_to_dict(vectors))
        results = []
        for stream in (vectors, loaded):
            cluster = make_cluster()
            engine = ExecutionEngine(cluster, CostModel())
            results.append(run_stream(stream, MiccoScheduler(), cluster, engine))
        assert results[0].metrics.summary() == results[1].metrics.summary()


class TestEvictionPolicyProperties:
    @given(
        st.sampled_from(EVICTION_POLICIES),
        st.lists(st.tuples(st.integers(0, 8), st.integers(1, 40)), min_size=1, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_invariant_all_policies(self, policy, seq):
        pool = MemoryPool(100, policy=policy)
        for uid, nbytes in seq:
            pool.allocate(uid, nbytes)
            assert pool.used_bytes <= pool.capacity_bytes
            assert pool.used_bytes == sum(pool.nbytes_of(u) for u in pool.resident_uids())


class TestTopologyProperties:
    @given(
        st.integers(1, 4),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(1, 10**8),
    )
    @settings(max_examples=60)
    def test_cross_node_never_faster(self, per_node, a, b, nbytes):
        topo = Topology(num_devices=16, devices_per_node={1: 1, 2: 2, 3: 4, 4: 8}[per_node])
        intra_ref = topo.d2d_time(0, 0, nbytes, 0.0)
        t = topo.d2d_time(a, b, nbytes, 0.0)
        if topo.same_node(a, b):
            assert t == intra_ref
        else:
            assert t >= intra_ref


class TestCostGreedyProperties:
    @given(small_streams())
    @settings(max_examples=20, deadline=None)
    def test_estimates_are_positive_and_finite(self, vectors):
        cluster = make_cluster()
        sched = CostGreedyScheduler()
        for v in vectors[:1]:
            for p in v.pairs:
                for g in range(cluster.num_devices):
                    est = sched.estimate_added_time(p, g, cluster)
                    assert np.isfinite(est) and est > 0

    @given(small_streams())
    @settings(max_examples=20, deadline=None)
    def test_counter_conservation_under_costgreedy(self, vectors):
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        result = run_stream(vectors, CostGreedyScheduler(), cluster, engine)
        c = result.metrics.counts
        slots = sum(v.num_tensors for v in vectors)
        assert c.reuse_hits + c.h2d_transfers + c.d2d_transfers == slots
