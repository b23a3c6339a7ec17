"""Unit tests for ExecutionMetrics / MemoryOpCounts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.gpusim.metrics import ExecutionMetrics, MemoryOpCounts
from tests.conftest import make_cluster


class TestCounts:
    def test_merge_adds(self):
        a = MemoryOpCounts(reuse_hits=1, h2d_transfers=2, d2d_transfers=3, allocations=4, evictions=5, eviction_bytes=6, transferred_bytes=7)
        b = MemoryOpCounts(reuse_hits=10, h2d_transfers=20, d2d_transfers=30, allocations=40, evictions=50, eviction_bytes=60, transferred_bytes=70)
        a.merge(b)
        assert (a.reuse_hits, a.h2d_transfers, a.d2d_transfers) == (11, 22, 33)
        assert (a.allocations, a.evictions, a.eviction_bytes, a.transferred_bytes) == (44, 55, 66, 77)

    def test_input_fetches(self):
        c = MemoryOpCounts(h2d_transfers=3, d2d_transfers=4)
        assert c.input_fetches == 7


class TestMetrics:
    def test_defaults_zeroed(self):
        m = ExecutionMetrics(num_devices=3)
        assert m.makespan_s == 0.0
        assert m.gflops == 0.0
        assert m.load_imbalance == 1.0
        assert m.memop_fraction == 0.0

    def test_gflops(self):
        m = ExecutionMetrics(num_devices=2)
        m.compute_s[:] = [2.0, 1.0]
        m.total_flops = 4_000_000_000
        assert m.gflops == pytest.approx(2.0)  # 4 GF / 2 s

    def test_makespan_is_max(self):
        m = ExecutionMetrics(num_devices=2)
        m.compute_s[:] = [1.0, 3.0]
        m.memop_s[:] = [0.5, 0.0]
        assert m.makespan_s == pytest.approx(3.0)

    def test_load_imbalance(self):
        m = ExecutionMetrics(num_devices=2)
        m.compute_s[:] = [3.0, 1.0]
        assert m.load_imbalance == pytest.approx(1.5)

    def test_memop_fraction(self):
        m = ExecutionMetrics(num_devices=1)
        m.compute_s[:] = [3.0]
        m.memop_s[:] = [1.0]
        assert m.memop_fraction == pytest.approx(0.25)

    def test_merge(self):
        a = ExecutionMetrics(num_devices=2)
        b = ExecutionMetrics(num_devices=2)
        a.compute_s[:] = [1.0, 0.0]
        b.compute_s[:] = [0.0, 2.0]
        a.total_flops, b.total_flops = 5, 7
        a.pairs_executed, b.pairs_executed = 1, 2
        b.pairs_per_device[:] = [0, 2]
        a.merge(b)
        np.testing.assert_allclose(a.compute_s, [1.0, 2.0])
        assert a.total_flops == 12
        assert a.pairs_executed == 3
        assert list(a.pairs_per_device) == [0, 2]

    def test_merge_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            ExecutionMetrics(num_devices=2).merge(ExecutionMetrics(num_devices=3))

    def test_summary_keys(self):
        s = ExecutionMetrics(num_devices=1).summary()
        for key in ("gflops", "makespan_s", "reuse_hits", "evictions", "load_imbalance"):
            assert key in s


seconds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_subnormal=False)
#: Per-device compute and memop vectors over at least 8 devices: from 8
#: elements on, numpy's pairwise sum can round differently from a
#: left-to-right Python ``sum``.
ledgers = st.integers(8, 24).flatmap(
    lambda n: st.tuples(
        st.lists(seconds, min_size=n, max_size=n), st.lists(seconds, min_size=n, max_size=n)
    )
)


class TestDeviceReductions:
    """List-backed ledgers reduce exactly like the ndarray formulas they replace."""

    @given(ledgers, st.integers(0, 10**15))
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_ndarray_formulas(self, vectors, flops):
        compute, memop = vectors
        assume(float(np.sum(compute)) != sum(compute))
        n = len(compute)
        m = ExecutionMetrics(num_devices=n, total_flops=flops)
        m.compute_s[:] = compute
        m.memop_s[:] = memop
        c, mo = np.array(compute), np.array(memop)
        t = c + mo
        span = float(t.max())
        mean = float(t.mean())
        busy = float(t.sum())
        assert m.makespan_s == span
        assert m.load_imbalance == (span / mean if mean > 0 else 1.0)
        assert m.memop_fraction == (float(mo.sum()) / busy if busy > 0 else 0.0)
        assert m.gflops == (flops / span / 1e9 if span > 0 else 0.0)
        # The integrity audit budget's base (``audit_budget_frac`` times it).
        assert m.total_compute_s == float(c.sum())
        cluster = make_cluster(num_devices=n)
        cluster.compute_s[:] = compute
        cluster.memop_s[:] = memop
        assert np.array_equal(cluster.busy_s, t)
