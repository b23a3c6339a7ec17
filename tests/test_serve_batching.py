"""Batched scheduling rounds: merge/split helpers and the serving loop.

Covers the cross-vector batching layer end to end: vector merging and
assignment de-multiplexing, round assembly from the admission queue,
per-ticket accounting exactness, and — critically — fault recovery of
partially failed rounds (device loss mid-round must re-schedule only
the orphaned members' pairs, and per-ticket drop reasons must survive
batching unchanged).
"""

import pytest

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.schedulers.batching import (
    batch_footprint_bytes,
    batch_shape_key,
    merge_vectors,
    split_assignment,
)
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import Fifo, MiccoServer, PoissonArrivals, ServeConfig, ShardView
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2


def make_vectors(n=12, seed=3, vector_size=8, tensor_size=128, repeated=0.6):
    params = WorkloadParams(
        vector_size=vector_size, tensor_size=tensor_size,
        repeated_rate=repeated, num_vectors=n, batch=4,
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def make_server(serve, num_devices=4, mem_mib=64):
    return MiccoServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)),
        MiccoConfig(num_devices=num_devices, memory_bytes=mem_mib * MIB),
        serve,
    )


class TestMergeHelpers:
    def test_shape_key_groups_same_family(self):
        a, b = make_vectors(2)
        assert batch_shape_key(a) == batch_shape_key(b)

    def test_merge_concatenates_pairs_in_member_order(self):
        a, b = make_vectors(2)
        merged = merge_vectors([a, b])
        assert len(merged.pairs) == len(a.pairs) + len(b.pairs)
        assert merged.pairs[: len(a.pairs)] == list(a.pairs)
        assert merged.meta["batch_members"] == [a.vector_id, b.vector_id]

    def test_single_member_merge_is_identity(self):
        (a,) = make_vectors(1)
        assert merge_vectors([a]) is a

    def test_merge_rejects_mixed_shape_families(self):
        (a,) = make_vectors(1, tensor_size=128)
        (b,) = make_vectors(1, tensor_size=64)
        with pytest.raises(ConfigurationError, match="shape famil"):
            merge_vectors([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            merge_vectors([])

    def test_split_assignment_round_trips_member_slices(self):
        a, b = make_vectors(2)
        assignment = list(range(len(a.pairs) + len(b.pairs)))
        sa, sb = split_assignment([a, b], assignment)
        assert sa == assignment[: len(a.pairs)]
        assert sb == assignment[len(a.pairs):]

    def test_split_assignment_length_checked(self):
        a, b = make_vectors(2)
        with pytest.raises(ConfigurationError, match="does not match"):
            split_assignment([a, b], [0])

    def test_footprint_counts_shared_inputs_once(self):
        a, b = make_vectors(2, repeated=0.9)
        separate = batch_footprint_bytes([a]) + batch_footprint_bytes([b])
        combined = batch_footprint_bytes([a, b])
        # The streams share repeated tensors, so the combined unique
        # footprint is strictly below the sum of the parts.
        assert combined < separate


class TestBatchedServing:
    def run_batched(self, batch=4, n=16, rate=2000.0, serve_extra=None, seed=7):
        serve = ServeConfig(max_batch_vectors=batch, **(serve_extra or {}))
        server = make_server(serve)
        vectors = make_vectors(n)
        return server.run(vectors, PoissonArrivals(rate), seed=seed)

    def test_rounds_actually_batch_under_backlog(self):
        res = self.run_batched()
        b = res.report.batching_summary()
        assert b["batched_rounds"] > 0
        assert b["max_round_vectors"] > 1
        assert b["rounds"] == len(res.rounds)

    def test_every_vector_completes_with_exact_accounting(self):
        res = self.run_batched()
        assert len(res.report.completed) == 16
        for r in res.report.completed:
            assert r.arrival_s <= r.dispatch_s <= r.sched_done_s <= r.complete_s
            assert r.round_id is not None and r.round_size >= 1

    def test_round_members_share_dispatch_timestamps(self):
        res = self.run_batched()
        by_round = {}
        for r in res.report.completed:
            by_round.setdefault(r.round_id, []).append(r)
        assert any(len(v) > 1 for v in by_round.values())
        for members in by_round.values():
            assert len({m.dispatch_s for m in members}) == 1
            assert len({m.sched_done_s for m in members}) == 1

    def test_unbatched_config_never_forms_rounds(self):
        res = self.run_batched(batch=1)
        b = res.report.batching_summary()
        assert b["batched_rounds"] == 0
        assert b["max_round_vectors"] == 1

    def test_batched_run_is_deterministic(self):
        a = self.run_batched().summary()
        b = self.run_batched().summary()
        assert a == b

    def test_batching_increases_reuse_on_overlapping_streams(self):
        # Same workload, same arrivals: scheduling overlapping vectors
        # in one round lets repeated tensors be placed once and reused.
        unbatched = self.run_batched(batch=1)
        batched = self.run_batched(batch=4)
        assert len(batched.report.completed) == len(unbatched.report.completed)
        assert (
            batched.metrics.counts.input_fetches
            <= unbatched.metrics.counts.input_fetches
        )

    def test_batch_memory_frac_bounds_round_size(self):
        # A tiny budget forbids joining: every round is a singleton.
        res = self.run_batched(serve_extra={"batch_memory_frac": 1e-6})
        assert res.report.batching_summary()["max_round_vectors"] == 1

    def test_rounds_log_in_json_report(self, tmp_path):
        import json

        res = self.run_batched()
        path = tmp_path / "report.json"
        res.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["rounds"] == res.rounds
        assert payload["summary"]["batching"]["rounds"] == len(res.rounds)

    def test_batch_lane_in_trace(self):
        res = self.run_batched()
        trace = res.to_trace()
        batch_events = trace.events_of("batch")
        assert batch_events  # at least one batched round rendered
        assert all(
            e.device <= -(res.metrics.num_devices + 1) for e in batch_events
        )


class TestBatchFaultDemux:
    """Device loss mid-round: recovery must stay exact per member."""

    def run_chaos(self, recover=True, batch=4):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1e-3, 0),))
        serve = ServeConfig(
            max_inflight=8, max_batch_vectors=batch, recover_faults=recover
        )
        server = make_server(serve)
        return server, server.run(make_vectors(12), [0.0] * 12, seed=0, faults=plan)

    def test_loss_mid_round_rescheds_only_orphaned_members(self):
        server, res = self.run_chaos()
        s = res.summary()
        assert s["completed"] == s["offered"]
        assert s["batching"]["batched_rounds"] > 0
        assert res.faults["rescheduled_pairs"] > 0
        # Only pairs assigned to the dead device were re-executed: the
        # re-scheduled count is bounded by the orphaned tensor count.
        for rec in res.report.completed:
            assert 0 not in rec.devices or rec.complete_s < 1e-3
        server.cluster.check_invariants()

    def test_recovery_off_sheds_only_affected_members(self):
        _, res = self.run_chaos(recover=False)
        s = res.summary()
        assert s["completed"] + s["dropped"] == s["offered"]
        assert s["dropped_by_reason"].get("fault-abandoned", 0) > 0
        assert res.faults["rescheduled_pairs"] == 0
        # Members of a partially failed round that had no pairs on the
        # dead device still complete (drop reasons are per-ticket).
        assert s["completed"] > 0

    def test_drop_reasons_exact_under_batching(self):
        _, res = self.run_chaos(recover=False)
        for d in res.report.dropped:
            assert d.reason in ("fault-abandoned", "queue-full")

    def test_batched_chaos_matches_unbatched_completion_count(self):
        _, batched = self.run_chaos(batch=4)
        _, unbatched = self.run_chaos(batch=1)
        assert (
            len(batched.report.completed)
            == len(unbatched.report.completed)
            == 12
        )


def anchored_runtimes(anchor):
    """The single loop's runtime, whose view is the cluster itself, and a
    ShardView-backed shard runtime, each with its reuse bounds anchored
    at ``anchor``."""
    server = make_server(ServeConfig())
    cluster = server.cluster
    shard = ShardView(cluster, range(2))
    for node, devices, view in ((None, range(4), cluster), (0, range(2), shard)):
        rt = server._runtime(
            node, devices, view, MiccoScheduler(ReuseBounds(0, 4, 0)), Fifo(), None
        )
        rt.bounds_anchor = anchor
        yield server, rt


class TestRescaleAnchoring:
    """Repeated pool changes must not drift the reuse bounds."""

    def test_round_trip_restores_exact_bounds(self):
        for server, rt in anchored_runtimes((ReuseBounds(1, 3, 5), 8)):
            # 8 -> 7 -> 5 -> 8: back at the anchor size, bit-exact bounds.
            server._rescale_bounds(rt, 8, 7)
            server._rescale_bounds(rt, 7, 5)
            server._rescale_bounds(rt, 5, 8)
            assert rt.scheduler.bounds == ReuseBounds(1, 3, 5)

    def test_chained_cycles_equal_single_rescale(self):
        anchor = (ReuseBounds(1, 3, 5), 8)
        sizes = [8, 7, 3, 6, 8, 2, 5, 8, 3]
        pairs = zip(anchored_runtimes(anchor), anchored_runtimes(anchor))
        for (server, walked), (_, direct) in pairs:
            for before, after in zip(sizes, sizes[1:]):
                server._rescale_bounds(walked, before, after)
            server._rescale_bounds(direct, 8, sizes[-1])
            assert walked.scheduler.bounds == direct.scheduler.bounds

    def test_idempotent_per_target_size(self):
        for server, rt in anchored_runtimes((ReuseBounds(0, 4, 0), 4)):
            server._rescale_bounds(rt, 4, 3)
            once = rt.scheduler.bounds
            server._rescale_bounds(rt, 4, 3)  # same transition again
            assert rt.scheduler.bounds == once

    def test_loss_then_restore_recovers_seed_bounds_end_to_end(self):
        # A run that loses a device still rescales from the anchor, so
        # the survivors' bounds match one direct 4->3 rescale exactly.
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.01, 2),))
        server = make_server(ServeConfig())
        server.run(make_vectors(12), PoissonArrivals(200.0), seed=0, faults=plan)
        assert server.scheduler.bounds == ReuseBounds(0, 4, 0).rescaled(4, 3)
