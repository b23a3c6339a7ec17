"""Latency accounting and SLO metrics for online serving runs.

Each completed vector yields a :class:`VectorLatency` splitting its
sojourn time into queue wait, scheduling and execution; shed vectors
are recorded separately.  :class:`LatencyReport` aggregates them into
tail percentiles (p50/p95/p99), windowed throughput and drop rate, and
exports to JSON or to the existing Chrome-trace format
(:class:`~repro.gpusim.trace.TraceRecorder`) where every vector is one
lane showing its wait → schedule → execute spans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.trace import TraceRecorder
from repro.reporting import dump_json
from repro.serve.timeline import Ticket


@dataclass(frozen=True)
class VectorLatency:
    """Latency breakdown of one served vector (simulated seconds)."""

    vector_id: int
    arrival_s: float
    dispatch_s: float
    sched_done_s: float
    complete_s: float
    pairs: int
    devices: tuple[int, ...] = ()
    #: Owning tenant name (``None`` for single-tenant runs).
    tenant: str | None = None
    #: Scheduling round the vector was dispatched in (``None`` for runs
    #: predating batched rounds) and how many vectors that round held.
    round_id: int | None = None
    round_size: int = 1

    @property
    def queue_wait_s(self) -> float:
        return self.dispatch_s - self.arrival_s

    @property
    def schedule_s(self) -> float:
        return self.sched_done_s - self.dispatch_s

    @property
    def execute_s(self) -> float:
        return self.complete_s - self.sched_done_s

    @property
    def latency_s(self) -> float:
        """End-to-end sojourn time: arrival → completion."""
        return self.complete_s - self.arrival_s


@dataclass(frozen=True)
class DroppedVector:
    """A vector shed without completing, with the reason it was shed.

    ``"queue-full"`` vectors were rejected at admission and never
    executed; ``"predicted-infeasible"`` vectors were shed by the
    fault-aware admission gate (completion probability under the live
    fault rate fell below threshold, see
    :class:`~repro.serve.queueing.FaultAware`) and never executed
    either; ``"fault-abandoned"`` vectors were admitted but could not
    be completed (retry budget exhausted, or no devices left).
    """

    vector_id: int
    arrival_s: float
    pairs: int
    reason: str = "queue-full"
    tenant: str | None = None


class LatencyReport:
    """Aggregated per-vector latency records of one serving run."""

    def __init__(self):
        self.completed: list[VectorLatency] = []
        self.dropped: list[DroppedVector] = []

    # ------------------------------------------------------------- recording
    def add_completion(self, ticket: Ticket) -> VectorLatency:
        rec = VectorLatency(
            vector_id=ticket.vector.vector_id,
            arrival_s=ticket.arrival_s,
            dispatch_s=ticket.dispatch_s,
            sched_done_s=ticket.sched_done_s,
            complete_s=ticket.complete_s,
            pairs=len(ticket.vector.pairs),
            devices=tuple(ticket.devices),
            tenant=ticket.tenant,
            round_id=ticket.round_id,
            round_size=ticket.round_size,
        )
        self.completed.append(rec)
        return rec

    def add_drop(self, ticket: Ticket, reason: str = "queue-full") -> DroppedVector:
        rec = DroppedVector(
            vector_id=ticket.vector.vector_id,
            arrival_s=ticket.arrival_s,
            pairs=len(ticket.vector.pairs),
            reason=reason,
            tenant=ticket.tenant,
        )
        self.dropped.append(rec)
        return rec

    # ---------------------------------------------------------- tenant views
    def tenant_names(self) -> list[str]:
        """Distinct tenant names seen in the records, sorted."""
        names = {r.tenant for r in self.completed} | {r.tenant for r in self.dropped}
        return sorted(n for n in names if n is not None)

    def for_tenant(self, tenant: str | None) -> "LatencyReport":
        """Sub-report holding only ``tenant``'s records.

        The returned report shares record objects with the parent (it
        is a filtered view, cheap to build per tenant).
        """
        sub = LatencyReport()
        sub.completed = [r for r in self.completed if r.tenant == tenant]
        sub.dropped = [r for r in self.dropped if r.tenant == tenant]
        return sub

    def completed_after(self, t_s: float) -> "LatencyReport":
        """Sub-report of vectors that *completed* at or after ``t_s``.

        A filtered view sharing record objects with the parent, like
        :meth:`for_tenant`.  Chaos analyses use it to compare post-loss
        recovery latency (e.g. warm vs cold restore after a node dies)
        without the pre-fault steady state diluting the tail.  Drops
        are filtered on arrival time (a shed vector never completes).
        """
        sub = LatencyReport()
        sub.completed = [r for r in self.completed if r.complete_s >= t_s]
        sub.dropped = [r for r in self.dropped if r.arrival_s >= t_s]
        return sub

    def drops_by_reason(self) -> dict[str, int]:
        """Shed counts keyed by reason, keys sorted for stable JSON."""
        counts: dict[str, int] = {}
        for r in self.dropped:
            counts[r.reason] = counts.get(r.reason, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    # ------------------------------------------------------------ aggregates
    @property
    def offered(self) -> int:
        """Vectors that arrived (completed + shed)."""
        return len(self.completed) + len(self.dropped)

    @property
    def drop_rate(self) -> float:
        return len(self.dropped) / self.offered if self.offered else 0.0

    def latencies(self) -> np.ndarray:
        return np.array([r.latency_s for r in self.completed])

    def percentile(self, p: float) -> float:
        """End-to-end latency percentile ``p`` (0–100); NaN when empty."""
        if not 0 <= p <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
        if not self.completed:
            return float("nan")
        return float(np.percentile(self.latencies(), p))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_latency_s(self) -> float:
        return float(self.latencies().mean()) if self.completed else float("nan")

    def latency_stats(self) -> dict[str, float]:
        """``p50_s``, ``p95_s``, ``p99_s`` and ``mean_latency_s`` from one
        latency array; each equals its property bit for bit (NaN when
        nothing completed)."""
        if not self.completed:
            nan = float("nan")
            return {"p50_s": nan, "p95_s": nan, "p99_s": nan, "mean_latency_s": nan}
        lat = self.latencies()
        return {
            "p50_s": float(np.percentile(lat, 50)),
            "p95_s": float(np.percentile(lat, 95)),
            "p99_s": float(np.percentile(lat, 99)),
            "mean_latency_s": float(lat.mean()),
        }

    @property
    def makespan_s(self) -> float:
        """Last completion timestamp (0 when nothing completed)."""
        return max((r.complete_s for r in self.completed), default=0.0)

    def throughput_timeline(self, window_s: float) -> list[dict]:
        """Completions bucketed into ``window_s``-wide time windows.

        Returns one record per window from t=0 through the makespan:
        ``{"t_start_s", "t_end_s", "completions", "rate"}``.
        """
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        span = self.makespan_s
        if span <= 0:
            return []
        n_windows = int(np.ceil(span / window_s))
        counts = [0] * n_windows
        for r in self.completed:
            counts[min(int(r.complete_s // window_s), n_windows - 1)] += 1
        return [
            {
                "t_start_s": i * window_s,
                "t_end_s": (i + 1) * window_s,
                "completions": c,
                "rate": c / window_s,
            }
            for i, c in enumerate(counts)
        ]

    def batching_summary(self) -> dict:
        """Batched-round occupancy and amortized-dispatch metrics.

        ``rounds`` counts distinct scheduling rounds among the
        completions; ``mean_round_vectors`` is the mean batch occupancy
        (vectors coalesced per round); ``amortized_schedule_s`` is the
        mean scheduling latency a vector pays *divided by its round's
        occupancy* — the per-vector dispatch cost after amortization
        across the round.  Unbatched runs degenerate to one round per
        vector and an amortized cost equal to the plain mean.
        """
        rounds: dict[int, int] = {}
        for r in self.completed:
            if r.round_id is not None:
                rounds[r.round_id] = max(rounds.get(r.round_id, 0), r.round_size)
        n = len(rounds)
        return {
            "rounds": n,
            "batched_rounds": sum(1 for size in rounds.values() if size > 1),
            "mean_round_vectors": (sum(rounds.values()) / n) if n else 0.0,
            "max_round_vectors": max(rounds.values(), default=0),
            "amortized_schedule_s": (
                float(np.mean([r.schedule_s / r.round_size for r in self.completed]))
                if self.completed
                else float("nan")
            ),
        }

    def summary(self) -> dict:
        """Flat dict of the headline SLO numbers."""
        span = self.makespan_s
        return {
            "offered": self.offered,
            "completed": len(self.completed),
            "dropped": len(self.dropped),
            "dropped_by_reason": self.drops_by_reason(),
            "drop_rate": self.drop_rate,
            **self.latency_stats(),
            "mean_queue_wait_s": (
                float(np.mean([r.queue_wait_s for r in self.completed]))
                if self.completed
                else float("nan")
            ),
            "makespan_s": span,
            "throughput_vps": len(self.completed) / span if span > 0 else 0.0,
            "batching": self.batching_summary(),
        }

    # --------------------------------------------------------------- exports
    def to_json(self, path: str | Path, *, extra: dict | None = None) -> None:
        """Write summary + per-vector records (and optional extras)."""
        payload = {
            "summary": self.summary(),
            "completed": [asdict(r) for r in self.completed],
            "dropped": [asdict(r) for r in self.dropped],
        }
        if extra:
            payload.update(extra)
        dump_json(path, payload)

    def to_trace(self) -> TraceRecorder:
        """Chrome-trace view: one lane per vector, wait→schedule→execute."""
        trace = TraceRecorder()
        for r in self.completed:
            lane = r.vector_id
            label = f"v{r.vector_id}"
            trace.record_at("wait", lane, r.arrival_s, r.queue_wait_s, label=label)
            trace.record_at("schedule", lane, r.dispatch_s, r.schedule_s, label=label)
            trace.record_at("execute", lane, r.sched_done_s, r.execute_s, label=label)
        return trace
