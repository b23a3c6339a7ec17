"""Online serving facade: arrivals → admission queue → scheduler → devices.

:class:`MiccoServer` layers a discrete-event loop over the existing
batch machinery (any :class:`~repro.schedulers.base.Scheduler` plus the
:class:`~repro.gpusim.engine.ExecutionEngine`): vectors arrive over
simulated time, wait in a bounded :class:`AdmissionQueue`, are
dispatched one scheduling slot at a time, and execute on devices whose
busy-until horizons are derived from the cost model — so device compute
overlaps later arrivals exactly as on real hardware.

With :attr:`ServeConfig.tenants` set, the same loop runs multi-tenant:
several :class:`~repro.serve.tenancy.TenantSpec` arrival streams are
interleaved into one timeline, admission runs weighted-fair across the
tenants, and the report carries per-tenant tails and SLO attainment
alongside the global numbers.  An optional
:class:`~repro.serve.autoscale.Autoscaler` grows and shrinks the alive
device pool from queue-depth and windowed-p99 signals.

Everything is simulated and seeded: a fixed seed reproduces the same
arrival trace, the same scheduling and scaling decisions and the same
latency percentiles, bit for bit.
"""

from __future__ import annotations

import itertools
import json
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.journal import ResidencyJournal
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.gpusim.cluster import ClusterState
from repro.gpusim.device import mi100_like
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.trace import TraceConfig, TraceRecorder
from repro.integrity import IntegrityConfig, IntegrityState
from repro.reporting import dump_json
from repro.schedulers.base import Scheduler
from repro.schedulers.batching import (
    batch_shape_key,
    merge_vectors,
    split_assignment,
)
from repro.schedulers.micco import MiccoScheduler
from repro.serve.arrivals import ArrivalProcess, TraceArrivals
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.health import HealthConfig, HedgePair, hedge_shielded
from repro.serve.queueing import (
    QUEUE_POLICIES,
    AdmissionQueue,
    FaultAware,
    QueuePolicy,
    WeightedFair,
    make_policy,
)
from repro.serve.slo import LatencyReport
from repro.serve.tenancy import TenantSpec, TenantStream, build_streams, tenant_sections
from repro.serve.timeline import (
    BatchRound,
    DeviceOnline,
    DeviceRestore,
    DigestSync,
    HealthTick,
    SchedulingDone,
    Ticket,
    Timeline,
    VectorArrival,
    VectorCompletion,
)
from repro.tensor.spec import VectorSpec
from repro.workloads.characteristics import CharacteristicsTracker

if TYPE_CHECKING:  # repro.serve.sharded imports this module
    from repro.serve.health import AdaptiveHedgeDeadline, HealthMonitor
    from repro.serve.sharded.node import NodeRuntime
    from repro.serve.sharded.server import GlobalScheduler


@dataclass(frozen=True)
class ServeConfig:
    """Single source of truth for a serving run (cluster knobs aside).

    Everything the serving layer needs nests here — queue and inflight
    knobs, the tenant roster, the autoscaler policy and a fault plan —
    and the whole object round-trips through JSON
    (:meth:`to_json` / :meth:`from_json`), which is what
    ``micco serve --config cfg.json`` loads.  Cluster and cost-model
    knobs stay in :class:`~repro.core.config.MiccoConfig`.

    Parameters
    ----------
    queue_capacity:
        Bounded admission-queue depth; arrivals beyond it are shed.
    queue_policy:
        A :class:`~repro.serve.queueing.QueuePolicy` instance or one of
        ``"auto"``, ``"fifo"``, ``"sjf"``, ``"weighted"``.  ``"auto"``
        resolves to FIFO for single-tenant runs and to weighted-fair
        (weights from the tenant specs) when tenants are configured.
    max_inflight:
        Vectors dispatched but not yet complete.  1 models the paper's
        single sequential scheduling thread; higher values pipeline
        scheduling of one vector under execution of the previous.
    schedule_latency_per_pair_s:
        Simulated scheduling cost per pair (Table V measures ~10µs-scale
        per-pair decision overhead); deterministic by construction so
        repeated runs produce identical latencies.
    recover_faults:
        When a fault plan is active and a device is lost, re-schedule
        the in-flight pairs that were assigned to it onto the survivors
        (default).  With recovery off, affected vectors are shed with
        reason ``"fault-abandoned"`` instead — the baseline a chaos run
        compares against.
    tenants:
        Tenant roster; non-empty enables multi-tenant serving (streams
        drawn from the specs by :meth:`MiccoServer.run`).
    autoscaler:
        Pool autoscaling policy; ``None`` keeps the pool fixed.
    faults:
        Fault plan injected during the run (an explicit ``faults=``
        argument to :meth:`MiccoServer.run` takes precedence).
    warm_restore:
        Attach a :class:`~repro.faults.journal.ResidencyJournal` to the
        cluster for the run and replay it onto every device that comes
        online (autoscale warm-up, loss replacement): the journal's
        hottest currently-homeless tensors are pre-loaded into free
        memory before the device takes traffic, instead of each being
        re-fetched from the host on the next vectors' critical path.
    journal_capacity:
        Retained residency-delta window of the journal (entries).
    prewarm_fraction:
        At most this fraction of an activating device's memory may be
        filled by warm restore (the rest stays free for live traffic).
    fault_aware_admission:
        Wrap the dispatch policy in
        :class:`~repro.serve.queueing.FaultAware`: vectors whose
        estimated completion probability (from the live fault rate and
        the surviving pool fraction) falls below
        ``admission_min_success`` are shed at admission with reason
        ``"predicted-infeasible"`` instead of burning device time and
        being fault-abandoned mid-run.
    admission_min_success:
        Completion-probability threshold of the fault-aware gate.
    max_batch_vectors:
        Upper bound on queued vectors coalesced into one *scheduling
        round* at dispatch.  1 (default) disables batching; higher
        values let the dispatcher merge compatible vectors (same
        workload shape family, combined footprint within
        ``batch_memory_frac``) into one super-vector scheduled together
        — repeated tensors are placed once and reused across the round
        — then de-multiplexed back into per-vector completions so
        per-ticket latency, SLO and fault accounting stay exact.
    batch_memory_frac:
        Fraction of the *alive* pool's combined device memory a round's
        unique tensor footprint may occupy.  The batch assembler stops
        adding members when the next one would cross this budget.
    sharded:
        Run the two-level sharded control plane
        (:class:`~repro.serve.sharded.ShardedServer`): a global router
        admits and routes tickets to per-node local schedulers, each
        owning only its node's devices.  Requires a multi-node
        :class:`~repro.gpusim.topology.Topology` on the cost model.
    sync_interval_s:
        How often (simulated seconds) node runtimes report load/
        residency digests back to the global router.  Between syncs the
        router works from deliberately stale summaries.
    routing:
        Global routing policy name — one of
        :data:`~repro.serve.sharded.routing.ROUTING_POLICIES`
        (``"least-loaded"``, ``"residency-affinity"``,
        ``"threshold-local"``, ``"learned"``).  Unknown names fail at
        config-parse time, not after the run has started.
    explore_floor:
        Learned routing only: probability in ``[0, 1)`` that a warm
        decision picks a uniform-random candidate instead of the
        argmin predicted latency, so every shard keeps getting sampled
        (a recovered shard can be re-discovered).  Drawn from the
        run-seeded exploration stream — fixed seeds replay
        byte-identically.
    min_samples:
        Learned routing only: observed completions required on *every*
        candidate shard's model before predictions are trusted; below
        it routing falls back to the least-loaded ranking (cold start).
    refit_interval:
        Learned routing only: observations between incremental refits
        of a shard's sliding-window latency model.
    health:
        Gray-failure health subsystem
        (:class:`~repro.serve.health.HealthConfig`): heartbeat-driven
        suspicion tracking, quarantine/probation lifecycle, forwarding
        circuit breakers and (optionally) hedged dispatch on the
        sharded control plane.  ``None`` (default) disables health
        inference — gray faults then go entirely unnoticed by the
        router.
    trace:
        Engine trace recording (:class:`~repro.gpusim.trace.TraceConfig`):
        ``"report"`` (default, lazy report-derived Chrome traces, no
        recorder), ``"full"`` / ``"sampling"`` (attach a recorder with
        the matching sink — opts execution out of the trace-free fast
        path), or ``"off"`` (no traces at all).  ``None`` means
        ``"report"``.
    integrity:
        Result-integrity subsystem
        (:class:`~repro.integrity.IntegrityConfig`): checksum lineage
        over tensor copies, sampled audit recomputation of completed
        pairs on other devices (``spot`` / ``suspect-full``), taint
        invalidation + repair with exact SLO accounting, and per-device
        corruption blame with quarantine.  ``None`` (default) disables
        integrity checking — silent corruption then reaches reported
        completions unnoticed.
    """

    queue_capacity: int = 64
    queue_policy: QueuePolicy | str = "auto"
    max_inflight: int = 1
    schedule_latency_per_pair_s: float = 2e-5
    recover_faults: bool = True
    tenants: tuple[TenantSpec, ...] = ()
    autoscaler: AutoscalerConfig | None = None
    faults: FaultPlan | None = None
    warm_restore: bool = False
    journal_capacity: int = 4096
    prewarm_fraction: float = 0.5
    fault_aware_admission: bool = False
    admission_min_success: float = 0.5
    max_batch_vectors: int = 1
    batch_memory_frac: float = 0.5
    sharded: bool = False
    sync_interval_s: float = 0.05
    routing: str = "least-loaded"
    explore_floor: float = 0.05
    min_samples: int = 24
    refit_interval: int = 16
    health: HealthConfig | None = None
    trace: TraceConfig | None = None
    integrity: IntegrityConfig | None = None

    def __post_init__(self):
        if self.queue_capacity <= 0:
            raise ConfigurationError(f"queue_capacity must be > 0, got {self.queue_capacity}")
        if isinstance(self.queue_policy, str):
            if self.queue_policy not in QUEUE_POLICIES + ("auto",):
                raise ConfigurationError(
                    f"unknown queue policy {self.queue_policy!r}; expected a QueuePolicy "
                    f"or one of {QUEUE_POLICIES + ('auto',)}"
                )
        elif not isinstance(self.queue_policy, QueuePolicy):
            raise ConfigurationError(
                f"queue_policy must be a QueuePolicy or a name, got {self.queue_policy!r}"
            )
        if self.max_inflight < 1:
            raise ConfigurationError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.schedule_latency_per_pair_s < 0:
            raise ConfigurationError(
                f"schedule_latency_per_pair_s must be >= 0, got {self.schedule_latency_per_pair_s}"
            )
        if self.journal_capacity < 1:
            raise ConfigurationError(
                f"journal_capacity must be >= 1, got {self.journal_capacity}"
            )
        if not 0 < self.prewarm_fraction <= 1:
            raise ConfigurationError(
                f"prewarm_fraction must be in (0, 1], got {self.prewarm_fraction}"
            )
        if not 0 < self.admission_min_success < 1:
            raise ConfigurationError(
                f"admission_min_success must be in (0, 1), got {self.admission_min_success}"
            )
        if self.max_batch_vectors < 1:
            raise ConfigurationError(
                f"max_batch_vectors must be >= 1, got {self.max_batch_vectors}"
            )
        if not 0 < self.batch_memory_frac <= 1:
            raise ConfigurationError(
                f"batch_memory_frac must be in (0, 1], got {self.batch_memory_frac}"
            )
        if self.sync_interval_s <= 0:
            raise ConfigurationError(
                f"sync_interval_s must be > 0, got {self.sync_interval_s}"
            )
        # Imported lazily: repro.serve.sharded imports this module.
        from repro.serve.sharded.routing import ROUTING_POLICIES

        if self.routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {self.routing!r}; expected one of {ROUTING_POLICIES}"
            )
        if not 0 <= self.explore_floor < 1:
            raise ConfigurationError(
                f"explore_floor must be in [0, 1), got {self.explore_floor}"
            )
        if self.min_samples < 2:
            raise ConfigurationError(
                f"min_samples must be >= 2, got {self.min_samples}"
            )
        if self.refit_interval < 1:
            raise ConfigurationError(
                f"refit_interval must be >= 1, got {self.refit_interval}"
            )
        if self.health is not None and not isinstance(self.health, HealthConfig):
            raise ConfigurationError(
                f"health must be a HealthConfig or None, got {self.health!r}"
            )
        if self.trace is not None and not isinstance(self.trace, TraceConfig):
            raise ConfigurationError(
                f"trace must be a TraceConfig or None, got {self.trace!r}"
            )
        if self.integrity is not None and not isinstance(self.integrity, IntegrityConfig):
            raise ConfigurationError(
                f"integrity must be an IntegrityConfig or None, got {self.integrity!r}"
            )
        object.__setattr__(self, "tenants", tuple(self.tenants))
        for t in self.tenants:
            if not isinstance(t, TenantSpec):
                raise ConfigurationError(f"tenants entries must be TenantSpec, got {t!r}")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"tenant names must be unique, got {names}")

    def with_(self, **kwargs) -> "ServeConfig":
        """Copy with overrides (sweep convenience)."""
        return replace(self, **kwargs)

    #: Schema version :meth:`to_json` writes.  Version 2 added the
    #: resilience knobs (``warm_restore``/``journal_capacity``/
    #: ``prewarm_fraction``/``fault_aware_admission``/
    #: ``admission_min_success``); version 3 added the batching knobs
    #: (``max_batch_vectors``/``batch_memory_frac``); version 4 added
    #: the sharded-control-plane knobs (``sharded``/``sync_interval_s``/
    #: ``routing``); version 5 added the ``health`` block (heartbeat
    #: health tracking, circuit breakers, hedged dispatch); version 6
    #: added the ``trace`` block (engine trace sink selection); version
    #: 7 added the ``integrity`` block (checksum lineage, audit
    #: recomputation, blame-driven quarantine); version 8 added the
    #: learned-routing knobs (``explore_floor``/``min_samples``/
    #: ``refit_interval``).  Older files still load with the later
    #: versions' knobs at their defaults.
    CONFIG_VERSION = 8

    # ------------------------------------------------------------ persistence
    def to_dict(self) -> dict:
        policy = self.queue_policy
        return {
            "queue_capacity": self.queue_capacity,
            "queue_policy": policy if isinstance(policy, str) else policy.name,
            "max_inflight": self.max_inflight,
            "schedule_latency_per_pair_s": self.schedule_latency_per_pair_s,
            "recover_faults": self.recover_faults,
            "tenants": [t.to_dict() for t in self.tenants],
            "autoscaler": self.autoscaler.to_dict() if self.autoscaler else None,
            "faults": self.faults.to_dicts() if self.faults else None,
            "warm_restore": self.warm_restore,
            "journal_capacity": self.journal_capacity,
            "prewarm_fraction": self.prewarm_fraction,
            "fault_aware_admission": self.fault_aware_admission,
            "admission_min_success": self.admission_min_success,
            "max_batch_vectors": self.max_batch_vectors,
            "batch_memory_frac": self.batch_memory_frac,
            "sharded": self.sharded,
            "sync_interval_s": self.sync_interval_s,
            "routing": self.routing,
            "explore_floor": self.explore_floor,
            "min_samples": self.min_samples,
            "refit_interval": self.refit_interval,
            "health": self.health.to_dict() if self.health else None,
            "trace": self.trace.to_dict() if self.trace else None,
            "integrity": self.integrity.to_dict() if self.integrity else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ServeConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"serve config must be a JSON object, got {d!r}")
        version = d.get("version", cls.CONFIG_VERSION)
        if version not in (1, 2, 3, 4, 5, 6, 7, 8):
            raise ConfigurationError(
                f"unsupported serve config version {version!r}; this build reads 1 through 8"
            )
        known = {
            "queue_capacity", "queue_policy", "max_inflight",
            "schedule_latency_per_pair_s", "recover_faults",
            "tenants", "autoscaler", "faults", "version",
        }
        v2_keys = {
            "warm_restore", "journal_capacity", "prewarm_fraction",
            "fault_aware_admission", "admission_min_success",
        }
        v3_keys = {"max_batch_vectors", "batch_memory_frac"}
        v4_keys = {"sharded", "sync_interval_s", "routing"}
        v5_keys = {"health"}
        v6_keys = {"trace"}
        v7_keys = {"integrity"}
        v8_keys = {"explore_floor", "min_samples", "refit_interval"}
        if version >= 2:
            known |= v2_keys
        if version >= 3:
            known |= v3_keys
        if version >= 4:
            known |= v4_keys
        if version >= 5:
            known |= v5_keys
        if version >= 6:
            known |= v6_keys
        if version >= 7:
            known |= v7_keys
        if version >= 8:
            known |= v8_keys
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown serve config keys: {sorted(unknown)}")
        kwargs = {
            k: d[k]
            for k in (
                "queue_capacity", "queue_policy", "max_inflight",
                "schedule_latency_per_pair_s", "recover_faults",
                *sorted(v2_keys),
                *sorted(v3_keys),
                *sorted(v4_keys),
                *sorted(v8_keys),
            )
            if k in d
        }
        if d.get("tenants"):
            kwargs["tenants"] = tuple(TenantSpec.from_dict(t) for t in d["tenants"])
        if d.get("autoscaler"):
            kwargs["autoscaler"] = AutoscalerConfig.from_dict(d["autoscaler"])
        if d.get("faults"):
            kwargs["faults"] = FaultPlan.from_dicts(d["faults"])
        if d.get("health"):
            kwargs["health"] = HealthConfig.from_dict(d["health"])
        if d.get("trace"):
            kwargs["trace"] = TraceConfig.from_dict(d["trace"])
        if d.get("integrity"):
            kwargs["integrity"] = IntegrityConfig.from_dict(d["integrity"])
        return cls(**kwargs)

    def to_json(self, path: str | Path) -> None:
        """Write the full config; :meth:`from_json` round-trips it."""
        dump_json(path, {"version": self.CONFIG_VERSION, **self.to_dict()})

    @classmethod
    def from_json(cls, path: str | Path) -> "ServeConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class ServeResult:
    """Outcome of one online serving run."""

    report: LatencyReport
    metrics: ExecutionMetrics
    #: Admission-queue counter snapshot (admitted/dropped/peak depth).
    queue: dict = field(default_factory=dict)
    #: Absolute arrival timestamps actually offered (chronological).
    arrival_s: list[float] = field(default_factory=list)
    #: Fault section (``FaultStats.summary``); ``None`` without a plan.
    faults: dict | None = None
    #: Replayable fault/retry/recovery event log (empty without a plan).
    fault_events: list[dict] = field(default_factory=list)
    #: Per-tenant sections (summary + SLO attainment); ``None`` for
    #: single-tenant runs.
    tenants: dict | None = None
    #: Autoscaler section (actions, scale counts); ``None`` without one.
    autoscale: dict | None = None
    #: Residency-journal section (restores, prewarmed tensors);
    #: ``None`` unless :attr:`ServeConfig.warm_restore` was on.
    journal: dict | None = None
    #: Per-round dispatch log: one record per scheduling round
    #: (``round_id``, member vector ids, pair count, dispatch/sched-done
    #: timestamps).  Singleton rounds are logged too, so the log always
    #: covers every dispatch.
    rounds: list[dict] = field(default_factory=list)
    #: Sharded-control-plane section (routing counters, per-shard
    #: records); ``None`` for single-control-plane runs.
    sharding: dict | None = None
    #: Health-subsystem section (suspicion timeline, quarantine
    #: episodes, hedge/breaker counters); ``None`` unless
    #: :attr:`ServeConfig.health` was set on a sharded run.
    health: dict | None = None
    #: Replayable health/hedge/breaker event log (empty without the
    #: health subsystem).
    health_events: list[dict] = field(default_factory=list)
    #: Result-integrity section (injected/detected/escaped counters,
    #: audit overhead, blame log); ``None`` unless
    #: :attr:`ServeConfig.integrity` enabled a mode other than ``off``.
    integrity: dict | None = None
    #: Timeline events processed by the serving loop (control-plane
    #: work, the denominator of the events/sec benchmark figure).
    events_processed: int = 0
    #: Learned-routing section (decision/exploration counters, per-shard
    #: sample counts, refits and mean absolute prediction error);
    #: ``None`` unless :attr:`ServeConfig.routing` is ``"learned"``.
    routing: dict | None = None
    #: Replayable learned-routing event log — model refits and the
    #: cold-start→warm transition (empty for static policies).
    routing_events: list[dict] = field(default_factory=list)
    #: Engine-level event recorder for the run; populated only when
    #: :attr:`ServeConfig.trace` selects ``"full"`` or ``"sampling"``.
    engine_trace: TraceRecorder | None = None
    #: Trace mode the run was configured with (``TraceConfig.mode``).
    trace_mode: str = "report"

    @property
    def p99(self) -> float:
        return self.report.p99

    @property
    def dropped(self) -> int:
        return len(self.report.dropped)

    def tenant_report(self, name: str) -> LatencyReport:
        """Per-tenant latency-report view (see :meth:`LatencyReport.for_tenant`)."""
        return self.report.for_tenant(name)

    def summary(self) -> dict:
        """Headline SLO numbers plus engine counters."""
        out = self.report.summary()
        out["queue"] = dict(self.queue)
        out["gflops"] = self.metrics.gflops
        out["reuse_hits"] = self.metrics.counts.reuse_hits
        out["transfers"] = self.metrics.counts.input_fetches
        if self.faults is not None:
            out["faults"] = self.faults
        if self.tenants is not None:
            out["tenants"] = self.tenants
        if self.autoscale is not None:
            out["autoscale"] = self.autoscale
        if self.journal is not None:
            out["journal"] = self.journal
        if self.sharding is not None:
            out["sharding"] = self.sharding
        if self.health is not None:
            out["health"] = self.health
        if self.integrity is not None:
            out["integrity"] = self.integrity
        if self.routing is not None:
            out["routing"] = self.routing
        out["events_processed"] = self.events_processed
        return out

    def to_json(self, path: str | Path, *, extra: dict | None = None) -> None:
        """Write the full result: summary, per-vector records, sections."""
        payload = {
            "summary": self.summary(),
            "completed": [asdict(r) for r in self.report.completed],
            "dropped": [asdict(r) for r in self.report.dropped],
        }
        if self.faults is not None:
            payload["faults"] = self.faults
            payload["fault_events"] = self.fault_events
        if self.tenants is not None:
            payload["tenants"] = self.tenants
        if self.autoscale is not None:
            payload["autoscale"] = self.autoscale
        if self.journal is not None:
            payload["journal"] = self.journal
        if self.sharding is not None:
            payload["sharding"] = self.sharding
        if self.health is not None:
            payload["health"] = self.health
            payload["health_events"] = self.health_events
        if self.integrity is not None:
            payload["integrity"] = self.integrity
        if self.routing is not None:
            payload["routing"] = self.routing
            payload["routing_events"] = self.routing_events
        if self.rounds:
            payload["rounds"] = self.rounds
        if extra:
            payload.update(extra)
        dump_json(path, payload)

    def to_trace(self) -> TraceRecorder:
        """Chrome-trace view: vector lifecycle lanes plus pool events.

        Fault and autoscale events render on lane ``-(device + 1)``,
        batched scheduling rounds on a ``batch`` lane block below the
        device lanes (``-(num_devices + 1 + round_id)``), and health /
        hedge / breaker events on a per-node lane block far below both
        (``-(100_000 + node)``), and learned-routing events (refits,
        warm-up) on their own per-node block below that
        (``-(200_000 + node)``), so none of them collide with the
        per-vector lanes (vector ids are non-negative).

        With :attr:`trace_mode` ``"off"`` an empty recorder is returned
        (nothing is rendered).  Engine-level device events, when
        recorded, stay on :attr:`engine_trace` — their device lanes use
        the same ids as the vector lanes, so they are deliberately not
        merged here.
        """
        if self.trace_mode == "off":
            return TraceRecorder()
        trace = self.report.to_trace()
        for rnd in self.rounds:
            if len(rnd["members"]) < 2:
                continue  # singleton rounds add nothing over the vector lanes
            trace.record_at(
                "batch",
                -(self.metrics.num_devices + 1 + rnd["round_id"]),
                rnd["dispatch_s"],
                rnd["sched_done_s"] - rnd["dispatch_s"],
                label=f"round {rnd['round_id']}: v{rnd['members']}",
            )
        for ev in self.fault_events:
            trace.record_at(
                ev["kind"],
                -(ev["device"] + 1),
                ev["time_s"],
                ev["duration_s"],
                label=ev["label"],
            )
        for act in (self.autoscale or {}).get("actions", ()):
            trace.record_at(
                f"scale-{act['action']}",
                -(act["device"] + 1),
                act["time_s"],
                0.0,
                label=act["reason"] or act["action"],
            )
        for ev in self.health_events:
            trace.record_at(
                ev["kind"],
                -(100_000 + ev["node"]),
                ev["time_s"],
                0.0,
                label=ev["label"],
            )
        for ev in self.routing_events:
            trace.record_at(
                f"routing-{ev['kind']}",
                -(200_000 + ev["node"]),
                ev["time_s"],
                0.0,
                label=ev["label"],
            )
        return trace


# Depth counter for the supported construction path: while positive,
# server __init__ skips the direct-construction DeprecationWarning.
# ``repro.serve.api`` wraps every instantiation in ``_api_construction``.
_api_depth = 0


@contextmanager
def _api_construction():
    """Mark server construction as coming through ``repro.serve.api``."""
    global _api_depth
    _api_depth += 1
    try:
        yield
    finally:
        _api_depth -= 1


@dataclass(eq=False)
class RunState:
    """Mutable state of one serving run, shared by every event handler.

    :meth:`MiccoServer._serve` builds one per run; the handlers and the
    recovery helpers take it instead of long parameter lists.  The
    router and health fields stay empty for an unsharded run.
    """

    timeline: Timeline
    report: LatencyReport
    total: ExecutionMetrics
    #: Device busy-until horizons indexed by device id (the cluster's list).
    busy_until: list[float]
    injector: FaultInjector | None
    integ: IntegrityState | None
    journal: ResidencyJournal | None
    #: Re-derive the reuse bounds per round from the predictor.
    wants_bounds: bool
    #: node -> runtime: ``{None: rt}`` over every device when
    #: unsharded, one runtime per topology node when sharded.
    runtimes: dict = field(default_factory=dict)
    #: device -> owning runtime.
    owner: dict = field(default_factory=dict)
    #: Runtimes with an autoscaler, in node order (the ones the loop steps).
    scaled: list = field(default_factory=list)
    #: Fault-aware admission gate (``observe()`` is fed the live fault
    #: picture at every arrival); ``None`` when not configured.
    gate: FaultAware | None = None
    #: Tickets dispatched and executed, completion event still ahead
    #: (the set device loss or scale-down can orphan work out of).
    pending: dict = field(default_factory=dict)
    #: ``id(ticket)`` of tickets audited and repaired this epoch: their
    #: re-pushed completion skips a second audit.
    verified: set = field(default_factory=set)
    round_ids: itertools.count = field(default_factory=itertools.count)
    rounds_log: list = field(default_factory=list)
    events_processed: int = 0
    #: Tie-break number of the run's first arrival (see Timeline.reserve).
    arrival_seq: int = 0
    # ----- sharded control plane: global router and health state -----
    router: GlobalScheduler | None = None
    monitor: HealthMonitor | None = None
    #: node -> forwarding circuit breaker, and their shared transition log.
    breakers: dict = field(default_factory=dict)
    breaker_log: list = field(default_factory=list)
    hedger: AdaptiveHedgeDeadline | None = None
    #: Hedge counters (the health section's ``hedges``).
    hstats: dict = field(
        default_factory=lambda: dict.fromkeys(
            ("launched", "won_by_primary", "won_by_clone", "cancelled",
             "absorbed_drops", "unplaced"),
            0,
        )
    )
    #: Health, hedge and blame events for the trace's health lanes.
    health_events: list = field(default_factory=list)


class MiccoServer:
    """An online serving instance: one scheduler on one simulated node.

    Parameters
    ----------
    scheduler:
        Any pair→GPU scheduler (default: :class:`MiccoScheduler`).
    config:
        Cluster + cost-model configuration shared with the batch path.
    serve:
        Serving-layer configuration (queue, inflight window, dispatch
        latency, tenants, autoscaler, fault plan).
    predictor:
        Optional reuse-bound predictor; consulted per vector when the
        scheduler exposes ``set_bounds`` (MICCO-optimal serving).
    """

    #: Fault-log label of a ``heartbeat_loss``.
    _heartbeat_label = "heartbeat loss: devices {devices} silent"

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        config: MiccoConfig | None = None,
        serve: ServeConfig | None = None,
        predictor=None,
    ):
        if not _api_depth:
            warnings.warn(
                f"constructing {type(self).__name__} directly is deprecated; "
                "use repro.serve.api.serve() (or make_server()) which picks "
                "the server class from the ServeConfig",
                DeprecationWarning,
                stacklevel=2,
            )
        self.config = config or MiccoConfig()
        self.serve_config = serve or ServeConfig()
        self.scheduler = scheduler if scheduler is not None else MiccoScheduler()
        self.predictor = predictor
        self.cluster = ClusterState(
            mi100_like(
                self.config.num_devices,
                memory_bytes=self.config.memory_bytes,
                peak_gflops=self.config.peak_gflops,
            ),
            eviction_policy=self.config.eviction_policy,
        )
        self.engine = ExecutionEngine(self.cluster, self.config.cost_model)

    # ------------------------------------------------------------------- run
    def run(
        self,
        vectors: list[VectorSpec] | None = None,
        arrivals=None,
        *,
        seed=0,
        reset: bool = True,
        faults: FaultPlan | None = None,
    ) -> ServeResult:
        """Serve one stream (``vectors`` + ``arrivals``) or the tenant roster.

        Parameters
        ----------
        vectors:
            The request stream, in arrival order.  Omitted when
            :attr:`ServeConfig.tenants` is set: each tenant's vectors and
            arrival times are then drawn from ``seed`` (independent
            per-tenant generators), interleaved into one timeline and
            admitted weighted-fair across the tenants unless
            :attr:`ServeConfig.queue_policy` overrides it.  The result
            then carries per-tenant tails and SLO attainment.
        arrivals:
            An :class:`~repro.serve.arrivals.ArrivalProcess` (sampled
            with ``seed``) or an explicit sequence of absolute arrival
            timestamps, one per vector (omitted with tenants).
        reset:
            Start from an empty cluster and idle devices (default).
        faults:
            Optional :class:`~repro.faults.plan.FaultPlan`, taking
            precedence over :attr:`ServeConfig.faults`.  Due faults are
            applied as the event loop advances: transient/transfer
            faults and stragglers are handled inside the engine
            (retry + backoff, host re-fetch, stretched kernels); device
            losses shrink the pool — orphaned in-flight pairs are
            re-scheduled onto survivors (when
            :attr:`ServeConfig.recover_faults`), ``balanceNum`` and the
            reuse bounds are recomputed for the survivors, and the run
            keeps serving.  The result's ``faults`` section reports
            counts, recovery latencies and availability.
        """
        streams = self._streams(vectors, arrivals, seed)
        return self._serve(streams, faults=faults, reset=reset, seed=seed)

    def _streams(self, vectors, arrivals, seed) -> list[TenantStream]:
        """The run's arrival streams: the tenant roster or one stream."""
        tenants = self.serve_config.tenants
        if tenants:
            if vectors is not None or arrivals is not None:
                raise ConfigurationError(
                    "ServeConfig.tenants is set: streams come from the tenant "
                    "specs, do not pass vectors/arrivals"
                )
            return build_streams(tenants, seed)
        if not vectors or arrivals is None:
            raise ConfigurationError(
                "single-stream serving needs vectors and arrivals "
                "(or a ServeConfig.tenants roster)"
            )
        if isinstance(arrivals, ArrivalProcess):
            times = arrivals.arrival_times(len(vectors), seed)
        else:
            # Explicit timestamps: validate through the trace process.
            times = TraceArrivals(list(arrivals)).arrival_times(len(vectors))
        return [TenantStream(None, times, vectors)]

    # ------------------------------------------------------------- event loop
    def _serve(
        self,
        streams: list[TenantStream],
        *,
        faults: FaultPlan | None,
        reset: bool = True,
        seed=0,
    ) -> ServeResult:
        """Run the discrete-event loop over one or more arrival streams."""
        if reset:
            self.cluster.reset()
            if hasattr(self.scheduler, "reset_stats"):
                self.scheduler.reset_stats()

        cfg = self.serve_config
        if faults is None:
            faults = cfg.faults
        n = self.cluster.num_devices
        # Device horizons live on the cluster (shared with
        # introspection/benchmarks); each serve pass starts them fresh.
        busy_until = self.cluster.busy_until
        busy_until[:] = [0.0] * n
        run = RunState(
            timeline=Timeline(),
            report=LatencyReport(),
            total=ExecutionMetrics(num_devices=n),
            busy_until=busy_until,
            # Arming validates every plan event's device id against this
            # cluster — a plan aimed at a device we don't have fails here.
            injector=FaultInjector(faults, n) if faults is not None else None,
            integ=(
                IntegrityState(cfg.integrity, n)
                if cfg.integrity is not None and cfg.integrity.mode != "off"
                else None
            ),
            journal=ResidencyJournal(cfg.journal_capacity) if cfg.warm_restore else None,
            wants_bounds=self.predictor is not None and hasattr(self.scheduler, "set_bounds"),
        )
        self._build_runtimes(run, streams, seed)
        run.owner = {d: rt for rt in run.runtimes.values() for d in rt.devices}
        run.scaled = [rt for rt in run.runtimes.values() if rt.scaler is not None]
        timeline = run.timeline
        # Arrivals are drawn lazily, one pending per stream, but rank
        # by their global stream position ahead of every other event.
        run.arrival_seq = timeline.reserve(sum(len(s) for s in streams))
        for stream in streams:
            self._push_next_arrival(run, stream)

        # Config-selected engine tracing: "full"/"sampling" attach a
        # recorder to the engine for the run; "report"/"off"/None leave
        # the engine trace-free.
        trace_mode = cfg.trace.mode if cfg.trace is not None else "report"
        recorder = cfg.trace.make_sink() if cfg.trace is not None else None
        if recorder is not None:
            recorder = TraceRecorder(recorder)
        prev_trace = self.engine.trace
        if recorder is not None:
            self.engine.trace = recorder
        injector, integ, journal = run.injector, run.integ, run.journal
        self.engine.injector = injector
        self.engine.integrity = integ
        self.cluster.journal = journal
        if run.router is not None:
            # Initial digests so routing works before the first sync fires.
            run.router.sync(0.0, self._linkless(run))
            timeline.push(DigestSync(cfg.sync_interval_s))
            if run.monitor is not None:
                timeline.push(HealthTick(cfg.health.heartbeat_interval_s))
        handlers = {
            VectorArrival: self._on_arrival,
            SchedulingDone: self._on_scheduling_done,
            VectorCompletion: self._on_completion,
            DeviceOnline: self._on_device_online,
            DeviceRestore: self._on_device_restore,
            DigestSync: self._on_digest_sync,
            HealthTick: self._on_health_tick,
        }
        try:
            while timeline:
                event = timeline.pop()
                now = timeline.now
                run.events_processed += 1
                if journal is not None:
                    journal.advance(now)
                if injector is not None:
                    for fault in injector.poll(now):
                        if fault.kind is FaultKind.LINK_LOST:
                            self._apply_link_loss(run, fault, now)
                        elif fault.kind is FaultKind.HEARTBEAT_LOSS:
                            self._apply_heartbeat_loss(run, fault, now)
                        elif fault.kind is FaultKind.TENSOR_BITFLIP:
                            self._apply_bitflip(run, fault, now)
                        else:  # device_lost, node_lost, node_flap
                            self._apply_device_loss(run, fault, now)
                if integ is not None:
                    for dev in integ.poll_quarantines():
                        self._quarantine_device(run, dev, now)
                for rt in run.scaled:
                    if not rt.dead:
                        self._autoscale_step(run, rt, now)
                handlers[type(event)](run, event, now)
        finally:
            self.engine.injector = None
            self.engine.integrity = None
            self.engine.trace = prev_trace
            self.cluster.journal = None

        fault_summary, fault_events = self._fault_summary(injector, run.report)
        specs = [s.spec for s in streams if s.spec is not None]
        return ServeResult(
            report=run.report,
            metrics=run.total,
            arrival_s=sorted(t for s in streams for t in s.times),
            faults=fault_summary,
            fault_events=fault_events,
            tenants=tenant_sections(run.report, specs) if specs else None,
            journal=journal.summary() if journal is not None else None,
            rounds=run.rounds_log,
            integrity=(
                integ.summary(run.total.total_compute_s) if integ is not None else None
            ),
            events_processed=run.events_processed,
            engine_trace=recorder,
            trace_mode=trace_mode,
            **self._sections(run),
        )

    # ------------------------------------------------- mode-specific pieces
    # ShardedServer overrides these (and _apply_device_loss,
    # _quarantine_device, _orphans_of and _heartbeat_label below).
    def _build_runtimes(self, run: RunState, streams: list[TenantStream], seed) -> None:
        """One runtime over every device, whose view is the cluster itself.

        The fault-aware gate, when configured, wraps the queue policy.
        """
        cfg = self.serve_config
        policy = self._resolve_policy(streams)
        if cfg.fault_aware_admission and not isinstance(policy, FaultAware):
            policy = FaultAware(policy, min_success_prob=cfg.admission_min_success)
        run.gate = policy if isinstance(policy, FaultAware) else None
        rt = self._runtime(
            None, range(self.cluster.num_devices), self.cluster, self.scheduler, policy,
            Autoscaler(cfg.autoscaler) if cfg.autoscaler is not None else None,
        )
        run.runtimes = {None: rt}

    def _place(
        self,
        run: RunState,
        ticket: Ticket,
        now: float,
        *,
        rerouted: bool = False,
        hedge_clone: bool = False,
        tried=None,
    ) -> None:
        """Dispatch an admitted ticket at once, or queue it (shed when full).

        The keyword arguments describe routing and only matter to the
        sharded override; the one-runtime pool has nothing to route.
        """
        rt = run.runtimes[None]
        if rt.inflight < self.serve_config.max_inflight and not len(rt.queue):
            self._dispatch(run, rt, [ticket], now)
        elif not rt.queue.offer(ticket):
            run.report.add_drop(ticket)

    def _refill(self, run: RunState, rt: NodeRuntime, now: float) -> None:
        """Dispatch queued rounds on ``rt`` until its inflight window is full."""
        while rt.inflight < self.serve_config.max_inflight:
            members = self._pop_round(rt, now)
            if not members:
                break
            # Hedge losers cancelled while queued settle silently.
            members = [t for t in members if not t.cancelled]
            if members:
                self._dispatch(run, rt, members, now)

    def _pool_died(
        self, run: RunState, rt: NodeRuntime | None, members: list[Ticket], now: float
    ) -> None:
        """A round's pool lost every device between dispatch and sched-done."""
        for t in members:
            self._abandon(run, t, now)

    def _sections(self, run: RunState) -> dict:
        """The queue and autoscale report sections."""
        rt = run.runtimes[None]
        return {
            "queue": rt.queue.counters(),
            "autoscale": rt.scaler.summary() if rt.scaler is not None else None,
        }

    # ------------------------------------------------------- round lifecycle
    def _dispatch(
        self, run: RunState, rt: NodeRuntime, members: list[Ticket], now: float
    ) -> None:
        """Dispatch one scheduling round on ``rt`` (``inflight`` counts rounds)."""
        rt.inflight += 1
        rnd = BatchRound(round_id=next(run.round_ids), members=members)
        for t in members:
            t.dispatch_s = now
            t.round_id = rnd.round_id
            t.round_size = len(members)
            t.round = rnd
            t.shard = rt.node
            rt.inflight_tickets[id(t)] = t
        latency = self.serve_config.schedule_latency_per_pair_s * rnd.num_pairs
        run.timeline.push(SchedulingDone(now + latency, members[0], round=rnd))
        record = {"round_id": rnd.round_id}
        if rt.node is not None:
            record["shard"] = rt.node
        record.update(
            members=[t.vector.vector_id for t in members],
            pairs=rnd.num_pairs,
            dispatch_s=now,
            sched_done_s=now + latency,
        )
        run.rounds_log.append(record)

    def _settle(self, run: RunState, ticket: Ticket, now: float) -> None:
        """A round member is done (completed or shed); the round's
        scheduling slot frees only when its last member settles."""
        run.pending.pop(id(ticket), None)
        owner = run.runtimes.get(ticket.shard)
        if owner is not None:
            owner.inflight_tickets.pop(id(ticket), None)
        rnd = ticket.round
        ticket.round = None
        if rnd is None:
            return  # never dispatched (e.g. dropped while queued)
        rnd.remaining -= 1
        if rnd.remaining > 0:
            return
        if owner is not None and not owner.dead:
            owner.inflight -= 1
            self._refill(run, owner, now)

    def _abandon(self, run: RunState, ticket: Ticket, now: float) -> None:
        """Shed an admitted ticket that can no longer complete."""
        ticket.epoch += 1  # invalidate any queued completion event
        if run.router is not None:
            run.router.discharge(ticket, now)
        if hedge_shielded(ticket):
            # The vector's hedge partner is still racing: this copy
            # cancels silently instead of recording an SLO drop.
            ticket.cancelled = True
            run.hstats["absorbed_drops"] += 1
        else:
            run.report.add_drop(ticket, reason="fault-abandoned")
        self._settle(run, ticket, now)

    # ---------------------------------------------------------- event handlers
    def _on_arrival(self, run: RunState, event: VectorArrival, now: float) -> None:
        if event.stream is not None:
            self._push_next_arrival(run, event.stream)
        if self._admit(run, event.ticket, now):
            self._place(run, event.ticket, now)

    def _on_scheduling_done(self, run: RunState, event: SchedulingDone, now: float) -> None:
        members = event.round.members if event.round is not None else [event.ticket]
        for t in members:
            t.sched_done_s = now
        rt = run.runtimes.get(members[0].shard)
        if rt is None or rt.dead or rt.view.num_alive == 0:
            self._pool_died(run, rt, members, now)
            return
        # Hedge losers cancelled between dispatch and sched-done settle
        # here, releasing the round slot.
        for t in members:
            if t.cancelled:
                self._settle(run, t, now)
        members = [t for t in members if not t.cancelled]
        if members:
            self._execute_round(run, rt, members, now)

    def _on_completion(self, run: RunState, event: VectorCompletion, now: float) -> None:
        ticket = event.ticket
        if event.epoch != ticket.epoch or ticket.cancelled:
            return  # superseded by recovery (or abandoned, or lost a hedge)
        integ = run.integ
        if integ is not None and id(ticket) not in run.verified:
            action, ready = self._audit_ticket(run, ticket, now)
            if action == "repair":
                # The audit recomputation on the clean auditor device
                # *is* the repaired result; the ticket completes when
                # it lands.
                run.verified.add(id(ticket))
                ticket.epoch += 1
                run.timeline.push(
                    VectorCompletion(max(ready, now), ticket, epoch=ticket.epoch)
                )
                return
            if action == "flag":
                # Audit budget (or auditor pool) exhausted: the result
                # cannot be verified — shed it rather than report a
                # possibly-wrong answer.
                if run.router is not None:
                    run.router.discharge(ticket, now)
                run.report.add_drop(ticket, reason="integrity-unverified")
                self._settle(run, ticket, now)
                return
        if integ is not None:
            run.verified.discard(id(ticket))
            integ.note_reported(ticket.vector, ticket.assignment)
        ticket.complete_s = now
        rec = run.report.add_completion(ticket)
        if run.router is not None:
            run.router.note_completion(ticket, now)
        if run.hedger is not None:
            run.hedger.observe(ticket.tenant, rec.latency_s)
        owner = run.runtimes.get(ticket.shard)
        if owner is not None and owner.scaler is not None:
            owner.scaler.observe_completion(now, rec.latency_s)
        self._settle(run, ticket, now)
        pair = ticket.hedge
        if pair is not None and not pair.resolved:
            self._resolve_hedge(run, pair, ticket, now)

    def _on_device_online(self, run: RunState, event: DeviceOnline, now: float) -> None:
        rt = run.owner[event.device]
        if not rt.dead:
            self._bring_online(run, rt, event.device, now)

    def _on_device_restore(self, run: RunState, event: DeviceRestore, now: float) -> None:
        rt = run.owner[event.device]
        if not rt.dead and self._restore_device(run, rt, event.device, now):
            self._refill(run, rt, now)

    def _on_digest_sync(self, run: RunState, event: DigestSync, now: float) -> None:
        """Refresh the router's digests; unreachable shards keep stale ones."""
        silent = run.injector.silent_devices(now) if run.injector is not None else ()
        unreachable = frozenset(
            n
            for n, s in run.runtimes.items()
            if not s.dead and (s.view.num_alive == 0 or any(d in silent for d in s.devices))
        )
        run.router.sync(now, self._linkless(run), unreachable=unreachable)
        if run.timeline.work_remaining:
            # Stop syncing once only control timers remain: digests with
            # no traffic left would tick forever.
            run.timeline.push(DigestSync(now + self.serve_config.sync_interval_s))

    def _on_health_tick(self, run: RunState, event: HealthTick, now: float) -> None:
        """Beat reachable shards, drain newly quarantined ones, launch hedges."""
        hcfg = self.serve_config.health
        monitor = run.monitor
        silent = run.injector.silent_devices(now) if run.injector is not None else ()
        for node in sorted(run.runtimes):
            s = run.runtimes[node]
            if s.dead:
                monitor.mark_dead(node, now)
            elif s.view.num_alive > 0 and not any(d in silent for d in s.devices):
                monitor.beat(node, now)
            else:
                monitor.miss()
        for node in monitor.evaluate(now):
            # Newly quarantined: drain its queue through the global
            # tier.  The shard itself is left running (quarantine is not
            # death) — only its *waiting* work moves to shards routing
            # still trusts.
            shard = run.runtimes[node]
            moved = 0
            for t in shard.drain_queue():
                if t.cancelled:
                    continue
                shard.drained_out += 1
                # The drain moves the ticket off this shard: reverse its
                # between-sync charge before the new placement charges
                # its destination.
                run.router.discharge(t, now)
                t.shard = None
                self._place(run, t, now)
                moved += 1
            run.health_events.append(
                {
                    "kind": "health",
                    "node": node,
                    "time_s": now,
                    "label": f"quarantined, drained {moved} tickets",
                }
            )
        if hcfg.hedging:
            for node in sorted(run.runtimes):
                if not run.runtimes[node].dead and monitor.is_suspect(node):
                    self._launch_hedges(run, node, now)
        if run.timeline.work_remaining:
            run.timeline.push(HealthTick(now + hcfg.heartbeat_interval_s))

    # ---------------------------------------------------------------- hedging
    def _launch_hedges(self, run: RunState, node: int, now: float) -> None:
        """Clone every overdue ticket queued on suspect shard ``node``."""
        hcfg = self.serve_config.health
        for t in run.runtimes[node].queue.tickets():
            if t.cancelled or t.hedge is not None:
                continue
            deadline = (
                run.hedger.deadline_for(t.tenant)
                if run.hedger is not None
                else hcfg.hedge_deadline_s
            )
            if now - t.arrival_s < deadline:
                continue
            clone = Ticket(
                vector=t.vector,
                arrival_s=t.arrival_s,
                tenant=t.tenant,
                deadline_s=t.deadline_s,
            )
            pair = HedgePair(primary=t, clone=clone)
            t.hedge = pair
            clone.hedge = pair
            run.hstats["launched"] += 1
            run.health_events.append(
                {
                    "kind": "hedge",
                    "node": node,
                    "time_s": now,
                    "label": f"vector {t.vector.vector_id} hedged off shard {node}",
                }
            )
            self._place(run, clone, now, hedge_clone=True, tried={node})

    def _resolve_hedge(
        self, run: RunState, pair: HedgePair, winner: Ticket, now: float
    ) -> None:
        """First completion wins; the loser is cancelled with exactly-once
        accounting (its round slot settles, no completion, no drop)."""
        pair.resolved = True
        pair.winner = winner
        clone_won = winner is pair.clone
        run.hstats["won_by_clone" if clone_won else "won_by_primary"] += 1
        loser = pair.other(winner)
        if loser.cancelled:
            return
        loser.cancelled = True
        loser.epoch += 1
        run.router.discharge(loser, now)
        run.hstats["cancelled"] += 1
        run.health_events.append(
            {
                "kind": "hedge",
                "node": loser.shard if loser.shard is not None else -1,
                "time_s": now,
                "label": (
                    f"vector {winner.vector.vector_id}: "
                    + (
                        "clone won, primary cancelled"
                        if clone_won
                        else "primary won, clone cancelled"
                    )
                ),
            }
        )
        if id(loser) in run.pending:
            self._settle(run, loser, now)

    # ------------------------------------------------------ runtime pieces
    def _runtime(
        self,
        node: int | None,
        devices,
        view,
        scheduler: Scheduler,
        policy: QueuePolicy,
        scaler: Autoscaler | None,
    ) -> NodeRuntime:
        """Build the :class:`~repro.serve.sharded.node.NodeRuntime` for one device set.

        The reuse bounds are anchored before any pool-size change, so
        every rescale derives from the runtime's original (bounds, pool)
        pair, and an autoscaled pool then shrinks to its initial size.
        """
        # Imported lazily: repro.serve.sharded imports this module.
        from repro.serve.sharded.node import NodeRuntime

        rt = NodeRuntime(
            node, devices, view, scheduler,
            AdmissionQueue(self.serve_config.queue_capacity, policy),
            CharacteristicsTracker(), scaler,
        )
        if (
            self.predictor is None
            and hasattr(scheduler, "bounds")
            and hasattr(scheduler, "set_bounds")
        ):
            rt.bounds_anchor = (scheduler.bounds, view.num_alive)
        if scaler is not None:
            self._shrink_to_initial(rt)
        return rt

    @staticmethod
    def _push_next_arrival(run: RunState, stream: TenantStream) -> None:
        """Draw ``stream``'s next vector and push its arrival, if any is left.

        The ticket carries its tenant's SLO deadline; the arrival's
        tie-break number is its global stream position.
        """
        k = stream.drawn
        if k == len(stream.times):
            return
        t = stream.times[k]
        p99_s = stream.p99_s
        ticket = Ticket(
            vector=stream.draw(), arrival_s=t, tenant=stream.tenant,
            deadline_s=t + p99_s if p99_s is not None else None,
        )
        run.timeline.push(VectorArrival(t, ticket, stream), run.arrival_seq + stream.first + k)

    @staticmethod
    def _linkless(run: RunState) -> frozenset[int]:
        return run.injector.linkless_devices if run.injector is not None else frozenset()

    def _admit(self, run: RunState, ticket: Ticket, now: float) -> bool:
        """Arrival admission; ``False`` means the ticket was shed.

        The fault-aware gate, when configured, first observes the live
        fault picture.  An empty pool sheds as ``fault-abandoned``, a
        gate rejection as ``predicted-infeasible``.
        """
        gate = run.gate
        injector = run.injector
        if gate is not None:
            fault_events = 0
            if injector is not None:
                s = injector.stats
                fault_events = (
                    s.transient_failures + s.device_losses + s.transfer_refetches
                )
            gate.observe(
                now, fault_events, self.cluster.num_alive, self.cluster.num_devices
            )
        if self.cluster.num_alive == 0:
            run.report.add_drop(ticket, reason="fault-abandoned")
            return False
        if gate is not None and not gate.admit(ticket, now):
            run.report.add_drop(ticket, reason="predicted-infeasible")
            if injector is not None:
                injector.stats.predicted_infeasible += 1
            return False
        return True

    def _execute_round(
        self, run: RunState, rt: NodeRuntime, members: list[Ticket], now: float
    ) -> None:
        """Schedule one round on ``rt`` and de-multiplex it per member."""
        merged = merge_vectors([t.vector for t in members])
        try:
            vec_metrics, assignment = self._schedule_and_execute(rt, merged, run.wants_bounds)
        except FaultError:
            # Retry budget exhausted (or the pool died under us): shed
            # the round, keep the cluster serving.
            for t in members:
                self._abandon(run, t, now)
            return
        # Per-device busy seconds this round added; members share the
        # round's horizon on the devices they use.
        busy_until = run.busy_until
        compute, memop = vec_metrics.compute_s, vec_metrics.memop_s
        for dev in sorted(set(assignment)):
            busy_until[dev] = max(busy_until[dev], now) + (compute[dev] + memop[dev])
        run.total.merge(vec_metrics)
        # De-multiplex: each member keeps its own assignment slice and
        # completes when its own devices drain.
        slices = split_assignment([t.vector for t in members], assignment)
        for t, sl in zip(members, slices):
            t.assignment = sl
            t.devices = sorted(set(sl))
            complete = max((busy_until[d] for d in t.devices), default=now)
            run.pending[id(t)] = t
            run.timeline.push(VectorCompletion(max(complete, now), t, epoch=t.epoch))

    def _fault_summary(
        self, injector: FaultInjector | None, report: LatencyReport
    ) -> tuple[dict | None, list[dict]]:
        """The finalized fault section and event log (``None``/empty without a plan)."""
        if injector is None:
            return None, []
        injector.stats.finalize(report.makespan_s, self.cluster.num_devices)
        return injector.stats.summary(), list(injector.stats.events)

    def _pop_round(self, rt: NodeRuntime, now: float = 0.0) -> list[Ticket]:
        """Pop the next scheduling round's members from ``rt``'s queue.

        With :attr:`ServeConfig.max_batch_vectors` at 1 this is a plain
        policy-order pop.  Otherwise the queue head anchors the round
        and later entries (still visited in policy order, so
        weighted-fair and fault-aware ordering is respected) join it
        while they share the head's workload shape family, the round's
        combined unique-tensor footprint stays within
        :attr:`ServeConfig.batch_memory_frac` of the alive pool's
        memory, and growing the round would not push its
        earliest-deadline member past its SLO (see :meth:`_batch_accept`).
        Incompatible entries are skipped, not dropped — they keep their
        queue position for later rounds.
        """
        cfg = self.serve_config
        if cfg.max_batch_vectors <= 1:
            nxt = rt.queue.pop()
            return [nxt] if nxt is not None else []
        # ``ClusterState.alive_ids`` returns the same cached list object
        # until the alive set changes, so its identity keys the budget
        # cache — steady-state rounds skip the per-device memory sum.
        alive = rt.view.alive_ids()
        cache = rt.budget_cache
        if cache is not None and cache[0] is alive:
            budget = cache[1]
        else:
            budget = cfg.batch_memory_frac * sum(
                self.cluster.devices[d].memory_bytes for d in alive
            )
            rt.budget_cache = (alive, budget)
        return rt.queue.pop_batch(
            cfg.max_batch_vectors, accept=self._batch_accept(budget, now)
        )

    def _batch_accept(self, budget: float, now: float):
        """Build the batch-membership predicate for one round assembly.

        A candidate joins the round only when (a) it shares the head's
        workload shape family, (b) the combined unique-tensor footprint
        stays within ``budget`` bytes, and (c) — the deadline-aware
        cutoff — the grown round's scheduling latency would not push its
        earliest-deadline member past that member's SLO deadline.
        Tickets without a deadline (no tenant p99 target) never
        constrain growth.  Shared by every runtime's round assembly.
        """
        latency_per_pair = self.serve_config.schedule_latency_per_pair_s
        # One closure per round: the head's shape key and the accepted
        # members' footprint/deadline state accumulate incrementally
        # instead of being recomputed from scratch per candidate
        # (members only ever grow within one ``pop_batch`` call).  The
        # totals are integer-exact sums, so they match the from-scratch
        # computation term for term.
        head_key = None
        seen: dict[int, int] = {}
        in_bytes = 0
        out_bytes = 0
        pairs_cov = 0
        covered = 0
        min_deadline: float | None = None

        def accept(members: list[Ticket], candidate: Ticket) -> bool:
            nonlocal head_key, in_bytes, out_bytes, pairs_cov, covered, min_deadline
            if head_key is None:
                head_key = batch_shape_key(members[0].vector)
            if batch_shape_key(candidate.vector) != head_key:
                return False
            while covered < len(members):
                t = members[covered]
                covered += 1
                for p in t.vector.pairs:
                    lu = p.left.uid
                    if lu not in seen:
                        seen[lu] = 1
                        in_bytes += p.left.nbytes
                    ru = p.right.uid
                    if ru not in seen:
                        seen[ru] = 1
                        in_bytes += p.right.nbytes
                    out_bytes += p.out.nbytes
                pairs_cov += len(t.vector.pairs)
                dl = t.deadline_s
                if dl is not None and (min_deadline is None or dl < min_deadline):
                    min_deadline = dl
            cv = candidate.vector
            add = 0
            c_out = 0
            c_seen: set[int] = set()
            for p in cv.pairs:
                lu = p.left.uid
                if lu not in seen and lu not in c_seen:
                    c_seen.add(lu)
                    add += p.left.nbytes
                ru = p.right.uid
                if ru not in seen and ru not in c_seen:
                    c_seen.add(ru)
                    add += p.right.nbytes
                c_out += p.out.nbytes
            if in_bytes + add + out_bytes + c_out > budget:
                return False
            c_dl = candidate.deadline_s
            if min_deadline is not None or c_dl is not None:
                worst = (
                    min_deadline
                    if c_dl is None
                    else (c_dl if min_deadline is None else min(min_deadline, c_dl))
                )
                if now + latency_per_pair * (pairs_cov + len(cv.pairs)) > worst:
                    return False
            return True

        return accept

    def _resolve_policy(self, streams: list[TenantStream]) -> QueuePolicy:
        """Build the dispatch policy for this run's streams.

        ``"auto"`` picks weighted-fair when tenants are configured
        (their weights seed the policy) and FIFO otherwise; explicit
        names and :class:`QueuePolicy` instances are honoured as-is.
        An unsharded run wraps the result in :class:`FaultAware` under
        :attr:`ServeConfig.fault_aware_admission`; a sharded run
        deep-copies it per shard.
        """
        policy = self.serve_config.queue_policy
        if isinstance(policy, QueuePolicy):
            return policy
        weights = {s.spec.name: s.spec.weight for s in streams if s.spec is not None}
        if policy == "auto":
            policy = "weighted" if weights else "fifo"
        return WeightedFair(weights) if policy == "weighted" else make_policy(policy)

    # ------------------------------------------------------------ autoscaling
    def _shrink_to_initial(self, rt: NodeRuntime) -> None:
        """Retire ``rt``'s devices down to the autoscaler's initial pool size."""
        c = rt.scaler.config
        view = rt.view
        target = max(
            c.min_devices,
            min(
                c.initial_devices if c.initial_devices is not None else c.min_devices,
                c.max_devices,
                view.num_alive,
            ),
        )
        while view.num_alive > target:
            before = view.num_alive
            self.cluster.retire_device(view.alive_ids()[-1])
            self._rescale_bounds(rt, before, view.num_alive)

    def _scale_up(
        self,
        run: RunState,
        rt: NodeRuntime,
        now: float,
        reason: str,
        starts_cooldown: bool = True,
    ) -> bool:
        """Start warming up ``rt``'s lowest retired spare; ``False`` when none
        is left or the pool (counting warm-ups) is at its device cap."""
        c = rt.scaler.config
        candidates = [
            d for d in self.cluster.offline_ids()
            if d in rt.devices and d not in rt.pending_online
        ]
        max_devices = min(c.max_devices, len(rt.devices))
        if not candidates or rt.view.num_alive + len(rt.pending_online) >= max_devices:
            return False
        dev = candidates[0]
        rt.pending_online.add(dev)
        run.timeline.push(DeviceOnline(now + c.warmup_s, device=dev))
        rt.scaler.log(
            now, "up", dev, rt.view.num_alive,
            reason=reason, starts_cooldown=starts_cooldown,
        )
        return True

    def _autoscale_step(self, run: RunState, rt: NodeRuntime, now: float) -> None:
        """Evaluate ``rt``'s autoscaler and apply its decision, if any.

        Each runtime grows and shrinks only its own devices.
        """
        scaler = rt.scaler
        c = scaler.config
        view = rt.view
        decision = scaler.decide(
            now,
            queue_depth=len(rt.queue),
            num_alive=view.num_alive + len(rt.pending_online),
        )
        if decision == "up":
            self._scale_up(
                run, rt, now,
                rt.scoped(f"queue depth {len(rt.queue)}, warm-up {c.warmup_s:g}s"),
            )
        elif decision == "down":
            # Never shrink below the floor or while a warm-up is pending
            # (mixed signals: the queue says grow, the window says shrink).
            if rt.pending_online or view.num_alive <= c.min_devices:
                return
            dev = view.alive_ids()[-1]
            before = view.num_alive
            self.cluster.retire_device(dev)
            self._rescale_bounds(rt, before, view.num_alive)
            # Drain: in-flight pairs on the retiring device finish on the
            # survivors through the orphan-rescheduling path (in pending
            # order, whatever the mode).
            moved = 0
            for ticket in [t for t in run.pending.values() if dev in set(t.assignment)]:
                if self._reexecute(run, rt, ticket, dev, now) is not None:
                    moved += 1
            scaler.log(
                now, "down", dev, view.num_alive,
                reason=rt.scoped(f"drained {moved} in-flight vectors"),
            )

    def _bring_online(self, run: RunState, rt: NodeRuntime, device: int, now: float) -> None:
        """A warm-up completed: the device joins ``rt``'s pool.

        Cold by default; with :attr:`ServeConfig.warm_restore` the
        residency journal is replayed onto it first (see
        :meth:`_warm_restore`) and the pre-warm transfer time is charged
        to the device's busy horizon — paid up front, off the next
        vectors' critical path.
        """
        rt.pending_online.discard(device)
        if self.cluster.is_failed(device) or self.cluster.is_alive(device):
            return  # lost while warming up, or a stale event
        before = rt.view.num_alive
        self.cluster.activate_device(device)
        run.busy_until[device] = now
        restored = 0
        if self.cluster.journal is not None:
            restored, cost = self._warm_restore(device, now, run.injector)
            run.busy_until[device] += cost
        self._rescale_bounds(rt, before, rt.view.num_alive)
        if rt.scaler is not None:
            reason = "warm-up complete"
            if restored:
                reason += f", {restored} tensors pre-warmed"
            rt.scaler.log(
                now, "online", device, rt.view.num_alive,
                reason=reason, starts_cooldown=False,
            )

    def _warm_restore(
        self, device: int, now: float, injector: FaultInjector | None
    ) -> tuple[int, float]:
        """Replay the residency journal onto a just-activated device.

        The journal's hottest tensors not yet resident on *this* device
        are pre-loaded — sourced over a D2D link when a live copy
        survives elsewhere, from the host otherwise — until
        :attr:`ServeConfig.prewarm_fraction` of the device's memory is
        used.  The point is to hand the fresh device the pool's hot
        working set while it is still idle: the first vectors it serves
        reuse resident inputs instead of stalling on fetches on their
        critical path.  Returns ``(tensors restored, simulated seconds
        spent)``; the caller charges the seconds to the device's busy
        horizon.
        """
        journal = self.cluster.journal
        cm = self.config.cost_model
        budget = self.serve_config.prewarm_fraction * self.cluster.devices[device].memory_bytes
        restored = 0
        cost = 0.0
        for uid, nbytes in journal.hot_tensors():
            if self.cluster.is_resident(uid, device):
                continue
            if self.cluster.used_bytes(device) + nbytes > budget:
                continue
            holders = self.cluster.devices_holding(uid)
            if not self.cluster.prewarm(uid, nbytes, device):
                continue
            if holders:
                copy_t = cm.d2d_time(nbytes, min(holders), device)
            else:
                copy_t = cm.h2d_time(nbytes)
            cost += copy_t + cm.alloc_time(nbytes)
            restored += 1
        if restored:
            journal.note_restore(device, restored, cost)
            if injector is not None:
                injector.stats.prewarmed_tensors += restored
                injector.stats.record_recovery("warm_restore", cost)
                injector.stats.record_event(
                    "prewarm", device, now, cost,
                    label=f"warm restore: {restored} tensors",
                )
        return restored, cost

    def _rescale_bounds(
        self, rt: NodeRuntime, alive_before: int, alive_after: int
    ) -> None:
        """Re-apply ``rt``'s reuse bounds after a pool-size change.

        Rescaling always derives from the *anchor* — the (bounds, pool
        size) pair captured when the runtime was built — never by chaining
        ``rescaled()`` off the previous rescale's output.  Chained
        rescales compound float rounding: after a few shrink/grow
        cycles that return to the original pool size, the bounds end up
        at e.g. ``4.9999999999999964`` instead of ``5.0``, silently
        shifting the availability test.  From the anchor, returning to
        any previously seen pool size reproduces bit-identical bounds
        (rescaling is evaluated once per target size, so it is
        idempotent and composition-free by construction).

        Skipped when a predictor re-derives bounds per vector anyway or
        when the scheduler has no bounds to scale.  An empty *previous*
        pool is fine — the anchor, not the previous size, is the scale
        source — which matters when a fully flapped-down cluster
        restores its first device.
        """
        if (
            alive_before != alive_after
            and alive_after > 0
            and rt.bounds_anchor is not None
        ):
            bounds0, alive0 = rt.bounds_anchor
            if alive_after == alive0:
                rt.scheduler.set_bounds(bounds0)
            else:
                rt.scheduler.set_bounds(bounds0.rescaled(alive0, alive_after))

    # ------------------------------------------------------- fault recovery
    def _blast_radius(self, fault: FaultEvent) -> list[int]:
        """Device ids a loss event takes down (or degrades).

        ``device_lost`` names exactly one device.  The node-scoped
        kinds — ``node_lost``, ``link_lost``, ``node_flap`` and
        ``heartbeat_loss`` — name *any* device of the affected node;
        the failure domain expands to every sibling through the
        topology (``node_of`` → ``devices_of_node``).  Without a
        configured topology a node is indistinguishable from a device
        and the event degrades to a single-device radius.
        """
        topo = self.config.cost_model.topology
        node_scoped = (
            FaultKind.NODE_LOST,
            FaultKind.LINK_LOST,
            FaultKind.NODE_FLAP,
            FaultKind.HEARTBEAT_LOSS,
        )
        if (
            fault.kind in node_scoped
            and topo is not None
            and fault.device < topo.num_devices
        ):
            return topo.devices_of_node(topo.node_of(fault.device))
        return [fault.device]


    def _apply_link_loss(self, run: RunState, fault: FaultEvent, now: float) -> None:
        """Apply a ``link_lost`` fault: the node degrades, devices live on.

        The node's devices stay alive and keep executing, but their
        inter-node links are gone: subsequent cross-node fetches whose
        only holders sit across a severed link are staged through the
        host (counted as ``host_staged_fetches``), and the sharded
        router deprioritises the degraded node.  No orphan recovery is
        needed — nothing dies.
        """
        injector = run.injector
        devices = [d for d in self._blast_radius(fault) if self.cluster.is_alive(d)]
        already = injector.linkless_devices
        devices = [d for d in devices if d not in already]
        if not devices:
            return  # dead node or duplicate plan entry: nothing to degrade
        injector.note_link_lost(devices, now)
        injector.stats.record_event(
            "fault", fault.device, fault.time_s, 0.0,
            label=f"link lost: devices {devices} host-staged",
        )

    def _apply_heartbeat_loss(self, run: RunState, fault: FaultEvent, now: float) -> None:
        """Apply a ``heartbeat_loss`` gray fault: silence, not death.

        The node's devices keep executing; only their *telemetry* goes
        dark for ``duration_s``.  The silence window is recorded for the
        trace and for :meth:`FaultInjector.silent_devices`; an unsharded
        run colocates the scheduler with its devices, so nothing
        operational changes, while the sharded health monitor and digest
        sync react to it.
        """
        devices = [d for d in self._blast_radius(fault) if self.cluster.is_alive(d)]
        if not devices:
            return  # dead node: nothing left to go silent
        run.injector.note_heartbeat_loss(
            devices, fault.time_s, fault.time_s + fault.duration_s
        )
        run.injector.stats.record_event(
            "fault", fault.device, fault.time_s, fault.duration_s,
            label=self._heartbeat_label.format(devices=devices),
        )

    def _restore_device(self, run: RunState, rt: NodeRuntime, device: int, now: float) -> bool:
        """A flapped device comes back: rejoin ``rt``'s pool, cold (or warm).

        Mirrors :meth:`_bring_online` but for a *failed* device (flap
        cycles go down as failures, not retirements).  A device that is
        no longer marked failed is a stale event — an overlapping
        fail-stop loss or an earlier restore already settled it — and
        is skipped: restores only resurrect flap victims.  Returns
        whether the device rejoined.
        """
        if not self.cluster.is_failed(device):
            return False
        before = rt.view.num_alive
        self.cluster.restore_device(device)
        run.busy_until[device] = now
        restored = 0
        if self.cluster.journal is not None:
            restored, cost = self._warm_restore(device, now, run.injector)
            run.busy_until[device] += cost
        self._rescale_bounds(rt, before, rt.view.num_alive)
        if run.injector is not None:
            run.injector.note_device_restored(device, now)
            label = "node flap up"
            if restored:
                label += f", {restored} tensors pre-warmed"
            run.injector.stats.record_event("restore", device, now, 0.0, label=label)
        return True

    def _fail_domain(self, run: RunState, fault: FaultEvent) -> dict[int, list[int]]:
        """Kill a loss event's failure domain and log each device death.

        A ``device_lost`` domain is one device; a ``node_lost`` or
        ``node_flap`` domain is every device of the event's node (see
        :meth:`_blast_radius`).  All members leave the pool *atomically*
        — before any rescheduling — so orphaned pairs can only land on
        devices of *surviving* nodes (cross-node re-fetches there are
        charged through :meth:`~repro.gpusim.topology.Topology.d2d_time`
        and surface as ``xnode`` trace events).  Returns ``{device:
        orphan uids}`` for the devices that were alive; empty when the
        domain was already dead or only retired devices died.
        """
        injector = run.injector
        members = [d for d in self._blast_radius(fault) if not self.cluster.is_failed(d)]
        if not members:
            return {}  # already dead (duplicate plan entry)
        orphaned = self.cluster.fail_node(members)
        if orphaned and fault.kind is FaultKind.NODE_LOST:
            injector.stats.node_losses += 1
        flap = fault.kind is FaultKind.NODE_FLAP
        for dev, orphans in sorted(orphaned.items()):
            injector.note_device_lost(dev, fault.time_s, len(orphans))
            injector.stats.record_event(
                "fault", dev, fault.time_s,
                fault.duration_s if flap else 0.0,
                label="node flap down" if flap else fault.kind.value.replace("_", " "),
            )
        return orphaned

    def _apply_device_loss(self, run: RunState, fault: FaultEvent, now: float) -> None:
        """Kill a failure domain and recover (or shed) the work it orphans.

        After the domain dies (:meth:`_fail_domain`) the balanced share
        and the reuse bounds are recomputed for the survivors, and every
        in-flight vector with pairs on a dead device either has those
        pairs re-executed (recovery on) or is shed as
        ``fault-abandoned`` (recovery off).  An emptied pool sheds
        everything in flight.  A ``node_flap`` schedules one
        :class:`DeviceRestore` per downed device; with
        :attr:`AutoscalerConfig.replace_lost`, a permanent loss instead
        requests one replacement warm-up per lost device.
        """
        orphaned = self._fail_domain(run, fault)
        if not orphaned:
            return
        injector = run.injector
        kind = fault.kind.value
        rt = run.owner[fault.device]
        # Recompute the reuse bounds for the survivors (a no-op once the
        # pool is empty).
        self._rescale_bounds(rt, rt.view.num_alive + len(orphaned), rt.view.num_alive)
        dead = set(orphaned)
        affected = self._orphans_of(run, dead)
        if rt.view.num_alive == 0:
            # Nothing left to serve on: everything admitted is shed.
            for ticket in list(run.pending.values()):
                self._abandon(run, ticket, now)
        elif not self.serve_config.recover_faults:
            for ticket in affected:
                self._abandon(run, ticket, now)
            injector.stats.record_recovery(kind, 0.0)
        else:
            latest = now
            for ticket in affected:
                complete = self._reexecute(run, rt, ticket, dead, now)
                if complete is not None:
                    latest = max(latest, complete)
            injector.stats.record_recovery(kind, latest - fault.time_s)
            injector.stats.record_event(
                "recovery",
                fault.device,
                now,
                max(latest - now, 0.0),
                label=f"rescheduled {len(affected)} vectors",
            )
        if fault.kind is FaultKind.NODE_FLAP:
            # Transient: the devices come back on their own.
            for dev in sorted(orphaned):
                run.timeline.push(
                    DeviceRestore(max(now, fault.time_s + fault.duration_s), device=dev)
                )
        elif rt.scaler is not None and rt.scaler.config.replace_lost:
            self._replace_lost(run, rt, now, len(orphaned))

    def _orphans_of(self, run: RunState, dead: set[int]) -> list[Ticket]:
        """In-flight tickets with pairs on ``dead`` devices, in pending order."""
        return [t for t in run.pending.values() if not dead.isdisjoint(t.assignment)]

    def _reexecute(
        self, run: RunState, rt: NodeRuntime, ticket: Ticket, dead: int | set[int], now: float
    ) -> float | None:
        """Re-execute ``ticket``'s pairs on ``dead`` through ``rt`` and
        re-push its completion; ``None`` (ticket abandoned) when the
        retry budget runs out."""
        try:
            complete = self._reschedule_orphans(run, rt, ticket, dead, now)
        except FaultError:
            self._abandon(run, ticket, now)
            return None
        ticket.epoch += 1
        run.timeline.push(VectorCompletion(complete, ticket, epoch=ticket.epoch))
        return complete

    def _replace_lost(self, run: RunState, rt: NodeRuntime, now: float, count: int) -> None:
        """Request one replacement warm-up per device ``rt`` just lost.

        Reactive, so it bypasses the cooldown clock (a rack dying is not
        a load signal); replacements still pay ``warmup_s`` and stop at
        ``max_devices`` or when ``rt``'s spare pool runs out.
        """
        reason = rt.scoped(
            f"replace lost device, warm-up {rt.scaler.config.warmup_s:g}s", sep=": "
        )
        for _ in range(count):
            if not self._scale_up(run, rt, now, reason, starts_cooldown=False):
                return

    def _reschedule_orphans(
        self,
        run: RunState,
        rt: NodeRuntime,
        ticket: Ticket,
        dead: int | set[int],
        now: float,
    ) -> float:
        """Re-execute a ticket's dead-device pairs on ``rt``'s survivors.

        ``dead`` is one device id (scale-down drain, quarantine,
        single-device loss) or the whole failure domain of a node loss.
        Returns the vector's new completion timestamp.  The surviving
        devices' original shares are already in the busy horizons; only
        the re-executed pairs' busy time is appended.

        Placement runs through ``rt``'s scheduler and view, so the
        sharded control plane re-homes orphans only onto the chosen
        shard's devices.
        """
        stats = run.injector.stats if run.injector is not None else None
        busy_until = run.busy_until
        scheduler = rt.scheduler
        cluster = rt.view
        dead_set = {dead} if isinstance(dead, int) else set(dead)
        orphan_idx = [i for i, dev in enumerate(ticket.assignment) if dev in dead_set]
        vector = ticket.vector
        # Fresh balance window sized to the re-scheduled slice (two
        # tensor slots per pair, matching record_assignment).
        cluster.begin_vector(2 * len(orphan_idx))
        scheduler.begin_vector(vector, cluster)
        vec_metrics = ExecutionMetrics(num_devices=self.cluster.num_devices)
        for i in orphan_idx:
            pair = vector.pairs[i]
            dev = scheduler.choose(pair, cluster)
            self.engine.execute_pair(pair, dev, vec_metrics)
            ticket.assignment[i] = dev
            if stats is not None:
                stats.rescheduled_pairs += 1
        run.total.merge(vec_metrics)
        compute, memop = vec_metrics.compute_s, vec_metrics.memop_s
        for dev in sorted({ticket.assignment[i] for i in orphan_idx}):
            busy_until[dev] = max(busy_until[dev], now) + (compute[dev] + memop[dev])
        ticket.devices = sorted(set(ticket.assignment))
        complete = now
        for dev in ticket.devices:
            if self.cluster.is_alive(dev):
                complete = max(complete, busy_until[dev])
        return complete
    # ------------------------------------------------------- result integrity
    def _pick_auditor(self, run: RunState, producer: int) -> int | None:
        """The device that recomputes a pair for an audit.

        Must be a *different* device than the producer (dual execution
        on the producer would reproduce its own corruption) and not
        itself under suspicion; among candidates the least-busy wins
        (ties on id).  ``None`` when no clean second device is alive.
        """
        integ = run.integ
        busy_until = run.busy_until
        best = None
        best_key = None
        for dev in self.cluster.alive_ids():
            if dev == producer or integ.is_suspect(dev):
                continue
            key = (busy_until[dev], dev)
            if best_key is None or key < best_key:
                best, best_key = dev, key
        return best

    def _audit_ticket(
        self, run: RunState, ticket: Ticket, now: float
    ) -> tuple[str, float]:
        """Audit one completed-but-unreported ticket's pair outputs.

        Builds the audit set — every pair whose producer is already
        suspect (plus, in ``suspect-full`` mode, every pair of a ticket
        that touched a suspect device), plus a deterministic
        ``audit_fraction`` sample of the rest — and recomputes each
        audited pair on a clean auditor device, charging the kernel
        time to that device's busy horizon.  A checksum mismatch
        invalidates every resident copy of the output (journal drop
        reason ``corrupt``), blames the producer, and *escalates*: all
        remaining pairs of the ticket join the mandatory set, so one
        caught taint drags its whole ticket through verification.

        The recomputation on the clean device is itself the repair, so
        a mismatched ticket returns ``("repair", ready_s)`` with
        ``ready_s`` the horizon where the last audit lands — the caller
        re-pushes the completion there.  Audit seconds beyond
        ``audit_budget_frac`` of the run's cumulative compute are not
        spent: sampled audits are silently skipped (counted), mandatory
        ones degrade the ticket to ``("flag", now)`` — shed as
        ``integrity-unverified`` instead of fueling a recompute storm.
        Clean throughout returns ``("clean", now)``.
        """
        integ = run.integ
        injector = run.injector
        busy_until = run.busy_until
        cfg = integ.config
        vector = ticket.vector
        assignment = ticket.assignment
        vid = vector.vector_id
        cm = self.config.cost_model
        cluster = self.cluster
        budget_s = cfg.audit_budget_frac * run.total.total_compute_s
        suspect_full = cfg.mode == "suspect-full" and any(
            integ.is_suspect(d) for d in ticket.devices
        )
        to_audit: list[tuple[int, bool]] = []
        for i in range(len(vector.pairs)):
            if integ.is_suspect(assignment[i]) or suspect_full:
                to_audit.append((i, True))
            elif integ.sampled(vid, i):
                to_audit.append((i, False))
        audited: set[int] = set()
        detected = 0
        flag = False
        ready = now
        k = 0
        while k < len(to_audit):
            i, mandatory = to_audit[k]
            k += 1
            if i in audited:
                continue
            audited.add(i)
            pair = vector.pairs[i]
            producer = assignment[i]
            auditor = self._pick_auditor(run, producer)
            if auditor is None:
                if mandatory:
                    flag = True
                continue
            cost = cm.kernel_time(pair, cluster.devices[auditor])
            if integ.audit_spent_s + cost > budget_s:
                if mandatory:
                    flag = True
                else:
                    integ.budget_skipped += 1
                continue
            integ.charge_audit(cost)
            busy_until[auditor] = max(busy_until[auditor], now) + cost
            ready = max(ready, busy_until[auditor])
            if integ.output_entry(pair.out.uid, producer) is None:
                integ.clean_audit(producer)
                continue
            detected += 1
            for dev in integ.audit_detected(pair.out.uid, now):
                if cluster.is_resident(pair.out.uid, dev):
                    cluster.drop(pair.out.uid, dev, reason="corrupt")
            if injector is not None:
                injector.stats.record_event(
                    "audit", auditor, now, cost,
                    label=f"audit mismatch: pair {i} of v{vid} (device {producer})",
                )
                injector.stats.record_event(
                    "taint", producer, now, 0.0,
                    label=f"invalidated output {pair.out.uid}",
                )
            for j in range(len(vector.pairs)):
                if j not in audited:
                    to_audit.append((j, True))
        if flag:
            integ.flag_ticket(detected)
            return "flag", now
        if detected:
            return "repair", ready
        return "clean", now

    def _quarantine_device(self, run: RunState, device: int, now: float) -> None:
        """Blame crossed the threshold: retire the device from its pool.

        Its resident *corrupt* copies are invalidated first (journal
        drop reason ``corrupt``) so nothing can fetch them over D2D;
        then the device drains like an autoscale scale-down — in-flight
        pairs assigned to it re-execute on its runtime's survivors, with
        their tickets' audit status reset so the re-executed work is
        audited again.  A pool's last alive device is never retired (a
        degraded answer beats no answer; mandatory audits of its output
        will flag what cannot be verified).
        """
        integ = run.integ
        for uid in integ.dirty_uids_on(device):
            if self.cluster.is_resident(uid, device):
                self.cluster.drop(uid, device, reason="corrupt")
        if run.injector is not None:
            run.injector.stats.record_event(
                "blame", device, now, 0.0,
                label=f"quarantined (corruption ewma {integ.ewma[device]:.3f})",
            )
        rt = run.owner[device]
        if (
            not self.cluster.is_alive(device)
            or self.cluster.num_alive <= 1
            or rt.dead
            or rt.view.num_alive <= 1
        ):
            return
        before = rt.view.num_alive
        self.cluster.retire_device(device)
        self._rescale_bounds(rt, before, rt.view.num_alive)
        for ticket in self._orphans_of(run, {device}):
            if self._reexecute(run, rt, ticket, device, now) is not None:
                run.verified.discard(id(ticket))

    def _apply_bitflip(self, run: RunState, fault: FaultEvent, now: float) -> None:
        """Apply a ``tensor_bitflip``: corrupt one resident copy in place.

        The victim is the lowest-uid tensor resident on the event's
        device at the fault's time (deterministic).  A dead device or
        an empty pool makes the flip a no-op — there is nothing to
        corrupt — and without an integrity subsystem the flip is
        recorded but untracked (nothing can ever detect it).
        """
        device = fault.device
        uid = None
        if self.cluster.is_alive(device):
            resident = self.cluster.pools[device].resident_uids()
            if resident:
                uid = min(resident)
        if uid is not None and run.integ is not None:
            run.integ.flip(uid, device, now)
        run.injector.stats.record_event(
            "fault", device, fault.time_s, 0.0,
            label=(
                f"tensor bitflip: uid {uid}" if uid is not None
                else "tensor bitflip: no resident tensor"
            ),
        )

    # ---------------------------------------------------------------- helpers
    def _schedule_and_execute(
        self, rt: NodeRuntime, vector: VectorSpec, wants_bounds: bool
    ) -> tuple[ExecutionMetrics, list[int]]:
        """One (merged) round through ``rt``'s scheduler and view."""
        scheduler = rt.scheduler
        if wants_bounds:
            # The tracker's running reuse statistics only feed the
            # bounds predictor, so without one the observation (an
            # O(pairs) uid scan per round) is skipped entirely.
            chars = rt.tracker.observe(vector)
            scheduler.set_bounds(self.predictor.predict_bounds(chars))
        view = rt.view
        view.begin_vector(vector.num_tensors)
        scheduler.begin_vector(vector, view)
        vec_metrics = ExecutionMetrics(num_devices=self.cluster.num_devices)
        assignment: list[int] = []
        choose = scheduler.choose
        execute = self.engine.pair_runner()
        append = assignment.append
        for pair in vector.pairs:
            dev = choose(pair, view)
            execute(pair, dev, vec_metrics)
            append(dev)
        if not self.config.keep_outputs:
            self.engine.drain_outputs(vector, assignment, vec_metrics)
        return vec_metrics, assignment
