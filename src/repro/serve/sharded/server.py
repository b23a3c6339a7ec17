"""Two-level sharded control plane: a global router over node schedulers.

:class:`ShardedServer` splits the single serving control loop into a
*global tier* (:class:`GlobalScheduler`: admission + routing from stale
per-node digests) and one :class:`~repro.serve.sharded.node.NodeRuntime`
per topology node, each running its own admission queue, MICCO
reuse-bound placement and batching over only its node's devices.  The
whole plane still executes on one deterministic
:class:`~repro.serve.timeline.Timeline`, so fixed-seed runs replay bit
for bit; what changes is the *scope* of every control decision:

* arrivals are routed (``least-loaded`` / ``residency-affinity`` /
  ``threshold-local`` / ``learned`` — see
  :mod:`repro.serve.sharded.learned`) to a shard, forwarded to the
  next-best shard when the target's queue is full;
* each shard batches and places only over its own devices — the
  balance share, the reuse bounds and the candidate tiers are all
  shard-local;
* node runtimes report load/residency digests every
  :attr:`~repro.serve.server.ServeConfig.sync_interval_s`; between
  syncs the router works from stale summaries, corrected only by its
  own routing decisions;
* a ``node_lost`` fault kills exactly one shard — its queued tickets
  re-route through the global tier (arrival timestamps intact, so
  per-tenant SLO accounting stays exact) and its in-flight work is
  re-executed on a surviving shard chosen by the router;
* a ``link_lost`` fault degrades a shard without killing it: the
  router deprioritises it and its cross-node fetches are host-staged.

Tensors still live in one shared
:class:`~repro.gpusim.cluster.ClusterState`; a vector routed away from
its data pays real ``cross_node_fetches`` through the cost model
rather than being silently co-located.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.journal import ResidencyJournal
from repro.faults.plan import FaultKind, FaultPlan
from repro.gpusim.metrics import ExecutionMetrics
from repro.integrity import IntegrityState
from repro.schedulers.base import Scheduler
from repro.serve.autoscale import Autoscaler
from repro.serve.health import (
    AdaptiveHedgeDeadline,
    CircuitBreaker,
    HealthMonitor,
    HedgePair,
    hedge_shielded,
)
from repro.serve.queueing import FaultAware, Fifo
from repro.serve.server import MiccoServer, ServeConfig, ServeResult
from repro.serve.sharded.node import NodeRuntime, ShardView
from repro.serve.sharded.routing import RoutingPolicy, make_routing_policy
from repro.serve.slo import LatencyReport
from repro.serve.tenancy import TenantStream, build_streams, tenant_sections
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

#: Test hook invoked at the top of every :meth:`GlobalScheduler.sync`
#: (before the digests refresh) with ``(router, now, unreachable)``.
#: The digest-conservation property test installs an auditor here to
#: check, at each sync, that every live shard's ``routed_since_sync``
#: reconciles exactly with its completed-since-sync count plus the
#: charged tickets still queued or in flight.  ``None`` in production.
SYNC_AUDIT_HOOK = None

#: Circuit-breaker state encoded as a routing feature.
_BREAKER_CODE = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.HALF_OPEN: 1,
    CircuitBreaker.OPEN: 2,
}


class GlobalScheduler:
    """The global routing tier: stale digests in, shard choices out.

    Holds the per-node digests refreshed at every
    :class:`~repro.serve.timeline.DigestSync` and the routing policy.
    Between syncs each shard's estimated backlog is its last digest
    plus the tickets routed there since (``routed_since_sync``) — the
    router corrects for its *own* actions but not for completions it
    has not heard about, exactly the coordination gap of a real
    two-level control plane.

    Announced shard *death* is visible immediately (fail-stop faults
    carry their own notification): a dead shard never receives traffic,
    however stale its last digest.  *Gray* failures are not announced —
    an unreachable shard's digest simply stops refreshing (see
    :meth:`sync`) and only the attached :class:`HealthMonitor` can get
    the shard out of the routing set.
    """

    def __init__(
        self,
        shards: dict[int, NodeRuntime],
        policy: RoutingPolicy,
        sync_interval_s: float,
    ):
        self.shards = shards
        self.policy = policy
        self.sync_interval_s = sync_interval_s
        #: node -> last :class:`NodeDigest` (dropped when a shard dies).
        self.digests: dict = {}
        #: Optional :class:`~repro.serve.health.HealthMonitor`; when set,
        #: suspect shards are deprioritized and quarantined/probation
        #: shards excluded from routing (with a never-strand fallback).
        self.monitor: HealthMonitor | None = None
        #: Per-node forwarding breakers (set by the server when health
        #: is on); read here only as a ``wants_features`` routing input.
        self.breakers: dict[int, CircuitBreaker] = {}
        #: Optional ``node -> corruption-blame EWMA`` callable (set by
        #: the server when the integrity layer is on).
        self.blame_of = None
        #: Digest refreshes performed.
        self.syncs = 0
        #: Full-queue forward hops (ticket bounced to the next shard).
        self.forwards = 0
        #: Tickets re-homed after their shard died.
        self.reroutes = 0

    def sync(self, now: float, linkless_devices=frozenset(), unreachable=frozenset()) -> None:
        """Refresh every *reachable* live shard's digest.

        ``unreachable`` names shards that exist but cannot report right
        now (gray failures: every device down in a ``node_flap`` phase,
        or silenced by ``heartbeat_loss``).  Their digests are kept
        *stale* rather than refreshed or dropped — the router keeps
        routing on old information, exactly the failure mode health
        inference exists to catch.  Router-side ``routed_since_sync``
        corrections are likewise kept for unreachable shards.
        """
        if SYNC_AUDIT_HOOK is not None:
            SYNC_AUDIT_HOOK(self, now, unreachable)
        self.syncs += 1
        for node in sorted(self.shards):
            shard = self.shards[node]
            if shard.dead:
                self.digests.pop(node, None)
                continue
            if node in unreachable:
                continue
            self.digests[node] = shard.digest(now, linkless_devices)
            shard.routed_since_sync = 0
            shard.completed_since_sync = 0
            shard.sync_epoch += 1

    def _snapshot(self, node: int, digest, now: float):
        """Router-side snapshot, enriched only for opted-in policies."""
        shard = self.shards[node]
        monitor = self.monitor
        suspect = monitor.is_suspect(node) if monitor is not None else False
        if not self.policy.wants_features:
            return shard.snapshot(digest, suspect=suspect)
        breaker = self.breakers.get(node)
        return shard.snapshot(
            digest,
            suspect=suspect,
            age_s=max(now - digest.time_s, 0.0),
            suspicion=(
                monitor.suspicion(node, now) if monitor is not None else 0.0
            ),
            quarantines=(
                monitor.quarantine_count(node) if monitor is not None else 0
            ),
            breaker=(
                _BREAKER_CODE[breaker.state] if breaker is not None else 0
            ),
            blame=self.blame_of(node) if self.blame_of is not None else 0.0,
        )

    def route(self, vector: VectorSpec, now: float, exclude=frozenset()) -> int | None:
        """Choose a live shard for ``vector``; ``None`` when none remain.

        Routing state is *not* charged here: the caller commits the
        choice (queue offer or direct dispatch) and calls
        :meth:`charge` only on success, so a full-queue rejection does
        not inflate the shard's estimated backlog.

        With a health monitor attached, quarantined/probation/dead
        shards are excluded outright and suspect shards are flagged so
        every policy deprioritizes them; when exclusion would leave no
        candidate at all, the excluded set is used as a fallback —
        routing never strands a ticket that some shard could still take.
        """
        monitor = self.monitor
        routable: list = []
        avoided: list = []
        for node, digest in sorted(self.digests.items()):
            if node in exclude or self.shards[node].dead:
                continue
            snap = self._snapshot(node, digest, now)
            if monitor is not None and monitor.is_unroutable(node):
                avoided.append(snap)
            else:
                routable.append(snap)
        candidates = routable or avoided
        if not candidates:
            return None
        return self.policy.choose(vector, candidates)

    # ------------------------------------------- between-sync charge ledger
    def charge(self, ticket: Ticket, node: int, now: float) -> None:
        """Count a committed placement in the shard's stale correction.

        Every successful placement charges — direct dispatch, queue
        admission, forward landings, re-routes and hedge clones alike —
        because all of them are load the digest has not seen yet.  The
        ticket records which shard (and which digest epoch) it charged
        so :meth:`discharge` can reverse exactly this correction if the
        ticket later leaves the shard without completing.
        """
        shard = self.shards[node]
        shard.routed_since_sync += 1
        ticket.charge_node = node
        ticket.charge_epoch = shard.sync_epoch
        if self.policy.wants_features:
            digest = self.digests.get(node)
            if digest is not None:
                self.policy.note_placed(
                    ticket, self._snapshot(node, digest, now), now
                )

    def discharge(self, ticket: Ticket, now: float) -> None:
        """Reverse a ticket's pending charge (shed/abandon/cancel/reroute).

        A charge stamped under a superseded digest epoch was already
        wiped by the sync-time counter reset, so only a current-epoch
        charge decrements; either way the ticket's charge is cleared
        and any pending learned-routing sample is dropped (its latency
        would not be a completion latency).
        """
        node = ticket.charge_node
        if node is None:
            return
        ticket.charge_node = None
        shard = self.shards.get(node)
        if (
            shard is not None
            and not shard.dead
            and ticket.charge_epoch == shard.sync_epoch
            and shard.routed_since_sync > 0
        ):
            shard.routed_since_sync -= 1
        ticket.charge_epoch = -1
        if self.policy.wants_features:
            self.policy.note_outcome(ticket, now, completed=False)

    def note_completion(self, ticket: Ticket, now: float) -> None:
        """Settle a charged ticket's ledger entry on completion.

        The completion does *not* decrement ``routed_since_sync`` —
        the router deliberately never corrects for completions it has
        not heard about (the two-level coordination gap) — it only
        moves the charge to ``completed_since_sync`` so the sync-time
        conservation audit can reconcile the counters exactly.
        """
        node = ticket.charge_node
        if node is not None:
            shard = self.shards.get(node)
            if (
                shard is not None
                and not shard.dead
                and ticket.charge_epoch == shard.sync_epoch
            ):
                shard.completed_since_sync += 1
            ticket.charge_node = None
            ticket.charge_epoch = -1
        if self.policy.wants_features:
            self.policy.note_outcome(ticket, now, completed=True)


class ShardedServer(MiccoServer):
    """Sharded-control-plane mode of :class:`MiccoServer`.

    Requires a multi-node :class:`~repro.gpusim.topology.Topology` on
    the cost model — each topology node becomes one shard.  The serving
    knobs come from the same :class:`~repro.serve.server.ServeConfig`
    (``sync_interval_s``, ``routing``); tenants and the autoscaler are
    applied *per shard* (weighted-fair admission inside each shard's
    queue, the autoscaler config clamped to each shard's device count).

    Example
    -------
    >>> topo = Topology(num_devices=8, devices_per_node=4)
    >>> cfg = MiccoConfig(num_devices=8, cost_model=CostModel(topology=topo))
    >>> serve = ServeConfig(sharded=True, routing="residency-affinity")
    >>> result = ShardedServer(config=cfg, serve=serve).run(vectors, arrivals)
    >>> result.sharding["shards"][0]["routed"]
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        config: MiccoConfig | None = None,
        serve: ServeConfig | None = None,
        predictor=None,
    ):
        super().__init__(scheduler, config, serve, predictor)
        topo = self.config.cost_model.topology
        if topo is None:
            raise ConfigurationError(
                "ShardedServer needs a multi-node Topology on the cost model "
                "(set CostModel(topology=Topology(...)) on MiccoConfig)"
            )
        if topo.num_devices != self.cluster.num_devices:
            raise ConfigurationError(
                f"topology covers {topo.num_devices} devices but the cluster "
                f"has {self.cluster.num_devices}"
            )
        self.topology = topo

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

        Same signature and errors as :meth:`MiccoServer.run`.
        """
        streams = self._streams(vectors, arrivals, seed, build_streams)
        return self._serve_sharded(streams, faults=faults, reset=reset, seed=seed)

    def _build_shards(self, streams: list[TenantStream]) -> dict[int, NodeRuntime]:
        """One :class:`NodeRuntime` per topology node.

        Each shard gets its own deep copy of the scheduler (per-shard
        reuse-bound state) and of the dispatch policy.  In sharded mode
        the :class:`FaultAware` gate runs once at the global tier,
        before routing, so shed accounting is not split across shards.
        """
        cfg = self.serve_config
        policy = self._resolve_policy(streams)
        shards: dict[int, NodeRuntime] = {}
        for node in range(self.topology.num_nodes):
            devices = self.topology.devices_of_node(node)
            scaler = None
            if cfg.autoscaler is not None:
                c = cfg.autoscaler
                n = len(devices)
                # The global autoscaler config, clamped to this shard's
                # physical device count (per-shard scaling decisions).
                min_d = max(1, min(c.min_devices, n))
                max_d = max(min_d, min(c.max_devices, n))
                initial = (
                    None
                    if c.initial_devices is None
                    else max(min_d, min(c.initial_devices, max_d))
                )
                scaler = Autoscaler(
                    c.with_(min_devices=min_d, max_devices=max_d, initial_devices=initial)
                )
            shards[node] = self._runtime(
                node, devices, ShardView(self.cluster, devices),
                copy.deepcopy(self.scheduler), copy.deepcopy(policy), scaler,
            )
        return shards

    # ------------------------------------------------------------- event loop
    def _serve_sharded(
        self,
        streams: list[TenantStream],
        *,
        faults: FaultPlan | None,
        reset: bool = True,
        seed=0,
    ) -> ServeResult:
        """The sharded discrete-event loop (single shared timeline)."""
        if reset:
            self.cluster.reset()
            if hasattr(self.scheduler, "reset_stats"):
                self.scheduler.reset_stats()

        cfg = self.serve_config
        topo = self.topology
        if faults is None:
            faults = cfg.faults
        timeline = Timeline()
        report = LatencyReport()
        total = ExecutionMetrics(num_devices=self.cluster.num_devices)
        busy_until = np.zeros(self.cluster.num_devices)
        wants_bounds = self.predictor is not None and hasattr(self.scheduler, "set_bounds")
        injector = (
            FaultInjector(faults, self.cluster.num_devices) if faults is not None else None
        )
        journal = ResidencyJournal(cfg.journal_capacity) if cfg.warm_restore else None
        integ = (
            IntegrityState(cfg.integrity, self.cluster.num_devices)
            if cfg.integrity is not None and cfg.integrity.mode != "off"
            else None
        )
        #: id(ticket) -> audited-and-repaired; re-pushed completions of
        #: repaired tickets skip a second audit (see VectorCompletion).
        verified: set[int] = set()
        # Fault-aware admission runs once at the global tier (the shard
        # queues keep plain policies — see _build_shards).
        gate = (
            FaultAware(Fifo(), min_success_prob=cfg.admission_min_success)
            if cfg.fault_aware_admission
            else None
        )
        shards = self._build_shards(streams)
        policy_kwargs = {}
        if cfg.routing == "learned":
            # The exploration stream derives from the run seed, so the
            # learned policy replays byte-identically at a fixed seed.
            entropy = (seed if isinstance(seed, int) else 0) & 0xFFFF_FFFF
            policy_kwargs = dict(
                explore_floor=cfg.explore_floor,
                min_samples=cfg.min_samples,
                refit_interval=cfg.refit_interval,
                seed=np.random.SeedSequence([0x1EA4, entropy]),
            )
        router = GlobalScheduler(
            shards,
            make_routing_policy(cfg.routing, **policy_kwargs),
            cfg.sync_interval_s,
        )
        pending: dict[int, Ticket] = {}
        round_ids = itertools.count()
        rounds_log: list[dict] = []
        events_processed = 0

        # ----- health subsystem (monitor + breakers + hedging state) -----
        hcfg = cfg.health
        monitor: HealthMonitor | None = None
        breakers: dict[int, CircuitBreaker] = {}
        breaker_log: list[dict] = []
        hstats = {
            "launched": 0,
            "won_by_primary": 0,
            "won_by_clone": 0,
            "cancelled": 0,
            "absorbed_drops": 0,
            "unplaced": 0,
        }
        health_events: list[dict] = []
        hedger = (
            AdaptiveHedgeDeadline(hcfg)
            if hcfg is not None and hcfg.hedging and hcfg.adaptive_hedging
            else None
        )
        if hcfg is not None:
            monitor = HealthMonitor(shards.keys(), hcfg)
            router.monitor = monitor
            breakers = {
                n: CircuitBreaker(
                    n,
                    hcfg.breaker_threshold,
                    hcfg.breaker_probe_interval_s,
                    transitions=breaker_log,
                )
                for n in sorted(shards)
            }
            router.breakers = breakers
        if integ is not None:
            router.blame_of = lambda node: max(
                (integ.ewma[d] for d in shards[node].devices), default=0.0
            )

        # Shards with an autoscaler: the only ones the loop steps.
        scaled = [shards[n] for n in sorted(shards) if shards[n].scaler is not None]
        self._push_arrivals(timeline, streams)

        def linkless() -> frozenset[int]:
            return injector.linkless_devices if injector is not None else frozenset()

        def unreachable_shards(now: float) -> frozenset[int]:
            """Live shards that cannot report right now (gray failures)."""
            silent = (
                injector.silent_devices(now) if injector is not None else frozenset()
            )
            return frozenset(
                n
                for n, s in shards.items()
                if not s.dead
                and (s.view.num_alive == 0 or any(d in silent for d in s.devices))
            )

        def down_shards() -> frozenset[int]:
            """Live shards with every device flapped down (unschedulable)."""
            return frozenset(
                n for n, s in shards.items() if not s.dead and s.view.num_alive == 0
            )

        def dispatch(shard: NodeRuntime, members: list[Ticket], now: float) -> None:
            """Dispatch one scheduling round on ``shard``."""
            shard.inflight += 1
            rnd = BatchRound(round_id=next(round_ids), members=members)
            for t in members:
                t.dispatch_s = now
                t.round_id = rnd.round_id
                t.round_size = len(members)
                t.round = rnd
                t.shard = shard.node
                shard.inflight_tickets[id(t)] = t
            latency = cfg.schedule_latency_per_pair_s * rnd.num_pairs
            timeline.push(SchedulingDone(now + latency, members[0], round=rnd))
            rounds_log.append(
                {
                    "round_id": rnd.round_id,
                    "shard": shard.node,
                    "members": [t.vector.vector_id for t in members],
                    "pairs": rnd.num_pairs,
                    "dispatch_s": now,
                    "sched_done_s": now + latency,
                }
            )

        def refill(shard: NodeRuntime, now: float) -> None:
            if shard.dead or shard.view.num_alive == 0:
                return
            while shard.inflight < cfg.max_inflight:
                members = self._pop_round(shard, now)
                if not members:
                    break
                # Hedge losers cancelled while queued settle silently.
                members = [t for t in members if not t.cancelled]
                if not members:
                    continue
                dispatch(shard, members, now)

        def settle(ticket: Ticket, now: float) -> None:
            """A round member settled; free the shard slot on the last one."""
            pending.pop(id(ticket), None)
            if ticket.shard is not None:
                owner = shards.get(ticket.shard)
                if owner is not None:
                    owner.inflight_tickets.pop(id(ticket), None)
            rnd = ticket.round
            ticket.round = None
            if rnd is None:
                return  # never dispatched (e.g. dropped while queued)
            rnd.remaining -= 1
            if rnd.remaining > 0:
                return
            shard = shards.get(ticket.shard)
            if shard is not None and not shard.dead:
                shard.inflight -= 1
                refill(shard, now)

        def abandon(ticket: Ticket, now: float) -> None:
            ticket.epoch += 1
            router.discharge(ticket, now)
            if hedge_shielded(ticket):
                # The vector's hedge partner is still racing: this copy
                # cancels silently instead of recording an SLO drop.
                ticket.cancelled = True
                hstats["absorbed_drops"] += 1
            else:
                report.add_drop(ticket, reason="fault-abandoned")
            settle(ticket, now)

        def place(
            ticket: Ticket,
            now: float,
            rerouted: bool = False,
            hedge_clone: bool = False,
            tried=None,
        ) -> None:
            """Route ``ticket`` to a shard; forward past full queues.

            The router proposes shards in policy order; a full shard
            costs one forward hop and joins ``tried``, which excludes
            *every* previously-rejected shard from the retry — one
            routing attempt visits each shard at most once, so a ticket
            facing all-full queues sheds deterministically instead of
            bouncing.  Shards whose forwarding circuit breaker is open
            are skipped without an offer; if only breaker-skipped
            shards remain they get one bypass pass (last resort beats
            stranding).  When every live shard is full the ticket is
            shed ``queue-full``; with no live shard at all it is
            ``fault-abandoned`` — unless a hedge partner still covers
            the vector, in which case this copy cancels silently.
            """
            if ticket.cancelled:
                return
            tried = set() if tried is None else set(tried)
            skipped: set[int] = set()
            bypass = False
            while True:
                node = router.route(ticket.vector, now, exclude=tried | skipped)
                if node is None:
                    if skipped and not bypass:
                        bypass = True
                        skipped.clear()
                        continue
                    if hedge_clone or hedge_shielded(ticket):
                        ticket.cancelled = True
                        hstats["unplaced" if hedge_clone else "absorbed_drops"] += 1
                    elif tried:
                        report.add_drop(ticket)  # every live shard was full
                    else:
                        report.add_drop(ticket, reason="fault-abandoned")
                    return
                shard = shards[node]
                breaker = breakers.get(node)
                if breaker is not None and not bypass and not breaker.allow(now):
                    skipped.add(node)
                    continue
                if (
                    shard.inflight < cfg.max_inflight
                    and not len(shard.queue)
                    and shard.view.num_alive > 0
                ):
                    dispatch(shard, [ticket], now)
                elif not shard.queue.offer(ticket):
                    if breaker is not None:
                        breaker.record_rejection(now)
                    tried.add(node)
                    ticket.forwards += 1
                    router.forwards += 1
                    continue
                else:
                    ticket.shard = node
                if breaker is not None:
                    breaker.record_success(now)
                shard.routed += 1
                router.charge(ticket, node, now)
                if ticket.forwards:
                    shard.forwarded_in += 1
                if rerouted:
                    shard.rerouted_in += 1
                if hedge_clone:
                    shard.hedged_in += 1
                return

        def reroute(ticket: Ticket, now: float) -> None:
            """Re-home a ticket whose shard died (arrival clock intact)."""
            if ticket.shard is not None:
                old = shards.get(ticket.shard)
                if old is not None:
                    old.inflight_tickets.pop(id(ticket), None)
            router.discharge(ticket, now)
            ticket.round = None
            ticket.round_id = None
            ticket.dispatch_s = None
            ticket.sched_done_s = None
            ticket.shard = None
            router.reroutes += 1
            place(ticket, now, rerouted=True)

        def apply_loss(fault, now: float) -> None:
            """Kill a failure domain; recover through shard or router."""
            kind = fault.kind.value
            members = [
                d for d in self._blast_radius(fault) if not self.cluster.is_failed(d)
            ]
            if not members:
                return
            orphaned = self.cluster.fail_node(members)
            if not orphaned:
                return
            if fault.kind is FaultKind.NODE_LOST:
                injector.stats.node_losses += 1
            for dev, orphans in sorted(orphaned.items()):
                injector.note_device_lost(dev, fault.time_s, len(orphans))
                injector.stats.record_event(
                    "fault", dev, fault.time_s, 0.0, label=kind.replace("_", " ")
                )
            dead = set(orphaned)
            by_shard: dict[int, set[int]] = {}
            for d in dead:
                by_shard.setdefault(topo.node_of(d), set()).add(d)

            latest = now
            rescheduled = 0
            for node in sorted(by_shard):
                shard = shards[node]
                if shard.view.num_alive == 0:
                    # The whole shard died: queued work re-routes through
                    # the global tier, in-flight work re-homes on a
                    # router-chosen surviving shard.
                    shard.dead = True
                    shard.inflight = 0
                    shard.inflight_tickets.clear()
                    shard.pending_online.clear()
                    router.digests.pop(node, None)
                    for t in shard.drain_queue():
                        reroute(t, now)
                    affected = [
                        t for t in pending.values() if by_shard[node] & set(t.assignment)
                    ]
                    for ticket in sorted(affected, key=lambda t: t.vector.vector_id):
                        # The charge cannot complete on the dead shard;
                        # drop it (and any learned sample) before the
                        # ticket re-homes.
                        router.discharge(ticket, now)
                        if not cfg.recover_faults:
                            abandon(ticket, now)
                            continue
                        target_node = router.route(ticket.vector, now)
                        if target_node is None:
                            abandon(ticket, now)
                            continue
                        target = shards[target_node]
                        try:
                            complete = self._reschedule_orphans(
                                target, ticket, by_shard[node], now, busy_until, total,
                                stats=injector.stats,
                            )
                        except FaultError:
                            abandon(ticket, now)
                            continue
                        router.reroutes += 1
                        target.rerouted_in += 1
                        ticket.epoch += 1
                        timeline.push(VectorCompletion(complete, ticket, epoch=ticket.epoch))
                        latest = max(latest, complete)
                        rescheduled += 1
                else:
                    # Partial loss: the shard recovers on its own
                    # survivors, with its own rescaled bounds.
                    alive_before = shard.view.num_alive + len(by_shard[node])
                    self._rescale_bounds(shard, alive_before, shard.view.num_alive)
                    affected = [
                        t for t in pending.values() if by_shard[node] & set(t.assignment)
                    ]
                    for ticket in sorted(affected, key=lambda t: t.vector.vector_id):
                        if not cfg.recover_faults:
                            abandon(ticket, now)
                            continue
                        try:
                            complete = self._reschedule_orphans(
                                shard, ticket, by_shard[node], now, busy_until, total,
                                stats=injector.stats,
                            )
                        except FaultError:
                            abandon(ticket, now)
                            continue
                        ticket.epoch += 1
                        timeline.push(VectorCompletion(complete, ticket, epoch=ticket.epoch))
                        latest = max(latest, complete)
                        rescheduled += 1
                    if (
                        shard.scaler is not None
                        and shard.scaler.config.replace_lost
                    ):
                        self._replace_lost(shard, now, timeline, len(by_shard[node]))
            if cfg.recover_faults:
                injector.stats.record_recovery(kind, latest - fault.time_s)
                injector.stats.record_event(
                    "recovery", fault.device, now, max(latest - now, 0.0),
                    label=f"rescheduled {rescheduled} vectors",
                )
            else:
                injector.stats.record_recovery(kind, 0.0)

        def apply_flap(fault, now: float) -> None:
            """A node bounces: devices die *without announcement*.

            Unlike :func:`apply_loss` the shard is NOT marked dead, its
            queue is NOT drained and its digest stays stale — from the
            router's perspective nothing happened, which is the whole
            point of a gray fault.  In-flight work referencing the dead
            devices still has to move (the simulation knows the work
            cannot finish), and a :class:`DeviceRestore` per device
            brings the node back ``duration_s`` later.
            """
            members = [
                d for d in self._blast_radius(fault) if not self.cluster.is_failed(d)
            ]
            if not members:
                return
            orphaned = self.cluster.fail_node(members)
            if not orphaned:
                return
            for dev, orphans in sorted(orphaned.items()):
                injector.note_device_lost(dev, fault.time_s, len(orphans))
                injector.stats.record_event(
                    "fault", dev, fault.time_s, fault.duration_s, label="node flap down"
                )
                timeline.push(
                    DeviceRestore(
                        max(now, fault.time_s + fault.duration_s), device=dev
                    )
                )
            dead = set(orphaned)
            by_shard: dict[int, set[int]] = {}
            for d in dead:
                by_shard.setdefault(topo.node_of(d), set()).add(d)

            latest = now
            rescheduled = 0
            for node in sorted(by_shard):
                shard = shards[node]
                whole_node = shard.view.num_alive == 0
                if not whole_node:
                    alive_before = shard.view.num_alive + len(by_shard[node])
                    self._rescale_bounds(shard, alive_before, shard.view.num_alive)
                affected = [
                    t for t in pending.values() if by_shard[node] & set(t.assignment)
                ]
                for ticket in sorted(affected, key=lambda t: t.vector.vector_id):
                    if not cfg.recover_faults:
                        abandon(ticket, now)
                        continue
                    if whole_node:
                        target_node = router.route(
                            ticket.vector, now, exclude=down_shards()
                        )
                        if target_node is None:
                            abandon(ticket, now)
                            continue
                        target = shards[target_node]
                    else:
                        target = shard
                    try:
                        complete = self._reschedule_orphans(
                            target, ticket, by_shard[node], now, busy_until, total,
                            stats=injector.stats,
                        )
                    except FaultError:
                        abandon(ticket, now)
                        continue
                    if whole_node:
                        router.reroutes += 1
                        target.rerouted_in += 1
                    ticket.epoch += 1
                    timeline.push(
                        VectorCompletion(complete, ticket, epoch=ticket.epoch)
                    )
                    latest = max(latest, complete)
                    rescheduled += 1
            if cfg.recover_faults:
                injector.stats.record_recovery("node_flap", latest - fault.time_s)
                if rescheduled:
                    injector.stats.record_event(
                        "recovery", fault.device, now, max(latest - now, 0.0),
                        label=f"rescheduled {rescheduled} vectors",
                    )
            else:
                injector.stats.record_recovery("node_flap", 0.0)

        def apply_silence(fault, now: float) -> None:
            """A node goes gray-silent: alive and computing, not reporting."""
            devices = sorted(
                d for d in self._blast_radius(fault) if self.cluster.is_alive(d)
            )
            if not devices:
                return
            injector.note_heartbeat_loss(
                devices, fault.time_s, fault.time_s + fault.duration_s
            )
            injector.stats.record_event(
                "fault", fault.device, fault.time_s, fault.duration_s,
                label="heartbeat loss",
            )

        def quarantine_blamed(dev: int, now: float) -> None:
            """Retire a device blamed for silent corruption (sharded path).

            Mirrors :meth:`MiccoServer._quarantine_device` with
            shard-scoped recovery — the bounds rescale and the orphan
            rescheduling run through the *owning shard's* scheduler and
            view — and escalates the blame into the health monitor as a
            suspicion floor, so routing stops trusting the node even
            though its heartbeats still arrive on time (corruption is
            exactly the gray failure heartbeats cannot see).
            """
            node = topo.node_of(dev)
            shard = shards[node]
            for uid in integ.dirty_uids_on(dev):
                if self.cluster.is_resident(uid, dev):
                    self.cluster.drop(uid, dev, reason="corrupt")
            injector.stats.record_event(
                "blame", dev, now, 0.0,
                label=f"quarantined (corruption ewma {integ.ewma[dev]:.3f})",
            )
            if monitor is not None:
                monitor.raise_suspicion(node, hcfg.quarantine_threshold)
            health_events.append(
                {
                    "kind": "blame",
                    "node": node,
                    "time_s": now,
                    "label": f"device {dev} quarantined for corruption",
                }
            )
            if not self.cluster.is_alive(dev) or self.cluster.num_alive <= 1:
                return
            if shard.dead or shard.view.num_alive <= 1:
                # Never retire a shard's last device: a degraded shard
                # beats a dead one, and mandatory audits of its output
                # will flag whatever cannot be verified.
                return
            before = shard.view.num_alive
            self.cluster.retire_device(dev)
            self._rescale_bounds(shard, before, shard.view.num_alive)
            affected = [t for t in pending.values() if dev in set(t.assignment)]
            for ticket in sorted(affected, key=lambda t: t.vector.vector_id):
                try:
                    complete = self._reschedule_orphans(
                        shard, ticket, {dev}, now, busy_until, total,
                        stats=injector.stats,
                    )
                except FaultError:
                    abandon(ticket, now)
                    continue
                verified.discard(id(ticket))
                ticket.epoch += 1
                timeline.push(VectorCompletion(complete, ticket, epoch=ticket.epoch))

        self.engine.injector = injector
        self.engine.integrity = integ
        self.cluster.journal = journal
        # Initial digests so routing works before the first sync fires.
        router.sync(0.0, linkless())
        timeline.push(DigestSync(cfg.sync_interval_s))
        if monitor is not None:
            timeline.push(HealthTick(hcfg.heartbeat_interval_s))
        try:
            while timeline:
                event = timeline.pop()
                now = timeline.now
                events_processed += 1
                if journal is not None:
                    journal.advance(now)
                if injector is not None:
                    for loss in injector.poll(now):
                        if loss.kind is FaultKind.LINK_LOST:
                            self._apply_link_loss(loss, now, injector)
                        elif loss.kind is FaultKind.NODE_FLAP:
                            apply_flap(loss, now)
                        elif loss.kind is FaultKind.HEARTBEAT_LOSS:
                            apply_silence(loss, now)
                        elif loss.kind is FaultKind.TENSOR_BITFLIP:
                            self._apply_bitflip(loss, now, injector, integ)
                        else:
                            apply_loss(loss, now)
                if integ is not None:
                    for dev in integ.poll_quarantines():
                        quarantine_blamed(dev, now)
                for shard in scaled:
                    if not shard.dead:
                        self._autoscale_step(
                            shard, now, timeline, pending, busy_until, total,
                            injector, abandon,
                        )
                ticket = event.ticket

                if isinstance(event, DigestSync):
                    router.sync(now, linkless(), unreachable=unreachable_shards(now))
                    if timeline.work_remaining:
                        # Stop syncing once only control timers remain:
                        # digests with no traffic left would tick forever.
                        timeline.push(DigestSync(now + cfg.sync_interval_s))

                elif isinstance(event, VectorArrival):
                    if self._admit(ticket, now, gate, injector, report):
                        place(ticket, now)

                elif isinstance(event, SchedulingDone):
                    members = event.round.members if event.round is not None else [ticket]
                    for t in members:
                        t.sched_done_s = now
                    shard = shards.get(members[0].shard)
                    if shard is None or shard.dead or shard.view.num_alive == 0:
                        # The shard died (or flapped down to zero alive
                        # devices) between dispatch and sched-done.  A
                        # dead shard's inflight was already zeroed; a
                        # flapped shard's round slot is released here.
                        if (
                            shard is not None
                            and not shard.dead
                            and shard.inflight > 0
                        ):
                            shard.inflight -= 1
                        for t in members:
                            if t.cancelled:
                                t.round = None
                                if shard is not None:
                                    shard.inflight_tickets.pop(id(t), None)
                                continue
                            reroute(t, now)
                        continue
                    # Hedge losers cancelled between dispatch and
                    # sched-done settle here, releasing the round slot.
                    for t in members:
                        if t.cancelled:
                            settle(t, now)
                    members = [t for t in members if not t.cancelled]
                    if members:
                        self._execute_round(
                            shard, members, now, wants_bounds, busy_until, total,
                            pending, timeline, abandon,
                        )

                elif isinstance(event, VectorCompletion):
                    if event.epoch != ticket.epoch or ticket.cancelled:
                        continue
                    if integ is not None and id(ticket) not in verified:
                        action, ready = self._audit_ticket(
                            integ, ticket, now, busy_until, total, injector
                        )
                        if action == "repair":
                            verified.add(id(ticket))
                            ticket.epoch += 1
                            timeline.push(
                                VectorCompletion(
                                    max(ready, now), ticket, epoch=ticket.epoch
                                )
                            )
                            continue
                        if action == "flag":
                            router.discharge(ticket, now)
                            report.add_drop(ticket, reason="integrity-unverified")
                            settle(ticket, now)
                            continue
                    if integ is not None:
                        verified.discard(id(ticket))
                        integ.note_reported(ticket.vector, ticket.assignment)
                    ticket.complete_s = now
                    rec = report.add_completion(ticket)
                    router.note_completion(ticket, now)
                    if hedger is not None:
                        hedger.observe(ticket.tenant, rec.latency_s)
                    owner = shards.get(ticket.shard)
                    if owner is not None and owner.scaler is not None:
                        owner.scaler.observe_completion(now, rec.latency_s)
                    settle(ticket, now)
                    pair = ticket.hedge
                    if pair is not None and not pair.resolved:
                        # First completion wins; the loser is cancelled
                        # with exactly-once accounting (its round slot
                        # settles, no completion, no drop).
                        pair.resolved = True
                        pair.winner = ticket
                        hstats[
                            "won_by_clone" if ticket is pair.clone else "won_by_primary"
                        ] += 1
                        loser = pair.other(ticket)
                        if not loser.cancelled:
                            loser.cancelled = True
                            loser.epoch += 1
                            router.discharge(loser, now)
                            hstats["cancelled"] += 1
                            health_events.append(
                                {
                                    "kind": "hedge",
                                    "node": loser.shard if loser.shard is not None else -1,
                                    "time_s": now,
                                    "label": (
                                        f"vector {ticket.vector.vector_id}: "
                                        + (
                                            "clone won, primary cancelled"
                                            if ticket is pair.clone
                                            else "primary won, clone cancelled"
                                        )
                                    ),
                                }
                            )
                            if id(loser) in pending:
                                settle(loser, now)

                elif isinstance(event, DeviceRestore):
                    shard = shards[topo.node_of(event.device)]
                    if not shard.dead and self._restore_device(
                        shard, event.device, now, busy_until, injector
                    ):
                        refill(shard, now)

                elif isinstance(event, HealthTick):
                    silent = (
                        injector.silent_devices(now)
                        if injector is not None
                        else frozenset()
                    )
                    for node in sorted(shards):
                        s = shards[node]
                        if s.dead:
                            monitor.mark_dead(node, now)
                        elif s.view.num_alive > 0 and not any(
                            d in silent for d in s.devices
                        ):
                            monitor.beat(node, now)
                        else:
                            monitor.miss()
                    for node in monitor.evaluate(now):
                        # Newly quarantined: drain its queue through the
                        # global tier.  The shard itself is left running
                        # (quarantine is not death) — only its *waiting*
                        # work moves to shards routing still trusts.
                        shard = shards[node]
                        drained = shard.drain_queue()
                        moved = 0
                        for t in drained:
                            if t.cancelled:
                                continue
                            shard.drained_out += 1
                            # The drain moves the ticket off this shard:
                            # reverse its between-sync charge before the
                            # new placement charges its destination.
                            router.discharge(t, now)
                            t.shard = None
                            place(t, now)
                            moved += 1
                        health_events.append(
                            {
                                "kind": "health",
                                "node": node,
                                "time_s": now,
                                "label": f"quarantined, drained {moved} tickets",
                            }
                        )
                    if hcfg.hedging:
                        for node in sorted(shards):
                            shard = shards[node]
                            if shard.dead or not monitor.is_suspect(node):
                                continue
                            for t in shard.queue.tickets():
                                if t.cancelled or t.hedge is not None:
                                    continue
                                deadline = (
                                    hedger.deadline_for(t.tenant)
                                    if hedger is not None
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
                                hstats["launched"] += 1
                                health_events.append(
                                    {
                                        "kind": "hedge",
                                        "node": node,
                                        "time_s": now,
                                        "label": (
                                            f"vector {t.vector.vector_id} hedged "
                                            f"off shard {node}"
                                        ),
                                    }
                                )
                                place(clone, now, hedge_clone=True, tried={node})
                    if timeline.work_remaining:
                        timeline.push(HealthTick(now + hcfg.heartbeat_interval_s))

                elif isinstance(event, DeviceOnline):
                    shard = shards[topo.node_of(event.device)]
                    if not shard.dead:
                        self._bring_online(shard, event.device, now, busy_until, injector)
        finally:
            self.engine.injector = None
            self.engine.integrity = None
            self.cluster.journal = None

        fault_summary, fault_events = self._fault_summary(injector, report)
        specs = [s.spec for s in streams if s.spec is not None]
        ordered = [shards[n] for n in sorted(shards)]
        queue_counters = {
            "capacity": cfg.queue_capacity,
            "policy": ordered[0].queue.policy.name,
            "admitted": sum(s.queue.admitted for s in ordered),
            "dropped": sum(s.queue.dropped for s in ordered),
            "peak_depth": max(s.queue.peak_depth for s in ordered),
        }
        autoscale = None
        if any(s.scaler is not None for s in ordered):
            actions = sorted(
                (a for s in ordered if s.scaler is not None for a in s.scaler.actions),
                key=lambda a: (a["time_s"], a["device"]),
            )
            autoscale = {
                "scale_ups": sum(1 for a in actions if a["action"] == "up"),
                "scale_downs": sum(1 for a in actions if a["action"] == "down"),
                "actions": actions,
                "per_shard": {
                    str(s.node): {
                        "scale_ups": sum(
                            1 for a in s.scaler.actions if a["action"] == "up"
                        ),
                        "scale_downs": sum(
                            1 for a in s.scaler.actions if a["action"] == "down"
                        ),
                    }
                    for s in ordered
                    if s.scaler is not None
                },
            }
        sharding = {
            "routing": router.policy.name,
            "sync_interval_s": cfg.sync_interval_s,
            "num_shards": len(ordered),
            "syncs": router.syncs,
            "forwards": router.forwards,
            "rerouted": router.reroutes,
            "cross_node_fetches": total.counts.cross_node_fetches,
            "shards": [
                {
                    "node": s.node,
                    "devices": list(s.devices),
                    "alive": s.view.num_alive,
                    "dead": s.dead,
                    "routed": s.routed,
                    "forwarded_in": s.forwarded_in,
                    "rerouted_in": s.rerouted_in,
                    "drained_out": s.drained_out,
                    "hedged_in": s.hedged_in,
                    "queue": s.queue.counters(),
                }
                for s in ordered
            ],
        }
        health_summary = None
        if monitor is not None:
            health_summary = {
                **monitor.summary(),
                "hedges": dict(hstats),
                "adaptive_deadlines": (
                    hedger.summary() if hedger is not None else None
                ),
                "breakers": {
                    "states": {str(n): breakers[n].state for n in sorted(breakers)},
                    "opens": sum(b.opens for b in breakers.values()),
                    "transitions": list(breaker_log),
                },
            }
            for tr in monitor.transitions:
                health_events.append(
                    {
                        "kind": "health",
                        "node": tr["node"],
                        "time_s": tr["time_s"],
                        "label": f"{tr['from']} -> {tr['to']}",
                    }
                )
            for tr in breaker_log:
                health_events.append(
                    {
                        "kind": "breaker",
                        "node": tr["node"],
                        "time_s": tr["time_s"],
                        "label": f"breaker {tr['from']} -> {tr['to']}",
                    }
                )
            health_events.sort(key=lambda e: (e["time_s"], e["node"], e["kind"], e["label"]))
        routing_summary = None
        routing_events: list[dict] = []
        if router.policy.wants_features:
            routing_summary = router.policy.summary()
            routing_events = sorted(
                router.policy.events,
                key=lambda e: (e["time_s"], e["node"], e["kind"], e["label"]),
            )
        return ServeResult(
            report=report,
            metrics=total,
            queue=queue_counters,
            arrival_s=sorted(t for s in streams for t in s.times),
            faults=fault_summary,
            fault_events=fault_events,
            tenants=tenant_sections(report, specs) if specs else None,
            autoscale=autoscale,
            journal=journal.summary() if journal is not None else None,
            rounds=rounds_log,
            sharding=sharding,
            health=health_summary,
            health_events=health_events,
            integrity=(
                integ.summary(float(total.compute_s.sum()))
                if integ is not None
                else None
            ),
            events_processed=events_processed,
            routing=routing_summary,
            routing_events=routing_events,
        )
