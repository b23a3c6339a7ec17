"""Two-level sharded control plane: a global router over node schedulers.

:class:`ShardedServer` splits the serving control plane into a
*global tier* (:class:`GlobalScheduler`: admission + routing from stale
per-node digests) and one :class:`~repro.serve.sharded.node.NodeRuntime`
per topology node, each running its own admission queue, MICCO
reuse-bound placement and batching over only its node's devices.  The
whole plane runs :class:`~repro.serve.server.MiccoServer`'s event loop
on one deterministic :class:`~repro.serve.timeline.Timeline`, so
fixed-seed runs replay bit for bit; what changes is the *scope* of
every control decision:

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

import numpy as np

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultKind
from repro.schedulers.base import Scheduler
from repro.serve.autoscale import Autoscaler
from repro.serve.health import (
    AdaptiveHedgeDeadline,
    CircuitBreaker,
    HealthMonitor,
    hedge_shielded,
)
from repro.serve.queueing import FaultAware, Fifo
from repro.serve.server import MiccoServer, RunState, ServeConfig
from repro.serve.sharded.node import NodeRuntime, ShardView
from repro.serve.sharded.routing import RoutingPolicy, make_routing_policy
from repro.serve.tenancy import TenantStream
from repro.serve.tenancy import build_streams  # noqa: F401  (wrapped by name by perfbench)
from repro.serve.timeline import DeviceOnline, DeviceRestore, Ticket
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

    The event loop is :class:`MiccoServer`'s; this class only builds the
    shards and the router and overrides the steps where a routed,
    multi-runtime pool behaves differently: placement, refill, a round
    whose shard died, device loss, heartbeat loss, blame quarantine and
    the report sections.

    Example
    -------
    >>> topo = Topology(num_devices=8, devices_per_node=4)
    >>> cfg = MiccoConfig(num_devices=8, cost_model=CostModel(topology=topo))
    >>> serve = ServeConfig(sharded=True, routing="residency-affinity")
    >>> result = ShardedServer(config=cfg, serve=serve).run(vectors, arrivals)
    >>> result.sharding["shards"][0]["routed"]
    """

    _heartbeat_label = "heartbeat loss"

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

    # ------------------------------------------------ shards, router, health
    def _build_runtimes(self, run: RunState, streams: list[TenantStream], seed) -> None:
        """One :class:`NodeRuntime` per topology node behind a :class:`GlobalScheduler`.

        Each shard gets its own deep copy of the scheduler (per-shard
        reuse-bound state) and of the dispatch policy.  The
        :class:`FaultAware` gate runs once at the global tier, before
        routing, so shed accounting is not split across shards.
        """
        cfg = self.serve_config
        if cfg.fault_aware_admission:
            run.gate = FaultAware(Fifo(), min_success_prob=cfg.admission_min_success)
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
        run.runtimes = shards
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
        router = run.router = GlobalScheduler(
            shards,
            make_routing_policy(cfg.routing, **policy_kwargs),
            cfg.sync_interval_s,
        )
        hcfg = cfg.health
        if hcfg is not None:
            run.monitor = router.monitor = HealthMonitor(shards.keys(), hcfg)
            run.breakers = router.breakers = {
                n: CircuitBreaker(
                    n,
                    hcfg.breaker_threshold,
                    hcfg.breaker_probe_interval_s,
                    transitions=run.breaker_log,
                )
                for n in sorted(shards)
            }
            if hcfg.hedging and hcfg.adaptive_hedging:
                run.hedger = AdaptiveHedgeDeadline(hcfg)
        integ = run.integ
        if integ is not None:
            router.blame_of = lambda node: max(
                (integ.ewma[d] for d in shards[node].devices), default=0.0
            )

    # ------------------------------------------------------------- placement
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
        router = run.router
        max_inflight = self.serve_config.max_inflight
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
                    run.hstats["unplaced" if hedge_clone else "absorbed_drops"] += 1
                elif tried:
                    run.report.add_drop(ticket)  # every live shard was full
                else:
                    run.report.add_drop(ticket, reason="fault-abandoned")
                return
            shard = run.runtimes[node]
            breaker = run.breakers.get(node)
            if breaker is not None and not bypass and not breaker.allow(now):
                skipped.add(node)
                continue
            if (
                shard.inflight < max_inflight
                and not len(shard.queue)
                and shard.view.num_alive > 0
            ):
                self._dispatch(run, shard, [ticket], now)
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

    def _reroute(self, run: RunState, ticket: Ticket, now: float) -> None:
        """Re-home a ticket whose shard died (arrival clock intact)."""
        old = run.runtimes.get(ticket.shard)
        if old is not None:
            old.inflight_tickets.pop(id(ticket), None)
        run.router.discharge(ticket, now)
        ticket.round = None
        ticket.round_id = None
        ticket.dispatch_s = None
        ticket.sched_done_s = None
        ticket.shard = None
        run.router.reroutes += 1
        self._place(run, ticket, now, rerouted=True)

    @staticmethod
    def _down_shards(run: RunState) -> frozenset[int]:
        """Live shards with every device flapped down (unschedulable)."""
        return frozenset(
            n for n, s in run.runtimes.items() if not s.dead and s.view.num_alive == 0
        )

    def _refill(self, run: RunState, rt: NodeRuntime, now: float) -> None:
        """A dead or flapped-down shard dispatches nothing; its queue waits."""
        if not rt.dead and rt.view.num_alive > 0:
            super()._refill(run, rt, now)

    def _pool_died(
        self, run: RunState, rt: NodeRuntime | None, members: list[Ticket], now: float
    ) -> None:
        """The round's shard died (or flapped down to zero alive devices)
        between dispatch and sched-done: re-route its members.

        A dead shard's inflight was already zeroed; a flapped shard's
        round slot is released here.
        """
        if rt is not None and not rt.dead and rt.inflight > 0:
            rt.inflight -= 1
        for t in members:
            if t.cancelled:
                t.round = None
                if rt is not None:
                    rt.inflight_tickets.pop(id(t), None)
                continue
            self._reroute(run, t, now)

    # -------------------------------------------------------- fault recovery
    def _apply_device_loss(self, run: RunState, fault: FaultEvent, now: float) -> None:
        """Kill a failure domain; recover through its shard or the router.

        A shard that keeps an alive device recovers on its own
        survivors, with its own rescaled bounds (and, for a permanent
        loss, ``replace_lost`` warm-ups).  A shard left with no alive
        device re-homes its in-flight orphans on router-chosen shards
        that still have one.  A fail-stop loss also marks that shard
        dead and re-routes its queue through the global tier — unless
        its autoscaler still holds a healthy retired spare: then the
        shard keeps its queue, stays routable and warms a spare
        (``replace_lost`` replaces every lost device; otherwise one
        warm-up restores the ``min_devices`` floor).  Such a shard dies
        the same way if a later fault takes its last spare before one
        comes online.  A ``node_flap`` of alive devices never kills a
        shard — the flap is unannounced, so the shard keeps its queue
        and its stale digest, and one :class:`DeviceRestore` per device
        brings it back ``duration_s`` later.
        """
        waiting = [rt for rt in run.runtimes.values() if self._awaits_spare(rt)]
        orphaned = self._fail_domain(run, fault)
        for shard in waiting:
            if not self._has_spare(shard):
                self._kill_shard(run, shard, now)
        if not orphaned:
            return
        flap = fault.kind is FaultKind.NODE_FLAP
        if flap:
            for dev in sorted(orphaned):
                run.timeline.push(
                    DeviceRestore(max(now, fault.time_s + fault.duration_s), device=dev)
                )
        router = run.router
        recover = self.serve_config.recover_faults
        by_shard: dict[int, set[int]] = {}
        for d in orphaned:
            by_shard.setdefault(self.topology.node_of(d), set()).add(d)
        latest = now
        rescheduled = 0
        for node in sorted(by_shard):
            shard = run.runtimes[node]
            lost = by_shard[node]
            whole = shard.view.num_alive == 0
            died = whole and not flap and not self._has_spare(shard)
            if not whole:
                self._rescale_bounds(shard, shard.view.num_alive + len(lost), shard.view.num_alive)
            elif died:
                self._kill_shard(run, shard, now)
            for ticket in self._orphans_of(run, lost):
                if died:
                    # The charge cannot complete on the dead shard; drop
                    # it (and any learned sample) before the ticket
                    # re-homes.
                    router.discharge(ticket, now)
                if not recover:
                    self._abandon(run, ticket, now)
                    continue
                target = shard
                if whole:
                    target_node = router.route(
                        ticket.vector, now, exclude=self._down_shards(run)
                    )
                    if target_node is None:
                        self._abandon(run, ticket, now)
                        continue
                    target = run.runtimes[target_node]
                complete = self._reexecute(run, target, ticket, lost, now)
                if complete is None:
                    continue
                if whole:
                    router.reroutes += 1
                    target.rerouted_in += 1
                latest = max(latest, complete)
                rescheduled += 1
            if not (died or flap) and shard.scaler is not None:
                if shard.scaler.config.replace_lost:
                    self._replace_lost(run, shard, now, len(lost))
                elif whole:
                    self._replace_lost(run, shard, now, 1)
        stats = run.injector.stats
        if not recover:
            stats.record_recovery(fault.kind.value, 0.0)
            return
        stats.record_recovery(fault.kind.value, latest - fault.time_s)
        if rescheduled or not flap:
            stats.record_event(
                "recovery", fault.device, now, max(latest - now, 0.0),
                label=f"rescheduled {rescheduled} vectors",
            )

    def _kill_shard(self, run: RunState, shard: NodeRuntime, now: float) -> None:
        """Mark ``shard`` dead and re-route its queue through the global tier."""
        shard.dead = True
        shard.inflight = 0
        shard.inflight_tickets.clear()
        shard.pending_online.clear()
        run.router.digests.pop(shard.node, None)
        for t in shard.drain_queue():
            self._reroute(run, t, now)

    def _has_spare(self, shard: NodeRuntime) -> bool:
        """``shard`` can warm a healthy retired device (or is warming one)."""
        return shard.scaler is not None and any(
            d in shard.devices for d in self.cluster.offline_ids()
        )

    def _awaits_spare(self, shard: NodeRuntime) -> bool:
        """A live shard with no alive device that waits on a spare warm-up.

        Only a fail-stop loss with a spare left produces this state: a
        flap fails every device of its node, spares included, and the
        autoscaler never retires a pool's last device.
        """
        return not shard.dead and shard.view.num_alive == 0 and self._has_spare(shard)

    def _on_device_online(self, run: RunState, event: DeviceOnline, now: float) -> None:
        """A spare warmed into a shard left with no alive device serves
        the queue that waited for it."""
        rt = run.owner[event.device]
        revived = rt.view.num_alive == 0
        super()._on_device_online(run, event, now)
        if revived:
            self._refill(run, rt, now)

    def _orphans_of(self, run: RunState, dead: set[int]) -> list[Ticket]:
        """In-flight tickets with pairs on ``dead`` devices, by vector id."""
        return sorted(super()._orphans_of(run, dead), key=lambda t: t.vector.vector_id)

    def _quarantine_device(self, run: RunState, device: int, now: float) -> None:
        """Retire a blamed device through its shard, and escalate the blame.

        The node's health suspicion is raised to the quarantine floor,
        so routing stops trusting it even though its heartbeats still
        arrive on time (corruption is exactly the gray failure
        heartbeats cannot see).
        """
        node = self.topology.node_of(device)
        if run.monitor is not None:
            run.monitor.raise_suspicion(node, self.serve_config.health.quarantine_threshold)
        run.health_events.append(
            {
                "kind": "blame",
                "node": node,
                "time_s": now,
                "label": f"device {device} quarantined for corruption",
            }
        )
        super()._quarantine_device(run, device, now)

    # ------------------------------------------------------------ report
    def _sections(self, run: RunState) -> dict:
        """Per-shard queue and autoscale sections, plus sharding, health
        and routing."""
        cfg = self.serve_config
        router = run.router
        ordered = [run.runtimes[n] for n in sorted(run.runtimes)]
        queue = {
            "capacity": cfg.queue_capacity,
            "policy": ordered[0].queue.policy.name,
            "admitted": sum(s.queue.admitted for s in ordered),
            "dropped": sum(s.queue.dropped for s in ordered),
            "peak_depth": max(s.queue.peak_depth for s in ordered),
        }
        autoscale = None
        scaled = [s for s in ordered if s.scaler is not None]
        if scaled:
            actions = sorted(
                (a for s in scaled for a in s.scaler.actions),
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
                    for s in scaled
                },
            }
        sharding = {
            "routing": router.policy.name,
            "sync_interval_s": cfg.sync_interval_s,
            "num_shards": len(ordered),
            "syncs": router.syncs,
            "forwards": router.forwards,
            "rerouted": router.reroutes,
            "cross_node_fetches": run.total.counts.cross_node_fetches,
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
        health = None
        health_events = run.health_events
        monitor = run.monitor
        if monitor is not None:
            breakers = run.breakers
            health = {
                **monitor.summary(),
                "hedges": dict(run.hstats),
                "adaptive_deadlines": (
                    run.hedger.summary() if run.hedger is not None else None
                ),
                "breakers": {
                    "states": {str(n): breakers[n].state for n in sorted(breakers)},
                    "opens": sum(b.opens for b in breakers.values()),
                    "transitions": list(run.breaker_log),
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
            for tr in run.breaker_log:
                health_events.append(
                    {
                        "kind": "breaker",
                        "node": tr["node"],
                        "time_s": tr["time_s"],
                        "label": f"breaker {tr['from']} -> {tr['to']}",
                    }
                )
            health_events.sort(key=lambda e: (e["time_s"], e["node"], e["kind"], e["label"]))
        routing = None
        routing_events: list[dict] = []
        if router.policy.wants_features:
            routing = router.policy.summary()
            routing_events = sorted(
                router.policy.events,
                key=lambda e: (e["time_s"], e["node"], e["kind"], e["label"]),
            )
        return {
            "queue": queue,
            "autoscale": autoscale,
            "sharding": sharding,
            "health": health,
            "health_events": health_events,
            "routing": routing,
            "routing_events": routing_events,
        }
