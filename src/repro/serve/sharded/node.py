"""Per-device-set scheduling runtime shared by both serving loops.

A :class:`NodeRuntime` is one device set's slice of the serving
machinery: its own bounded :class:`~repro.serve.queueing.AdmissionQueue`,
its own placement scheduler, autoscaler and reuse-bound anchor, and a
view of the shared :class:`~repro.gpusim.cluster.ClusterState`.  The
single loop runs one runtime over every device, whose view is the
cluster itself.  The sharded control plane runs one per topology node,
each with its own scheduler copy (MICCO reuse-bound state is per-shard)
and a :class:`ShardView` that scopes the cluster down to the node's
devices.  A shard never sees other nodes' queues; coordination happens
only through the digests it reports to the global tier
(:meth:`NodeRuntime.digest`) on the configured sync interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState
from repro.serve.queueing import AdmissionQueue
from repro.serve.sharded.routing import ShardSnapshot


class ShardView:
    """A node-scoped façade over the shared :class:`ClusterState`.

    Schedulers run unmodified against this view: every attribute
    delegates to the global cluster, but the *candidate-generating*
    surface — ``alive_ids``, ``num_alive``, ``devices_holding`` and the
    per-vector balance window (``begin_vector``) — is restricted to the
    shard's devices, so MICCO's Alg. 1/2 can only ever place pairs
    inside the shard.  The balance share ``balanceNum`` spreads each
    vector over the shard's survivors, not the whole cluster.

    The view is safe because the sharded server reuses the *single*
    deterministic timeline: exactly one scheduling round runs at a
    time, so the global ``assigned_slots``/``balance_num`` counters the
    view resets are never shared between concurrent rounds.
    """

    def __init__(self, cluster: ClusterState, devices):
        self._cluster = cluster
        self.devices = tuple(sorted(int(d) for d in devices))
        self._device_set = frozenset(self.devices)
        if not self.devices:
            raise SchedulingError("a shard view needs at least one device")

    def __getattr__(self, name):
        # Anything not shard-scoped (pools, compute_s, free_bytes,
        # is_resident, record_assignment, ...) is the global state.
        return getattr(self._cluster, name)

    # ---------------------------------------------------- shard-scoped surface
    def alive_ids(self) -> list[int]:
        return [d for d in self.devices if self._cluster.is_alive(d)]

    @property
    def num_alive(self) -> int:
        return len(self.alive_ids())

    def devices_holding(self, uid: int) -> frozenset[int]:
        """Holders *inside the shard* — candidates must stay local.

        The execution engine still fetches from the globally cheapest
        holder, so a vector routed away from its data pays the
        cross-node transfer through the cost model rather than being
        silently co-located.
        """
        return self._cluster.devices_holding(uid) & self._device_set

    def begin_vector(self, num_tensors: int) -> None:
        """Shard-local balance window: spread over the shard's survivors."""
        if num_tensors <= 0:
            raise SchedulingError(
                f"vector must have positive tensor slots, got {num_tensors}"
            )
        alive = self.num_alive
        if alive == 0:
            raise SchedulingError("cannot begin a vector: the shard has no alive devices")
        self._cluster.assigned_slots[:] = 0
        self._cluster.balance_num = num_tensors / alive


@dataclass(frozen=True)
class NodeDigest:
    """One shard's load/residency report to the global tier.

    Built by :meth:`NodeRuntime.digest` at sync time and *not* updated
    in between — the router's view is deliberately stale by up to one
    sync interval (plus its own routed-since-sync correction).
    """

    node: int
    time_s: float
    alive: int
    queue_depth: int
    inflight: int
    linkless: bool
    #: uid -> resident bytes across the shard's alive devices.
    residency: dict


class NodeRuntime:
    """One device set's local scheduler: queue + placement over its devices.

    Parameters
    ----------
    node:
        Topology node id (also the shard id); ``None`` for the single
        loop's runtime over every device.
    devices:
        The runtime's device ids (a shard's come from
        ``Topology.devices_of_node``).
    view:
        Cluster view the local scheduler places through: a
        :class:`ShardView` for a shard, the
        :class:`~repro.gpusim.cluster.ClusterState` itself for the
        single loop.
    scheduler:
        This runtime's *own* scheduler instance (per-shard reuse-bound
        state; never shared with other shards).
    queue:
        This runtime's bounded admission queue.
    tracker:
        Workload-characteristics tracker (bounds prediction).
    scaler:
        Optional autoscaler (for a shard, the global config clamped to
        the shard's device count).
    """

    def __init__(self, node, devices, view, scheduler, queue: AdmissionQueue,
                 tracker, scaler=None):
        self.node = node
        self.devices = tuple(sorted(int(d) for d in devices))
        self.view: ShardView | ClusterState = view
        self.scheduler = scheduler
        self.queue = queue
        self.tracker = tracker
        self.scaler = scaler
        #: Scheduling rounds dispatched and not yet fully settled.
        self.inflight = 0
        #: True once the node's failure domain died; a dead shard takes
        #: no more traffic and its queued work re-routes globally.
        self.dead = False
        #: Devices of this shard warming up (autoscale / replacement).
        self.pending_online: set[int] = set()
        #: Tickets the router sent here since the last digest sync.
        #: Charged at placement (direct dispatch, queue admission,
        #: forward landings and hedge clones alike) and *discharged*
        #: when a charged ticket leaves the shard without completing —
        #: shed, abandoned, hedge-cancelled, quarantine-drained or
        #: rerouted — so the correction never counts work the shard no
        #: longer holds.
        self.routed_since_sync = 0
        #: Charged tickets that completed since the last sync.  Kept so
        #: the conservation invariant is checkable at every sync:
        #: ``routed_since_sync == completed_since_sync + charged tickets
        #: still queued or in flight here``.
        self.completed_since_sync = 0
        #: Bumped at every digest refresh; charges stamp the epoch they
        #: were made under so a stale charge (made before the counter
        #: reset) is never double-reversed.
        self.sync_epoch = 0
        #: id(ticket) -> ticket for every member dispatched on this
        #: shard and not yet settled (the audit-side complement of the
        #: ``inflight`` round counter).
        self.inflight_tickets: dict[int, object] = {}
        #: (bounds, alive-count) anchor for reuse-bound rescaling.
        self.bounds_anchor: tuple | None = None
        #: (alive-id list, byte budget) of the last batched round; see
        #: ``MiccoServer._pop_round``.
        self.budget_cache: tuple | None = None
        # ----- counters for the report's sharding section -----
        #: Tickets placed on this shard (queued or directly dispatched).
        self.routed = 0
        #: Of those, tickets that arrived after >= 1 full-queue forward.
        self.forwarded_in = 0
        #: Tickets re-homed here after their original shard died.
        self.rerouted_in = 0
        #: Tickets drained *out* of this shard's queue by quarantine.
        self.drained_out = 0
        #: Speculative hedge clones placed on this shard.
        self.hedged_in = 0

    def scoped(self, text: str, sep: str = " ") -> str:
        """``text`` prefixed with the shard's name (autoscaler reasons)."""
        return text if self.node is None else f"shard {self.node}{sep}{text}"

    # ------------------------------------------------------------------ digest
    def digest(self, now: float, linkless_devices=frozenset()) -> NodeDigest:
        """Snapshot this shard's load and residency for the global tier."""
        residency: dict[int, int] = {}
        cluster = self.view._cluster
        for d in self.view.alive_ids():
            pool = cluster.pools[d]
            for uid in pool.resident_uids():
                residency[uid] = pool.nbytes_of(uid)
        return NodeDigest(
            node=self.node,
            time_s=now,
            alive=self.view.num_alive,
            queue_depth=len(self.queue),
            inflight=self.inflight,
            linkless=any(d in linkless_devices for d in self.devices),
            residency=residency,
        )

    def snapshot(
        self,
        digest: NodeDigest,
        suspect: bool = False,
        *,
        age_s: float = 0.0,
        suspicion: float = 0.0,
        quarantines: int = 0,
        breaker: int = 0,
        blame: float = 0.0,
    ) -> ShardSnapshot:
        """Combine the last digest with the router-side correction.

        The keyword-only tail carries the enriched features for
        ``wants_features`` policies; static policies call with defaults
        and get exactly the historical snapshot.
        """
        return ShardSnapshot(
            node=self.node,
            alive=digest.alive,
            queue_depth=digest.queue_depth,
            inflight=digest.inflight,
            linkless=digest.linkless,
            suspect=suspect,
            residency=digest.residency,
            pending=self.routed_since_sync,
            age_s=age_s,
            suspicion=suspicion,
            quarantines=quarantines,
            breaker=breaker,
            blame=blame,
        )

    def drain_queue(self):
        """Pop every queued ticket (policy order) — shard-death re-routing."""
        out = []
        while True:
            t = self.queue.pop()
            if t is None:
                return out
            out.append(t)
