"""MICCO's heuristic scheduling algorithm (paper Alg. 1 + Alg. 2).

Step I–II (Alg. 1) build the candidate queue: first devices that hold
*both* tensors (data-centric, tier-0 bound), then devices holding one
tensor (tier-1), then any device (tier-2).  A device enters the queue
only if it passes the availability test
``assigned_slots[g] < reuseBd[tier] + balanceNum``.

Step III (Alg. 2) picks from the queue: normally the least-loaded
candidate (computation-centric policy); when assigning the pair would
oversubscribe some candidate, the candidate with the most free memory
(memory-eviction-sensitive policy).  Ties break on the secondary
criterion and then on the lowest device id — deterministic where the
paper uses ``random()``, so experiment runs are reproducible.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState
from repro.schedulers.base import Scheduler
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.reuse_patterns import ReusePattern
from repro.tensor.spec import TensorPair, VectorSpec

#: Shared empty holder set for pairs with a non-resident input.
_EMPTY_SET: frozenset[int] = frozenset()

#: The Fig. 4 patterns in declaration order, and each one's index there.
_PATTERNS: tuple[ReusePattern, ...] = tuple(ReusePattern)
_TWO_REPEATED_SAME, _TWO_REPEATED_DIFF, _ONE_REPEATED, _TWO_NEW = (
    _PATTERNS.index(p)
    for p in (
        ReusePattern.TWO_REPEATED_SAME, ReusePattern.TWO_REPEATED_DIFF,
        ReusePattern.ONE_REPEATED, ReusePattern.TWO_NEW,
    )
)


def incoming_bytes(pair: TensorPair, device_id: int, cluster: ClusterState) -> int:
    """New device bytes needed to run ``pair`` on ``device_id``.

    Counts each non-resident distinct input once plus the output.
    """
    total = pair.out.nbytes
    seen: set[int] = set()
    for spec in pair.inputs:
        if spec.uid in seen:
            continue
        seen.add(spec.uid)
        if not cluster.is_resident(spec.uid, device_id):
            total += spec.nbytes
    return total


def would_evict(pair: TensorPair, device_id: int, cluster: ClusterState) -> bool:
    """True if placing ``pair`` on ``device_id`` would trigger evictions.

    The per-candidate scalar form of Alg. 2's eviction test; the
    scheduler's pick folds the same test into one pass over the
    candidates' holder sets.
    """
    return incoming_bytes(pair, device_id, cluster) > cluster.free_bytes(device_id)


class MiccoScheduler(Scheduler):
    """The MICCO heuristic.

    Parameters
    ----------
    bounds:
        Initial reuse bounds.  ``ReuseBounds.zeros()`` gives the paper's
        *MICCO-naive*; per-vector bounds from the regression model give
        *MICCO-optimal* (set via :meth:`set_bounds`, typically by the
        driving session before each vector).
    pattern_aware:
        Ablation switch: when False, steps I–II are skipped and every
        pair is treated as ``twoNew`` (pure balance-constrained
        placement) — isolates the contribution of the data-centric
        policy.
    eviction_sensitive:
        Ablation switch: when False, Alg. 2 always uses the
        computation-centric selection, even when a candidate would
        evict — isolates the memory-eviction-sensitive policy.
    """

    name = "micco"

    def __init__(
        self,
        bounds: ReuseBounds | None = None,
        *,
        pattern_aware: bool = True,
        eviction_sensitive: bool = True,
    ):
        self.bounds = bounds if bounds is not None else ReuseBounds.zeros()
        self.pattern_aware = pattern_aware
        self.eviction_sensitive = eviction_sensitive
        # Pattern histogram indexed like _PATTERNS: a list slot bump per
        # pair instead of two Enum.__hash__ calls.
        self._pattern_hits = [0] * len(_PATTERNS)

    @property
    def pattern_counts(self) -> dict[ReusePattern, int]:
        """Pattern histogram, for introspection/experiments."""
        return dict(zip(_PATTERNS, self._pattern_hits))

    def set_bounds(self, bounds: ReuseBounds) -> None:
        """Install the reuse bounds for subsequent decisions."""
        self.bounds = bounds

    def begin_vector(self, vector: VectorSpec, cluster: ClusterState) -> None:
        # Per-vector balance counters are reset by the engine via
        # ``cluster.begin_vector``; nothing else to do here.
        pass

    # -------------------------------------------------------------- Alg. 1
    @staticmethod
    def _holders(pair: TensorPair, cluster: ClusterState) -> tuple:
        """The devices holding ``pair``'s left and right inputs.

        Reads the live holder index (no frozenset copies).  A ShardView
        carries ``_device_set``; its ``devices_holding`` scopes holders
        to the shard, and reading the raw index must apply the same
        scoping or candidates leak off-shard.
        """
        holders_map = cluster._holders
        dset = getattr(cluster, "_device_set", None)
        lu = pair.left.uid
        ru = pair.right.uid
        left = holders_map.get(lu) or _EMPTY_SET
        if dset is not None and left:
            left = left & dset
        if ru == lu:
            return left, left
        right = holders_map.get(ru) or _EMPTY_SET
        if dset is not None and right:
            right = right & dset
        return left, right

    def _candidates(self, pair: TensorPair, cluster: ClusterState) -> tuple:
        """Alg. 1 steps I–II: ``(candidates, tier, left_holders, right_holders)``.

        ``tier`` is the reuse bound the queue passed: 0 for devices
        holding both inputs, 1 for devices holding one, 2 for any alive
        device.  Candidate ids are unique and ascending (the order never
        matters — Alg. 2 selects by cost, ties by id).  The availability
        test ``assigned_slots[g] < reuseBd[tier] + balanceNum`` has a
        per-tier threshold, so each scan evaluates it once per device.
        """
        left, right = self._holders(pair, cluster)
        if left and right:
            common = left & right
            pattern = _TWO_REPEATED_SAME if common else _TWO_REPEATED_DIFF
        else:
            common = _EMPTY_SET
            pattern = _ONE_REPEATED if (left or right) else _TWO_NEW
        self._pattern_hits[pattern] += 1

        slots = cluster.assigned_slots
        balance = cluster.balance_num
        bounds = self.bounds
        if self.pattern_aware:
            # Step I: devices holding both tensors, under the tier-0 bound.
            if common:
                thr = bounds.same + balance
                candi = [g for g in sorted(common) if slots[g] < thr]
                if candi:
                    return candi, 0, left, right
            # Step II: devices holding one tensor, under the tier-1 bound.
            if left or right:
                thr = bounds.partial + balance
                candi = [g for g in sorted(left | right) if slots[g] < thr]
                if candi:
                    return candi, 1, left, right

        # Fallback: any *surviving* device under the tier-2 bound.
        # (Steps I–II are alive-safe for free: lost devices hold no
        # tensors, so they never appear among the holders.)  With bounds
        # >= 0 some device is always below the balanced share
        # mid-vector; every alive device is the defensive answer for
        # degenerate configurations (e.g. externally mutated counters).
        alive = cluster.alive_ids()
        thr = bounds.new + balance
        candi = [g for g in alive if slots[g] < thr]
        return candi or alive, 2, left, right

    def build_candidates(self, pair: TensorPair, cluster: ClusterState) -> list[int]:
        """Alg. 1: the candidate queue for ``pair``."""
        return self._candidates(pair, cluster)[0]

    # -------------------------------------------------------------- Alg. 2
    def _pick(
        self, candidates: list[int], tier: int, left, right, pair: TensorPair,
        cluster: ClusterState,
    ) -> int:
        """Alg. 2: one scalar pass over the candidate queue.

        Normally the least computation wins (ties → most free memory →
        lowest id).  When ``eviction_sensitive`` is on and placing the
        pair would evict on some candidate, the most free memory wins
        (ties → least computation → lowest id).  ``left``/``right`` are
        the inputs' holder sets, so each candidate's eviction test costs
        two set probes; tier-0 candidates hold both inputs, so their
        incoming bytes are the output alone.
        """
        n = len(candidates)
        if n == 1:
            return candidates[0]
        if not n:
            raise SchedulingError("empty candidate queue")
        pools = cluster.pools
        compute = cluster.compute_s
        # ``MemoryPool.free_bytes`` spelled out: a property call per
        # candidate is most of this list's cost.
        free = [(p := pools[g]).capacity_bytes - p._used for g in candidates]
        evict = False
        if self.eviction_sensitive:
            out_b = pair.out.nbytes
            if tier == 0:
                for i in range(n):
                    if out_b > free[i]:
                        evict = True
                        break
            else:
                left_spec, right_spec = pair.left, pair.right
                two = right_spec.uid != left_spec.uid
                l_nb = left_spec.nbytes
                r_nb = right_spec.nbytes
                for i, g in enumerate(candidates):
                    inc = out_b
                    if g not in left:
                        inc += l_nb
                    if two and g not in right:
                        inc += r_nb
                    if inc > free[i]:
                        evict = True
                        break
        best = None
        best_key = None
        for i, g in enumerate(candidates):
            key = (-free[i], compute[g], g) if evict else (compute[g], -free[i], g)
            if best_key is None or key < best_key:
                best, best_key = g, key
        return best

    def select(self, candidates: list[int], pair: TensorPair, cluster: ClusterState) -> int:
        """Alg. 2 over an arbitrary candidate queue."""
        return self._pick(candidates, 2, *self._holders(pair, cluster), pair, cluster)

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        """Alg. 1 then Alg. 2: the device ``pair`` runs on."""
        candidates, tier, left, right = self._candidates(pair, cluster)
        return self._pick(candidates, tier, left, right, pair, cluster)

    def reset_stats(self) -> None:
        self._pattern_hits = [0] * len(_PATTERNS)
