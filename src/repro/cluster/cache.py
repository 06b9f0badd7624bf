"""Two-tier schedule caching for the serving cluster.

"Cached Operator Reordering" (PAPERS.md) argues the schedule cache
should be a *shared* resource; a fleet of replicas makes that concrete
with two tiers:

* **L1** — a replica-local in-memory memo.  Hits are free and private;
  the whole point of the hash-affinity routing policy is to maximise
  them by sending repeat graphs back to the replica that already
  holds their schedule.
* **L2** — one shared store for the fleet.  A replica that L1-misses
  probes L2 before recomputing Algorithm 1, so a graph first seen by
  replica 0 is still a (slower) hit when round-robin later sends it to
  replica 2.  L2 is an in-memory table by default and an on-disk
  :class:`~repro.pipeline.cache.ScheduleCache` when one is attached —
  in which case the disk cache's own counters move too (double-entry
  bookkeeping: a disk read shows in both ledgers).

Every lookup is attributed to exactly one of ``l1_hits`` / ``l2_hits``
/ ``misses`` in :class:`TierStats`, per replica and fleet-wide; the
per-replica view also keeps a serve-compatible
:class:`~repro.pipeline.stats.CacheStats` so a :class:`~repro.serve
.server.ServerEngine` can consume it as its schedule store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.graph.graph import Graph
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule, materialise
from repro.pipeline.stats import CacheStats


@dataclass
class TierStats:
    """Per-tier attribution of schedule lookups.

    Attributes
    ----------
    l1_hits:
        Lookups served from the replica-local memo.
    l2_hits:
        L1 misses served from the shared tier (and promoted into L1).
    misses:
        Lookups that recomputed Algorithm 1 (then fed both tiers).
    l2_puts:
        Entries written to the shared tier (one per miss).
    l1_invalidations / l2_invalidations:
        Entries evicted by keyed invalidation
        (:meth:`TieredScheduleCache.invalidate`) from the replica-local
        memos and the shared tier respectively — the streaming layer's
        versioned-key protocol retiring a superseded graph epoch.
    seeds:
        Entries written through :meth:`TieredScheduleCache.seed` — a
        repaired schedule pre-warmed under its new content key, so the
        first post-delta admission is an L2 hit instead of a full
        Algorithm 1 miss.
    """

    l1_hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    l2_puts: int = 0
    l1_invalidations: int = 0
    l2_invalidations: int = 0
    seeds: int = 0

    @property
    def lookups(self) -> int:
        return self.l1_hits + self.l2_hits + self.misses

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.lookups if self.lookups else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.lookups if self.lookups else 0.0

    @property
    def hit_rate(self) -> float:
        """Any-tier hit rate (matches the single-node cache hit rate)."""
        hits = self.l1_hits + self.l2_hits
        return hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "TierStats") -> "TierStats":
        """Elementwise sum (fleet aggregation over replicas)."""
        return TierStats(
            l1_hits=self.l1_hits + other.l1_hits,
            l2_hits=self.l2_hits + other.l2_hits,
            misses=self.misses + other.misses,
            l2_puts=self.l2_puts + other.l2_puts,
            l1_invalidations=self.l1_invalidations + other.l1_invalidations,
            l2_invalidations=self.l2_invalidations + other.l2_invalidations,
            seeds=self.seeds + other.seeds)

    def as_dict(self) -> dict:
        return {"l1_hits": self.l1_hits, "l2_hits": self.l2_hits,
                "misses": self.misses, "l2_puts": self.l2_puts,
                "l1_invalidations": self.l1_invalidations,
                "l2_invalidations": self.l2_invalidations,
                "seeds": self.seeds}


class TieredScheduleCache:
    """The fleet's shared L2 plus a factory for per-replica L1 views.

    ``backing`` attaches an on-disk :class:`ScheduleCache` as the L2
    store (cross-run persistence, corruption handling and all); without
    it the L2 is a plain in-process table, which is what the bench
    workloads and most tests want — no tmpdir needed.
    """

    def __init__(self, config: MegaConfig,
                 backing: Optional[ScheduleCache] = None):
        self.config = config
        self.backing = backing
        self._l2: Dict[str, Tuple] = {}
        self.tier = TierStats()
        # Every view ever handed out, in creation order — keyed
        # invalidation must reach retired incarnations' L1 memos too
        # (they are dead engines, but determinism is cheaper than
        # reasoning about which views can still be probed).
        self._views: List["ReplicaScheduleView"] = []

    def view(self, replica_id: int) -> "ReplicaScheduleView":
        """The schedule store replica ``replica_id`` plugs into its engine."""
        created = ReplicaScheduleView(self, replica_id)
        self._views.append(created)
        return created

    # -- versioned-key protocol (called by repro.stream) ---------------
    def invalidate(self, key: str) -> Tuple[int, int, int]:
        """Evict ``key`` from every tier: (l1 entries, l2 entries, disk).

        The eviction half of the streaming invalidation protocol: the
        caller names exactly the superseded content key, so entries for
        untouched graphs are never disturbed.  In-flight requests are
        unaffected by construction — their path representation was
        resolved (and pinned) at admission.
        """
        l1_removed = 0
        for view in self._views:
            if view._l1.pop(key, None) is not None:
                l1_removed += 1
                view.tier.l1_invalidations += 1
        l2_removed = int(self._l2.pop(key, None) is not None)
        disk_removed = 0
        if self.backing is not None and self.backing.invalidate(key):
            disk_removed = 1
        self.tier.l1_invalidations += l1_removed
        self.tier.l2_invalidations += l2_removed + disk_removed
        return l1_removed, l2_removed, disk_removed

    def seed(self, key: str, entry: Tuple) -> None:
        """Install a ready-made schedule under ``key`` in the shared tier.

        The warm half of the protocol: a repaired (or recomputed)
        schedule goes straight into L2 — and the disk backing when one
        is attached — so the first admission against the new epoch
        promotes it into a replica's L1 instead of running Algorithm 1.
        """
        self._l2_put(key, entry)
        self.tier.seeds += 1

    # -- shared-tier access (called by the views) ----------------------
    def _l2_get(self, key: str) -> Optional[Tuple]:
        entry = self._l2.get(key)
        if entry is not None:
            return entry
        if self.backing is not None:
            entry = self.backing.get(key)
            if entry is not None:
                # Memo the disk read so repeat L2 hits stay in-process.
                self._l2[key] = entry
                return entry
        return None

    def _l2_put(self, key: str, entry: Tuple) -> None:
        self._l2[key] = entry
        if self.backing is not None:
            self.backing.put(key, *entry)


class ReplicaScheduleView:
    """One replica's window onto the tiered cache.

    The schedule store a :class:`~repro.serve.server.ServerEngine`
    resolves through: ``resolve(graph) -> (path, hit)`` plus a
    ``stats`` :class:`CacheStats`.  The extra ``tier`` breakdown is
    what the cluster stats aggregate.
    """

    def __init__(self, parent: TieredScheduleCache, replica_id: int):
        self.parent = parent
        self.replica_id = replica_id
        self._l1: Dict[str, Tuple] = {}
        self.stats = CacheStats()
        self.tier = TierStats()
        #: Lookups served before the first L1 hit (-1 until one lands).
        #: For a view created at a replica rejoin this is the cold-L1
        #: warm-up length the recovery records surface.
        self.lookups_to_first_l1_hit = -1

    def resolve(self, graph: Graph) -> Tuple[PathRepresentation, bool]:
        """Path representation for ``graph``; True when cache-served."""
        config = self.parent.config
        key = schedule_cache_key(graph, config)
        entry = self._l1.get(key)
        if entry is not None:
            if self.lookups_to_first_l1_hit < 0:
                self.lookups_to_first_l1_hit = self.tier.lookups
            self.stats.hits += 1
            self.tier.l1_hits += 1
            self.parent.tier.l1_hits += 1
            return materialise(graph, config, entry[0]), True
        entry = self.parent._l2_get(key)
        if entry is not None:
            self._l1[key] = entry
            self.stats.hits += 1
            self.tier.l2_hits += 1
            self.parent.tier.l2_hits += 1
            return materialise(graph, config, entry[0]), True
        entry = compute_schedule(graph, config)
        self.parent._l2_put(key, entry)
        self._l1[key] = entry
        self.stats.misses += 1
        self.stats.puts += 1
        self.tier.misses += 1
        self.tier.l2_puts += 1
        self.parent.tier.misses += 1
        self.parent.tier.l2_puts += 1
        return materialise(graph, config, entry[0]), False
