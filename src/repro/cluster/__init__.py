"""Sharded multi-replica serving: the fleet above :mod:`repro.serve`.

One :class:`~repro.serve.server.ServerEngine` serves the paper's
efficiency story on one replica; this package drives N of them —
deterministic replicas behind a router, still byte-replayable.  It
holds the only serving event loop, so a single server is simply a
1-replica :class:`Cluster`:

- :mod:`repro.cluster.routing` — consistent-hash ring over graph
  content keys plus the pluggable load-balance policies
  (``round-robin``, ``hash-affinity``, ``least-queue``).
- :mod:`repro.cluster.cache` — the two-tier schedule cache:
  replica-local L1 memos over one shared L2, with per-tier hit
  attribution (:class:`TierStats`).
- :mod:`repro.cluster.cluster` — the shared-clock event loop driving N
  :class:`~repro.serve.server.ServerEngine` replicas, with per-request
  input validation, seeded
  replica crashes (:meth:`repro.resilience.FaultPlan.replica_fails`),
  ring rebalancing and bounded failover.
- :mod:`repro.cluster.health` — the self-healing layer: per-replica
  ``alive -> crashed -> recovering -> alive`` state machines, seeded
  replica recovery with cold-L1 warm-up records, straggler circuit
  breakers with hedged failover, and brownout admission control.
- :mod:`repro.cluster.stats` — :class:`ClusterStats`: fleet
  p50/p95/p99, throughput, per-tier hit rates, failover, recovery,
  shed and rebalance counts; ``as_dict()`` is the byte-identical
  replay surface.

Two seeded cluster loadtests — crashes, recoveries and stragglers
included — produce identical stats bytes; see ``docs/cluster.md`` for
the routing/failover matrix.
"""

from repro.cluster.cache import (
    ReplicaScheduleView,
    TieredScheduleCache,
    TierStats,
)
from repro.cluster.cluster import Cluster, ClusterConfig, ClusterResult
from repro.cluster.health import (
    BREAKER_STATES,
    BrownoutController,
    CircuitBreaker,
    FleetHealth,
    HEALTH_STATES,
    HealthTransition,
    RecoveryRecord,
    ReplicaHealth,
)
from repro.cluster.routing import (
    HashAffinityPolicy,
    HashRing,
    LeastQueuePolicy,
    LoadBalancePolicy,
    POLICIES,
    RoundRobinPolicy,
    make_policy,
)
from repro.cluster.stats import (
    ClusterStats,
    FailedRequest,
    FAILURE_REASONS,
    ReplicaRecord,
    ShedRequest,
)

__all__ = [
    "TierStats",
    "TieredScheduleCache",
    "ReplicaScheduleView",
    "Cluster",
    "ClusterConfig",
    "ClusterResult",
    "HEALTH_STATES",
    "BREAKER_STATES",
    "HealthTransition",
    "ReplicaHealth",
    "CircuitBreaker",
    "BrownoutController",
    "RecoveryRecord",
    "FleetHealth",
    "HashRing",
    "LoadBalancePolicy",
    "RoundRobinPolicy",
    "HashAffinityPolicy",
    "LeastQueuePolicy",
    "POLICIES",
    "make_policy",
    "ClusterStats",
    "ReplicaRecord",
    "FailedRequest",
    "ShedRequest",
    "FAILURE_REASONS",
]
