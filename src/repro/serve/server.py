"""One serving replica's core: admission, batching, execution, stats.

Request lifecycle (``docs/serving.md`` has the full walkthrough)::

    submit -> admit (bounded queue) -> micro-batch -> execute -> respond
                |                                        |
                +-- reject + retry-after (queue full)    +-- SLO stats

Three design rules keep every run replayable:

* **Simulated time only.**  Every :class:`ServerEngine` method takes an
  explicit simulated timestamp; execution cost comes from the analytic
  kernel simulator (:func:`repro.models.kernel_plans.simulate_batch`)
  on the actual :class:`~repro.models.runtime.MegaRuntime` of each
  batch.  Wall-clock never touches the stats.
* **Schedules resolve at admission.**  Each admitted graph is looked up
  in the engine's schedule store by content key, so repeat graphs skip
  Algorithm 1 entirely.
* **Backpressure is explicit.**  A full queue rejects with a
  deterministic retry-after hint; the client's retry behaviour lives
  with whoever drives the engine.

The engine owns **no clock, no event heap and no client behaviour**.
:meth:`repro.cluster.cluster.Cluster.run` is the one event loop that
drives it: a single server is a 1-replica cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.batch import GraphBatch
from repro.memsim.device import DeviceSpec, GPUDevice, GTX_1080
from repro.models.base import GNNModel
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import MegaRuntime
from repro.pipeline.stats import CacheStats
from repro.serve.batcher import BatchingPolicy, BatchPlan, MicroBatcher
from repro.serve.queueing import (
    BoundedRequestQueue,
    InferenceRequest,
    InferenceResponse,
    QueuedRequest,
)
from repro.serve.stats import BatchRecord, ServerStats
from repro.errors import QueueFullError, ServeError


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs independent of the model being served.

    Attributes
    ----------
    queue_capacity:
        Bound of the admission queue (backpressure threshold).
    policy:
        Micro-batching policy (size, wait, bucket width).
    miss_penalty_s:
        Simulated seconds added to a batch's service time per member
        whose schedule was *not* served from the cache — makes the
        preprocessing cost of cold graphs visible in latency.
    retry_after_default_s:
        Retry-after hint before any batch has executed (afterwards the
        hint is the last batch's service time).
    """

    queue_capacity: int = 32
    policy: BatchingPolicy = field(default_factory=BatchingPolicy)
    miss_penalty_s: float = 0.0
    retry_after_default_s: float = 0.005

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.miss_penalty_s < 0.0 or self.retry_after_default_s < 0.0:
            raise ServeError(
                "miss_penalty_s and retry_after_default_s must be >= 0")


class ServerEngine:
    """One replica's serving core, driven by an external clock.

    The engine owns the bounded queue, the micro-batcher, the executor
    and a :class:`ServerStats` — everything *local* to one serving
    replica — but no clock, no event heap and no retry behaviour.
    Callers pass explicit simulated timestamps:

    * :meth:`admit` resolves a schedule and enqueues (or raises
      :class:`QueueFullError` with a deterministic retry-after hint);
    * :meth:`select` asks the batcher for a launchable plan;
    * :meth:`launch` executes a plan and returns its completion event;
    * :meth:`complete` retires a finished batch's responses;
    * :meth:`evacuate` empties the queue (cluster failover).

    ``store`` is anything with a ``resolve(graph) -> (path, hit)``
    method and a ``stats`` :class:`CacheStats` — in practice one
    replica's view of the cluster's two-tier cache
    (:class:`repro.cluster.cache.ReplicaScheduleView`).
    """

    def __init__(self, model: GNNModel, config: ServerConfig, store,
                 device_spec: DeviceSpec = GTX_1080):
        self.model = model
        self.config = config
        self.store = store
        self.device_spec = device_spec
        self.stats = ServerStats()
        self.queue = BoundedRequestQueue(config.queue_capacity)
        self.batcher = MicroBatcher(config.policy)
        self.busy = False
        self.in_flight = 0
        self._cache_before = store.stats.as_dict()

    @property
    def idle(self) -> bool:
        return not self.busy

    @property
    def depth(self) -> int:
        return self.queue.depth

    @property
    def load(self) -> int:
        """Queued plus in-flight requests — the router's balance signal."""
        return self.queue.depth + self.in_flight

    def retry_after(self) -> float:
        """Deterministic hint: the last batch's service time."""
        if self.stats.batches:
            return self.stats.batches[-1].service_s
        return self.config.retry_after_default_s

    def admit(self, request: InferenceRequest, now_s: float) -> None:
        """Enqueue ``request`` or raise :class:`QueueFullError`.

        Every attempt samples the queue depth, then either admits or
        rejects.
        """
        self.stats.attempts += 1
        self.stats.queue_depth_sum += self.queue.depth
        self.stats.queue_depth_samples += 1
        if self.queue.full:
            self.stats.rejected += 1
            raise QueueFullError(
                f"queue at capacity ({self.queue.capacity})",
                retry_after_s=self.retry_after())
        path, hit = self.store.resolve(request.graph)
        self.queue.admit(QueuedRequest(request=request, admitted_s=now_s,
                                       path=path, schedule_hit=hit))
        self.stats.admitted += 1

    def select(self, now_s: float, draining: bool) -> Optional[BatchPlan]:
        """The plan the batcher would launch now, or ``None``."""
        if self.busy or self.queue.depth == 0:
            return None
        return self.batcher.select(self.queue.entries(), now_s,
                                   draining=draining)

    def flush_deadline(self) -> Optional[float]:
        """Earliest time a queued request forces a flush (idle only)."""
        if self.busy or self.queue.depth == 0:
            return None
        return self.batcher.next_deadline(self.queue.entries())

    def launch(self, plan: BatchPlan, now_s: float,
               service_scale: float = 1.0
               ) -> Tuple[float, List[InferenceResponse]]:
        """Execute ``plan``; returns (completion time, responses).

        ``service_scale`` stretches the analytic service time — the
        cluster's straggler injection (:meth:`repro.resilience
        .FaultPlan.service_multiplier`).  The stretched time is what
        lands in the batch record and the latencies, i.e. what a
        latency-watching circuit breaker observes.
        """
        if service_scale < 1.0:
            raise ServeError(
                f"service_scale must be >= 1, got {service_scale}")
        self.queue.remove(plan.entries)
        batch = GraphBatch([e.request.graph for e in plan.entries])
        runtime = MegaRuntime(batch, [e.path for e in plan.entries])
        predictions = np.asarray(self.model(batch, runtime).data)
        profiler = simulate_batch(
            self.model.model_name, runtime, GPUDevice(self.device_spec),
            self.model.config.hidden_dim, self.model.config.num_layers)
        service_s = (profiler.total_time
                     + self.config.miss_penalty_s
                     * plan.schedule_misses) * service_scale
        batch_id = len(self.stats.batches)
        self.stats.batches.append(BatchRecord(
            batch_id=batch_id, launch_s=now_s, service_s=service_s,
            size=plan.size, bucket=plan.bucket,
            max_length=plan.max_length, padding_waste=plan.waste,
            occupancy=plan.size / self.config.policy.max_batch_size,
            schedule_misses=plan.schedule_misses))
        done_s = now_s + service_s
        responses = [InferenceResponse(
            request_id=e.request.request_id,
            prediction=np.array(predictions[i], copy=True),
            submitted_s=e.request.submitted_s, completed_s=done_s,
            batch_id=batch_id, schedule_hit=e.schedule_hit,
            epoch=e.epoch)
            for i, e in enumerate(plan.entries)]
        self.busy = True
        self.in_flight = plan.size
        return done_s, responses

    def complete(self, responses: List[InferenceResponse],
                 now_s: float) -> None:
        """Retire one finished batch: latency accounting, idle again."""
        self.busy = False
        self.in_flight = 0
        for response in responses:
            self.stats.served += 1
            self.stats.latencies_s.append(response.latency_s)
        self.stats.sim_duration_s = max(self.stats.sim_duration_s, now_s)

    def evacuate(self) -> List[InferenceRequest]:
        """Empty the queue, returning the stranded requests.

        The cluster's failover path: a crashed replica's queued
        requests re-enter the router instead of dying with the queue.
        """
        stranded = [e.request for e in self.queue.entries()]
        self.queue.remove(self.queue.entries())
        return stranded

    def finish(self) -> ServerStats:
        """Seal the stats: queue high-water mark and cache delta."""
        self.stats.max_queue_depth = self.queue.max_depth
        after = self.store.stats.as_dict()
        self.stats.cache = CacheStats(
            **{k: after[k] - self._cache_before[k] for k in after})
        return self.stats
