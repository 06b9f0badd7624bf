"""Reference single server for differential tests: one engine, one loop.

The plain event loop a single inference server needs — a heap of
``(time, seq, kind, payload)`` events driving one
:class:`~repro.serve.server.ServerEngine`, client retries after
queue-full rejections, and an in-process memo as the schedule store —
with no router, no health machine and no tiered cache.  A 1-replica
:class:`~repro.cluster.Cluster` must match it exactly: the replica's
``ServerStats``, the fleet's ``retried``/``failed`` against this loop's
``retried``/``dropped``, and every prediction.
"""

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import MegaConfig
from repro.errors import QueueFullError, ServeError
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule, materialise
from repro.pipeline.stats import CacheStats
from repro.serve import ServerConfig, ServerEngine
from repro.serve.stats import ServerStats
from repro.train.clock import SimulatedClock


class MemoScheduleStore:
    """Admission-time schedule resolution through an in-process memo."""

    def __init__(self, config: MegaConfig):
        self.config = config
        self.stats = CacheStats()
        self._memo: Dict[str, Tuple] = {}

    def resolve(self, graph):
        key = schedule_cache_key(graph, self.config)
        entry = self._memo.get(key)
        if entry is not None:
            self.stats.hits += 1
            return materialise(graph, self.config, entry[0]), True
        entry = compute_schedule(graph, self.config)
        self._memo[key] = entry
        self.stats.misses += 1
        self.stats.puts += 1
        return materialise(graph, self.config, entry[0]), False


@dataclass
class ReferenceResult:
    responses: List
    stats: ServerStats
    retried: int
    dropped: int


def run_reference(model, requests, config: ServerConfig,
                  retry_policy=None) -> ReferenceResult:
    """Serve ``requests`` on one engine to completion."""
    clock = SimulatedClock()
    engine = ServerEngine(model, config, MemoScheduleStore(MegaConfig()))
    engine.stats.received = len(requests)
    responses = []
    retried = dropped = 0

    events = []
    seq = 0
    arrivals_pending = 0
    for request in requests:
        heapq.heappush(events, (request.submitted_s, seq, "arrive", request))
        seq += 1
        arrivals_pending += 1

    def admit(request, now_s):
        nonlocal seq, arrivals_pending, retried, dropped
        try:
            engine.admit(request, now_s)
        except QueueFullError as exc:
            if (retry_policy is not None
                    and request.attempt + 1 < retry_policy.max_attempts):
                delay = max(exc.retry_after_s,
                            retry_policy.delay(request.attempt))
                again = request.retry(now_s + delay)
                heapq.heappush(events,
                               (again.submitted_s, seq, "arrive", again))
                seq += 1
                retried += 1
                arrivals_pending += 1
            else:
                dropped += 1

    while events or engine.depth > 0:
        now_s = clock.now()
        if engine.idle and engine.depth > 0:
            plan = engine.select(now_s, draining=arrivals_pending == 0)
            if plan is not None:
                done_s, batch = engine.launch(plan, now_s)
                heapq.heappush(events, (done_s, seq, "done", batch))
                seq += 1
                continue
            deadline = engine.flush_deadline()
            next_event_s = events[0][0] if events else None
            if next_event_s is None or (deadline is not None
                                        and deadline <= next_event_s):
                if deadline <= now_s:
                    raise ServeError(
                        "batcher refused to flush at its own deadline")
                clock.advance_to(deadline)
                continue
        t_s, _, kind, payload = heapq.heappop(events)
        clock.advance_to(t_s)
        if kind == "arrive":
            arrivals_pending -= 1
            admit(payload, clock.now())
        else:
            engine.complete(payload, clock.now())
            responses.extend(payload)

    return ReferenceResult(responses=responses, stats=engine.finish(),
                           retried=retried, dropped=dropped)
