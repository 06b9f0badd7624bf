"""The inference server: replay, backpressure, schedule reuse.

The server under test is a 1-replica cluster.  This file carries the
tier-1 acceptance gates:

* **Deterministic replay** — two load tests with the same seed produce
  byte-identical stats JSON.
* **Backpressure** — under burst arrivals the bounded queue never
  exceeds capacity and every rejection is accounted for.
* **Schedule reuse** — serving the same graph twice hits the schedule
  cache, observable in the replica's counters; a second server over
  the same cache directory reads the disk entry, observable in the
  pipeline cache's own counters.
"""

import json

import pytest

from repro.errors import ServeError
from repro.resilience import RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    InferenceRequest,
    ServerConfig,
    generate_requests,
)


def uniform_requests(pool, count, rate_rps=200.0):
    gap = 1.0 / rate_rps
    return [InferenceRequest(request_id=i, graph=pool[i % len(pool)],
                             submitted_s=(i + 1) * gap)
            for i in range(count)]


def replica_stats(result):
    """The one replica's ServerStats (queue, batch and cache fields)."""
    return result.stats.replicas[0].stats


class TestServing:
    def test_all_requests_answered(self, make_server, pool):
        server = make_server()
        result = server.run(uniform_requests(pool, 12))
        assert result.stats.served == 12
        assert result.stats.failed == 0
        assert sorted(r.request_id for r in result.responses) == \
            list(range(12))

    def test_predictions_have_shape(self, make_server, pool):
        server = make_server()
        result = server.run(uniform_requests(pool, 4))
        for resp in result.responses:
            assert resp.prediction.size >= 1
            assert resp.completed_s > resp.submitted_s

    def test_response_for_unknown_id_raises(self, make_server, pool):
        result = make_server().run(uniform_requests(pool, 2))
        assert result.response_for(0).request_id == 0
        with pytest.raises(ServeError):
            result.response_for(999)

    def test_latency_grows_with_queueing(self, make_server, pool):
        # Arrivals far apart -> each request served alone; arrivals
        # dense -> batches fill up, so occupancy rises.
        sparse = make_server().run(uniform_requests(pool, 8, rate_rps=10))
        dense = make_server().run(uniform_requests(pool, 8, rate_rps=2000))
        assert replica_stats(dense).mean_batch_occupancy > \
            replica_stats(sparse).mean_batch_occupancy

    def test_stats_counter_identities(self, make_server, pool):
        stats = make_server().run(uniform_requests(pool, 16)).stats
        assert stats.received == 16
        assert stats.attempts == stats.admitted + stats.rejected
        assert stats.received == stats.served + stats.failed


class TestDeterministicReplay:
    """Tier-1 gate: same seed, byte-identical stats."""

    def _loadtest(self, make_server, pool, tmp_path, tag, *,
                  process_kind="bursty", capacity=8):
        config = ServerConfig(
            queue_capacity=capacity,
            policy=BatchingPolicy(max_batch_size=4, max_wait_s=0.01,
                                  bucket_width=16))
        server = make_server(config=config, cached=True,
                             cache_dir=tmp_path / tag)
        process = ArrivalProcess(kind=process_kind, rate_rps=400.0,
                                 seed=42)
        requests = generate_requests(pool, 48, process)
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.002)
        return server.run(requests, retry_policy=retry)

    def test_two_runs_byte_identical(self, make_server, pool, tmp_path):
        a = self._loadtest(make_server, pool, tmp_path, "run-a")
        b = self._loadtest(make_server, pool, tmp_path, "run-b")
        blob_a = json.dumps(a.stats.as_dict(), sort_keys=True)
        blob_b = json.dumps(b.stats.as_dict(), sort_keys=True)
        assert blob_a == blob_b
        assert a.stats.served == len(a.responses) > 0

    def test_replay_covers_predictions(self, make_server, pool, tmp_path):
        a = self._loadtest(make_server, pool, tmp_path, "pred-a",
                           process_kind="poisson")
        b = self._loadtest(make_server, pool, tmp_path, "pred-b",
                           process_kind="poisson")
        for ra, rb in zip(a.responses, b.responses):
            assert ra.request_id == rb.request_id
            assert ra.prediction.tolist() == rb.prediction.tolist()


class TestBackpressure:
    """Tier-1 gate: bounded depth plus rejected-request accounting."""

    def _burst_run(self, make_server, pool, retry):
        config = ServerConfig(
            queue_capacity=4,
            policy=BatchingPolicy(max_batch_size=2, max_wait_s=0.005,
                                  bucket_width=16))
        server = make_server(config=config)
        process = ArrivalProcess(kind="bursty", rate_rps=8000.0, seed=9,
                                 burst_factor=8.0, burst_len=12)
        requests = generate_requests(pool, 48, process)
        return server.run(requests, retry_policy=retry)

    def test_queue_depth_bounded_and_rejections_counted(
            self, make_server, pool):
        result = self._burst_run(make_server, pool, None)
        stats = result.stats
        assert replica_stats(result).max_queue_depth <= 4
        assert stats.rejected > 0
        assert stats.attempts == stats.admitted + stats.rejected
        assert stats.received == stats.served + stats.failed
        assert stats.failed == stats.rejected       # no retry policy

    def test_retry_policy_absorbs_rejections(self, make_server, pool):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.004)
        stats = self._burst_run(make_server, pool, policy).stats
        assert stats.rejected > 0
        assert stats.retried > 0
        assert stats.failed < stats.rejected
        assert stats.attempts == stats.received + stats.retried
        assert stats.received == stats.served + stats.failed


class TestScheduleReuse:
    """Tier-1 gate: repeat graphs hit the schedule cache."""

    def test_same_graph_twice_hits_cache(self, make_server, pool,
                                         tmp_path):
        server = make_server(cached=True, cache_dir=tmp_path / "reuse")
        graph = pool[0]
        requests = [
            InferenceRequest(request_id=0, graph=graph, submitted_s=0.1),
            InferenceRequest(request_id=1, graph=graph, submitted_s=0.2),
        ]
        stats = replica_stats(server.run(requests))
        assert stats.cache.misses == 1
        assert stats.cache.hits == 1
        assert stats.schedule_hit_rate == pytest.approx(0.5)
        # The repeat is served from memory: the disk cache saw one
        # miss and one write, and no read.
        disk = server.tiered.backing.stats
        assert (disk.hits, disk.misses, disk.puts) == (0, 1, 1)

    def test_cache_survives_across_servers(self, make_server, pool,
                                           tmp_path):
        cache_dir = tmp_path / "shared"
        first = make_server(cached=True, cache_dir=cache_dir)
        first.run([InferenceRequest(request_id=0, graph=pool[0],
                                    submitted_s=0.1)])
        second = make_server(cached=True, cache_dir=cache_dir)
        result = second.run([InferenceRequest(request_id=0, graph=pool[0],
                                              submitted_s=0.1)])
        stats = replica_stats(result)
        assert stats.cache.hits == 1        # warm from the first server
        assert stats.cache.misses == 0
        # The underlying pipeline cache counters moved too.
        assert second.tiered.backing.stats.hits >= 1

    def test_memo_fallback_without_cache(self, make_server, pool):
        server = make_server(cached=False)
        graph = pool[1]
        stats = replica_stats(server.run(uniform_requests([graph], 5)))
        assert stats.cache.misses == 1
        assert stats.cache.hits == 4


class TestConfigValidation:
    def test_bad_queue_capacity(self):
        with pytest.raises(ServeError):
            ServerConfig(queue_capacity=0)

    def test_bad_penalties(self):
        with pytest.raises(ServeError):
            ServerConfig(miss_penalty_s=-1.0)

    def test_miss_penalty_slows_cold_batches(self, make_server, pool):
        slow = make_server(config=ServerConfig(miss_penalty_s=0.5))
        stats = replica_stats(slow.run(uniform_requests([pool[2]], 1)))
        assert stats.batches[0].schedule_misses == 1
        assert stats.batches[0].service_s > 0.5
