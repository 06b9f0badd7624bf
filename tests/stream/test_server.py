"""StreamServer end to end: pinning, conservation, byte-identity."""

import json

import pytest

from repro.core import MegaConfig
from repro.errors import ClusterError, StreamError
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.queueing import InferenceRequest
from repro.stream import DeltaBatch, EdgeDelta


def _insert_batch(table, name, delta_id=0, at=0.5):
    """One guaranteed-structural insert: a missing edge of ``name``."""
    graph = table.graph(name)
    present = graph.edge_set()
    n = graph.num_nodes
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                return DeltaBatch(delta_id, name,
                                  ops=(EdgeDelta("insert", u, v),),
                                  submitted_s=at)
    raise AssertionError("graph is complete")


class TestConstruction:
    def test_edge_drop_rejected(self, make_server):
        with pytest.raises(StreamError):
            make_server(mega_config=MegaConfig(edge_drop=0.1))

    def test_unknown_delta_graph_rejected(self, make_server):
        server = make_server(num_graphs=2)
        batch = DeltaBatch(0, "g9", ops=(EdgeDelta("insert", 0, 1),))
        with pytest.raises(StreamError):
            server.run([], [batch])

    def test_duplicate_request_ids_rejected(self, make_server):
        server = make_server(num_graphs=2)
        requests = [InferenceRequest(request_id=7,
                                     graph=server.table.graph(name),
                                     submitted_s=0.1, graph_name=name)
                    for name in ("g0", "g1")]
        with pytest.raises(ClusterError, match="duplicate request_id 7"):
            server.run(requests, [])


class TestMixedRun:
    def test_epochs_advance_and_conservation_holds(self, make_server,
                                                   make_events):
        server = make_server()
        requests, batches = make_events(server.table, num=48,
                                        delta_fraction=0.3)
        assert requests and batches
        result = server.run(requests, batches,
                            retry_policy=RetryPolicy(max_attempts=3))
        stats = result.stats
        assert stats.num_deltas == len(batches)
        assert len(stats.records) == len(batches)
        assert sum(stats.epochs.values()) == len(batches)
        cluster = stats.cluster
        assert cluster.received == (cluster.served + cluster.failed
                                    + cluster.shed)
        assert cluster.served == len(requests)

    def test_epoch_pinning_across_a_delta(self, make_server):
        server = make_server(num_graphs=2)
        batch = _insert_batch(server.table, "g0", at=0.5)
        early = InferenceRequest(request_id=0,
                                 graph=server.table.graph("g0"),
                                 submitted_s=0.0, graph_name="g0")
        late = InferenceRequest(request_id=1,
                                graph=server.table.graph("g0"),
                                submitted_s=1.0, graph_name="g0")
        result = server.run([early, late], [batch])
        assert result.response_for(0).epoch == 0
        assert result.response_for(1).epoch == 1

    def test_post_delta_admission_hits_seeded_schedule(self, make_server):
        server = make_server(num_graphs=2, replicas=1)
        batch = _insert_batch(server.table, "g0", at=0.5)
        late = InferenceRequest(request_id=0,
                                graph=server.table.graph("g0"),
                                submitted_s=1.0, graph_name="g0")
        result = server.run([late], [batch])
        # The repaired schedule was seeded into L2 at application time,
        # so the first post-delta admission never recomputes.
        assert result.response_for(0).schedule_hit
        assert server.cluster.tiered.tier.l2_hits >= 1

    def test_untouched_graph_keeps_its_entries(self, make_server,
                                               make_events):
        server = make_server(num_graphs=4)
        requests, batches = make_events(server.table, num=60,
                                        delta_fraction=0.3,
                                        delta_names=("g0",))
        result = server.run(requests, batches,
                            retry_policy=RetryPolicy(max_attempts=3))
        assert result.stats.epochs["g1"] == 0
        # Invalidation precision: an untouched graph misses at most
        # once (its cold compute) across the whole run — no delta may
        # evict it.
        name_of = {r.request_id: r.graph_name for r in requests}
        misses = {}
        for response in result.responses:
            name = name_of[response.request_id]
            if name != "g0" and not response.schedule_hit:
                misses[name] = misses.get(name, 0) + 1
        assert misses and all(count <= 1 for count in misses.values())

    def test_static_requests_ride_along(self, make_server, pool):
        server = make_server(num_graphs=2)
        static = InferenceRequest(request_id=0, graph=pool[5],
                                  submitted_s=0.0)
        result = server.run([static], [])
        assert result.response_for(0).epoch == -1


class TestByteIdenticalReplay:
    def _run(self, make_server, make_events):
        plan = FaultPlan(seed=11, crash_replicas=(1,),
                         crash_after_batches=2)
        server = make_server(replicas=3, fault_plan=plan)
        requests, batches = make_events(server.table, num=48, seed=5,
                                        delta_fraction=0.3)
        result = server.run(requests, batches,
                            retry_policy=RetryPolicy(max_attempts=3))
        return result

    def test_mixed_run_with_crash_replays_byte_identically(
            self, make_server, make_events):
        blobs = []
        for _ in range(2):
            result = self._run(make_server, make_events)
            blobs.append(json.dumps(result.stats.as_dict(),
                                    sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_crash_run_still_conserves_requests(self, make_server,
                                                make_events):
        stats = self._run(make_server, make_events).stats
        cluster = stats.cluster
        assert cluster.crashed_replicas == 1
        assert cluster.received == (cluster.served + cluster.failed
                                    + cluster.shed)
        # Deltas are control events: the crash cannot drop them.
        assert len(stats.records) == stats.num_deltas

    def test_as_dict_is_json_round_trippable(self, make_server,
                                             make_events):
        stats = self._run(make_server, make_events).stats
        surface = stats.as_dict()
        assert surface == json.loads(json.dumps(surface))
        assert surface["num_deltas"] == stats.num_deltas
        assert surface["repairs"] + surface["recomputes"] == \
            stats.num_deltas
