"""A single server is a 1-replica cluster: differential test.

:meth:`repro.cluster.Cluster.run` is the only serving event loop.  With
one replica and no fault plan it must reproduce the plain one-engine
loop in :mod:`tests.serve.reference_server` exactly, whatever the
arrival stream, queue capacity and client retry policy:

* the replica's ``ServerStats.as_dict()``, byte for byte;
* the fleet's ``retried``/``failed`` against the reference's
  ``retried``/``dropped``;
* the prediction for every request id.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.resilience import RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    ServerConfig,
    generate_requests,
)
from tests.serve.reference_server import run_reference

RETRY_POLICIES = {
    "none": None,
    "retries": RetryPolicy(max_attempts=4, backoff_base_s=0.004),
    "tight": RetryPolicy(max_attempts=2, backoff_base_s=0.0005),
}


def assert_equivalent(model, requests, config, retry):
    """Run both loops; assert they agree; return the reference result."""
    ref = run_reference(model, requests, config, retry)
    got = Cluster(model, ClusterConfig(num_replicas=1, server=config)) \
        .run(requests, retry_policy=retry)
    assert json.dumps(got.stats.replicas[0].stats.as_dict(),
                      sort_keys=True) == \
        json.dumps(ref.stats.as_dict(), sort_keys=True)
    assert (got.stats.retried, got.stats.failed, got.stats.shed) == \
        (ref.retried, ref.dropped, 0)
    assert {f.reason for f in got.stats.failures} <= \
        {"retry-budget-exhausted"}
    expected = {r.request_id: r.prediction.tolist() for r in ref.responses}
    assert {r.request_id: r.prediction.tolist()
            for r in got.responses} == expected
    return ref


def burst_requests(pool, seed=9):
    process = ArrivalProcess(kind="bursty", rate_rps=8000.0, seed=seed,
                             burst_factor=8.0, burst_len=12)
    return generate_requests(pool, 48, process)


SQUEEZED = ServerConfig(
    queue_capacity=4,
    policy=BatchingPolicy(max_batch_size=2, max_wait_s=0.005,
                          bucket_width=16))


class TestPressureCases:
    """Each retry regime is really exercised, and the loops agree."""

    def test_rejections_without_retry_policy(self, model, pool):
        ref = assert_equivalent(model, burst_requests(pool), SQUEEZED,
                                None)
        assert ref.stats.rejected > 0
        assert ref.dropped == ref.stats.rejected

    def test_retries_absorb_rejections(self, model, pool):
        ref = assert_equivalent(model, burst_requests(pool), SQUEEZED,
                                RETRY_POLICIES["retries"])
        assert ref.retried > 0
        assert ref.dropped < ref.stats.rejected

    def test_exhausted_retry_budget(self, model, pool):
        ref = assert_equivalent(model, burst_requests(pool), SQUEEZED,
                                RETRY_POLICIES["tight"])
        assert ref.retried > 0
        assert ref.dropped > 0


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["poisson", "bursty"]),
       seed=st.integers(min_value=0, max_value=10_000),
       rate=st.sampled_from([400.0, 8000.0]),
       capacity=st.sampled_from([2, 4, 16, 64]),
       max_batch=st.sampled_from([2, 8]),
       retry=st.sampled_from(sorted(RETRY_POLICIES)))
def test_single_replica_cluster_matches_reference(model, pool, kind, seed,
                                                  rate, capacity,
                                                  max_batch, retry):
    process = ArrivalProcess(kind=kind, rate_rps=rate, seed=seed)
    requests = generate_requests(pool, 24, process)
    config = ServerConfig(
        queue_capacity=capacity,
        policy=BatchingPolicy(max_batch_size=max_batch, max_wait_s=0.01,
                              bucket_width=16))
    assert_equivalent(model, requests, config, RETRY_POLICIES[retry])

