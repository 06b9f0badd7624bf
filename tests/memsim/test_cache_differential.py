"""LRUCache against the plain per-access walk (differential, hypothesis).

The cache answers whole segmented traces with a first-touch analysis
until a call would evict, then switches once to an exact per-access
walk.  Small caches make both regimes and the switch between them
common; every call is compared with :class:`ReferenceLRU` taking the
same segments as separate traces, and so is the state left behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.memsim import cache as cache_module
from repro.memsim.cache import LRUCache
from tests.memsim.reference_lru import ReferenceLRU

LINE = 64


def segment(max_line):
    """One trace: random lines, or a sequential run, with byte offsets."""
    lines = st.one_of(
        st.lists(st.integers(0, max_line), max_size=24),
        st.builds(lambda start, n: list(range(start, start + n)),
                  st.integers(0, max_line), st.integers(0, 12)))
    return lines.flatmap(lambda ls: st.lists(
        st.integers(0, LINE - 1), min_size=len(ls), max_size=len(ls)
    ).map(lambda offsets: [l * LINE + o for l, o in zip(ls, offsets)]))


@st.composite
def workloads(draw):
    associativity = draw(st.integers(1, 4))
    num_sets = draw(st.integers(1, 4))
    max_line = draw(st.sampled_from([4, 12, 40]))
    calls = draw(st.lists(st.lists(segment(max_line), min_size=1,
                                   max_size=5),
                          min_size=1, max_size=6))
    return LINE * associativity * num_sets, associativity, max_line, calls


def run_and_compare(size, associativity, max_line, calls):
    cache = LRUCache(size, LINE, associativity)
    ref = ReferenceLRU(size, LINE, associativity)
    for segments in calls:
        flat = np.array([a for seg in segments for a in seg], np.int64)
        if len(segments) == 1:
            assert cache.access_trace(flat) == ref.access_trace(flat)
        else:
            ends = np.cumsum([len(seg) for seg in segments])
            got = cache.access_trace(flat, ends)
            assert got == [ref.access_trace(np.array(seg, np.int64))
                           for seg in segments]
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert cache.occupancy == ref.occupancy
        for line in range(max_line + 14):
            assert cache.contains(line * LINE) == ref.contains(line * LINE)
    return cache


@settings(max_examples=300, deadline=None)
@given(workloads())
def test_matches_reference_walk(workload):
    run_and_compare(*workload)


def test_both_regimes_and_the_switch_are_exercised():
    rng = np.random.default_rng(7)
    switched = stayed = 0
    for _ in range(200):
        max_line = int(rng.choice([4, 12, 40]))
        calls = [[(rng.integers(0, max_line + 1, rng.integers(0, 20)) * LINE
                   ).tolist() for _ in range(rng.integers(1, 4))]
                 for _ in range(rng.integers(1, 5))]
        cache = run_and_compare(LINE * 2 * 4, 2, max_line, calls)
        switched += cache._sets is not None
        stayed += cache._sets is None
    assert switched > 20 and stayed > 20


def test_walk_chunk_boundaries_do_not_change_outcomes(monkeypatch):
    monkeypatch.setattr(cache_module, "_WALK_CHUNK", 3)
    test_both_regimes_and_the_switch_are_exercised()


class TestRegimes:
    def test_no_eviction_stays_vectorised(self):
        cache = LRUCache(LINE * 16, LINE, 4)
        for start in range(0, 16, 4):
            cache.access_trace(np.arange(start, start + 4) * LINE)
        assert cache._sets is None and cache.occupancy == 16

    def test_switch_is_one_way(self):
        cache = LRUCache(LINE * 4, LINE, 4)
        cache.access_trace(np.arange(5) * LINE)
        assert cache._sets is not None
        cache.access_trace(np.array([0]))
        assert cache._sets is not None

    def test_switch_keeps_recency_order(self):
        # Lines 0-3 fill the only set; touching 0 again makes 1 the LRU.
        cache = LRUCache(LINE * 4, LINE, 4)
        cache.access_trace(np.array([0, 1, 2, 3, 0]) * LINE)
        stats = cache.access_trace(np.array([4, 0, 1]) * LINE)
        assert (stats["hits"], stats["misses"]) == (1, 2)
        assert not cache.contains(2 * LINE)

    def test_segment_stream_counts_reset_at_boundaries(self):
        cache = LRUCache(LINE * 64, LINE, 4)
        stats = cache.access_trace(np.array([0, 1, 2, 3]) * LINE, [2, 4])
        assert [s["seq_misses"] for s in stats] == [1, 1]
        assert [s["seq_all"] for s in stats] == [1, 1]

    @pytest.mark.parametrize("ends", [[], [2], [3, 2, 4], [2, 5]])
    def test_bad_segment_ends_rejected(self, ends):
        cache = LRUCache(LINE * 64, LINE, 4)
        with pytest.raises(SimulationError):
            cache.access_trace(np.arange(4) * LINE, ends)
