"""Set-associative LRU cache model (the simulated L2).

Addresses are byte addresses; the cache operates on aligned lines of
``line_bytes``.  :meth:`LRUCache.access_trace` takes one array of
addresses, optionally cut into segments (one per kernel trace), and
runs it in one of two regimes:

* **first-touch** (the starting regime): the state is a pair of
  ``(num_sets, associativity)`` arrays of resident line tags and
  last-use stamps.  While no set overflows, an access hits exactly when
  its line was resident before the call or was touched earlier in it,
  so hits, misses and miss streams follow from ``np.unique``-style
  first-occurrence analysis with no per-access Python work;
* **walk**: the first call that would evict converts the arrays once
  into per-set ``OrderedDict``s (least recent first) and walks every
  access through them, exactly, from then on.

Both regimes give the same counts and leave the same LRU order, so the
switch is invisible in every output.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

#: Accesses per chunk of the exact walk (see :meth:`LRUCache._walk`).
_WALK_CHUNK = 1 << 16


class LRUCache:
    """Exact set-associative cache with least-recently-used replacement."""

    def __init__(self, size_bytes: int, line_bytes: int, associativity: int):
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise SimulationError("cache dimensions must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines < associativity:
            raise SimulationError(
                f"cache of {size_bytes} B cannot hold one {associativity}-way set "
                f"of {line_bytes} B lines")
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = max(1, num_lines // associativity)
        # First-touch regime: slots [0, fill) of each row are resident.
        self._tags = np.full((self.num_sets, associativity), -1, np.int64)
        self._stamps = np.zeros((self.num_sets, associativity), np.int64)
        self._fill = np.zeros(self.num_sets, np.int64)
        self._clock = 0
        # Walk regime (None until the first evicting call).
        self._sets: Optional[List[OrderedDict]] = None
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        return self.access_trace(np.array([address]))["hits"] == 1

    def access_many(self, addresses: np.ndarray) -> Tuple[int, int]:
        """Touch many byte addresses; returns (hits, misses) for this batch."""
        stats = self.access_trace(addresses)
        return stats["hits"], stats["misses"]

    def access_trace(self, addresses: np.ndarray,
                     ends: Optional[Sequence[int]] = None):
        """Touch many byte addresses and gather stream statistics.

        Returns a dict with:

        * ``hits`` / ``misses`` — L2 outcomes;
        * ``seq_misses`` — misses whose line directly follows the
          previous missed line (DRAM row-buffer streaming);
        * ``seq_all`` — accesses whose line follows the previous access's
          line (interconnect streaming efficiency, hits included);
        * ``repeat_all`` — accesses to the same line as the previous one
          (coalesced within a transaction, effectively free).

        With ``ends`` (increasing segment end offsets, the last equal to
        ``len(addresses)``), ``addresses`` holds several traces back to
        back and a list of such dicts is returned, one per segment, each
        equal to what a separate call on that segment would return.
        """
        lines = np.asarray(addresses, dtype=np.int64) // self.line_bytes
        n = len(lines)
        bounds = np.array([n] if ends is None else ends, dtype=np.int64)
        last = bounds[-1] if len(bounds) else 0
        if last != n or (np.diff(bounds) < 0).any():
            raise SimulationError("segment ends must rise to the trace length")
        num_segments = len(bounds)
        sizes = np.diff(bounds, prepend=0)
        segment = np.repeat(np.arange(num_segments), sizes)
        # Stream statistics are order-properties of each segment's line
        # sequence; pairs across a segment boundary do not count.
        delta = np.diff(lines)
        inside = segment[1:] == segment[:-1]
        seq_all = np.bincount(segment[1:][inside & (delta == 1)],
                              minlength=num_segments)
        repeat_all = np.bincount(segment[1:][inside & (delta == 0)],
                                 minlength=num_segments)
        miss_pos = None
        if self._sets is None:
            miss_pos = self._first_touch(lines)
        if miss_pos is None:
            miss_pos = self._walk(lines)
        miss_segment = segment[miss_pos]
        seq = (np.diff(lines[miss_pos]) == 1) \
            & (miss_segment[1:] == miss_segment[:-1])
        seq_misses = np.bincount(miss_segment[1:][seq],
                                 minlength=num_segments)
        miss_count = np.bincount(miss_segment, minlength=num_segments)
        hit_count = sizes - miss_count
        self.hits += int(hit_count.sum())
        self.misses += int(miss_count.sum())
        out = [{"hits": h, "misses": m, "seq_misses": sm, "seq_all": sa,
                "repeat_all": ra}
               for h, m, sm, sa, ra in zip(
                   hit_count.tolist(), miss_count.tolist(),
                   seq_misses.tolist(), seq_all.tolist(),
                   repeat_all.tolist())]
        return out[0] if ends is None else out

    # ------------------------------------------------------------------
    def _first_touch(self, lines: np.ndarray) -> Optional[np.ndarray]:
        """Miss positions (in access order) if the call evicts nothing.

        When some set would overflow, converts the state, as it was
        before this call, to the walk regime and returns None.
        """
        n = len(lines)
        if n == 0:
            return np.zeros(0, np.int64)
        order = np.argsort(lines, kind="stable")
        ordered = lines[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        unique = ordered[starts]
        first = order[starts]
        last = order[np.append(starts[1:], n) - 1]
        sets = unique % self.num_sets
        # Resident lines hit on first touch; ``unique`` is sorted and a
        # line is resident in at most one slot.
        resident = np.zeros(len(unique), bool)
        slot = np.zeros(len(unique), np.int64)
        held_set, held_slot = np.nonzero(
            np.arange(self.associativity) < self._fill[:, None])
        if len(held_set):
            _, hit, held = np.intersect1d(
                unique, self._tags[held_set, held_slot], assume_unique=True,
                return_indices=True)
            resident[hit] = True
            slot[hit] = held_slot[held]
        new = ~resident
        new_sets = sets[new]
        added = np.bincount(new_sets, minlength=self.num_sets)
        if (self._fill + added > self.associativity).any():
            self._to_walk()
            return None
        # Each new line takes the next free slot of its set.
        by_set = np.argsort(new_sets, kind="stable")
        grouped = new_sets[by_set]
        group_start = np.flatnonzero(np.diff(grouped, prepend=-1))
        rank = np.arange(len(grouped)) - np.repeat(
            group_start, np.diff(np.append(group_start, len(grouped))))
        new_slot = np.empty(len(grouped), np.int64)
        new_slot[by_set] = self._fill[grouped] + rank
        slot[new] = new_slot
        self._tags[new_sets, new_slot] = unique[new]
        self._stamps[sets, slot] = self._clock + last
        self._fill += added
        self._clock += n
        return np.sort(first[new])

    def _to_walk(self) -> None:
        """One-way switch: per-set ``OrderedDict``s, least recent first."""
        held = np.arange(self.associativity) < self._fill[:, None]
        order = np.argsort(np.where(held, self._stamps, self._clock), axis=1)
        rows = np.take_along_axis(self._tags, order, axis=1).tolist()
        self._sets = [OrderedDict.fromkeys(row[:fill], True)
                      for row, fill in zip(rows, self._fill.tolist())]
        self._tags = self._stamps = self._fill = None

    def _walk(self, lines: np.ndarray) -> np.ndarray:
        """Exact per-access LRU walk; miss positions in access order.

        Lines become Python ints one chunk at a time, so a long batch
        trace never holds them all at once.
        """
        sets_list = self._sets
        assoc = self.associativity
        missed = bytearray(len(lines))
        for start in range(0, len(lines), _WALK_CHUNK):
            part = lines[start:start + _WALK_CHUNK]
            for pos, line, set_idx in zip(
                    range(start, start + len(part)), part.tolist(),
                    (part % self.num_sets).tolist()):
                s = sets_list[set_idx]
                if line in s:
                    s.move_to_end(line)
                else:
                    missed[pos] = 1
                    if len(s) >= assoc:
                        s.popitem(last=False)
                    s[line] = True
        return np.flatnonzero(np.frombuffer(missed, np.uint8))

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        if self._sets is None:
            return int(self._fill.sum())
        return sum(len(s) for s in self._sets)

    def contains(self, address: int) -> bool:
        line = address // self.line_bytes
        set_idx = line % self.num_sets
        if self._sets is None:
            return bool((self._tags[set_idx, :self._fill[set_idx]]
                         == line).any())
        return line in self._sets[set_idx]

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
