"""Reference L2 for differential tests: the plain per-access LRU walk.

Every access goes through per-set ``OrderedDict``s (least recent
first), one trace at a time, with no fast path.  ``LRUCache`` must
match it exactly: per-trace statistics, totals, and resident lines.
"""

from collections import OrderedDict

import numpy as np


class ReferenceLRU:
    def __init__(self, size_bytes, line_bytes, associativity):
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = max(1, size_bytes // line_bytes // associativity)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _trace(self, lines):
        stats = {"hits": 0, "misses": 0, "seq_misses": 0,
                 "seq_all": 0, "repeat_all": 0}
        prev_line = prev_miss_line = None
        for line in lines:
            if prev_line is not None:
                stats["seq_all"] += line == prev_line + 1
                stats["repeat_all"] += line == prev_line
            prev_line = line
            s = self.sets[line % self.num_sets]
            if line in s:
                s.move_to_end(line)
                stats["hits"] += 1
                continue
            stats["misses"] += 1
            if prev_miss_line is not None and line == prev_miss_line + 1:
                stats["seq_misses"] += 1
            prev_miss_line = line
            if len(s) >= self.associativity:
                s.popitem(last=False)
            s[line] = True
        self.hits += stats["hits"]
        self.misses += stats["misses"]
        return stats

    def access_trace(self, addresses, ends=None):
        lines = (np.asarray(addresses, dtype=np.int64)
                 // self.line_bytes).tolist()
        if ends is None:
            return self._trace(lines)
        starts = [0] + list(ends[:-1])
        return [self._trace(lines[a:b]) for a, b in zip(starts, ends)]

    @property
    def occupancy(self):
        return sum(len(s) for s in self.sets)

    def contains(self, address):
        line = address // self.line_bytes
        return line in self.sets[line % self.num_sets]
