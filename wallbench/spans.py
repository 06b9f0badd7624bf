"""Wall-clock span recorder for the traced benchmark run.

The recorder wraps public functions and methods of ``repro`` from the
outside: nothing in ``src/`` knows it is being traced.  Each wrapped
call records one span ``(name, start, end, parent)`` in memory; the
spans are written once, at exit, as Chrome trace-event JSON (loadable
in Perfetto or ``chrome://tracing``).

A function is wrapped at every binding its callers actually use: a
module-level name imported with ``from x import f`` is a second binding
of the same object, so :meth:`SpanRecorder.wrap_function` replaces the
object under every ``repro.*`` module attribute that holds it (for
example both ``repro.serve.server.simulate_batch`` and
``repro.train.clock.simulate_batch``).  Methods are wrapped on the class
that defines them, which every instance and subclass reaches.

Per span name the recorder reports:

* ``calls`` -- number of wrapped calls;
* ``busy_s`` -- wall time covered by the outermost calls of that name
  (a recursive or re-entrant call is not counted twice);
* ``self_s`` -- duration minus the part covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[[tuple, dict, object], None]


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.origin = time.perf_counter()
        #: Every span name a wrapper was installed for.
        self.names: set = set()
        # One row per span in start order: [name, start, end, parent,
        # outermost]; start and end are filled in when the span ends.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def span(self, name: str, fn: Callable, hook: Optional[Hook] = None
             ) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            outermost = active.get(name, 0) == 0
            spans.append([name, 0.0, 0.0, parent, outermost])
            stack.append(index)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                row = spans[index]
                row[1] = start
                row[2] = end
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record one benchmark-phase span around the ``with`` body."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1, True])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            row = self.spans[index]
            row[1] = start
            row[2] = time.perf_counter()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap_function(self, name: str, fn: Callable,
                      hook: Optional[Hook] = None) -> None:
        """Replace ``fn`` under every ``repro.*`` binding of it."""
        traced = self.span(name, fn, hook)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no module binds {fn!r} for span {name}")

    def wrap_method(self, name: str, cls: type, attr: str,
                    hook: Optional[Hook] = None) -> None:
        """Wrap ``cls.attr`` in place (instances and subclasses see it)."""
        original = cls.__dict__.get(attr, getattr(cls, attr))
        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, self.span(name, original, hook))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, value in reversed(self._patches):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over finished spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, outermost), covered in zip(self.spans,
                                                             child_time):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
            if outermost:
                row["busy_s"] += end - start
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (``X`` events, µs)."""
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": round((start - self.origin) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "pid": 1, "tid": 1,
                   "args": {"parent": parent}}
                  for name, start, end, parent, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


#: No-op calls per calibration round in :func:`per_call_overhead_s`.
CALIBRATION_CALLS = 20000


def per_call_overhead_s() -> float:
    """Wall cost one wrapped call adds, measured on a no-op function."""

    def noop(*args, **kwargs):
        return None

    recorder = SpanRecorder()
    traced = recorder.span("calibrate", noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop(1, 2)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced(1, 2)
        wrapped = time.perf_counter() - start
        recorder.spans.clear()
        best = min(best, (wrapped - plain) / CALIBRATION_CALLS)
    return max(best, 0.0)
