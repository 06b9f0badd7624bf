"""Host-speed probe: a fixed job, independent of ``repro``, run between steps.

On a shared cloud host the speed of the machine drifts by 30% or more
over minutes, and every timing taken in that period drifts with it.
The probe is a fixed amount of the work the program's steps spend their
time on: fresh anonymous memory mapped, faulted in, written and summed
(the serve steps take about 80,000 minor page faults each), and a
dictionary-heavy Python loop.  Nothing in it calls the program, so a
change to the program cannot move it.  ``run.py`` times the probe
between steps throughout a run and scales the run's times by
``median probe time / REFERENCE_S``.

    python3 wallbench/hostspeed.py     # prints ten probe times
"""

from __future__ import annotations

import mmap
import time

import numpy as np

#: Probe time, in seconds, on the host the scaled figures refer to: the
#: median probe of ten runs per workload on a shared 2-vCPU cloud host.
REFERENCE_S = 0.08

#: Bytes mapped per round; small, so the probe barely moves peak RSS.
CHUNK_BYTES = 4 << 20
ROUNDS = 16
LOOP_ITEMS = 60_000


def probe() -> float:
    """Wall seconds one fixed probe takes on this host right now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        with mmap.mmap(-1, CHUNK_BYTES) as chunk:
            view = np.frombuffer(chunk, dtype=np.float64)
            view.fill(1.0)
            view.sum()
            del view
    table = {}
    for i in range(LOOP_ITEMS):
        key = i % 1009
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


if __name__ == "__main__":
    print(" ".join(f"{probe():.4f}" for _ in range(10)))
