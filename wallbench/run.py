"""Wall-clock benchmark of the ``repro`` program: one workload per process.

Usage (from the repository root)::

    python3 wallbench/run.py --workload train_gt --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
with times scaled to a reference host by ``hostspeed.py``;
``--trace 1`` wraps every layer entry point (see ``layers.py``) and
reports per-layer busy time, self time, calls and counters instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a human-readable report.  The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the benchmark
could not run at all (for example without ``src/repro`` beside it).

See ``wallbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: BLAS/OpenMP thread cap, applied before numpy is imported so that the
#: numbers measure this program and not the OS scheduler.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".wallbench_work"

#: Set-ups per run, at least.  After the first, each set-up builds a
#: fresh instance of the workload between two timed steps, whenever
#: set-ups have taken less than ``SETUP_SHARE`` of the steps' time so
#: far.  Set-ups are thus spread over the whole run, as the steps are,
#: and a cheap set-up is timed many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SHARE = 0.15

#: Host-speed probes per run, at least; between steps the probe runs
#: whenever probes have taken less than ``PROBE_SHARE`` of the steps'
#: time so far (see ``hostspeed.py``).
PROBE_REPEATS = 5
PROBE_SHARE = 0.1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input size; 'toy' is for the smoke test")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import contextlib
    import json
    import statistics
    import time

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import hostspeed
    import layers
    import workloads
    from spans import SpanRecorder, per_call_overhead_s

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        layers.instrument(recorder)

    def phase(name):
        return (recorder.phase(f"bench.{name}") if recorder
                else contextlib.nullcontext())

    def new_workload():
        return workloads.WORKLOADS[args.workload](args.seed, args.size,
                                                  WORK_DIR)

    setup_times = []
    fingerprints = set()

    def set_up(target):
        with phase("setup"):
            start = time.perf_counter()
            target.setup()
            setup_times.append(time.perf_counter() - start)
        fingerprints.add(repr(target.setup_fingerprint()))

    probe_times = []

    def probe():
        with phase("probe"):
            probe_times.append(hostspeed.probe())

    WORK_DIR.mkdir(exist_ok=True)
    workload = new_workload()
    try:
        set_up(workload)
        with phase("warm_up"):
            workload.warm_up()
        with phase("measure"):
            probe()
            measured = 0.0
            while (len(workload.steps) < workload.min_steps
                   or measured < args.seconds):
                start = time.perf_counter()
                workload.step()
                measured += time.perf_counter() - start
                if sum(setup_times) < SETUP_SHARE * measured:
                    set_up(new_workload())
                if sum(probe_times) < PROBE_SHARE * measured:
                    probe()
            while len(setup_times) < SETUP_REPEATS:
                set_up(new_workload())
            while len(probe_times) < PROBE_REPEATS:
                probe()
        with phase("check"):
            problems = workload.check()
        if len(fingerprints) != 1:
            problems.append(f"set-ups from one seed differ: "
                            f"{sorted(fingerprints)}")
        report = workload.report()
        counters = workload.layer_counters()
    finally:
        workload.close()
        if recorder is not None:
            recorder.restore()

    if recorder is not None:
        wall = time.perf_counter() - recorder.origin
        totals = recorder.totals()
        missing = [s for s in workload.expected_spans
                   if totals.get(s, {"calls": 0})["calls"] == 0]
        if missing:
            problems.append(f"spans predicted to fire recorded no calls: "
                            f"{missing}")
        wrapped_calls = sum(row["calls"] for name, row in totals.items()
                            if not name.startswith("bench."))
        values = {}
        for span in recorder.names:
            row = totals.get(span, {"calls": 0, "busy_s": 0.0,
                                    "self_s": 0.0})
            for field, value in row.items():
                values[f"{span}.{field}"] = value
        values.update(layers.span_counters(recorder))
        values.update(counters)
        values["trace.overhead_frac"] = \
            per_call_overhead_s() * wrapped_calls / wall
        values["trace.unattributed_s"] = sum(
            row["self_s"] for name, row in totals.items()
            if name.startswith("bench."))
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write_chrome_trace(trace_path)
        report["trace_spans"] = (len(recorder.spans), "count", "count")
    else:
        # Times scaled to the reference host: a host running slower
        # than it stretches the probe and the workload alike.
        host_slowdown = statistics.median(probe_times) / hostspeed.REFERENCE_S
        values = {"setup_s": statistics.median(setup_times) / host_slowdown,
                  "peak_rss_mb": peak_rss_mb(),
                  "throughput_per_s": workload.throughput() * host_slowdown}

    # BENCHMARK.json names every metric and its unit.  Metrics that do
    # not apply to this workload (a counter of another layer) are 0;
    # a metric measured here but not listed there is a benchmark bug.
    listed = {m["name"]: m["unit"] for m in spec[
        "per_layer" if args.trace else "end_to_end"]}
    unlisted = sorted(set(values) - set(listed))
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {unlisted}",
              file=sys.stderr)
        return 2

    report["throughput_per_s_wall"] = (workload.throughput(), "1/s", "wall")
    report["setup_s_wall"] = (statistics.median(setup_times), "s", "wall")
    report["setups"] = (len(setup_times), "count", "count")
    report["host_probe_s"] = (statistics.median(probe_times), "s", "wall")
    report["probes"] = (len(probe_times), "count", "count")
    report["failed_frac"] = (workload.failed / workload.attempted,
                             "ratio", "count")
    report["blas_threads"] = (BLAS_THREADS, "count", "config")
    report["nproc"] = (os.cpu_count() or 1, "count", "config")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    for name, (value, unit, clock) in report.items():
        print(f"{name} = {value:.6g} {unit} ({clock})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in listed.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
