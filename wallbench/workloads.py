"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload builds its inputs from the seed in :meth:`setup`, runs
one timed unit of work per :meth:`step`, and afterwards verifies the
program's outputs in :meth:`check`.  :mod:`run` owns the clock loop;
a workload only times the region that counts as its work.

Layer entry points are always reached through module attributes
(``datasets.load_dataset``, ``pipeline.precompute_paths``), never
through names imported into this file, so the traced run's wrappers
see the benchmark's own calls as well as the program's internal ones.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.datasets as datasets
import repro.graph.generators as generators
import repro.pipeline as pipeline
from repro.cluster import ClusterConfig
from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.graph.batch import GraphBatch
from repro.models.runtime import BaselineRuntime, MegaRuntime
from repro.resilience import RetryPolicy
from repro.serve import ArrivalProcess, BatchingPolicy, ServerConfig
from repro.stream import (GraphTable, RepairPolicy, StreamMix, StreamServer,
                          generate_stream)
from repro.train import Trainer, build_model

#: Report entry: (value, unit, clock) where clock is "wall", "sim" or
#: "count".
Report = Dict[str, Tuple[float, str, str]]


@dataclass
class Step:
    """One timed unit of work: ``work`` items in ``seconds`` of wall.

    Steps with the same ``key`` repeat identical work.
    """

    work: float
    seconds: float
    key: str = ""


class Workload:
    """Interface every workload implements (see module docstring)."""

    name = ""
    #: Spans the traced run must see at least once on this workload.
    expected_spans: Tuple[str, ...] = ()
    sizes: Dict[str, dict] = {}
    #: Timed steps per run, at least, even when ``--seconds`` runs out.
    min_steps = 3

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.size = self.sizes[size]
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.steps: List[Step] = []

    def setup(self) -> None:
        raise NotImplementedError

    def setup_fingerprint(self) -> tuple:
        """Figures that every set-up from one seed must reproduce."""
        return ()

    def warm_up(self) -> None:
        """Untimed work before the clock starts (default: none)."""

    def step(self) -> None:
        """Run one timed step and append it to ``self.steps``."""
        raise NotImplementedError

    def throughput(self) -> float:
        """Work per wall second over the timed steps (see :func:`rate`)."""
        return rate(self.steps)

    def check(self) -> List[str]:
        """Correctness problems found; empty when all checks pass."""
        raise NotImplementedError

    def report(self) -> Report:
        raise NotImplementedError

    def layer_counters(self) -> Dict[str, float]:
        """Per-layer counters read from the program's own stats."""
        return {}

    def close(self) -> None:
        """Remove what the workload wrote (default: nothing)."""


def rate(steps: List[Step]) -> float:
    """Work per second, with each key's time the median of its repeats.

    Neither a single stalled step nor a single burst of host speed moves
    the median.
    """
    times: Dict[str, List[float]] = {}
    work: Dict[str, float] = {}
    for step in steps:
        times.setdefault(step.key, []).append(step.seconds)
        work[step.key] = step.work
    return sum(work.values()) / sum(statistics.median(t)
                                    for t in times.values())


# ---------------------------------------------------------------------------
# train_gt: MEGA training of the Graph Transformer on synthetic ZINC
# ---------------------------------------------------------------------------

class TrainGT(Workload):
    name = "train_gt"
    expected_spans = (
        "datasets.load", "core.traverse", "core.plan",
        "pipeline.precompute", "pipeline.materialise", "models.runtime",
        "models.forward", "tensor.backward", "tensor.optim",
        "train.cost_model", "kernel_plans.simulate_batch",
        "memsim.run_kernel", "memsim.access_trace")
    sizes = {
        "full": {"scale": 0.025, "hidden": 64, "layers": 4, "batch": 64},
        "toy": {"scale": 0.004, "hidden": 16, "layers": 2, "batch": 16},
    }

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.losses: List[float] = []

    def setup(self) -> None:
        size = self.size
        self.trainer = self.dataset = None  # free the previous set-up
        self.mega_config = MegaConfig(seed=self.seed)
        self.dataset = datasets.load_dataset("ZINC", scale=size["scale"],
                                             seed=self.seed)
        model = build_model("GT", self.dataset, hidden_dim=size["hidden"],
                            num_layers=size["layers"], seed=self.seed)
        self.trainer = Trainer(model, self.dataset, method="mega",
                               batch_size=size["batch"], seed=self.seed,
                               mega_config=self.mega_config, workers=1)
        # fit(0) runs the simulated-clock cost model and trains nothing.
        self.trainer.fit(0)
        cost = self.trainer.cost_model.measure(self.dataset.train,
                                               cache_key="train")
        self.sim_epoch_s = cost.epoch_seconds

    def setup_fingerprint(self) -> tuple:
        return (self.sim_epoch_s,)

    def _epoch(self) -> None:
        loss = self.trainer.train_epoch()
        steps = math.ceil(len(self.dataset.train) / self.size["batch"])
        self.attempted += steps
        # train_epoch reports the mean loss only: a non-finite mean
        # marks every step of that epoch as failed.
        if not math.isfinite(loss):
            self.failed += steps
        self.losses.append(loss)

    def warm_up(self) -> None:
        self._epoch()

    def step(self) -> None:
        start = time.perf_counter()
        self._epoch()
        self.steps.append(Step(len(self.dataset.train),
                               time.perf_counter() - start))

    def check(self) -> List[str]:
        problems = []
        if not all(math.isfinite(loss) for loss in self.losses):
            problems.append(f"non-finite training loss in {self.losses}")
        self.val_mae = self.trainer.evaluate("validation")
        if not math.isfinite(self.val_mae):
            problems.append(f"non-finite validation MAE {self.val_mae}")
        # MEGA and the baseline aggregate the same messages, so one
        # fixed batch must give the same predictions either way.
        graphs = self.dataset.train[:self.size["batch"]]
        paths = pipeline.precompute_paths(graphs, self.mega_config).paths
        batch = GraphBatch(graphs)
        model = self.trainer.model
        model.eval()
        mega = model(batch, MegaRuntime(batch, paths)).data
        base = model(batch, BaselineRuntime(batch)).data
        if not np.allclose(mega, base, rtol=1e-6, atol=1e-8):
            problems.append("MEGA forward differs from baseline forward: "
                            f"max |diff| {np.abs(mega - base).max():.3g}")
        return problems

    def report(self) -> Report:
        return {
            "train_graphs_per_s": (self.throughput(), "graphs/s",
                                   "wall"),
            "timed_epochs": (len(self.steps), "count", "count"),
            "val_mae": (self.val_mae, "MAE", "quality"),
            "sim_epoch_s": (self.sim_epoch_s, "s", "sim"),
        }


# ---------------------------------------------------------------------------
# serve_stream: 3-replica StreamServer under an open-loop Poisson stream
# ---------------------------------------------------------------------------

class ServeStream(Workload):
    name = "serve_stream"
    expected_spans = (
        "datasets.load", "core.traverse", "core.plan", "pipeline.hash",
        "pipeline.materialise", "models.runtime", "models.forward",
        "kernel_plans.simulate_batch", "memsim.run_kernel",
        "memsim.access_trace", "serve.admit", "serve.launch",
        "serve.complete", "cluster.run", "stream.repair")
    sizes = {
        "full": {"scale": 0.025, "graphs": 24, "events": 150,
                 "rate": 800.0, "hidden": 64, "layers": 4, "batch": 16},
        "toy": {"scale": 0.01, "graphs": 9, "events": 60,
                "rate": 800.0, "hidden": 16, "layers": 2, "batch": 8},
    }

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        # Only the first replay surface and the latest result are kept,
        # so memory does not grow with the number of timed streams.
        self.first_surface = None
        self.result = None
        self.problems: List[str] = []
        self.totals: Dict[str, float] = {}

    def setup(self) -> None:
        size = self.size
        dataset = datasets.load_dataset("ZINC", scale=size["scale"],
                                        seed=self.seed)
        self.model = build_model("GCN", dataset, hidden_dim=size["hidden"],
                                 num_layers=size["layers"], seed=self.seed)
        self.graphs = {f"g{i:02d}": g
                       for i, g in enumerate(dataset.test[:size["graphs"]])}
        names = sorted(self.graphs)
        # Deltas aim at one third of the graphs; the rest stay untouched.
        self.delta_names = tuple(names[:max(1, len(names) // 3)])
        self.config = ClusterConfig(
            num_replicas=3, policy="hash-affinity",
            server=ServerConfig(
                queue_capacity=64,
                policy=BatchingPolicy(max_batch_size=size["batch"],
                                      max_wait_s=0.02, bucket_width=16)))
        mix = StreamMix(delta_fraction=0.1, ops_per_delta=4,
                        delete_fraction=0.25, delta_names=self.delta_names,
                        seed=self.seed)
        process = ArrivalProcess(kind="poisson", rate_rps=size["rate"],
                                 seed=self.seed)
        self.requests, self.deltas = generate_stream(
            GraphTable(self.graphs, MegaConfig()), size["events"], process,
            mix)

    def setup_fingerprint(self) -> tuple:
        return (len(self.requests), len(self.deltas), self.delta_names)

    def _serve(self, requests, deltas):
        server = StreamServer(self.model, dict(self.graphs),
                              config=self.config,
                              repair_policy=RepairPolicy())
        return server.run(requests, deltas,
                          retry_policy=RetryPolicy(max_attempts=3))

    def warm_up(self) -> None:
        self._serve(self.requests[:64], [])

    def step(self) -> None:
        start = time.perf_counter()
        result = self._serve(self.requests, self.deltas)
        seconds = time.perf_counter() - start
        self.steps.append(Step(result.stats.cluster.served, seconds))
        self._record(result)

    def _record(self, result) -> None:
        """Check one stream's conservation and replay surface; tally it."""
        stats, fleet = result.stats, result.stats.cluster
        self.attempted += fleet.received
        self.failed += fleet.failed + fleet.shed
        if fleet.received != fleet.served + fleet.failed + fleet.shed:
            self.problems.append(
                f"conservation broken: received {fleet.received} != "
                f"served {fleet.served} + failed {fleet.failed} + "
                f"shed {fleet.shed}")
        surface = stats.as_dict()
        if self.first_surface is None:
            self.first_surface = surface
        elif surface != self.first_surface:
            self.problems.append("stream stats differ between identical "
                                 "runs")
        replicas = [r.stats for r in fleet.replicas]
        for name, value in (
                ("depth_sum", sum(r.queue_depth_sum for r in replicas)),
                ("depth_n", sum(r.queue_depth_samples for r in replicas)),
                ("serve.retried", fleet.retried),
                ("cluster.schedule_misses", fleet.tier.misses),
                ("stream.repairs", stats.repairs),
                ("stream.recomputes", stats.recomputes),
                ("stream.repair_work_units", stats.repair_work_units),
                ("stream.invalidated_keys", stats.invalidated_keys)):
            self.totals[name] = self.totals.get(name, 0) + value
        self.result = result

    def check(self) -> List[str]:
        problems = list(dict.fromkeys(self.problems))
        # Graphs no delta touched must be served exactly as a direct
        # forward of the model on that graph alone.
        self.model.eval()
        name_of = {r.request_id: r.graph_name for r in self.requests}
        expected = {}
        for name, graph in self.graphs.items():
            if name in self.delta_names:
                continue
            batch = GraphBatch([graph])
            path = PathRepresentation.from_graph(graph, MegaConfig())
            expected[name] = self.model(batch, MegaRuntime(batch, [path])
                                        ).data
        compared = 0
        for response in self.result.responses:
            name = name_of[response.request_id]
            if name in expected:
                compared += 1
                if not np.allclose(response.prediction, expected[name],
                                   rtol=1e-6, atol=1e-8):
                    problems.append(
                        f"request {response.request_id} on untouched "
                        f"graph {name} differs from a direct forward")
                    break
        if compared == 0:
            problems.append("no untouched-graph response to compare")
        return problems

    def report(self) -> Report:
        fleet = self.result.stats.cluster
        stream = self.result.stats
        return {
            "serve_req_per_s": (self.throughput(), "req/s", "wall"),
            "timed_streams": (len(self.steps), "count", "count"),
            "sim_p50_latency_ms": (fleet.p50_latency_s * 1e3, "ms", "sim"),
            "sim_p99_latency_ms": (fleet.p99_latency_s * 1e3, "ms", "sim"),
            "sim_latency_samples": (len(fleet.latencies_s), "count",
                                    "count"),
            "deltas": (stream.num_deltas, "count", "count"),
        }

    def layer_counters(self) -> Dict[str, float]:
        totals = dict(self.totals)
        depth_n = totals.pop("depth_n")
        depth_sum = totals.pop("depth_sum")
        fleet = self.result.stats.cluster
        return {
            "serve.mean_queue_depth": depth_sum / depth_n if depth_n else 0.0,
            "cluster.l1_hit_rate": fleet.l1_hit_rate,
            "cluster.l2_hit_rate": fleet.l2_hit_rate,
            **totals,
        }


# ---------------------------------------------------------------------------
# preprocess_cold / preprocess_warm: precompute_paths over a mixed corpus
# ---------------------------------------------------------------------------

class Preprocess(Workload):
    """``precompute_paths`` over ZINC molecules plus two large graphs.

    The corpus is cut into strided slices, which mix molecule sizes
    evenly and put each large graph in a slice of its own.  Steps take
    the slices in turn, so each is repeated at several moments of the
    run; the rate adds up each pass's median repeat.
    """

    expected_spans = (
        "datasets.load", "graph.generate", "core.traverse", "core.plan",
        "pipeline.precompute", "pipeline.hash", "pipeline.cache_get",
        "pipeline.cache_put", "pipeline.materialise")
    sizes = {
        "full": {"scale": 0.125, "ba_nodes": 2000, "ws_nodes": 16000,
                 "slices": 4},
        "toy": {"scale": 0.004, "ba_nodes": 150, "ws_nodes": 600,
                "slices": 2},
    }
    #: Timed passes per step.
    passes_per_step = 1

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.cache_root = work_dir / f"cache-{self.name}"
        #: Latest cache directory filled for each slice.
        self.cache_dirs: Dict[int, Path] = {}
        # Every slice is timed at least twice.
        self.min_steps = 2 * self.passes_per_step * self.size["slices"]

    def setup(self) -> None:
        size = self.size
        dataset = datasets.load_dataset("ZINC", scale=size["scale"],
                                        seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.corpus = dataset.all_graphs() + [
            generators.barabasi_albert(rng, size["ba_nodes"], 2),
            generators.watts_strogatz(rng, size["ws_nodes"], 4, 0.1)]
        self.nodes = sum(g.num_nodes for g in self.corpus)
        count = size["slices"]
        self.slices = [self.corpus[i::count] for i in range(count)]
        self.config = MegaConfig(seed=self.seed)

    def setup_fingerprint(self) -> tuple:
        return (len(self.corpus), self.nodes)

    def _pass(self, graphs, **cache) -> Tuple[object, float]:
        start = time.perf_counter()
        result = pipeline.precompute_paths(
            graphs, self.config, workers=1, on_error="quarantine", **cache)
        seconds = time.perf_counter() - start
        self.attempted += len(graphs)
        self.failed += len(result.stats.quarantined)
        return result, seconds

    def _next_slice(self) -> int:
        return len(self.steps) // self.passes_per_step % len(self.slices)

    def _phase_rate(self, phase: str) -> float:
        return rate([s for s in self.steps if s.key.startswith(phase)])

    @staticmethod
    def _compare(index: int, label: str, first, second) -> List[str]:
        """Byte-equal schedules and plans, and full edge coverage."""
        for i, (a, b) in enumerate(zip(first.paths, second.paths)):
            if a is None or b is None:
                return [f"slice {index} graph {i} was quarantined"]
            packed_a = pipeline.pack_entry(a.schedule, first.plans[i])
            packed_b = pipeline.pack_entry(b.schedule, second.plans[i])
            if any(not np.array_equal(packed_a[k], packed_b[k])
                   for k in packed_a):
                return [f"slice {index} graph {i}: {label}"]
            if not a.covered_edge_mask.all():
                return [f"slice {index} graph {i}: path leaves edges "
                        "uncovered"]
        return []

    def _cold_problems(self, index: int, cold) -> List[str]:
        graphs = len(self.slices[index])
        if cold.stats.cache.misses != graphs - cold.stats.deduplicated:
            return [f"slice {index}: cold pass was not a full miss"]
        return []

    def layer_counters(self) -> Dict[str, float]:
        return {"pipeline.cache_bytes": float(sum(
            pipeline.ScheduleCache(path).total_bytes
            for path in self.cache_dirs.values()))}

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


class PreprocessCold(Preprocess):
    name = "preprocess_cold"
    passes_per_step = 2

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        # Latest (cold, uncached) result per slice, for the checks.
        self.passes: Dict[int, Tuple[object, object]] = {}

    def warm_up(self) -> None:
        self._pass(self.slices[0])

    def step(self) -> None:
        """A cold pass into a fresh cache, then an uncached pass.

        The cold pass is Algorithm 1, plan build and cache write; the
        uncached pass is the same work without the cache, as
        ``Trainer`` runs it.
        """
        index = self._next_slice()
        # A new directory per step: deleting the previous one here would
        # leave the file system busy during the next timed pass.
        cache_dir = self.cache_root / f"step{len(self.steps) // 2}"
        cold, cold_s = self._pass(self.slices[index], cache_dir=cache_dir)
        uncached, uncached_s = self._pass(self.slices[index])
        self.passes[index] = (cold, uncached)
        self.cache_dirs[index] = cache_dir
        nodes = sum(g.num_nodes for g in self.slices[index])
        self.steps += [Step(nodes, cold_s, f"cold{index}"),
                       Step(nodes, uncached_s, f"recompute{index}")]

    def check(self) -> List[str]:
        problems = []
        for index, (cold, uncached) in sorted(self.passes.items()):
            problems += self._cold_problems(index, cold)
            problems += self._compare(
                index, "cold-pass schedule differs from uncached schedule",
                cold, uncached)
        if len(self.passes) != len(self.slices):
            problems.append(f"only {len(self.passes)} of "
                            f"{len(self.slices)} slices were timed")
        return problems

    def report(self) -> Report:
        return {
            "cold_nodes_per_s": (self._phase_rate("cold"), "nodes/s",
                                 "wall"),
            "recompute_nodes_per_s": (self._phase_rate("recompute"),
                                      "nodes/s", "wall"),
            "timed_passes": (len(self.steps), "count", "count"),
            "graphs": (len(self.corpus), "count", "count"),
            "nodes": (self.nodes, "count", "count"),
        }


class PreprocessWarm(Preprocess):
    name = "preprocess_warm"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        # Per slice: [cold result, latest warm result].
        self.passes: Dict[int, list] = {}
        self.recompute: List[Step] = []

    def warm_up(self) -> None:
        """Fill one cache per slice; time two uncached passes per slice.

        The uncached rate is reported beside the warm one, to show
        whether reading the cache beats recomputing.
        """
        for index, graphs in enumerate(self.slices):
            cache_dir = self.cache_root / f"slice{index}"
            cold, _ = self._pass(graphs, cache_dir=cache_dir)
            self.cache_dirs[index] = cache_dir
            self.passes[index] = [cold, None]
        for _ in range(2):
            for index, graphs in enumerate(self.slices):
                _, seconds = self._pass(graphs)
                self.recompute.append(Step(sum(g.num_nodes for g in graphs),
                                           seconds, f"recompute{index}"))

    def step(self) -> None:
        """A warm pass: cache read, checksum and ``materialise``."""
        index = self._next_slice()
        warm, seconds = self._pass(self.slices[index],
                                   cache_dir=self.cache_dirs[index])
        self.passes[index][1] = warm
        self.steps.append(Step(sum(g.num_nodes for g in self.slices[index]),
                               seconds, f"warm{index}"))

    def check(self) -> List[str]:
        problems = []
        for index, (cold, warm) in sorted(self.passes.items()):
            problems += self._cold_problems(index, cold)
            if warm is None:
                problems.append(f"slice {index} was not timed")
                continue
            graphs = len(self.slices[index])
            if warm.stats.from_cache != graphs:
                problems.append(f"slice {index}: warm pass served "
                                f"{warm.stats.from_cache} of {graphs} "
                                "graphs from cache")
            problems += self._compare(
                index, "warm-pass schedule differs from cold schedule",
                cold, warm)
        return problems

    def report(self) -> Report:
        return {
            "warm_nodes_per_s": (self._phase_rate("warm"), "nodes/s",
                                 "wall"),
            "recompute_nodes_per_s": (rate(self.recompute), "nodes/s",
                                      "wall, warm-up"),
            "timed_passes": (len(self.steps), "count", "count"),
            "graphs": (len(self.corpus), "count", "count"),
            "nodes": (self.nodes, "count", "count"),
        }


WORKLOADS = {w.name: w for w in (TrainGT, ServeStream, PreprocessCold,
                                  PreprocessWarm)}
