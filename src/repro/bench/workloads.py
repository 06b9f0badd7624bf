"""Deterministic seeded workloads behind each ``BENCH_*.json`` ledger.

Every workload is a named, registered function ``(seed) -> LedgerEntry``
over the existing stack — small enough for CI's bench-smoke job (a few
seconds each) yet exercising the same code paths as the full figure
suites in ``benchmarks/``.  All simulated numbers (kernel times, serve
latencies, epoch costs) come from the analytic GTX-1080 memory model
and are bit-deterministic; only the ``wall`` blocks read a real clock.

Workload *fingerprints* reuse the pipeline's content-addressed hashing
(:mod:`repro.pipeline.hashing`): a fingerprint changes exactly when the
input graphs or the preprocessing config change, which tells ``compare``
that a metric delta reflects a different workload rather than a
regression.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.bench.ledger import AREAS, LedgerEntry
from repro.core.config import MegaConfig
from repro.datasets import load_dataset
from repro.errors import BenchError
from repro.pipeline.hashing import config_fingerprint, graph_fingerprint

#: Dataset scale shared by the pipeline/serve/train workloads: ZINC at
#: 0.004 gives ~40 train / 4 val / 4 test graphs — the same fast-recipe
#: the serve test-suite uses.
SMALL_SCALE = 0.004

#: Scale for the kernel workloads (profiling needs >= batch-size train
#: graphs); matches the benchmarks/ suites' reduced-cost settings.
KERNEL_SCALE = 0.03


def workload_fingerprint(graphs: Sequence, config: MegaConfig,
                         label: str) -> str:
    """Content hash over (workload label, config, every input graph)."""
    digest = hashlib.sha256()
    digest.update(f"bench-workload:{label}:".encode("utf-8"))
    digest.update(config_fingerprint(config))
    for graph in graphs:
        digest.update(graph_fingerprint(graph))
    return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    """A registered benchmark workload."""

    name: str
    area: str
    description: str
    run: Callable[[int], LedgerEntry]


#: Registration order is execution order within an area.
WORKLOADS: Dict[str, Workload] = {}


def _register(name: str, area: str, description: str):
    if area not in AREAS:
        raise BenchError(f"unknown bench area {area!r}; one of {AREAS}")

    def wrap(fn: Callable[[int], LedgerEntry]) -> Callable:
        if name in WORKLOADS:
            raise BenchError(f"duplicate workload name {name!r}")
        WORKLOADS[name] = Workload(name, area, description, fn)
        return fn

    return wrap


def workloads_for(area: str) -> List[Workload]:
    """The registered workloads of one area, in registration order."""
    if area not in AREAS:
        raise BenchError(f"unknown bench area {area!r}; one of {AREAS}")
    return [w for w in WORKLOADS.values() if w.area == area]


# ---------------------------------------------------------------------------
# pipeline: cold/warm preprocessing through the ScheduleCache
# ---------------------------------------------------------------------------

@_register("pipeline_cold_warm", "pipeline",
           "Algorithm-1 preprocessing of ZINC-small, cold then warm "
           "through an on-disk ScheduleCache")
def run_pipeline_workload(seed: int) -> LedgerEntry:
    from repro.pipeline import ScheduleCache, precompute_paths

    config = MegaConfig(seed=seed)
    dataset = load_dataset("ZINC", scale=SMALL_SCALE)
    graphs = dataset.all_graphs()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache_dir = Path(tmp) / "schedules"
        start = time.perf_counter()
        cold = precompute_paths(graphs, config, cache_dir=cache_dir)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = precompute_paths(graphs, config, cache_dir=cache_dir)
        warm_s = time.perf_counter() - start
        cache = ScheduleCache(cache_dir)
        cache_entries = len(cache)
        cache_bytes = int(cache.total_bytes)
    path_positions = sum(len(rep.path) for rep in cold.paths)
    metrics = {
        "num_graphs": len(graphs),
        "cold_computed": cold.stats.computed,
        "cold_misses": cold.stats.cache.misses,
        "cold_puts": cold.stats.cache.puts,
        "deduplicated": cold.stats.deduplicated,
        "warm_from_cache": warm.stats.from_cache,
        "warm_hits": warm.stats.cache.hits,
        "warm_misses": warm.stats.cache.misses,
        "cache_entries": cache_entries,
        "cache_bytes": cache_bytes,
        "path_positions": path_positions,
    }
    wall = {"cold_wall_s": cold_s, "warm_wall_s": warm_s}
    return LedgerEntry(
        workload="pipeline_cold_warm", seed=seed,
        fingerprint=workload_fingerprint(graphs, config,
                                         "pipeline_cold_warm"),
        config={"dataset": "ZINC", "scale": SMALL_SCALE, "workers": 1},
        metrics=metrics, wall=wall)


# ---------------------------------------------------------------------------
# serve: one serving replica (a 1-replica cluster) under open-loop load
# ---------------------------------------------------------------------------

def _serve_entry(name: str, kind: str, seed: int) -> LedgerEntry:
    from repro.cluster import Cluster, ClusterConfig
    from repro.resilience import RetryPolicy
    from repro.serve import (ArrivalProcess, BatchingPolicy, ServerConfig,
                             generate_requests)
    from repro.train import build_model

    dataset = load_dataset("ZINC", scale=SMALL_SCALE)
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                        seed=0)
    pool = dataset.test[:6]
    process = ArrivalProcess(kind=kind, rate_rps=400.0, seed=seed)
    requests = generate_requests(pool, 64, process)
    cluster = Cluster(model, ClusterConfig(
        num_replicas=1,
        server=ServerConfig(queue_capacity=16,
                            policy=BatchingPolicy(max_batch_size=8,
                                                  max_wait_s=0.02,
                                                  bucket_width=16))))
    result = cluster.run(requests,
                         retry_policy=RetryPolicy(max_attempts=3))
    fleet = result.stats
    stats = fleet.replicas[0].stats
    metrics = {
        "received": fleet.received,
        "served": fleet.served,
        "rejected": fleet.rejected,
        "retried": fleet.retried,
        "dropped": fleet.failed,
        "num_batches": len(stats.batches),
        "max_queue_depth": stats.max_queue_depth,
        "mean_queue_depth": stats.mean_queue_depth,
        "mean_batch_occupancy": stats.mean_batch_occupancy,
        "mean_padding_waste": stats.mean_padding_waste,
        "p50_latency_s": stats.p50_latency_s,
        "p95_latency_s": stats.p95_latency_s,
        "p99_latency_s": stats.p99_latency_s,
        "throughput_rps": stats.throughput_rps,
        "sim_duration_s": stats.sim_duration_s,
        "schedule_hits": stats.cache.hits,
        "schedule_misses": stats.cache.misses,
    }
    return LedgerEntry(
        workload=name, seed=seed,
        fingerprint=workload_fingerprint(pool, MegaConfig(), name),
        config={"dataset": "ZINC", "scale": SMALL_SCALE, "model": "GCN",
                "arrival": kind, "rate_rps": 400.0, "num_requests": 64,
                "queue_capacity": 16, "max_batch_size": 8},
        metrics=metrics, wall={})


@_register("serve_poisson", "serve",
           "one serving replica under a seeded Poisson arrival stream")
def run_serve_poisson(seed: int) -> LedgerEntry:
    return _serve_entry("serve_poisson", "poisson", seed)


@_register("serve_bursty", "serve",
           "one serving replica under a bursty arrival stream (queue "
           "pressure, rejections, retries)")
def run_serve_bursty(seed: int) -> LedgerEntry:
    return _serve_entry("serve_bursty", "bursty", seed)


# ---------------------------------------------------------------------------
# cluster: N replicas behind the router — policies, tiers, failover
# ---------------------------------------------------------------------------

def _cluster_entry(name: str, policy: str, seed: int,
                   fault_plan=None, cluster_kwargs=None,
                   extra_metrics=None) -> LedgerEntry:
    """One clustered loadtest as a ledger entry.

    ``cluster_kwargs`` feeds extra :class:`ClusterConfig` knobs (the
    self-healing workloads' breaker/brownout settings);
    ``extra_metrics`` is an optional ``stats -> dict`` hook for
    workload-specific gated claims (e.g. the post-rejoin L1 warm-up
    hit rate).
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.resilience import RetryPolicy
    from repro.serve import (ArrivalProcess, BatchingPolicy, ServerConfig,
                             generate_requests)
    from repro.train import build_model

    dataset = load_dataset("ZINC", scale=SMALL_SCALE)
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                        seed=0)
    pool = dataset.test[:6]
    process = ArrivalProcess(kind="poisson", rate_rps=400.0, seed=seed)
    requests = generate_requests(pool, 64, process)
    cluster = Cluster(
        model, fault_plan=fault_plan,
        config=ClusterConfig(
            num_replicas=3, policy=policy,
            server=ServerConfig(queue_capacity=16,
                                policy=BatchingPolicy(max_batch_size=8,
                                                      max_wait_s=0.02,
                                                      bucket_width=16)),
            **(cluster_kwargs or {})))
    result = cluster.run(requests,
                         retry_policy=RetryPolicy(max_attempts=3))
    stats = result.stats
    metrics = {
        "received": stats.received,
        "served": stats.served,
        "failed": stats.failed,
        "shed": stats.shed,
        "shed_events": stats.shed_events,
        "rejected": stats.rejected,
        "retried": stats.retried,
        "failovers": stats.failovers,
        "hedges": stats.hedges,
        "crashed_replicas": stats.crashed_replicas,
        "recovered_replicas": stats.recovered_replicas,
        "breaker_trips": stats.breaker_trips,
        "rebalanced_arcs": stats.rebalanced_arcs,
        "num_batches": stats.num_batches,
        "p50_latency_s": stats.p50_latency_s,
        "p95_latency_s": stats.p95_latency_s,
        "p99_latency_s": stats.p99_latency_s,
        "throughput_rps": stats.throughput_rps,
        "sim_duration_s": stats.sim_duration_s,
        "l1_hits": stats.tier.l1_hits,
        "l2_hits": stats.tier.l2_hits,
        "schedule_misses": stats.tier.misses,
        "l1_hit_rate": stats.tier.l1_hit_rate,
        "l2_hit_rate": stats.tier.l2_hit_rate,
    }
    if extra_metrics is not None:
        metrics.update(extra_metrics(stats))
    config = {"dataset": "ZINC", "scale": SMALL_SCALE, "model": "GCN",
              "arrival": "poisson", "rate_rps": 400.0, "num_requests": 64,
              "num_replicas": 3, "policy": policy,
              "queue_capacity": 16, "max_batch_size": 8}
    if fault_plan is not None:
        config["crash_replicas"] = len(fault_plan.crash_replicas)
        config["crash_after_batches"] = fault_plan.crash_after_batches
        if fault_plan.recovers:
            config["recover_after_s"] = fault_plan.recover_after_s
            config["recover_jitter_s"] = fault_plan.recover_jitter_s
        if fault_plan.slow_replicas:
            config["slow_replicas"] = len(fault_plan.slow_replicas)
            config["slow_factor"] = fault_plan.slow_factor
    for key, value in sorted((cluster_kwargs or {}).items()):
        config[key] = value
    return LedgerEntry(
        workload=name, seed=seed,
        fingerprint=workload_fingerprint(pool, MegaConfig(), name),
        config=config, metrics=metrics, wall={})


@_register("cluster_round_robin", "cluster",
           "3-replica cluster, round-robin routing (content-blind "
           "baseline for the tier hit rates)")
def run_cluster_round_robin(seed: int) -> LedgerEntry:
    return _cluster_entry("cluster_round_robin", "round-robin", seed)


@_register("cluster_hash_affinity", "cluster",
           "3-replica cluster, hash-affinity routing (repeat graphs "
           "revisit their replica's L1 tier)")
def run_cluster_hash_affinity(seed: int) -> LedgerEntry:
    return _cluster_entry("cluster_hash_affinity", "hash-affinity", seed)


@_register("cluster_least_queue", "cluster",
           "3-replica cluster, least-queue routing (load-aware, "
           "content-blind)")
def run_cluster_least_queue(seed: int) -> LedgerEntry:
    return _cluster_entry("cluster_least_queue", "least-queue", seed)


@_register("cluster_failover", "cluster",
           "3-replica hash-affinity cluster with a pinned replica "
           "crash: failover recovery, rebalance cost, no silent drops")
def run_cluster_failover(seed: int) -> LedgerEntry:
    from repro.resilience import FaultPlan

    plan = FaultPlan(seed=seed, crash_replicas=(1,),
                     crash_after_batches=2)
    return _cluster_entry("cluster_failover", "hash-affinity", seed,
                          fault_plan=plan)


@_register("cluster_recovery", "cluster",
           "3-replica cluster where a pinned replica crashes, rejoins "
           "after a seeded delay and re-warms its cold L1 through L2 "
           "promotion (post-rejoin hit rate is the gated claim)")
def run_cluster_recovery(seed: int) -> LedgerEntry:
    from repro.resilience import FaultPlan

    plan = FaultPlan(seed=seed, crash_replicas=(1,),
                     crash_after_batches=1, recover_after_s=0.05,
                     recover_jitter_s=0.01)

    def recovery_metrics(stats):
        record = stats.recoveries[0]
        return {
            "post_rejoin_lookups": record.warmup_lookups,
            "post_rejoin_l1_hit_rate": record.warmup_l1_hit_rate,
            "post_rejoin_l2_hits": record.warmup_l2_hits,
            "lookups_to_first_l1_hit": record.lookups_to_first_l1_hit,
        }

    return _cluster_entry("cluster_recovery", "hash-affinity", seed,
                          fault_plan=plan,
                          extra_metrics=recovery_metrics)


@_register("cluster_brownout", "cluster",
           "3-replica cluster that loses two replicas under a 0.9 "
           "brownout watermark: deterministic load shedding with "
           "capacity-scaled retry-after hints")
def run_cluster_brownout(seed: int) -> LedgerEntry:
    from repro.resilience import FaultPlan

    plan = FaultPlan(seed=seed, crash_replicas=(1, 2),
                     crash_after_batches=0)

    def brownout_metrics(stats):
        turned_away = stats.shed + stats.served
        return {
            "shed_fraction": (stats.shed / turned_away
                              if turned_away else 0.0),
        }

    return _cluster_entry("cluster_brownout", "hash-affinity", seed,
                          fault_plan=plan,
                          cluster_kwargs={"brownout_watermark": 0.9,
                                          "shed_retry_after_s": 0.01},
                          extra_metrics=brownout_metrics)


# ---------------------------------------------------------------------------
# stream: dynamic graphs — repair crossover, scoped invalidation, crash mix
# ---------------------------------------------------------------------------

#: Delta sizes (inserted edges per batch) the crossover workload sweeps.
_CROSSOVER_SIZES = (1, 2, 4, 8, 16)


@_register("stream_repair_crossover", "stream",
           "Incremental schedule repair vs full Algorithm 1 recompute "
           "across delta sizes, in deterministic work units (the "
           "repair-wins-below-crossover claim)")
def run_stream_crossover(seed: int) -> LedgerEntry:
    from repro.cluster import TieredScheduleCache
    from repro.resilience import FaultPlan
    from repro.stream import (DeltaBatch, EdgeDelta, GraphTable,
                              RepairPolicy, ScheduleRepairer)

    config = MegaConfig()
    dataset = load_dataset("ZINC", scale=SMALL_SCALE)
    graph = dataset.test[0]
    present = graph.edge_set()
    n = graph.num_nodes
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in present]
    plan = FaultPlan(seed=seed)
    pool = list(candidates)
    picked = []
    for i in range(max(_CROSSOVER_SIZES)):
        index = min(int(plan.roll("crossover-pick", i) * len(pool)),
                    len(pool) - 1)
        picked.append(pool.pop(index))

    def apply_once(ratio: float, num_ops: int):
        """One batch of ``num_ops`` seeded inserts under one policy."""
        table = GraphTable({"g": graph}, config)
        repairer = ScheduleRepairer(
            table, TieredScheduleCache(config),
            RepairPolicy(recompute_ratio=ratio))
        ops = tuple(EdgeDelta("insert", u, v)
                    for u, v in picked[:num_ops])
        return repairer.apply(
            DeltaBatch(delta_id=0, graph_name="g", ops=ops), 0.0)

    metrics: Dict[str, float] = {"num_nodes": n,
                                 "num_edges": graph.num_edges}
    crossover = 0
    for size in _CROSSOVER_SIZES:
        # float("inf") forces repair; 0.0 forces the recompute path —
        # the same cold-miss compute_schedule a cache miss would run.
        repaired = apply_once(float("inf"), size)
        recomputed = apply_once(0.0, size)
        metrics[f"repair_units_k{size}"] = repaired.work_units
        metrics[f"recompute_units_k{size}"] = recomputed.work_units
        metrics[f"estimate_units_k{size}"] = \
            repaired.estimate.repair_cost
        if crossover == 0 and repaired.work_units >= recomputed.work_units:
            crossover = size
    metrics["crossover_delta_size"] = crossover
    metrics["repair_speedup_k1"] = (
        metrics["recompute_units_k1"] / metrics["repair_units_k1"])
    return LedgerEntry(
        workload="stream_repair_crossover", seed=seed,
        fingerprint=workload_fingerprint([graph], config,
                                         "stream_repair_crossover"),
        config={"dataset": "ZINC", "scale": SMALL_SCALE,
                "delta_sizes": list(_CROSSOVER_SIZES),
                "op": "insert"},
        metrics=metrics, wall={})


def _stream_entry(name: str, seed: int, fault_plan=None,
                  delta_names=None, delta_fraction: float = 0.25,
                  with_control: bool = False,
                  extra_metrics=None) -> LedgerEntry:
    """One mixed query/delta streaming run as a ledger entry.

    ``delta_names`` restricts deltas to a subset of the named graphs
    (queries still range over all of them); ``with_control`` also runs
    the identical query stream with zero deltas on a fresh server, so
    the untouched graphs' hit rate can be compared against a world
    where nothing was ever invalidated.
    """
    from repro.cluster import ClusterConfig
    from repro.resilience import RetryPolicy
    from repro.serve import (ArrivalProcess, BatchingPolicy, ServerConfig)
    from repro.stream import (RepairPolicy, StreamMix, StreamServer,
                              generate_stream)
    from repro.train import build_model

    dataset = load_dataset("ZINC", scale=SMALL_SCALE)
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                        seed=0)
    pool = dataset.test[:6]
    graphs = {f"g{i}": g for i, g in enumerate(pool)}
    config = ClusterConfig(
        num_replicas=3, policy="hash-affinity",
        server=ServerConfig(queue_capacity=16,
                            policy=BatchingPolicy(max_batch_size=8,
                                                  max_wait_s=0.02,
                                                  bucket_width=16)))

    def build_server() -> "StreamServer":
        return StreamServer(model, dict(graphs), config=config,
                            repair_policy=RepairPolicy(),
                            fault_plan=fault_plan)

    server = build_server()
    process = ArrivalProcess(kind="poisson", rate_rps=400.0, seed=seed)
    mix = StreamMix(delta_fraction=delta_fraction, ops_per_delta=4,
                    delete_fraction=0.25, delta_names=delta_names,
                    seed=seed)
    requests, deltas = generate_stream(server.table, 64, process, mix)
    result = server.run(requests, deltas,
                        retry_policy=RetryPolicy(max_attempts=3))
    stats = result.stats
    fleet = stats.cluster

    name_of = {req.request_id: req.graph_name for req in requests}
    untouched = [g for g in sorted(graphs)
                 if delta_names is None or g not in delta_names]

    def untouched_hit_rate(responses) -> float:
        flags = [resp.schedule_hit for resp in responses
                 if name_of[resp.request_id] in untouched]
        return (sum(flags) / len(flags)) if flags else 0.0

    metrics = {
        "num_graphs": stats.num_graphs,
        "num_deltas": stats.num_deltas,
        "repairs": stats.repairs,
        "recomputes": stats.recomputes,
        "repair_work_units": stats.repair_work_units,
        "recompute_work_units": stats.recompute_work_units,
        "invalidated_keys": stats.invalidated_keys,
        "invalidated_l1": stats.invalidated_l1,
        "invalidated_l2": stats.invalidated_l2,
        "noop_batches": stats.noop_batches,
        "seeded_keys": fleet.tier.seeds,
        "max_epoch": max(stats.epochs.values()),
        "received": fleet.received,
        "served": fleet.served,
        "failed": fleet.failed,
        "shed": fleet.shed,
        "retried": fleet.retried,
        "failovers": fleet.failovers,
        "crashed_replicas": fleet.crashed_replicas,
        "num_batches": fleet.num_batches,
        "p50_latency_s": fleet.p50_latency_s,
        "p99_latency_s": fleet.p99_latency_s,
        "sim_duration_s": fleet.sim_duration_s,
        "l1_hits": fleet.tier.l1_hits,
        "l2_hits": fleet.tier.l2_hits,
        "schedule_misses": fleet.tier.misses,
        "untouched_hit_rate": untouched_hit_rate(result.responses),
    }
    if with_control:
        control = build_server().run(
            list(requests), [], retry_policy=RetryPolicy(max_attempts=3))
        metrics["untouched_hit_rate_control"] = \
            untouched_hit_rate(control.responses)
    if extra_metrics is not None:
        metrics.update(extra_metrics(stats))
    config_block = {"dataset": "ZINC", "scale": SMALL_SCALE,
                    "model": "GCN", "arrival": "poisson",
                    "rate_rps": 400.0, "num_events": 64,
                    "num_replicas": 3, "policy": "hash-affinity",
                    "delta_fraction": delta_fraction,
                    "ops_per_delta": 4, "delete_fraction": 0.25}
    if delta_names is not None:
        config_block["delta_names"] = list(delta_names)
    if fault_plan is not None:
        config_block["crash_replicas"] = len(fault_plan.crash_replicas)
        config_block["crash_after_batches"] = \
            fault_plan.crash_after_batches
    return LedgerEntry(
        workload=name, seed=seed,
        fingerprint=workload_fingerprint(pool, MegaConfig(), name),
        config=config_block, metrics=metrics, wall={})


@_register("stream_mixed", "stream",
           "Mixed query/delta run with deltas scoped to two named "
           "graphs: only their keys are invalidated and the untouched "
           "graphs' hit rate matches a delta-free control run")
def run_stream_mixed(seed: int) -> LedgerEntry:
    return _stream_entry("stream_mixed", seed,
                         delta_names=("g0", "g1"), with_control=True)


@_register("stream_crash", "stream",
           "Mixed query/delta run with a pinned replica crash: "
           "failover and epoch pinning compose, conservation holds "
           "across epochs")
def run_stream_crash(seed: int) -> LedgerEntry:
    from repro.resilience import FaultPlan

    plan = FaultPlan(seed=seed, crash_replicas=(1,),
                     crash_after_batches=2)

    def crash_metrics(stats):
        fleet = stats.cluster
        return {"conservation_gap": fleet.received - fleet.served
                - fleet.failed - fleet.shed}

    return _stream_entry("stream_crash", seed, fault_plan=plan,
                         extra_metrics=crash_metrics)


# ---------------------------------------------------------------------------
# kernels: analytic kernel-plan costs + memsim counters (Fig. 4-6 shapes)
# ---------------------------------------------------------------------------

#: Kernel-name prefixes that constitute "graph work" (vs dense sgemm):
#: DGL-style gather/scatter/sort for the baseline, band/reduce for Mega.
_GRAPH_KERNEL_PREFIXES = ("dgl::", "cub::", "mega::")


def _kernels_entry(name: str, model: str, method: str,
                   seed: int) -> LedgerEntry:
    from repro.profiling.workload import cached_dataset, profile_configuration

    batch_size, hidden_dim, num_layers = 32, 64, 4
    profiler = profile_configuration("ZINC", model, method,
                                     batch_size=batch_size,
                                     hidden_dim=hidden_dim,
                                     num_layers=num_layers,
                                     scale=KERNEL_SCALE)
    aggregates = profiler.by_kernel()
    loads = sum(a.load_transactions for a in aggregates.values())
    stores = sum(a.store_transactions for a in aggregates.values())
    dram = sum(a.dram_bytes for a in aggregates.values())
    l2_hits = sum(a.l2_hits for a in aggregates.values())
    l2_total = l2_hits + sum(a.l2_misses for a in aggregates.values())
    graph_pct = sum(
        pct for kernel, pct in profiler.time_percentages().items()
        if kernel.startswith(_GRAPH_KERNEL_PREFIXES))
    metrics = {
        "total_time_s": profiler.total_time,
        "total_calls": profiler.total_calls,
        "sm_efficiency": profiler.normalized_metric("sm_efficiency"),
        "memory_stall_pct": profiler.normalized_metric("memory_stall_pct"),
        "load_transactions": loads,
        "store_transactions": stores,
        "dram_bytes": dram,
        "l2_hit_rate": l2_hits / l2_total if l2_total else 0.0,
        "graph_time_pct": graph_pct,
    }
    graphs = cached_dataset("ZINC", KERNEL_SCALE).train[:batch_size]
    return LedgerEntry(
        workload=name, seed=seed,
        fingerprint=workload_fingerprint(graphs, MegaConfig(), name),
        config={"dataset": "ZINC", "scale": KERNEL_SCALE, "model": model,
                "method": method, "batch_size": batch_size,
                "hidden_dim": hidden_dim, "num_layers": num_layers},
        metrics=metrics, wall={})


def _register_kernels() -> None:
    for model in ("GCN", "GT"):
        for method in ("baseline", "mega"):
            name = f"kernels_{model.lower()}_{method}"
            desc = (f"simulated forward batch of {model} ({method}) — "
                    "the Fig. 4-6 counters at reduced scale")

            def make(name=name, model=model, method=method):
                def run(seed: int) -> LedgerEntry:
                    return _kernels_entry(name, model, method, seed)
                return run

            _register(name, "kernels", desc)(make())


_register_kernels()


# ---------------------------------------------------------------------------
# train: short training run + checkpoint overhead + resume fidelity
# ---------------------------------------------------------------------------

@_register("train_gcn_mega", "train",
           "3-epoch GCN/mega run on ZINC-small: epoch cost, checkpoint "
           "size, and resume fidelity vs an uninterrupted run")
def run_train_workload(seed: int) -> LedgerEntry:
    from repro.train import Trainer, build_model
    from repro.train.checkpoint import save_checkpoint

    num_epochs, batch_size = 3, 16
    dataset = load_dataset("ZINC", scale=SMALL_SCALE)

    def make_trainer():
        model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                            seed=seed)
        return Trainer(model, dataset, method="mega",
                       batch_size=batch_size, seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        ckpt_dir = Path(tmp) / "ckpt"
        # Uninterrupted reference run.
        trainer = make_trainer()
        preprocess_s = trainer.preprocess_s
        start = time.perf_counter()
        full = trainer.fit(num_epochs)
        fit_s = time.perf_counter() - start
        # Checkpointed run, killed after 2 epochs, then resumed to the
        # same horizon; fidelity = worst per-epoch deviation.
        interrupted = make_trainer()
        interrupted.fit(2, checkpoint_dir=ckpt_dir, checkpoint_every=1)
        resumed_trainer = make_trainer()
        resumed = resumed_trainer.fit(num_epochs, checkpoint_dir=ckpt_dir,
                                      resume=True)
        start = time.perf_counter()
        save_checkpoint(Path(tmp) / "overhead.npz", trainer.model,
                        optimizer=trainer.optimizer, epoch=num_epochs,
                        metric=full.records[-1].val_metric)
        checkpoint_s = time.perf_counter() - start
        # Measure the model+optimizer checkpoint, not the trainer's
        # full-state one: the latter embeds wall-clock history
        # (preprocess_s per epoch), so its compressed size is not a
        # pure function of the seed and would poison the replay
        # surface.
        checkpoint_bytes = (Path(tmp) / "overhead.npz").stat().st_size
    resume_diff = max(
        max(abs(a.train_loss - b.train_loss),
            abs(a.val_metric - b.val_metric),
            abs(a.sim_time_s - b.sim_time_s))
        for a, b in zip(full.records, resumed.records))
    total_sim_s = sum(r.sim_time_s for r in full.records)
    metrics = {
        "epochs": num_epochs,
        "final_train_loss": full.records[-1].train_loss,
        "final_val_metric": full.records[-1].val_metric,
        "sim_epoch_s": total_sim_s / num_epochs,
        "total_sim_s": total_sim_s,
        "checkpoint_bytes": int(checkpoint_bytes),
        "resume_max_abs_diff": resume_diff,
    }
    wall = {"preprocess_wall_s": preprocess_s, "fit_wall_s": fit_s,
            "checkpoint_wall_s": checkpoint_s}
    return LedgerEntry(
        workload="train_gcn_mega", seed=seed,
        fingerprint=workload_fingerprint(dataset.all_graphs(),
                                         MegaConfig(seed=seed),
                                         "train_gcn_mega"),
        config={"dataset": "ZINC", "scale": SMALL_SCALE, "model": "GCN",
                "method": "mega", "epochs": num_epochs,
                "batch_size": batch_size, "hidden_dim": 16,
                "num_layers": 2},
        metrics=metrics, wall=wall)
