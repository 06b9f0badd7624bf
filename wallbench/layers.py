"""Which ``repro`` functions the traced run wraps, and under which span.

Every span is named ``<layer>.<op>``; the per-layer metrics are
``<span>.busy_s``, ``<span>.self_s`` and ``<span>.calls`` for each span
wrapped in :func:`instrument`, plus counters.  ``BENCHMARK.json`` lists
them all with their units.  Counter hooks read the arguments and
results of the wrapped calls, so a ratio is measured where the work
happens.
"""

from __future__ import annotations

from typing import Dict

from spans import SpanRecorder


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point; call after ``repro`` is imported."""
    import repro.cluster.cluster as cluster
    import repro.core.diagonal as diagonal
    import repro.core.schedule as schedule
    import repro.datasets as datasets
    import repro.graph.generators as generators
    import repro.memsim.cache as memcache
    import repro.memsim.device as device
    import repro.models.base as base
    import repro.models.kernel_plans as kernel_plans
    import repro.models.runtime as runtime
    import repro.pipeline.cache as pcache
    import repro.pipeline.hashing as hashing
    import repro.pipeline.parallel as parallel
    import repro.serve.server as server
    import repro.stream.repair as repair
    import repro.tensor.optim as optim
    import repro.tensor.tensor as tensor
    import repro.train.clock as clock

    add = recorder.add

    def on_traverse(args, kwargs, result):
        add("core.path_positions", len(result.path))
        add("core.nodes", args[0].num_nodes)

    def on_cache_get(args, kwargs, result):
        add("pipeline.cache_gets")
        add("pipeline.cache_hits", result is not None)

    def on_forward(args, kwargs, result):
        add("models.graphs_forwarded", args[1].num_graphs)

    def on_access_trace(args, kwargs, result):
        add("memsim.sectors", len(args[1]))

    def on_launch(args, kwargs, result):
        add("serve.batches")
        add("serve.batch_members", len(result[1]))

    wrap_fn, wrap_m = recorder.wrap_function, recorder.wrap_method
    wrap_fn("datasets.load", datasets.load_dataset)
    wrap_fn("graph.generate", generators.barabasi_albert)
    wrap_fn("graph.generate", generators.watts_strogatz)
    wrap_fn("core.traverse", schedule.traverse, on_traverse)
    wrap_fn("core.plan", diagonal.make_attention_plan)
    wrap_fn("pipeline.precompute", parallel.precompute_paths)
    wrap_fn("pipeline.hash", hashing.schedule_cache_key)
    wrap_m("pipeline.cache_get", pcache.ScheduleCache, "get", on_cache_get)
    wrap_m("pipeline.cache_put", pcache.ScheduleCache, "put")
    wrap_m("pipeline.cache_put", pcache.ScheduleCache, "flush")
    wrap_fn("pipeline.materialise", parallel.materialise)
    wrap_m("models.runtime", runtime.MegaRuntime, "__init__")
    wrap_m("models.runtime", runtime.BaselineRuntime, "__init__")
    wrap_m("models.forward", base.GNNModel, "forward", on_forward)
    wrap_m("tensor.backward", tensor.Tensor, "backward")
    wrap_m("tensor.optim", optim.Adam, "step")
    wrap_m("tensor.optim", optim.Optimizer, "clip_grad_norm")
    wrap_m("train.cost_model", clock.EpochCostModel, "measure")
    wrap_fn("kernel_plans.simulate_batch", kernel_plans.simulate_batch)
    wrap_m("memsim.run_kernel", device.GPUDevice, "run_kernel")
    wrap_m("memsim.access_trace", memcache.LRUCache, "access_trace",
           on_access_trace)
    wrap_m("serve.admit", server.ServerEngine, "admit")
    wrap_m("serve.launch", server.ServerEngine, "launch", on_launch)
    wrap_m("serve.complete", server.ServerEngine, "complete")
    wrap_m("cluster.run", cluster.Cluster, "run")
    wrap_m("stream.repair", repair.ScheduleRepairer, "apply")


def span_counters(recorder: SpanRecorder) -> Dict[str, float]:
    """Counters derived from the hooks (ratios from their raw sums)."""
    raw = recorder.counters
    totals = recorder.totals()

    def ratio(num: str, den: str) -> float:
        return raw.get(num, 0.0) / raw[den] if raw.get(den) else 0.0

    return {
        "core.path_positions": raw.get("core.path_positions", 0.0),
        "core.expansion": ratio("core.path_positions", "core.nodes"),
        "pipeline.cache_hit_rate": ratio("pipeline.cache_hits",
                                         "pipeline.cache_gets"),
        "models.graphs_forwarded": raw.get("models.graphs_forwarded", 0.0),
        "memsim.kernels": totals.get("memsim.run_kernel",
                                     {"calls": 0})["calls"],
        "memsim.sectors": raw.get("memsim.sectors", 0.0),
        "serve.batches": raw.get("serve.batches", 0.0),
        "serve.batch_size_mean": ratio("serve.batch_members",
                                       "serve.batches"),
    }
