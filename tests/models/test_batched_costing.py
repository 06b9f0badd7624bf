"""Batch costing equals one-kernel-at-a-time costing, record for record.

``simulate_batch`` collects a batch's launches and runs all their
traces through the L2 in one pass.  Replaying the same launches one at
a time through ``run_kernel`` -- on the production ``LRUCache`` and on
the plain per-access reference walk -- must give identical
``KernelStats`` in the same order, memcpys included, both on a fresh
device and on one device reused across batches (as
``EpochCostModel.measure`` does, which makes a small L2 evict).
"""

import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.memsim.device import GTX_1080, DeviceSpec, GPUDevice, KernelLaunch
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime
from tests.memsim.reference_lru import ReferenceLRU

MODELS = ("GCN", "GT", "GAT")
METHODS = ("mega", "baseline")
#: An L2 small enough that these batches evict, on a reused device.
SMALL_L2 = DeviceSpec(name="small-l2-sim", l2_bytes=64 * 1024)


@pytest.fixture(scope="module")
def batches():
    graphs = load_dataset("ZINC", scale=0.005, seed=4).train
    out = []
    for start in (0, 12, 24):
        chosen = graphs[start:start + 12]
        paths = [PathRepresentation.from_graph(g, MegaConfig())
                 for g in chosen]
        out.append((GraphBatch(chosen), paths))
    return out


def runtime_for(method, batch, paths):
    return MegaRuntime(batch, paths) if method == "mega" \
        else BaselineRuntime(batch)


def one_at_a_time(device, launches):
    return [device.run_kernel(*item) if isinstance(item, KernelLaunch)
            else item for item in launches]


def cost(device, model, method, batch, paths, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(GPUDevice, "run_batch", one_at_a_time)
    records = simulate_batch(model, runtime_for(method, batch, paths),
                             device, 32, 2).records
    if monkeypatch is not None:
        monkeypatch.undo()
    return records


def reference_device(spec):
    device = GPUDevice(spec)
    device.l2 = ReferenceLRU(spec.l2_bytes, spec.sector_bytes,
                             spec.l2_associativity)
    return device


@pytest.mark.parametrize("l2", ["lru", "reference"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("model", MODELS)
class TestBatchedEqualsOneAtATime:
    def _device(self, l2, spec):
        return GPUDevice(spec) if l2 == "lru" else reference_device(spec)

    @pytest.mark.parametrize("spec", [GTX_1080, SMALL_L2],
                             ids=["gtx1080", "small-l2"])
    def test_fresh_device(self, batches, model, method, l2, spec,
                          monkeypatch):
        for batch, paths in batches:
            batched = cost(GPUDevice(spec), model, method, batch, paths)
            single = cost(self._device(l2, spec), model, method, batch,
                          paths, monkeypatch)
            assert batched == single
            assert batched[0].name == "Memcpy"

    def test_warm_device_across_batches(self, batches, model, method, l2,
                                        monkeypatch):
        batched_device = GPUDevice(SMALL_L2)
        single_device = self._device(l2, SMALL_L2)
        for batch, paths in batches:
            assert cost(batched_device, model, method, batch, paths) \
                == cost(single_device, model, method, batch, paths,
                        monkeypatch)
        assert batched_device.l2.hits == single_device.l2.hits
        assert batched_device.l2.misses == single_device.l2.misses
        assert batched_device.l2.occupancy == single_device.l2.occupancy


def test_warm_small_device_reaches_the_walk_regime(batches):
    device = GPUDevice(SMALL_L2)
    for batch, paths in batches:
        cost(device, "GT", "baseline", batch, paths)
    assert device.l2._sets is not None
