"""``SegmentIndex`` ops against the plain ``ufunc.at`` reference, bit for bit.

The CSR incidence adds each segment's rows in ascending row order from
0.0, as ``np.add.at`` does, and max does not depend on order, so every
forward output and input gradient must have the same bytes as the
reference in :mod:`tests.tensor.reference_segment` — not merely be
close.  The model-level test holds a whole training step's parameter
gradients to the same standard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.models import (GAT, BaselineRuntime, GatedGCN, GraphTransformer,
                          MegaRuntime, ModelConfig)
from repro.tensor import Tensor
from repro.tensor import functional as F

from tests.tensor import reference_segment as ref

# A small pool makes ties (and values equal to ``fill``) common; the
# ``+ 0.0`` maps -0.0 to 0.0, whose max against 0.0 is order-dependent.
elements = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.5]),
                     st.floats(-50.0, 50.0, width=32)).map(lambda v: v + 0.0)


@st.composite
def segment_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    trailing = draw(st.sampled_from([(), (3,), (2, 3)]))
    num_segments = draw(st.integers(0, 6))
    rows = draw(st.integers(0, 12)) if num_segments else 0
    ids = draw(arrays(np.int64, rows,
                      elements=st.integers(0, max(num_segments - 1, 0))))
    values = draw(arrays(dtype, (rows,) + trailing, elements=elements))
    table = draw(arrays(dtype, (num_segments,) + trailing,
                        elements=elements))
    fill = draw(st.sampled_from([-1e30, 0.0, 1.0]))
    return ids, num_segments, values, table, fill, draw(st.integers(0, 99))


def _bytes(array):
    if array is None:
        return None
    return array.dtype.str, array.shape, array.tobytes()


def _run(op, data, seed):
    """Forward ``op``, backward a seeded gradient; both as bytes."""
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    grad = np.random.default_rng(seed).standard_normal(out.shape)
    out.backward(grad.astype(out.dtype))
    return _bytes(out.data), _bytes(x.grad)


@settings(max_examples=150, deadline=None)
@given(segment_cases())
def test_segment_ops_match_reference_bit_for_bit(case):
    ids, num_segments, values, table, fill, seed = case
    # One index shared by every op, as a runtime shares it across layers.
    index = F.SegmentIndex(ids, num_segments)
    pairs = [
        (table, lambda x: F.gather_rows(x, index),
         lambda x: ref.gather_rows(x, ids)),
        (values, lambda x: F.segment_sum(x, index),
         lambda x: ref.segment_sum(x, ids, num_segments)),
        (values, lambda x: F.segment_mean(x, index),
         lambda x: ref.segment_mean(x, ids, num_segments)),
        (values, lambda x: F.segment_max(x, index, fill=fill),
         lambda x: ref.segment_max(x, ids, num_segments, fill=fill)),
        (values, lambda x: F.segment_softmax(x, index),
         lambda x: ref.segment_softmax(x, ids, num_segments)),
    ]
    for data, fast, slow in pairs:
        assert _run(fast, data, seed) == _run(slow, data, seed)


@pytest.fixture(scope="module")
def zinc():
    return load_dataset("ZINC", scale=0.005)


def _training_step(dataset, model_cls, method):
    """Parameter gradients (and the loss) of one step, as bytes."""
    graphs = dataset.train[:6]
    batch = GraphBatch(graphs)
    if method == "baseline":
        runtime = BaselineRuntime(batch)
    else:
        runtime = MegaRuntime(batch, [
            PathRepresentation.from_graph(g, MegaConfig()) for g in graphs])
    model = model_cls(ModelConfig.for_dataset(dataset, hidden_dim=16,
                                              num_layers=2, seed=3))
    loss = model.loss(model(batch, runtime), batch.labels)
    loss.backward()
    grads = {name: _bytes(p.grad) for name, p in model.named_parameters()}
    grads["loss"] = _bytes(loss.data)
    return grads


@pytest.mark.parametrize("method", ["mega", "baseline"])
@pytest.mark.parametrize("model_cls", [GraphTransformer, GatedGCN, GAT])
def test_training_step_matches_reference_ops(zinc, model_cls, method,
                                             monkeypatch):
    fast = _training_step(zinc, model_cls, method)
    for name, op in ref.OPS.items():
        monkeypatch.setattr(F, name, op)
    monkeypatch.setattr(Tensor, "_accumulate", ref.accumulate)
    slow = _training_step(zinc, model_cls, method)
    assert fast.keys() == slow.keys()
    assert any(g is not None for g in fast.values())
    differing = [name for name in fast if fast[name] != slow[name]]
    assert differing == []
