"""Reference segment ops for differential tests: the plain ``ufunc.at`` path.

Each op scatters with ``np.add.at``/``np.maximum.at`` and gathers with
``Tensor.__getitem__`` (whose backward is ``np.add.at``), one call at a
time, with no cached layout; ``accumulate`` copies every first gradient.
``repro.tensor.functional`` must match them bit for bit.  The ops accept
a ``SegmentIndex`` in place of raw ids so they can be swapped in for the
runtimes' calls.
"""

import numpy as np

from repro.tensor import Tensor
from repro.tensor.tensor import _unbroadcast


def _ids(segment_ids, num_segments=None):
    if hasattr(segment_ids, "num_segments"):
        return segment_ids.ids, segment_ids.num_segments
    return np.asarray(segment_ids, dtype=np.int64), num_segments


def gather_rows(x, index):
    return x[_ids(index)[0]]


def segment_sum(x, segment_ids, num_segments=None):
    segment_ids, num_segments = _ids(segment_ids, num_segments)
    out_data = np.zeros((num_segments,) + x.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, segment_ids, x.data)

    def backward(grad):
        x._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (x,), backward)


def segment_mean(x, segment_ids, num_segments=None):
    segment_ids, num_segments = _ids(segment_ids, num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(
        x.data.dtype)
    counts = np.maximum(counts, 1.0)
    total = segment_sum(x, segment_ids, num_segments)
    return total * Tensor(1.0 / counts.reshape((-1,) + (1,) * (x.ndim - 1)))


def segment_max(x, segment_ids, num_segments=None, fill=-1e30):
    segment_ids, num_segments = _ids(segment_ids, num_segments)
    out_shape = (num_segments,) + x.shape[1:]
    out_data = np.full(out_shape, fill, dtype=x.data.dtype)
    np.maximum.at(out_data, segment_ids, x.data)

    def backward(grad):
        mask = (x.data == out_data[segment_ids])
        tie_counts = np.zeros(out_shape, dtype=x.data.dtype)
        np.add.at(tie_counts, segment_ids, mask.astype(x.data.dtype))
        tie_counts = np.maximum(tie_counts, 1.0)
        x._accumulate(mask * grad[segment_ids] / tie_counts[segment_ids])

    return Tensor._make(out_data, (x,), backward)


def segment_softmax(x, segment_ids, num_segments=None):
    segment_ids, num_segments = _ids(segment_ids, num_segments)
    seg_max = segment_max(x, segment_ids, num_segments)
    shifted = x - seg_max[segment_ids]
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    denom_safe = denom + 1e-16
    return exp / denom_safe[segment_ids]


def accumulate(self, grad):
    """``Tensor._accumulate`` with a private copy of every first gradient."""
    if not self.requires_grad:
        return
    grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad = self.grad + grad


#: ``repro.tensor.functional`` attribute -> reference replacement.
OPS = {"gather_rows": gather_rows, "segment_sum": segment_sum,
       "segment_mean": segment_mean, "segment_max": segment_max,
       "segment_softmax": segment_softmax}
