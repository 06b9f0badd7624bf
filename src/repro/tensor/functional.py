"""Functional (stateless) operations for the autograd engine.

These cover the activations, losses, and — most importantly for a GNN
library — the *segment* operations that implement message passing:
``gather_rows`` (node → edge scatter in the paper's terminology) and
``segment_sum``/``segment_softmax`` (edge → node gather).  They share
one :class:`SegmentIndex` per id array, whose cached CSR incidence
matrix turns every scatter into one structured product.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    out_data = np.where(x.data > 0, x.data, slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(x.data > 0, 1.0, slope))

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    exp_part = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, exp_part)

    def backward(grad: np.ndarray) -> None:
        slope = np.where(x.data > 0, 1.0, exp_part + alpha)
        x._accumulate(grad * slope)

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data ** 3)
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + tanh_inner)

    def backward(grad: np.ndarray) -> None:
        sech2 = 1.0 - tanh_inner ** 2
        d_inner = c * (1.0 + 3 * 0.044715 * x.data ** 2)
        slope = 0.5 * (1.0 + tanh_inner) + 0.5 * x.data * sech2 * d_inner
        x._accumulate(grad * slope)

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    out_data = np.logaddexp(0.0, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / (1.0 + np.exp(-x.data)))

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Structure ops
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(piece)

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * cond)
        b._accumulate(grad * ~cond)

    return Tensor._make(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Gather / segment operations (the graph-operation substrate)
# ----------------------------------------------------------------------
class SegmentIndex:
    """Row → segment ids, with the segment layout built once and reused.

    ``ids[r]`` names the segment row ``r`` belongs to (a message's
    destination node, or the node row a gather fetches).  The ids are
    validated on construction; everything derived from them — the
    stable sort order, the per-segment counts and the CSR incidence
    matrix — is built on first use and cached, so one index serves
    every layer's forward and backward for a batch.

    The incidence matrix has shape (segments × rows) with a one at
    ``(ids[r], r)``; within each segment its columns ascend.  Multiplying
    it by a dense array adds every segment's rows in ascending row order
    starting from 0.0 — exactly what ``np.add.at`` does — so
    :meth:`sum` is bit-identical to it.  ``segment_sum`` is this product
    and ``gather_rows`` is its transpose, so the gather's backward is the
    same product.
    """

    __slots__ = ("ids", "num_segments", "_order", "_indptr", "_incidence")

    def __init__(self, ids: np.ndarray, num_segments: int):
        ids = np.asarray(ids, dtype=np.int64)
        num_segments = int(num_segments)
        if ids.ndim != 1:
            raise ShapeError(f"segment ids must be 1-D, got shape {ids.shape}")
        if num_segments < 0 or (ids.size and (
                ids.min() < 0 or ids.max() >= num_segments)):
            raise ShapeError(f"segment ids out of range [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        self._order: Optional[np.ndarray] = None
        self._indptr: Optional[np.ndarray] = None
        self._incidence: Dict[np.dtype, sparse.csr_array] = {}

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def order(self) -> np.ndarray:
        """Rows grouped by segment; stable, so each group stays ascending."""
        if self._order is None:
            self._order = np.argsort(self.ids, kind="stable")
        return self._order

    @property
    def indptr(self) -> np.ndarray:
        """Segment ``s`` owns ``order[indptr[s]:indptr[s + 1]]``."""
        if self._indptr is None:
            counts = np.bincount(self.ids, minlength=self.num_segments)
            self._indptr = np.concatenate(([0], np.cumsum(counts)))
        return self._indptr

    @property
    def counts(self) -> np.ndarray:
        """Rows per segment."""
        return np.diff(self.indptr)

    def incidence(self, dtype) -> sparse.csr_array:
        """The (segments × rows) 0/1 matrix, with ones of ``dtype``."""
        dtype = np.dtype(dtype)
        matrix = self._incidence.get(dtype)
        if matrix is None:
            matrix = sparse.csr_array(
                (np.ones(len(self.ids), dtype=dtype), self.order, self.indptr),
                shape=(self.num_segments, len(self.ids)))
            self._incidence[dtype] = matrix
        return matrix

    def _check_rows(self, values: np.ndarray) -> None:
        if values.shape[0] != len(self.ids):
            raise ShapeError(
                f"segment_ids length {len(self.ids)} != rows {values.shape[0]}")

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-segment row sums, bit-identical to ``np.add.at``."""
        self._check_rows(values)
        width = int(np.prod(values.shape[1:], dtype=np.int64))
        out = self.incidence(values.dtype) @ values.reshape(len(self.ids), width)
        return out.reshape((self.num_segments,) + values.shape[1:])

    def max(self, values: np.ndarray, fill: float) -> np.ndarray:
        """Per-segment row maxima, floored at ``fill`` (``fill`` if empty)."""
        self._check_rows(values)
        out = np.full((self.num_segments,) + values.shape[1:], fill,
                      dtype=values.dtype)
        filled = np.flatnonzero(self.counts)
        if filled.size:
            peaks = np.maximum.reduceat(values[self.order],
                                        self.indptr[filled], axis=0)
            out[filled] = np.maximum(out[filled], peaks)
        return out


def _as_index(segment_ids, num_segments: Optional[int]) -> SegmentIndex:
    """Wrap raw ids in a :class:`SegmentIndex`; pass an index through."""
    if not isinstance(segment_ids, SegmentIndex):
        if num_segments is None:
            raise ShapeError("num_segments is required with raw segment ids")
        return SegmentIndex(segment_ids, num_segments)
    if num_segments is not None and num_segments != segment_ids.num_segments:
        raise ShapeError(f"index has {segment_ids.num_segments} segments, "
                         f"not {num_segments}")
    return segment_ids


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows ``x[index]`` with accumulating backward.

    This is the "scatter to edges" primitive: fetching source/destination
    node embeddings for every edge.  Indices may repeat.  ``index`` is a
    :class:`SegmentIndex` over ``len(x)`` segments or raw row ids; the
    backward is the segment sum of the output gradient.
    """
    index = _as_index(index, len(x))
    out_data = x.data[index.ids]

    def backward(grad: np.ndarray) -> None:
        x._accumulate(index.sum(grad))

    return Tensor._make(out_data, (x,), backward)


def segment_sum(x: Tensor, segment_ids, num_segments: Optional[int] = None
                ) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    This is the "gather to nodes" primitive: reducing edge messages onto
    destination nodes.  ``segment_ids`` (a :class:`SegmentIndex`, or raw
    ids plus ``num_segments``) need not be sorted.
    """
    index = _as_index(segment_ids, num_segments)
    out_data = index.sum(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[index.ids])

    return Tensor._make(out_data, (x,), backward)


def segment_mean(x: Tensor, segment_ids, num_segments: Optional[int] = None
                 ) -> Tensor:
    index = _as_index(segment_ids, num_segments)
    counts = np.maximum(index.counts.astype(x.data.dtype), 1.0)
    total = segment_sum(x, index)
    return total * Tensor(1.0 / counts.reshape((-1,) + (1,) * (x.ndim - 1)))


def segment_max(x: Tensor, segment_ids, num_segments: Optional[int] = None,
                fill: float = -1e30) -> Tensor:
    index = _as_index(segment_ids, num_segments)
    out_data = index.max(x.data, fill)

    def backward(grad: np.ndarray) -> None:
        mask = (x.data == out_data[index.ids])
        # Split ties evenly within each segment.
        tie_counts = np.maximum(index.sum(mask.astype(x.data.dtype)), 1.0)
        x._accumulate(mask * grad[index.ids] / tie_counts[index.ids])

    return Tensor._make(out_data, (x,), backward)


def segment_softmax(x: Tensor, segment_ids,
                    num_segments: Optional[int] = None) -> Tensor:
    """Softmax over rows of ``x`` grouped by segment (attention weights)."""
    index = _as_index(segment_ids, num_segments)
    seg_max = segment_max(x, index)
    shifted = x - gather_rows(seg_max, index)
    exp = shifted.exp()
    denom = segment_sum(exp, index)
    denom_safe = denom + 1e-16
    return exp / gather_rows(denom_safe, index)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean()


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    return (pred - target).abs().mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(labels)), labels]
    return -picked.mean()


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    pred = logits.data.argmax(axis=-1)
    return float((pred == labels).mean())
