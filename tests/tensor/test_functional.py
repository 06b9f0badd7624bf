"""Activations, losses, and segment (message-passing) operations."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor
from repro.tensor import functional as F

from tests.conftest import numeric_gradient


def grad_of(build, x0):
    x = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    out = build(x)
    out.backward(np.ones_like(out.data))
    return x.grad


def check_grad(build, shape, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def f(arr):
        return float(build(Tensor(arr.copy(), requires_grad=True)).data.sum())

    got = grad_of(build, x0)
    num = numeric_gradient(f, x0)
    assert np.allclose(got, num, atol=atol)


class TestActivations:
    def test_relu_values(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        g = grad_of(F.relu, [-1.0, 2.0])
        assert np.allclose(g, [0.0, 1.0])

    def test_leaky_relu_grad(self):
        g = grad_of(lambda x: F.leaky_relu(x, 0.1), [-1.0, 2.0])
        assert np.allclose(g, [0.1, 1.0])

    def test_sigmoid_range_and_grad(self):
        out = F.sigmoid(Tensor(np.linspace(-100, 100, 7)))
        assert (out.data >= 0).all() and (out.data <= 1).all()
        check_grad(F.sigmoid, (5,))

    def test_tanh_grad(self):
        check_grad(F.tanh, (5,))

    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(Tensor(np.random.default_rng(0).normal(size=(4, 6))))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_softmax_grad(self):
        check_grad(lambda x: F.softmax(x, axis=-1), (3, 4))

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        assert np.allclose(F.log_softmax(Tensor(x)).data,
                           np.log(F.softmax(Tensor(x)).data))

    def test_log_softmax_grad(self):
        check_grad(lambda x: F.log_softmax(x, axis=-1), (2, 5))


class TestStructureOps:
    def test_concatenate_values_and_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        out = F.concatenate([a, b], axis=0)
        assert out.shape == (3, 3)
        (out * 2).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert F.concatenate([a, b], axis=1).shape == (2, 5)

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = F.stack([a, b])
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_where_routes_grads(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        F.where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0, 1])
        assert np.allclose(b.grad, [0, 1, 0])


class TestSegmentOps:
    def test_segment_sum_values(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        ids = np.array([0, 1, 0, 2])
        out = F.segment_sum(x, ids, 3)
        assert np.allclose(out.data, [[4, 6], [2, 3], [6, 7]])

    def test_segment_sum_unsorted_ids(self):
        x = Tensor(np.ones((5, 1)))
        ids = np.array([2, 0, 2, 1, 0])
        out = F.segment_sum(x, ids, 3)
        assert np.allclose(out.data.ravel(), [2, 1, 2])

    def test_segment_sum_empty_segment(self):
        x = Tensor(np.ones((2, 1)))
        out = F.segment_sum(x, np.array([0, 2]), 4)
        assert np.allclose(out.data.ravel(), [1, 0, 1, 0])

    def test_segment_sum_length_mismatch(self):
        with pytest.raises(ShapeError):
            F.segment_sum(Tensor(np.ones((3, 1))), np.array([0, 1]), 2)

    def test_segment_sum_grad(self):
        ids = np.array([0, 1, 0])
        check_grad(lambda x: F.segment_sum(x, ids, 2), (3, 2))

    def test_segment_mean_values(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = F.segment_mean(x, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data.ravel(), [3.0, 6.0])

    def test_segment_mean_empty_segment_is_zero(self):
        out = F.segment_mean(Tensor(np.ones((1, 1))), np.array([1]), 3)
        assert np.allclose(out.data.ravel(), [0, 1, 0])

    def test_segment_max_values(self):
        x = Tensor(np.array([1.0, 5.0, 3.0, 2.0]).reshape(4, 1))
        out = F.segment_max(x, np.array([0, 0, 1, 1]), 2)
        assert np.allclose(out.data.ravel(), [5.0, 3.0])

    def test_segment_max_grad_routes_to_argmax(self):
        x = Tensor(np.array([[1.0], [5.0], [3.0]]), requires_grad=True)
        F.segment_max(x, np.array([0, 0, 1]), 2).sum().backward()
        assert np.allclose(x.grad.ravel(), [0.0, 1.0, 1.0])

    def test_segment_softmax_sums_to_one_per_segment(self):
        rng = np.random.default_rng(3)
        scores = Tensor(rng.normal(size=(6,)))
        ids = np.array([0, 0, 1, 1, 1, 2])
        out = F.segment_softmax(scores, ids, 3)
        sums = np.zeros(3)
        np.add.at(sums, ids, out.data)
        assert np.allclose(sums, 1.0)

    def test_segment_softmax_grad(self):
        ids = np.array([0, 0, 1, 1])
        check_grad(lambda x: F.segment_softmax(x, ids, 2), (4,), atol=1e-5)

    def test_gather_rows_matches_indexing(self):
        x = Tensor(np.arange(10.0).reshape(5, 2))
        idx = np.array([4, 0, 4])
        assert np.allclose(F.gather_rows(x, idx).data, x.data[idx])

    def test_gather_scatter_adjoint(self):
        """<gather(x), y> == <x, scatter(y)> — the defining adjoint pair."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(7, 3))
        idx = rng.integers(0, 5, size=7)
        lhs = (x[idx] * y).sum()
        scat = F.segment_sum(Tensor(y), idx, 5).data
        rhs = (x * scat).sum()
        assert np.allclose(lhs, rhs)


class TestSegmentIds:
    """Ids outside [0, num_segments) fail typed instead of wrapping."""

    @pytest.mark.parametrize("ids", [[0, 1, -1], [0, 1, 3]],
                             ids=["negative", "past-end"])
    @pytest.mark.parametrize("op", [F.segment_sum, F.segment_max,
                                    F.segment_mean, F.segment_softmax])
    def test_out_of_range_ids_rejected(self, op, ids):
        with pytest.raises(ShapeError, match="out of range"):
            op(Tensor(np.ones(3)), np.array(ids), 3)

    def test_gather_out_of_range_rejected(self):
        x = Tensor(np.ones((3, 2)))
        for ids in ([0, -1], [3]):
            with pytest.raises(ShapeError, match="out of range"):
                F.gather_rows(x, np.array(ids))

    def test_non_1d_ids_rejected(self):
        with pytest.raises(ShapeError, match="1-D"):
            F.segment_sum(Tensor(np.ones(4)), np.zeros((2, 2), np.int64), 1)
        with pytest.raises(ShapeError, match="1-D"):
            F.SegmentIndex(np.int64(0), 1)

    def test_index_must_match_table(self):
        index = F.SegmentIndex(np.array([0, 1]), 2)
        with pytest.raises(ShapeError):
            F.gather_rows(Tensor(np.ones((3, 2))), index)
        with pytest.raises(ShapeError):
            F.segment_sum(Tensor(np.ones(2)), index, 3)
        with pytest.raises(ShapeError):
            F.segment_sum(Tensor(np.ones(3)), index)

    def test_no_rows_gives_zero_sums(self):
        index = F.SegmentIndex(np.array([], np.int64), 3)
        x = Tensor(np.ones((0, 2)), requires_grad=True)
        out = F.segment_sum(x, index)
        assert out.shape == (3, 2) and not out.data.any()
        out.sum().backward()
        assert x.grad.shape == (0, 2)
        assert np.array_equal(F.segment_max(x, index, fill=-7.0).data,
                              np.full((3, 2), -7.0))

    def test_index_layout_is_built_on_first_use(self):
        index = F.SegmentIndex(np.array([2, 0, 2, 1]), 4)
        assert index._order is None and not index._incidence
        assert np.array_equal(index.counts, [1, 1, 2, 0])
        assert np.array_equal(index.order, [1, 3, 0, 2])
        dense = index.incidence(np.float32).toarray()
        assert dense.dtype == np.float32
        assert np.array_equal(dense, np.arange(4)[:, None] == index.ids)


class TestLosses:
    def test_mse_value(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert np.allclose(loss.item(), 2.5)

    def test_l1_value(self):
        loss = F.l1_loss(Tensor([1.0, -2.0]), Tensor([0.0, 0.0]))
        assert np.allclose(loss.item(), 1.5)

    def test_l1_grad(self):
        target = Tensor(np.zeros(3))
        check_grad(lambda x: F.l1_loss(x + 10.0, target), (3,))

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        assert np.allclose(loss.item(), np.log(4))

    def test_cross_entropy_confident(self):
        logits = np.full((1, 3), -20.0)
        logits[0, 1] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.array([1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_rejects_1d(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros(3)), np.array([0]))

    def test_cross_entropy_grad(self):
        labels = np.array([1, 0])
        check_grad(lambda x: F.cross_entropy(x, labels), (2, 3))

    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        assert F.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
