"""Unit tests for the autograd Tensor engine."""

import numpy as np
import pytest

from repro.nn.tensor import (
    Tensor,
    concat,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
    _unbroadcast,
)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float32

    def test_from_numpy_casts_to_float32(self):
        t = Tensor(np.arange(4, dtype=np.float64))
        assert t.dtype == np.float32

    def test_from_tensor_shares_nothing_grad(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor(a)
        assert not b.requires_grad

    def test_scalar(self):
        t = tensor(3.5)
        assert t.item() == pytest.approx(3.5)

    def test_zeros_ones(self):
        assert np.all(zeros((2, 3)).data == 0)
        assert np.all(ones((2, 3)).data == 1)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmetic:
    def test_add(self):
        c = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(c.data, [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        t = Tensor([1.0])
        assert (t + 2.0).data[0] == 3.0
        assert (2.0 + t).data[0] == 3.0

    def test_sub_rsub(self):
        t = Tensor([5.0])
        assert (t - 2.0).data[0] == 3.0
        assert (2.0 - t).data[0] == -3.0

    def test_mul_div(self):
        t = Tensor([6.0])
        assert (t * 2.0).data[0] == 12.0
        assert (t / 2.0).data[0] == 3.0
        assert (12.0 / t).data[0] == 2.0

    def test_neg_pow(self):
        t = Tensor([2.0])
        assert (-t).data[0] == -2.0
        assert (t ** 3).data[0] == 8.0

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])


class TestBackwardBasics:
    def test_add_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5.0, 7.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_div_grad(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert a.grad[0] == pytest.approx(0.5)
        assert b.grad[0] == pytest.approx(-1.0)

    def test_chain_rule(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * x + 2.0 * x).sum()  # dy/dx = 2x + 2 = 8
        y.backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        assert x.grad[0] == pytest.approx(4.0)

    def test_reused_tensor_accumulates_within_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # uses x twice: dy/dx = 2x = 4
        y.backward()
        assert x.grad[0] == pytest.approx(4.0)

    def test_backward_requires_scalar_without_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0], dtype=np.float32))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a + b).backward()
        assert x.grad[0] == pytest.approx(7.0)


class TestBackwardFreesTheGraph:
    """Once a node's backward has run, it drops its closure and parents."""

    def test_a_second_backward_raises(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = (w * Tensor([3.0, 4.0])).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        # A silent second pass would leave a multiple of the gradient here.
        assert np.array_equal(w.grad, [3.0, 4.0])
        assert loss._parents == ()

    def test_backward_through_a_node_another_backward_freed_raises(self):
        w = Tensor([2.0], requires_grad=True)
        shared = w * 3.0
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="freed"):
            (shared * 2.0).sum().backward()

    def test_a_conv_saved_input_dies_with_its_backward(self):
        """The saved padded inputs of a training batch's convs are freed by
        its backward(), while the loss and the logits are still held."""
        import weakref
        from unittest import mock

        from repro.core import ResNetConfig, ResNetTSC
        from repro.nn import backend
        from repro.nn import functional as F
        from repro.nn.backend import im2col

        model = ResNetTSC(ResNetConfig(kernel_size=5, filters=(4, 8, 8), seed=0))
        x = np.random.default_rng(0).random((3, 32)).astype(np.float32)
        saved = []
        forward = im2col.forward

        def recording(*args, **kwargs):
            out, ctx = forward(*args, **kwargs)
            saved.append(weakref.ref(ctx.x_pad))
            return out, ctx

        with backend.use_backend("im2col"), mock.patch.object(im2col, "forward", recording):
            logits = model(Tensor(x[:, None, :]))
            loss = F.cross_entropy(logits, np.array([0, 1, 1]))
        assert saved and all(ref() is not None for ref in saved)
        loss.backward()
        assert all(ref() is None for ref in saved)
        assert logits._parents == () and loss._parents == ()


class TestBroadcastingGrads:
    def test_add_broadcast_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert np.allclose(b.grad, [4.0, 4.0, 4.0])

    def test_mul_broadcast_scalar_tensor(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert s.grad == pytest.approx(4.0)

    def test_unbroadcast_helper(self):
        grad = np.ones((4, 3))
        assert _unbroadcast(grad, (3,)).shape == (3,)
        assert _unbroadcast(grad, (1, 3)).shape == (1, 3)
        assert np.all(_unbroadcast(grad, (3,)) == 4.0)


class TestMatmul:
    def test_2d(self):
        a = Tensor(np.eye(3), requires_grad=True)
        b = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
        c = a.matmul(b)
        assert np.allclose(c.data, b.data)
        c.sum().backward()
        assert a.grad.shape == (3, 3)
        assert b.grad.shape == (3, 3)

    def test_batched(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(2, 4, 5)), requires_grad=True)
        c = a @ b
        assert c.shape == (2, 3, 5)
        c.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_broadcast_batch(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 2, 3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 5)), requires_grad=True)
        c = a @ b
        assert c.shape == (2, 2, 3, 5)
        c.sum().backward()
        assert b.grad.shape == (4, 5)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(2)
        a_np = rng.normal(size=(3, 4)).astype(np.float32)
        b_np = rng.normal(size=(4, 2)).astype(np.float32)
        c = Tensor(a_np) @ Tensor(b_np)
        assert np.allclose(c.data, a_np @ b_np, atol=1e-6)


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        s = x.sum(axis=(0, 2), keepdims=True)
        assert s.shape == (1, 3, 1)
        s.sum().backward()
        assert np.all(x.grad == 1.0)

    def test_mean(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        m = x.mean()
        assert m.item() == pytest.approx(3.0)
        m.backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_mean_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(x.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_max_grad_routes_to_argmax(self):
        x = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 2.0], [5.0, 0.0]]), requires_grad=True)
        m = x.max(axis=1)
        assert np.allclose(m.data, [2.0, 5.0])
        m.sum().backward()
        assert np.allclose(x.grad, [[0, 1], [1, 0]])

    def test_max_ties_split_gradient(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_var(self):
        x = Tensor([1.0, 3.0])
        assert x.var().item() == pytest.approx(1.0)


class TestNonlinearities:
    def test_relu(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        y = x.relu()
        assert np.allclose(y.data, [0.0, 2.0])
        y.sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_sigmoid_range(self):
        y = Tensor(np.linspace(-10, 10, 21)).sigmoid()
        assert np.all((y.data > 0) & (y.data < 1))

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 9).astype(np.float32)
        assert np.allclose(Tensor(x).tanh().data, np.tanh(x), atol=1e-6)

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.5])
        assert np.allclose(x.exp().log().data, x.data, atol=1e-6)

    def test_sqrt(self):
        x = Tensor([4.0], requires_grad=True)
        y = x.sqrt()
        assert y.data[0] == pytest.approx(2.0)
        y.backward()
        assert x.grad[0] == pytest.approx(0.25)

    def test_abs_grad_sign(self):
        x = Tensor([-3.0, 2.0], requires_grad=True)
        x.abs().sum().backward()
        assert np.allclose(x.grad, [-1.0, 1.0])

    def test_clip(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        y = x.clip(0.0, 1.0)
        assert np.allclose(y.data, [0.0, 0.5, 1.0])
        y.sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_transpose_axes_grad(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        x.transpose(1, 0, 2).sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_T_property(self):
        x = Tensor(np.zeros((2, 5)))
        assert x.T.shape == (5, 2)

    def test_swapaxes(self):
        x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        y = x.swapaxes(1, 2)
        assert y.shape == (2, 4, 3)
        y.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_getitem_grad_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        assert np.allclose(x.grad, [0, 1, 1, 0, 0])

    def test_pad1d(self):
        x = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        y = x.pad1d(2, 1, value=7.0)
        assert y.shape == (1, 2, 6)
        assert y.data[0, 0, 0] == 7.0
        y.sum().backward()
        assert np.all(x.grad == 1.0)


class TestCombinators:
    def test_concat_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        c = concat([a, b], axis=1)
        assert c.shape == (2, 5)
        c.sum().backward()
        assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)

    def test_stack(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b], axis=0)
        assert s.shape == (2, 2)
        s.sum().backward()
        assert np.all(a.grad == 1.0)

    def test_where(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        y = where(np.array([True, False]), a, b)
        assert np.allclose(y.data, [1.0, 20.0])
        y.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (x * 2.0).requires_grad

    def test_no_grad_is_per_thread(self):
        """A helper thread inside ``no_grad`` neither stops graph building
        here nor, on exit, restarts it inside this thread's own block."""
        import threading

        entered, release, done = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def helper():
            x = Tensor([1.0], requires_grad=True)
            with no_grad():
                entered.set()
                release.wait(5.0)
                seen["helper_inside"] = (x * 2.0).requires_grad
            done.set()

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            assert entered.wait(5.0)
            x = Tensor([1.0], requires_grad=True)
            assert (x * 2.0).requires_grad  # helper's block does not reach here
            with no_grad():
                release.set()
                assert done.wait(5.0)
                assert not (x * 2.0).requires_grad  # helper's exit does not either
        finally:
            release.set()
            thread.join(5.0)
        assert seen["helper_inside"] is False

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        assert not x.detach().requires_grad

    def test_interior_grads_freed(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y * 3.0
        z.backward()
        assert y.grad is None  # interior node freed
        assert x.grad is not None
