"""Equivalence contracts, each stated once and driven by generated inputs.

Hypothesis draws the shapes (batch size, channels, kernel width, stride,
padding, length) and a seed for the data; every contract must hold for
every draw.  Example counts stay small so tier-1 stays fast.

* **im2col == reference**: the forward, ``grad_weight`` and ``grad_input``
  of the two conv kernels agree to within ``1e-5`` of the largest entry.
* **im2col is batch-size invariant**: a sample's forward bits do not
  depend on which batch it runs in, in grad mode, in no-grad mode and on
  the fused inference entry point.
* **Gradients match finite differences**: ``conv1d`` under both kernels,
  and training-mode ``batch_norm``.
"""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import backend, check_gradients
from repro.nn import functional as F
from repro.nn.tensor import Tensor

KERNELS = ("reference", "im2col")
#: Relative to the largest entry, as the fixed-shape equivalence tests pin it.
REL_TOL = 1e-5

#: Derandomized, so tier-1 replays the same examples on every run.
contract = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def conv_cases(draw, max_n=6, max_c=12, max_k=9, max_len=40):
    """A valid conv1d signature plus a data seed."""
    kernel = draw(st.integers(1, max_k))
    padding = draw(st.integers(0, kernel))
    length = draw(st.integers(max(1, kernel - 2 * padding), max_len))
    return dict(
        n=draw(st.integers(1, max_n)),
        c_in=draw(st.integers(1, max_c)),
        c_out=draw(st.integers(1, max_c)),
        kernel=kernel,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        length=length,
        seed=draw(st.integers(0, 2**16)),
    )


def _conv_data(case, weight_scale=0.3):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c_in"], case["length"])).astype(np.float32)
    w = rng.normal(size=(case["c_out"], case["c_in"], case["kernel"])) * weight_scale
    return x, w.astype(np.float32), rng


def _l_out(case):
    return (case["length"] + 2 * case["padding"] - case["kernel"]) // case["stride"] + 1


def _assert_close(got, want):
    scale = max(float(np.abs(want).max()), 1e-6)
    assert float(np.abs(got - want).max()) <= REL_TOL * scale


class TestIm2colMatchesReference:
    @contract
    @given(conv_cases())
    def test_forward_and_both_gradients(self, case):
        x_np, w_np, rng = _conv_data(case)
        upstream = rng.normal(size=(case["n"], case["c_out"], _l_out(case))).astype(np.float32)
        got = {}
        for name in KERNELS:
            x = Tensor(x_np, requires_grad=True)
            w = Tensor(w_np, requires_grad=True)
            with backend.use_backend(name):
                out = F.conv1d(x, w, stride=case["stride"], padding=case["padding"])
                (out * Tensor(upstream)).sum().backward()
            got[name] = (out.data, w.grad, x.grad)
        for im2col_part, reference_part in zip(got["im2col"], got["reference"]):
            _assert_close(im2col_part, reference_part)


class TestIm2colBatchSizeInvariance:
    """The serving cache's and the coalescer's bit-identity contract."""

    @staticmethod
    def _split(case, data):
        cut = data.draw(st.integers(0, case["n"] - 1))
        width = data.draw(st.integers(1, case["n"] - cut))
        return slice(cut, cut + width)

    @contract
    @given(conv_cases(), st.data())
    def test_grad_and_no_grad_forward(self, case, data):
        x_np, w_np, _ = _conv_data(case)
        part = self._split(case, data)
        w = Tensor(w_np, requires_grad=True)
        kwargs = dict(stride=case["stride"], padding=case["padding"])
        with backend.use_backend("im2col"):
            for grad_mode in (True, False):
                with contextlib.nullcontext() if grad_mode else nn.no_grad():
                    full = F.conv1d(Tensor(x_np, requires_grad=True), w, **kwargs).data
                    sub_x = Tensor(np.ascontiguousarray(x_np[part]), requires_grad=True)
                    sub = F.conv1d(sub_x, w, **kwargs).data
                    assert np.array_equal(full[part], sub), f"grad mode {grad_mode}"

    @contract
    @given(conv_cases(), st.data())
    def test_fused_forward(self, case, data):
        x_np, w_np, rng = _conv_data(case)
        part = self._split(case, data)
        shift = rng.normal(size=case["c_out"]).astype(np.float32)
        kwargs = dict(shift=shift, stride=case["stride"], padding=case["padding"])
        with backend.use_backend("im2col"), nn.no_grad():
            full = backend.conv1d_fused(x_np, w_np, **kwargs).copy()
            sub = backend.conv1d_fused(np.ascontiguousarray(x_np[part]), w_np, **kwargs)
        assert np.array_equal(full[part], sub)


class TestGradientsMatchFiniteDifferences:
    @contract
    @given(conv_cases(max_n=3, max_c=3, max_k=5, max_len=12), st.sampled_from(KERNELS))
    def test_conv1d(self, case, kernel_name):
        x_np, w_np, rng = _conv_data(case, weight_scale=0.4)
        x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
        b = Tensor(rng.normal(size=case["c_out"]).astype(np.float32) * 0.1, requires_grad=True)
        mask = Tensor(rng.normal(size=(case["n"], case["c_out"], _l_out(case))).astype(np.float32))
        kwargs = dict(stride=case["stride"], padding=case["padding"])
        with backend.use_backend(kernel_name):
            check_gradients(lambda: (F.conv1d(x, w, b, **kwargs) * mask).sum(), [x, w, b])

    @contract
    @given(
        st.one_of(
            st.tuples(st.integers(4, 8), st.integers(1, 3)),
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(4, 8)),
        ),
        st.integers(0, 2**16),
    )
    def test_batch_norm_training(self, shape, seed):
        """``(N, C)`` and ``(N, C, L)`` inputs, at least four values a channel."""
        channels = shape[1]
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        gamma = Tensor(rng.normal(size=channels).astype(np.float32) * 0.5, requires_grad=True)
        beta = Tensor(rng.normal(size=channels).astype(np.float32) * 0.5, requires_grad=True)
        mask = Tensor(rng.normal(size=shape).astype(np.float32))

        def loss():
            running_mean = np.zeros(channels, np.float32)
            running_var = np.ones(channels, np.float32)
            out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
            return (out * mask).sum()

        # A 1e-2 step: float32 round-off in a 1e-3 central difference of this
        # smooth loss already reaches check_gradients' 1e-3 tolerance.
        check_gradients(loss, [x, gamma, beta], eps=1e-2)
