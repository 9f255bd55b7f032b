"""Behavioural tests for fused primitives (shapes, values, edge cases)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestConv1d:
    def test_same_padding_preserves_length(self):
        x = Tensor(np.zeros((2, 1, 20), dtype=np.float32))
        w = Tensor(np.zeros((4, 1, 5), dtype=np.float32))
        out = F.conv1d(x, w, None, padding=2)
        assert out.shape == (2, 4, 20)

    def test_output_length_formula(self):
        x = Tensor(np.zeros((1, 1, 17), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 4), dtype=np.float32))
        out = F.conv1d(x, w, None, stride=3, padding=1)
        assert out.shape[2] == (17 + 2 - 4) // 3 + 1

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 8)).astype(np.float32)
        w = Tensor(np.ones((1, 1, 1), dtype=np.float32))
        out = F.conv1d(Tensor(x), w, None)
        assert np.allclose(out.data, x)

    def test_matches_manual_correlation(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32)
        w = np.array([[[1.0, 0.0, -1.0]]], dtype=np.float32)
        out = F.conv1d(Tensor(x), Tensor(w), None)
        # correlation: x[t]*1 + x[t+2]*(-1)
        assert np.allclose(out.data, [[[1 - 3, 2 - 4]]])

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 5), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 3), dtype=np.float32))
        b = Tensor(np.array([1.5, -2.0], dtype=np.float32), requires_grad=True)
        out = F.conv1d(x, w, b, padding=1)
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv1d(x, w, None)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError, match="conv1d expects"):
            F.conv1d(Tensor(np.zeros((3, 5))), Tensor(np.zeros((1, 1, 3))), None)

    def test_too_short_input_raises(self):
        x = Tensor(np.zeros((1, 1, 2), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="shorter than kernel"):
            F.conv1d(x, w, None)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 8.0]]], dtype=np.float32))
        out = F.max_pool1d(x, 2)
        assert np.allclose(out.data, [[[3.0, 8.0]]])

    def test_max_pool_pads_with_neg_inf(self):
        x = Tensor(np.array([[[-5.0, -1.0, -9.0]]], dtype=np.float32))
        out = F.max_pool1d(x, 2)
        assert np.allclose(out.data, [[[-1.0, -9.0]]])

    def test_avg_pool_values(self):
        x = Tensor(np.array([[[2.0, 4.0, 6.0, 8.0]]], dtype=np.float32))
        out = F.avg_pool1d(x, 2)
        assert np.allclose(out.data, [[[3.0, 7.0]]])

    def test_avg_pool_ragged_tail_is_true_mean(self):
        """Count-exclude-pad: the tail block averages only real samples
        instead of being dragged toward zero by the padding."""
        x = Tensor(np.array([[[2.0, 4.0, 6.0, 8.0, 10.0]]], dtype=np.float32))
        out = F.avg_pool1d(x, 2)
        assert np.allclose(out.data, [[[3.0, 7.0, 10.0]]])

    def test_avg_pool_ragged_two_sample_tail(self):
        x = Tensor(np.arange(1, 9, dtype=np.float32).reshape(1, 1, 8))
        out = F.avg_pool1d(x, 3)
        # Blocks: (1,2,3), (4,5,6), (7,8) -> means 2, 5, 7.5.
        assert np.allclose(out.data, [[[2.0, 5.0, 7.5]]])

    def test_global_avg_pool(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(1, 2, 3))
        out = F.global_avg_pool1d(x)
        assert out.shape == (1, 2)
        assert np.allclose(out.data, [[1.0, 4.0]])

    def test_upsample_nearest_repeats(self):
        x = Tensor(np.array([[[1.0, 2.0]]], dtype=np.float32))
        out = F.upsample_nearest1d(x, 3)
        assert np.allclose(out.data, [[[1, 1, 1, 2, 2, 2]]])

    def test_upsample_to_exact_multiple_matches_repeat(self):
        x = Tensor(np.array([[[1.0, 2.0]]], dtype=np.float32))
        assert np.allclose(
            F.upsample_to1d(x, 6).data, F.upsample_nearest1d(x, 3).data
        )

    def test_upsample_to_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 7)).astype(np.float32))
        assert np.allclose(F.upsample_to1d(x, 7).data, x.data)


class TestNorms:
    def test_batch_norm_normalizes_training(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(3.0, 2.0, size=(16, 4, 10)).astype(np.float32))
        g = Tensor(np.ones(4, np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        out = F.batch_norm(x, g, b, np.zeros(4, np.float32), np.ones(4, np.float32), True)
        assert abs(out.data.mean()) < 1e-3
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batch_norm_updates_running_stats(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(5.0, 1.0, size=(8, 2, 4)).astype(np.float32))
        g = Tensor(np.ones(2, np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, np.float32), requires_grad=True)
        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
        F.batch_norm(x, g, b, rm, rv, training=True, momentum=0.5)
        assert np.all(rm > 1.0)  # moved toward the batch mean of ~5

    def test_batch_norm_eval_uses_running_stats(self):
        x = Tensor(np.full((2, 1, 3), 10.0, dtype=np.float32))
        g = Tensor(np.ones(1, np.float32), requires_grad=True)
        b = Tensor(np.zeros(1, np.float32), requires_grad=True)
        rm = np.array([10.0], np.float32)
        rv = np.array([4.0], np.float32)
        out = F.batch_norm(x, g, b, rm, rv, training=False)
        assert np.allclose(out.data, 0.0, atol=1e-5)

    def test_batch_norm_rejects_4d(self):
        x = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
        g = Tensor(np.ones(2, np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            F.batch_norm(x, g, b, np.zeros(2), np.ones(2), True)

    def test_layer_norm_last_axis(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32))
        g = Tensor(np.ones(8, np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, np.float32), requires_grad=True)
        out = F.layer_norm(x, g, b)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)).astype(np.float32))
        out = F.softmax(x, axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-5)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(2, 5)).astype(np.float32)
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        assert np.allclose(a, b, atol=1e-5)

    def test_log_softmax_consistent(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32))
        assert np.allclose(
            np.exp(F.log_softmax(x, axis=1).data), F.softmax(x, axis=1).data, atol=1e-5
        )

    def test_extreme_logits_stable(self):
        x = Tensor(np.array([[1000.0, -1000.0]], dtype=np.float32))
        out = F.softmax(x, axis=1)
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] == pytest.approx(1.0)


class TestDropout:
    def test_identity_in_eval(self):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_identity_when_p_zero(self):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = F.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_scales_surviving_units(self):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert 0.35 < (out.data > 0).mean() < 0.65

    def test_p_one_raises(self):
        x = Tensor(np.ones((4,), dtype=np.float32))
        with pytest.raises(ValueError):
            F.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]], dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3), dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3), abs=1e-5)

    @pytest.mark.parametrize(
        "targets",
        [
            np.array([0, -1]),  # NumPy indexing would read the last class
            np.array([0, 2]),  # past the last class
            np.array([0.0, 0.6]),  # an int cast would truncate it to class 0
            np.array([[0], [1]]),  # not (N,)
            np.array([0, 1, 1]),  # one target too many
            np.array([0.0, np.nan]),
            np.array(["0", "1"]),
        ],
    )
    def test_cross_entropy_rejects_bad_targets(self, targets):
        logits = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="class targets"):
            F.cross_entropy(logits, targets)

    def test_cross_entropy_accepts_float_weak_labels(self):
        logits = Tensor(np.array([[2.0, -1.0], [0.5, 1.5]], dtype=np.float32))
        as_float = F.cross_entropy(logits, np.array([0.0, 1.0], dtype=np.float32))
        as_int = F.cross_entropy(logits, np.array([0, 1]))
        assert as_float.item() == as_int.item()

    def test_bce_matches_manual(self):
        z = np.array([[0.3, -1.2]], dtype=np.float32)
        t = np.array([[1.0, 0.0]], dtype=np.float32)
        loss = F.binary_cross_entropy_with_logits(Tensor(z), t)
        p = 1 / (1 + np.exp(-z))
        manual = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert loss.item() == pytest.approx(manual, abs=1e-5)

    def test_bce_extreme_logits_finite(self):
        z = Tensor(np.array([[500.0, -500.0]], dtype=np.float32))
        t = np.array([[0.0, 1.0]], dtype=np.float32)
        loss = F.binary_cross_entropy_with_logits(z, t)
        assert np.isfinite(loss.item())

    def test_mse_zero_for_equal(self):
        x = np.random.default_rng(0).normal(size=(3, 3)).astype(np.float32)
        assert F.mse_loss(Tensor(x), x).item() == pytest.approx(0.0)

    def test_mse_value(self):
        pred = Tensor(np.array([2.0, 0.0], dtype=np.float32))
        loss = F.mse_loss(pred, np.array([0.0, 0.0], dtype=np.float32))
        assert loss.item() == pytest.approx(2.0)
