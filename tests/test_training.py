"""Tests for the training subsystem: loops, checkpoint/resume, parallel."""

import os
import time

import numpy as np
import pytest

from repro import nn
from repro.baselines import CRNN, CRNNConfig, TPNILM, TPNILMConfig
from repro.core import (
    EnsembleConfig,
    ResNetConfig,
    ResNetTSC,
    train_ensemble,
)
from repro.training import (
    TrainConfig,
    checkpoint_exists,
    classifier_steps,
    evaluate_classifier_loss,
    evaluate_seq2seq_loss,
    load_checkpoint,
    predict_proba,
    predict_status_seq2seq,
    state_dicts_equal,
    train_classifier,
    train_seq2seq,
    train_weak_mil,
)


def _spike_windows(n=80, w=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, w)).astype(np.float32) * 0.2
    strong = np.zeros((n, w), dtype=np.float32)
    y = (rng.random(n) > 0.5).astype(np.float32)
    for i in np.flatnonzero(y == 1):
        start = rng.integers(0, w - 5)
        x[i, start : start + 4] += 2.0
        strong[i, start : start + 4] = 1.0
    return x, strong, y


class TestClassifierLoop:
    def test_loss_decreases_and_learns(self):
        x, _, y = _spike_windows()
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(8, 16, 16), seed=0))
        cfg = TrainConfig(epochs=10, batch_size=16, patience=0, lr=3e-3, seed=0)
        result = train_classifier(model, x, y, x, y, cfg)
        assert result.epochs_run == 10
        assert result.val_losses[-1] < result.val_losses[0]
        model.eval()
        proba = predict_proba(model, x)
        acc = ((proba > 0.5) == (y == 1)).mean()
        assert acc > 0.8

    def test_early_stopping_restores_best(self):
        x, _, y = _spike_windows(n=40)
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=1))
        cfg = TrainConfig(epochs=20, batch_size=16, patience=2, lr=5e-2, seed=0)
        result = train_classifier(model, x, y, x, y, cfg)
        model.eval()
        final = evaluate_classifier_loss(model, x, y)
        assert final == pytest.approx(result.best_val_loss, rel=0.2)

    def test_history_lengths_match(self):
        x, _, y = _spike_windows(n=30)
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=2))
        result = train_classifier(model, x, y, x, y, TrainConfig(epochs=3, patience=0))
        assert len(result.train_losses) == len(result.val_losses) == len(result.epoch_times)
        assert result.wall_time_seconds > 0

    def test_steps_count_their_own_time_not_the_time_parked(self):
        """``classifier_steps`` yields after every optimizer step and gives
        ``train_classifier``'s bits; its seconds leave out the time parked
        between steps."""
        x, _, y = _spike_windows(n=30)
        cfg = TrainConfig(epochs=2, batch_size=8, patience=0, seed=0)
        whole = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=2))
        want = train_classifier(whole, x, y, x, y, cfg)
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=2))
        steps = classifier_steps(model, x, y, x, y, cfg)
        n_steps, parked, start = 0, 0.0, time.perf_counter()
        while True:
            try:
                next(steps)
            except StopIteration as end:
                got = end.value
                break
            n_steps += 1
            park = time.perf_counter()
            time.sleep(0.01)
            parked += time.perf_counter() - park
        elapsed = time.perf_counter() - start
        assert n_steps == 2 * 4  # 30 windows in batches of 8, two epochs
        assert got.train_losses == want.train_losses and got.val_losses == want.val_losses
        assert state_dicts_equal(model.state_dict(), whole.state_dict())
        assert min(got.epoch_times) > 0
        assert sum(got.epoch_times) <= got.wall_time_seconds <= elapsed - parked

    @pytest.mark.parametrize(
        "bad",
        [-1.0, 0.6, 1.7],
        ids=["negative", "fractional-low", "fractional-high"],
    )
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_bad_labels_raise_before_training(self, bad, split):
        x, _, y = _spike_windows(n=8, w=16)
        y_bad = y.copy()
        y_bad[3] = bad
        y_train, y_val = (y_bad, y) if split == "train" else (y, y_bad)
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=0))
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match="class targets"):
            train_classifier(model, x, y_train, x, y_val, TrainConfig(epochs=1, patience=0))
        assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))

    def test_label_past_the_last_class_raises(self):
        x, _, y = _spike_windows(n=8, w=16)
        y[0] = 2.0  # the model has two classes
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=0))
        with pytest.raises(ValueError, match="class targets"):
            train_classifier(model, x, y, x, y, TrainConfig(epochs=1, patience=0))
        with pytest.raises(ValueError, match="class targets"):
            evaluate_classifier_loss(model, x, y)

    def test_label_shape_must_match_windows(self):
        x, _, y = _spike_windows(n=8, w=16)
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4), seed=0))
        with pytest.raises(ValueError, match="shape"):
            evaluate_classifier_loss(model, x, y[:-1])
        with pytest.raises(ValueError, match="shape"):
            train_classifier(model, x, y[:, None], x, y, TrainConfig(epochs=1, patience=0))

    def test_empty_val_set_inf_loss(self):
        model = ResNetTSC(ResNetConfig(kernel_size=3, filters=(4, 4, 4)))
        loss = evaluate_classifier_loss(model, np.zeros((0, 16)), np.zeros(0))
        assert loss == float("inf")


class TestSeq2SeqLoop:
    def test_learns_spike_localization(self):
        x, strong, _ = _spike_windows(n=100)
        model = TPNILM(TPNILMConfig(channels=(8, 16, 16), seed=0))
        # Class-balanced BCE (pos_weight ~ 1/positive-rate): without it the
        # sparse ON labels leave the sigmoid outputs hovering just under
        # the 0.5 decision threshold, and the f1 assertion measures float
        # rounding luck instead of whether the loop learned localization.
        pos_weight = float(1.0 / max(strong.mean(), 1e-6))
        cfg = TrainConfig(
            epochs=15, batch_size=16, patience=0, lr=5e-3, seed=0,
            pos_weight=pos_weight,
        )
        result = train_seq2seq(model, x, strong, x, strong, cfg)
        assert result.val_losses[-1] < result.val_losses[0]
        model.eval()
        status = predict_status_seq2seq(model, x)
        from repro.metrics import f1_score

        assert f1_score(strong, status) > 0.5

    def test_predict_status_binary_and_shaped(self):
        model = TPNILM(TPNILMConfig(channels=(4, 8, 8), seed=1))
        model.eval()
        status = predict_status_seq2seq(model, np.zeros((3, 32), dtype=np.float32))
        assert status.shape == (3, 32)
        assert set(np.unique(status)) <= {0.0, 1.0}

    def test_seq2seq_eval_loss(self):
        model = TPNILM(TPNILMConfig(channels=(4, 8, 8), seed=2))
        x = np.zeros((4, 32), dtype=np.float32)
        s = np.zeros((4, 32), dtype=np.float32)
        loss = evaluate_seq2seq_loss(model, x, s)
        assert np.isfinite(loss)


class TestWeakMILLoop:
    def test_weak_training_improves_detection(self):
        x, _, y = _spike_windows(n=100)
        model = CRNN(CRNNConfig(conv_channels=(4, 8, 8), hidden_size=8, seed=0))
        cfg = TrainConfig(epochs=5, batch_size=16, patience=0, lr=3e-3, seed=0)
        result = train_weak_mil(model, x, y, x, y, cfg)
        assert result.val_losses[-1] < result.val_losses[0]

    def test_weak_loop_uses_only_window_labels(self):
        """The MIL loop must run without any strong labels at all."""
        x, _, y = _spike_windows(n=30)
        model = CRNN(CRNNConfig(conv_channels=(4, 4, 4), hidden_size=4, seed=1))
        result = train_weak_mil(model, x, y, x, y, TrainConfig(epochs=1, patience=0))
        assert result.epochs_run == 1


TINY_RESNET = dict(kernel_size=3, filters=(4, 8, 8), seed=0)


def _tiny_model():
    return ResNetTSC(ResNetConfig(**TINY_RESNET))


_states_equal = state_dicts_equal


class _KilledMidEpoch(RuntimeError):
    """Raised by the flaky model to simulate a crash inside an epoch."""


class _FlakyResNet(ResNetTSC):
    """ResNet whose forward dies after a fixed number of calls."""

    def __init__(self, config, fail_after_calls):
        super().__init__(config)
        self.fail_after_calls = fail_after_calls
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        if self.calls > self.fail_after_calls:
            raise _KilledMidEpoch(f"simulated crash at forward #{self.calls}")
        return super().forward(x)


class TestCheckpointResume:
    """Resume must replay the uninterrupted run bit-for-bit."""

    def _config(self, path=None, **overrides):
        base = dict(epochs=5, batch_size=16, patience=0, lr=3e-3, seed=0)
        base.update(overrides)
        return TrainConfig(checkpoint_path=path, **base)

    def test_kill_mid_epoch_then_resume_reproduces_run(self, tmp_path):
        """Kill a run inside epoch 3, resume from its epoch-2 checkpoint in
        a *fresh* process-like state (new model object): the loss history
        and the final weights must match the uninterrupted run exactly."""
        x, _, y = _spike_windows(n=48)
        path = str(tmp_path / "ck.npz")

        uninterrupted = _tiny_model()
        full = train_classifier(uninterrupted, x, y, x, y, self._config())

        # 48 windows / batch 16 = 3 train + 3 val forwards per epoch; dying
        # at call 15 is mid-way through epoch 3's training batches.
        flaky = _FlakyResNet(ResNetConfig(**TINY_RESNET), fail_after_calls=14)
        with pytest.raises(_KilledMidEpoch):
            train_classifier(flaky, x, y, x, y, self._config(path))
        assert checkpoint_exists(path)
        assert load_checkpoint(path).epoch == 2

        resumed_model = _tiny_model()
        resumed = train_classifier(resumed_model, x, y, x, y, self._config(path))
        assert resumed.resumed_from_epoch == 2
        assert resumed.train_losses == full.train_losses
        assert resumed.val_losses == full.val_losses
        assert resumed.best_epoch == full.best_epoch
        assert _states_equal(uninterrupted.state_dict(), resumed_model.state_dict())

    def test_resume_with_optimizer_and_scheduler_state(self, tmp_path):
        """AdamW moments + warmup-cosine counters survive the round trip.

        The interruption is a mid-run kill under the *same* config — with a
        cosine-family schedule the horizon shapes the LR curve, so resuming
        under a different ``epochs`` is (correctly) refused instead.
        """
        x, _, y = _spike_windows(n=32)
        cfg = dict(
            optimizer="adamw",
            weight_decay=1e-2,
            scheduler="warmup_cosine",
            warmup_epochs=2,
            epochs=6,
            batch_size=16,
        )
        uninterrupted = _tiny_model()
        full = train_classifier(uninterrupted, x, y, x, y, self._config(**cfg))

        path = str(tmp_path / "ck.npz")
        # 32 windows / batch 16 = 2 train + 2 val forwards per epoch; call
        # 13 is epoch 4's first batch, so the kill lands after 3 epochs.
        flaky = _FlakyResNet(ResNetConfig(**TINY_RESNET), fail_after_calls=12)
        with pytest.raises(_KilledMidEpoch):
            train_classifier(flaky, x, y, x, y, self._config(path, **cfg))
        resumed_model = _tiny_model()
        resumed = train_classifier(resumed_model, x, y, x, y, self._config(path, **cfg))
        assert resumed.resumed_from_epoch == 3
        assert resumed.train_losses == full.train_losses
        assert resumed.val_losses == full.val_losses
        assert _states_equal(uninterrupted.state_dict(), resumed_model.state_dict())

    def test_resume_under_different_cosine_horizon_refused(self, tmp_path):
        """epochs is part of the cosine schedule's shape: a checkpoint from
        a t_max=3 run must not continue a t_max=6 trajectory."""
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        train_classifier(
            _tiny_model(), x, y, x, y,
            self._config(path, scheduler="cosine", epochs=3),
        )
        with pytest.raises(ValueError, match="epochs"):
            train_classifier(
                _tiny_model(), x, y, x, y,
                self._config(path, scheduler="cosine", epochs=6),
            )

    def test_resume_with_fewer_epochs_than_trained_refused(self, tmp_path):
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        train_classifier(_tiny_model(), x, y, x, y, self._config(path, epochs=5))
        with pytest.raises(ValueError, match="already trained 5 epochs"):
            train_classifier(_tiny_model(), x, y, x, y, self._config(path, epochs=3))

    def test_resume_preserves_dropout_stream(self, tmp_path):
        """Models with Dropout resume on the same mask sequence."""
        x, strong, _ = _spike_windows(n=32)
        cfg = dict(epochs=4, batch_size=16, patience=0, seed=0)

        uninterrupted = TPNILM(TPNILMConfig(channels=(4, 8, 8), seed=0))
        full = train_seq2seq(uninterrupted, x, strong, x, strong, TrainConfig(**cfg))

        path = str(tmp_path / "ck.npz")
        half = TPNILM(TPNILMConfig(channels=(4, 8, 8), seed=0))
        train_seq2seq(
            half, x, strong, x, strong,
            TrainConfig(checkpoint_path=path, **dict(cfg, epochs=2)),
        )
        resumed_model = TPNILM(TPNILMConfig(channels=(4, 8, 8), seed=0))
        resumed = train_seq2seq(
            resumed_model, x, strong, x, strong, TrainConfig(checkpoint_path=path, **cfg)
        )
        assert resumed.train_losses == full.train_losses
        assert _states_equal(uninterrupted.state_dict(), resumed_model.state_dict())

    def test_early_stop_state_travels_with_checkpoint(self, tmp_path):
        """Resuming a run that already early-stopped must not train more."""
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        config = self._config(path, epochs=20, patience=2, lr=5e-2)
        model = _tiny_model()
        result = train_classifier(model, x, y, x, y, config)
        assert result.epochs_run < 20  # must actually early-stop at this LR

        resumed_model = _tiny_model()
        resumed = train_classifier(resumed_model, x, y, x, y, config)
        assert resumed.epochs_run == result.epochs_run  # nothing re-trained
        assert resumed.train_losses == result.train_losses
        assert _states_equal(model.state_dict(), resumed_model.state_dict())

    def test_resume_false_ignores_checkpoint(self, tmp_path):
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        model = _tiny_model()
        train_classifier(model, x, y, x, y, self._config(path, epochs=2))
        fresh = _tiny_model()
        result = train_classifier(
            fresh, x, y, x, y, self._config(path, epochs=2, resume=False)
        )
        assert result.resumed_from_epoch == 0
        assert result.epochs_run == 2

    def test_checkpoint_every_skips_epochs(self, tmp_path):
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        train_classifier(
            _tiny_model(), x, y, x, y,
            self._config(path, epochs=3, checkpoint_every=2),
        )
        # Saved at epoch 2 (cadence) and at completion (epoch 3).
        assert load_checkpoint(path).epoch == 3

    def test_unknown_scheduler_or_optimizer_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            TrainConfig(scheduler="linear")
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="rmsprop")


class TestParallelEnsemble:
    """Worker fan-out must be invisible in the trained ensemble."""

    def _data(self):
        x, _, y = _spike_windows(n=48)
        return x, y.astype(np.int64)

    def _config(self):
        return EnsembleConfig(
            kernel_set=(3, 5),
            n_trials=1,
            n_models=2,
            filters=(4, 8, 8),
            train=TrainConfig(epochs=2, batch_size=16, patience=0),
            seed=0,
        )

    def test_checkpoint_dir_resumes_candidates(self, tmp_path):
        x, y = self._data()
        directory = str(tmp_path / "ensemble")
        first, _ = train_ensemble(x, y, x, y, self._config(), checkpoint_dir=directory)
        files = sorted(
            name for name in os.listdir(directory) if name.endswith(".npz")
        )
        # candidate_i<ki>_k<ks>_t<trial>_s<seed>_d<task digest>.npz
        assert [name.split("_d")[0] for name in files] == [
            "candidate_i0_k3_t0_s30",
            "candidate_i1_k5_t0_s1050",
        ]
        # Second run finds complete per-candidate checkpoints: no epochs are
        # re-trained and the selected ensemble is identical.
        second, candidates = train_ensemble(
            x, y, x, y, self._config(), checkpoint_dir=directory
        )
        for member_a, member_b in zip(first.models, second.models):
            assert _states_equal(member_a.state_dict(), member_b.state_dict())

    def test_invalid_worker_count_rejected(self):
        x, y = self._data()
        with pytest.raises(ValueError, match="n_workers"):
            train_ensemble(x, y, x, y, self._config(), n_workers=0)

    def test_stale_checkpoint_dir_not_reused_across_seeds(self, tmp_path):
        """A different ensemble seed must never resume another seed's
        candidates: its checkpoint filenames embed the derived seed."""
        import dataclasses

        x, y = self._data()
        directory = str(tmp_path / "ensemble")
        seed0, _ = train_ensemble(x, y, x, y, self._config(), checkpoint_dir=directory)
        config1 = dataclasses.replace(self._config(), seed=1)
        seed1, _ = train_ensemble(x, y, x, y, config1, checkpoint_dir=directory)
        current = [n for n in os.listdir(directory) if n.endswith(".npz")]
        assert len(current) == 4  # two fresh files, not reuse
        differs = any(
            not _states_equal(a.state_dict(), b.state_dict())
            for a, b in zip(seed0.models, seed1.models)
        )
        assert differs  # seed 1 really trained its own candidates

    def test_stale_checkpoint_dir_not_reused_across_datasets(self, tmp_path):
        """Same seed, different training data (e.g. another appliance):
        the task digest in the filename prevents silent weight reuse."""
        x, y = self._data()
        x2, _, y2 = _spike_windows(n=48, seed=7)
        directory = str(tmp_path / "ensemble")
        first, _ = train_ensemble(x, y, x, y, self._config(), checkpoint_dir=directory)
        second, _ = train_ensemble(
            x2, y2.astype(np.int64), x2, y2.astype(np.int64),
            self._config(), checkpoint_dir=directory,
        )
        current = [n for n in os.listdir(directory) if n.endswith(".npz")]
        assert len(current) == 4  # no filename collision
        differs = any(
            not _states_equal(a.state_dict(), b.state_dict())
            for a, b in zip(first.models, second.models)
        )
        assert differs  # the second task trained on its own data

    def test_scheduler_mismatch_on_resume_is_clear_error(self, tmp_path):
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        train_classifier(
            _tiny_model(), x, y, x, y,
            TrainConfig(
                epochs=1, batch_size=16, patience=0,
                scheduler="cosine", checkpoint_path=path,
            ),
        )
        with pytest.raises(ValueError, match="scheduler"):
            train_classifier(
                _tiny_model(), x, y, x, y,
                TrainConfig(
                    epochs=2, batch_size=16, patience=0, checkpoint_path=path,
                ),
            )

    def test_optimizer_mismatch_on_resume_is_clear_error(self, tmp_path):
        x, _, y = _spike_windows(n=32)
        path = str(tmp_path / "ck.npz")
        train_classifier(
            _tiny_model(), x, y, x, y,
            TrainConfig(epochs=1, batch_size=16, patience=0, checkpoint_path=path),
        )
        with pytest.raises(ValueError, match="optimizer"):
            train_classifier(
                _tiny_model(), x, y, x, y,
                TrainConfig(
                    epochs=2, batch_size=16, patience=0,
                    optimizer="sgd", checkpoint_path=path,
                ),
            )
