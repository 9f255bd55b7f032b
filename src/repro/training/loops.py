"""The three supervision loops, built on one resumable epoch engine.

* :func:`train_classifier` — window-level binary classification (CamAL's
  ResNets, Problem 1), softmax cross-entropy.
* :func:`train_seq2seq` — per-timestamp status prediction (strongly
  supervised NILM baselines, Problem 2), BCE on frame logits.
* :func:`train_weak_mil` — multiple-instance learning (CRNN-weak), BCE on
  the pooled sequence logit only.

All loops share :func:`_run_epochs`: Adam/AdamW/SGD with optional LR
schedule, gradient clipping, early stopping on the validation mean of the
loop's batch loss, and epoch-boundary checkpointing.  Resuming from a checkpoint reproduces the
uninterrupted run's loss trajectory and final weights bit-for-bit — the
optimizer moments, scheduler counters and every RNG stream are restored,
so the remaining epochs replay exactly (see
:mod:`repro.training.checkpoint`).  :func:`classifier_steps` runs a
classifier one optimizer step per ``next()``, so Algorithm 1's candidate
lanes can step several candidates in turn.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Generator, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor
from .checkpoint import (
    TrainingCheckpoint,
    capture_rng_state,
    load_latest_checkpoint,
    restore_rng_state,
    save_checkpoint,
)
from .config import TrainConfig, TrainResult


def _iterate_batches(
    n: int, batch_size: int, rng: np.random.Generator, shuffle: bool = True
):
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _restore_best(model: nn.Module, best_state: Optional[Dict[str, np.ndarray]]) -> None:
    if best_state is not None:
        model.load_state_dict(best_state)


def _build_optimizer(model: nn.Module, config: TrainConfig) -> nn.Optimizer:
    if config.optimizer == "adam":
        return nn.Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    if config.optimizer == "adamw":
        return nn.AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    return nn.SGD(
        model.parameters(), lr=config.lr, momentum=0.9, weight_decay=config.weight_decay
    )


def _build_scheduler(
    optimizer: nn.Optimizer, config: TrainConfig
) -> Optional[nn.LRScheduler]:
    if config.scheduler == "none":
        return None
    if config.scheduler == "step":
        return nn.StepLR(optimizer, step_size=config.step_size, gamma=config.gamma)
    if config.scheduler == "cosine":
        return nn.CosineAnnealingLR(optimizer, t_max=config.epochs, eta_min=config.eta_min)
    return nn.WarmupCosineLR(
        optimizer,
        t_max=config.epochs,
        warmup_epochs=config.warmup_epochs,
        eta_min=config.eta_min,
    )


def _resume_fingerprint(config: TrainConfig) -> Dict[str, object]:
    """The config facets that define the optimization trajectory.

    A checkpoint may only be resumed under a config whose fingerprint
    matches: continuing Adam moments under a different LR, or a cosine
    schedule under a different horizon, would produce weights matching
    neither the checkpointed run nor a fresh one.  ``epochs`` joins the
    fingerprint only when the schedule's shape depends on it (cosine
    variants), so extending a plain run with more epochs stays legal.
    """
    fingerprint: Dict[str, object] = {
        "optimizer": config.optimizer,
        "lr": config.lr,
        "weight_decay": config.weight_decay,
        "batch_size": config.batch_size,
        "patience": config.patience,  # bad_epochs carries over on resume
        "clip_grad": config.clip_grad,
        "seed": config.seed,
        "scheduler": config.scheduler,
        "pos_weight": config.pos_weight,
    }
    if config.scheduler == "step":
        fingerprint.update(step_size=config.step_size, gamma=config.gamma)
    elif config.scheduler == "cosine":
        fingerprint.update(eta_min=config.eta_min, epochs=config.epochs)
    elif config.scheduler == "warmup_cosine":
        fingerprint.update(
            eta_min=config.eta_min,
            warmup_epochs=config.warmup_epochs,
            epochs=config.epochs,
        )
    return fingerprint


#: A loop's batch loss: ``(inputs, targets) -> scalar Tensor``.
BatchLoss = Callable[[np.ndarray, np.ndarray], Tensor]


def _mean_loss(loss_on: BatchLoss, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    """Mean of ``loss_on`` over ``x`` in batches, without grad (inf when empty)."""
    if len(x) == 0:
        return float("inf")
    total, count = 0.0, 0
    with nn.no_grad():
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            total += loss_on(xb, y[start : start + batch_size]).item() * len(xb)
            count += len(xb)
    return total / count


def _run_epochs(
    model: nn.Module,
    loss_on: BatchLoss,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> Generator[None, None, TrainResult]:
    """Generic epoch loop with early stopping; returns the loss history.

    ``loss_on`` gives the training batches' loss and, averaged over the
    validation set, the loss early stopping watches.
    A generator: it yields after every optimizer step, so the run can be
    parked between steps and resumed on another thread.  No thread-local
    context (``no_grad``) spans a yield.  ``wall_time_seconds`` and
    ``epoch_times`` count the time the steps ran, not the time parked.
    When ``config.checkpoint_path`` is set, a checkpoint is written at
    every ``checkpoint_every``-th epoch boundary (and on early stop and
    completion); with ``config.resume`` an existing checkpoint restarts
    the loop from its last completed epoch with identical state.
    """
    rng = np.random.default_rng(config.seed)
    optimizer = _build_optimizer(model, config)
    scheduler = _build_scheduler(optimizer, config)
    result = TrainResult()
    best_state: Optional[Dict[str, np.ndarray]] = None
    bad_epochs = 0
    start_epoch = 0
    stopped_early = False
    path = config.checkpoint_path
    fingerprint = _resume_fingerprint(config)

    # Resume from the newest *intact* generation: a torn newest archive
    # (crash mid-write, bit rot) falls back to the previous rotation
    # instead of aborting the run.
    loaded = load_latest_checkpoint(path) if path and config.resume else None
    if loaded is not None:
        snapshot, loaded_path = loaded
        if snapshot.config_fingerprint is not None:
            saved = snapshot.config_fingerprint
            drifted = sorted(
                key
                for key in set(saved) | set(fingerprint)
                if saved.get(key) != fingerprint.get(key)
            )
            if drifted:
                raise ValueError(
                    f"checkpoint {loaded_path!r} was written under a different "
                    f"training config (mismatched: {drifted}); resuming "
                    f"would follow a trajectory matching neither run — "
                    f"delete the checkpoint or match the config"
                )
        if snapshot.epoch > config.epochs:
            raise ValueError(
                f"checkpoint {loaded_path!r} already trained {snapshot.epoch} "
                f"epochs but config.epochs={config.epochs}; shrinking a "
                f"finished run is ambiguous — delete the checkpoint or "
                f"raise config.epochs"
            )
        model.load_state_dict(snapshot.model_state)
        try:
            optimizer.load_state_dict(snapshot.optimizer_state)
        except KeyError as exc:
            # Backstop for fingerprint-less (hand-built) checkpoints.
            raise ValueError(
                f"checkpoint {loaded_path!r} was written by a different optimizer "
                f"than config.optimizer={config.optimizer!r} (missing state "
                f"entry {exc}); delete the checkpoint or match the config"
            ) from None
        if scheduler is not None and snapshot.scheduler_state is not None:
            scheduler.load_state_dict(snapshot.scheduler_state)
        restore_rng_state(snapshot.rng_state, rng, model)
        result.train_losses = list(snapshot.train_losses)
        result.val_losses = list(snapshot.val_losses)
        result.epoch_times = list(snapshot.epoch_times)
        result.best_val_loss = snapshot.best_val_loss
        result.best_epoch = snapshot.best_epoch
        best_state = snapshot.best_model_state
        bad_epochs = snapshot.bad_epochs
        start_epoch = min(snapshot.epoch, config.epochs)
        stopped_early = snapshot.stopped_early
        result.resumed_from_epoch = start_epoch

    ran, resumed = 0.0, time.perf_counter()

    def busy() -> float:
        """Seconds the steps have run so far."""
        return ran + time.perf_counter() - resumed

    def _save(epochs_completed: int) -> None:
        save_checkpoint(
            path,
            TrainingCheckpoint(
                epoch=epochs_completed,
                model_state=model.state_dict(),
                optimizer_state=optimizer.state_dict(),
                rng_state=capture_rng_state(rng, model),
                scheduler_state=None if scheduler is None else scheduler.state_dict(),
                config_fingerprint=fingerprint,
                train_losses=result.train_losses,
                val_losses=result.val_losses,
                epoch_times=result.epoch_times,
                best_val_loss=result.best_val_loss,
                best_epoch=result.best_epoch,
                bad_epochs=bad_epochs,
                best_model_state=best_state,
                stopped_early=stopped_early,
            ),
        )

    epochs = range(start_epoch, 0 if stopped_early else config.epochs)
    for epoch in epochs:
        epoch_start = busy()
        model.train()
        total, batches = 0.0, 0
        for idx in _iterate_batches(len(x_train), config.batch_size, rng):
            loss = loss_on(x_train[idx], y_train[idx])
            optimizer.zero_grad()
            loss.backward()
            if config.clip_grad > 0:
                optimizer.clip_grad_norm(config.clip_grad)
            optimizer.step()
            total += loss.item()
            batches += 1
            ran = busy()
            yield
            resumed = time.perf_counter()
        result.train_losses.append(total / max(batches, 1))

        model.eval()
        current_val = _mean_loss(loss_on, x_val, y_val, config.batch_size)
        result.val_losses.append(current_val)
        result.epoch_times.append(busy() - epoch_start)
        if config.verbose:
            print(
                f"  epoch {epoch + 1}/{config.epochs} "
                f"train={result.train_losses[-1]:.4f} val={current_val:.4f} "
                f"lr={optimizer.lr:.2e}"
            )

        if current_val < result.best_val_loss - 1e-6:
            result.best_val_loss = current_val
            result.best_epoch = epoch
            best_state = model.state_dict()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if config.patience > 0 and bad_epochs >= config.patience:
                stopped_early = True
        if scheduler is not None:
            scheduler.step()
        if path and (
            (epoch + 1) % config.checkpoint_every == 0
            or stopped_early
            or epoch + 1 == config.epochs
        ):
            _save(epoch + 1)
        if stopped_early:
            break

    _restore_best(model, best_state)
    result.wall_time_seconds = busy()
    return result


# ----------------------------------------------------------------------
# Window-level classification (Problem 1)
# ----------------------------------------------------------------------
def train_classifier(
    model: nn.Module,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train a binary window classifier with softmax cross-entropy.

    ``model`` maps ``(N, 1, L)`` inputs to ``(N, 2)`` logits; inputs are the
    scaled aggregate windows ``(N, L)`` and labels the weak window labels.
    Labels that are not whole, non-negative class ids of shape ``(N,)``
    raise ``ValueError`` before training starts; an id past the model's
    last class raises at the first batch that holds it (see
    :func:`repro.nn.functional.class_targets`).
    """
    return nn.plan.run_chain(classifier_steps(model, x_train, y_train, x_val, y_val, config))


def classifier_steps(
    model: nn.Module,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> Generator[None, None, TrainResult]:
    """:func:`train_classifier` one optimizer step per ``next()``; the
    generator's return value is the :class:`TrainResult`.  Labels are
    checked at once, before the first step."""
    x_train = np.asarray(x_train, dtype=np.float32)
    x_val = np.asarray(x_val, dtype=np.float32)
    return _run_epochs(
        model, _classifier_loss(model), x_train, F.class_targets(y_train, len(x_train)),
        x_val, F.class_targets(y_val, len(x_val)), config,
    )


def _classifier_loss(model: nn.Module) -> BatchLoss:
    return lambda x, y: F.cross_entropy(model(Tensor(x[:, None, :])), y)


def evaluate_classifier_loss(
    model: nn.Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256
) -> float:
    """Mean cross-entropy of a classifier over a dataset (no grad)."""
    x = np.asarray(x, dtype=np.float32)
    return _mean_loss(_classifier_loss(model), x, F.class_targets(y, len(x)), batch_size)


def predict_proba(model: nn.Module, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Positive-class probabilities of a binary classifier, shape ``(N,)``."""
    x = np.asarray(x, dtype=np.float32)
    outputs = []
    with nn.no_grad():
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            logits = model(Tensor(xb[:, None, :]))
            probs = F.softmax(logits, axis=1).data[:, 1]
            outputs.append(probs)
    return np.concatenate(outputs) if outputs else np.zeros(0, dtype=np.float32)


# ----------------------------------------------------------------------
# Per-timestamp sequence-to-sequence training (Problem 2, strong labels)
# ----------------------------------------------------------------------
def train_seq2seq(
    model: nn.Module,
    x_train: np.ndarray,
    s_train: np.ndarray,
    x_val: np.ndarray,
    s_val: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train a per-timestamp status model with frame-level BCE.

    ``model`` maps ``(N, 1, L)`` to frame logits ``(N, L)``; ``s_*`` are
    per-timestamp binary status labels (the paper's strong labels).
    """
    arrays = [np.asarray(a, dtype=np.float32) for a in (x_train, s_train, x_val, s_val)]
    return nn.plan.run_chain(
        _run_epochs(model, _seq2seq_loss(model, config.pos_weight), *arrays, config)
    )


def _seq2seq_loss(model: nn.Module, pos_weight: Optional[float]) -> BatchLoss:
    return lambda x, s: F.binary_cross_entropy_with_logits(
        model(Tensor(x[:, None, :])), s, pos_weight=pos_weight
    )


def evaluate_seq2seq_loss(
    model: nn.Module,
    x: np.ndarray,
    s: np.ndarray,
    batch_size: int = 256,
    pos_weight: Optional[float] = None,
) -> float:
    """Mean frame-level BCE of a seq2seq model over a dataset (no grad)."""
    x, s = (np.asarray(a, dtype=np.float32) for a in (x, s))
    return _mean_loss(_seq2seq_loss(model, pos_weight), x, s, batch_size)


def predict_proba_seq2seq(
    model: nn.Module, x: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Per-timestamp sigmoid probabilities of a seq2seq model, ``(N, L)``."""
    x = np.asarray(x, dtype=np.float32)
    outputs = []
    with nn.no_grad():
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            logits = model(Tensor(xb[:, None, :])).data
            outputs.append((1.0 / (1.0 + np.exp(-logits))).astype(np.float32))
    return np.concatenate(outputs) if outputs else np.zeros((0, x.shape[1]), dtype=np.float32)


def predict_status_seq2seq(
    model: nn.Module, x: np.ndarray, batch_size: int = 256, threshold: float = 0.5
) -> np.ndarray:
    """Binary per-timestamp predictions of a seq2seq model, ``(N, L)``."""
    probs = predict_proba_seq2seq(model, x, batch_size)
    return (probs >= threshold).astype(np.float32)


# ----------------------------------------------------------------------
# Weak multiple-instance training (CRNN-weak)
# ----------------------------------------------------------------------
def train_weak_mil(
    model: nn.Module,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train a MIL model on weak (per-window) labels only.

    ``model.forward_weak`` maps ``(N, 1, L)`` to a pooled sequence logit
    ``(N,)``; frame-level predictions remain available through the model's
    ``forward`` for localization at test time.
    """
    arrays = [np.asarray(a, dtype=np.float32) for a in (x_train, y_train, x_val, y_val)]

    def loss_on(x: np.ndarray, y: np.ndarray) -> Tensor:
        return F.binary_cross_entropy_with_logits(
            model.forward_weak(Tensor(x[:, None, :])), y, pos_weight=config.pos_weight
        )

    return nn.plan.run_chain(_run_epochs(model, loss_on, *arrays, config))
