"""``repro.training`` — the training subsystem.

Grown out of the original single-file module into a package:

* :mod:`repro.training.config` — :class:`TrainConfig` (optimizer, LR
  schedule, checkpoint knobs) and :class:`TrainResult`;
* :mod:`repro.training.loops` — the three supervision loops
  (:func:`train_classifier`, :func:`train_seq2seq`,
  :func:`train_weak_mil`) on one resumable epoch engine, and
  :func:`classifier_steps`, the classifier loop one optimizer step per
  ``next()``;
* :mod:`repro.training.checkpoint` — bit-for-bit checkpoint/resume
  (model + optimizer + scheduler + RNG state in one ``.npz``).

Ensemble-level orchestration — including ``train_ensemble(n_workers=...)``,
which steps Algorithm 1's independent candidates on two lanes or fans
them over worker processes — lives in :mod:`repro.core.ensemble`, which
builds on these loops.

The public API of the old ``repro.training`` module is re-exported here
unchanged; ``from repro.training import train_classifier`` keeps working.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointCorruptionError,
    TrainingCheckpoint,
    capture_rng_state,
    checkpoint_exists,
    load_checkpoint,
    load_latest_checkpoint,
    restore_rng_state,
    save_checkpoint,
    state_dicts_equal,
)
from .config import OPTIMIZERS, SCHEDULERS, TrainConfig, TrainResult
from .loops import (
    classifier_steps,
    evaluate_classifier_loss,
    evaluate_seq2seq_loss,
    predict_proba,
    predict_proba_seq2seq,
    predict_status_seq2seq,
    train_classifier,
    train_seq2seq,
    train_weak_mil,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "OPTIMIZERS",
    "SCHEDULERS",
    "train_classifier",
    "classifier_steps",
    "train_seq2seq",
    "train_weak_mil",
    "evaluate_classifier_loss",
    "evaluate_seq2seq_loss",
    "predict_proba",
    "predict_proba_seq2seq",
    "predict_status_seq2seq",
    "TrainingCheckpoint",
    "CHECKPOINT_FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "CheckpointCorruptionError",
    "checkpoint_exists",
    "capture_rng_state",
    "restore_rng_state",
    "state_dicts_equal",
]
