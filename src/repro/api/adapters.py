"""Estimator adapters: CamAL and every §V-C baseline behind one contract.

Three adapters cover the repo's methods:

* :class:`CamALLocalizer` — wraps Algorithm-1 ensemble training and the
  :class:`~repro.core.CamAL` pipeline (weak supervision);
* :class:`Seq2SeqLocalizer` — wraps a strongly supervised per-timestamp
  network (CRNN, BiGRU, UNet-NILM, TPNILM, TransNILM) around
  :func:`~repro.training.train_seq2seq`;
* :class:`WeakMILLocalizer` — the CRNN-weak variant: trains through
  :func:`~repro.training.train_weak_mil` on window labels, localizes from
  frame probabilities, and detects through linear-softmax MIL pooling.

The weak/strong *training routing* lives here — experiment runners no
longer branch on the method name.  The bottom of the module registers all
seven models with their Table-II (``paper``) and CPU-friendly
(``small``/``tiny``) scale presets; these presets replace the old lambda
tables of ``experiments/runner.py``.
"""

from __future__ import annotations

import time
from dataclasses import replace as dc_replace
from typing import List, Optional

import numpy as np

from .. import baselines as bl
from .. import nn
from ..core.ensemble import EnsembleConfig, TrainedCandidate, train_ensemble
from ..core.localization import CamAL, LocalizationOutput, on_status
from ..core.resnet import ensemble_conv_shapes
from ..simdata.preprocessing import SCALE_DIVISOR
from ..training import (
    TrainConfig,
    predict_proba_seq2seq,
    train_seq2seq,
    train_weak_mil,
)
from .base import NotFittedError, WeakLocalizer
from .registry import register


# ----------------------------------------------------------------------
# CamAL
# ----------------------------------------------------------------------
class CamALLocalizer(WeakLocalizer):
    """Algorithm-1 ensemble training + CAM localization as an estimator.

    ``fit`` runs :func:`repro.core.train_ensemble` (optionally across
    ``n_workers`` processes, resumable from ``checkpoint_dir``) and builds
    the :class:`~repro.core.CamAL` pipeline; inference delegates to it.
    A pre-built pipeline (e.g. from :func:`repro.core.train_ensemble`) can
    be wrapped directly via the ``pipeline`` argument.
    """

    name = "camal"
    supervision = "weak"

    def __init__(
        self,
        config: Optional[EnsembleConfig] = None,
        *,
        train: Optional[TrainConfig] = None,
        detection_threshold: float = 0.5,
        use_attention: bool = True,
        power_gate_watts: Optional[float] = None,
        status_threshold: float = 0.5,
        n_workers: int = 1,
        checkpoint_dir: Optional[str] = None,
        pipeline: Optional[CamAL] = None,
    ):
        super().__init__()
        config = config if config is not None else EnsembleConfig()
        if train is not None:
            config = dc_replace(config, train=train)
        self.config = config
        self.n_workers = n_workers
        self.checkpoint_dir = checkpoint_dir
        self.candidates_: List[TrainedCandidate] = []
        self.pipeline: Optional[CamAL] = pipeline
        if pipeline is not None:
            # Adopt the pipeline's own localization knobs.
            self._detection_threshold = pipeline.detection_threshold
            self._use_attention = pipeline.use_attention
            self._power_gate_watts = pipeline.power_gate_watts
            self._status_threshold = pipeline.status_threshold
            self._fitted = True
        else:
            self._detection_threshold = detection_threshold
            self._use_attention = use_attention
            self._power_gate_watts = power_gate_watts
            self._status_threshold = status_threshold

    # The localization knobs live on the wrapped CamAL once it exists;
    # these properties write through so mutating the estimator after
    # fit/load can never diverge from what localize() actually uses.
    def _knob(name):  # noqa: N805 - descriptor factory, not a method
        private = f"_{name}"

        def fget(self):
            return getattr(self, private)

        def fset(self, value):
            setattr(self, private, value)
            if self.pipeline is not None:
                setattr(self.pipeline, name, value)

        return property(fget, fset)

    detection_threshold = _knob("detection_threshold")
    use_attention = _knob("use_attention")
    power_gate_watts = _knob("power_gate_watts")
    status_threshold = _knob("status_threshold")
    del _knob

    def _require_pipeline(self) -> CamAL:
        if self.pipeline is None:
            raise NotFittedError(
                "this CamALLocalizer has no trained pipeline; call fit() "
                "or load() first"
            )
        return self.pipeline

    def fit(self, windows, labels, val_windows=None, val_labels=None):
        if val_windows is None:
            val_windows, val_labels = windows, labels
        start = time.perf_counter()
        ensemble, candidates = train_ensemble(
            windows,
            labels,
            val_windows,
            val_labels,
            self.config,
            n_workers=self.n_workers,
            checkpoint_dir=self.checkpoint_dir,
        )
        seconds = time.perf_counter() - start
        self.candidates_ = candidates
        self.pipeline = CamAL(
            ensemble,
            detection_threshold=self.detection_threshold,
            use_attention=self.use_attention,
            power_gate_watts=self.power_gate_watts,
            status_threshold=self.status_threshold,
        )
        self._mark_fitted(self.label_count(labels), seconds)
        return self

    def detect(self, x, batch_size: int = 256):
        return self._require_pipeline().detect(
            np.asarray(x, dtype=np.float32), batch_size
        )

    def localize(self, x, batch_size: int = 256) -> LocalizationOutput:
        return self._require_pipeline().localize(x, batch_size)

    def eval(self):
        if self.pipeline is not None:
            self.pipeline.ensemble.eval()
        return self

    def num_parameters(self) -> int:
        return 0 if self.pipeline is None else self.pipeline.ensemble.num_parameters()

    def save(self, directory: str) -> None:
        from .persistence import save_estimator

        save_estimator(self, directory)


# ----------------------------------------------------------------------
# Strongly supervised sequence-to-sequence baselines
# ----------------------------------------------------------------------
class Seq2SeqLocalizer(WeakLocalizer):
    """A per-timestamp network (frame logits ``(N, L)``) as an estimator.

    ``fit`` trains with frame-level BCE on strong labels
    (:func:`~repro.training.train_seq2seq`).  ``localize`` reads the frame
    sigmoid probabilities: they fill both the ``soft_status`` and ``cam``
    slots of :class:`~repro.core.LocalizationOutput` (the baselines have
    no separate class-activation map), the window detection probability is
    their per-window maximum, and ``status`` thresholds the frames exactly
    like :func:`~repro.training.predict_status_seq2seq`.
    """

    supervision = "strong"

    def __init__(
        self,
        name: str,
        network: nn.Module,
        config,
        *,
        train: Optional[TrainConfig] = None,
        detection_threshold: float = 0.5,
        status_threshold: float = 0.5,
        power_gate_watts: Optional[float] = None,
    ):
        super().__init__()
        self.name = name
        self.network = network
        self.config = config
        self.train_config = (
            train if train is not None else TrainConfig(seed=getattr(config, "seed", 0))
        )
        self.detection_threshold = detection_threshold
        self.status_threshold = status_threshold
        self.power_gate_watts = power_gate_watts

    # -- training ---------------------------------------------------------
    def _train(self, windows, labels, val_windows, val_labels) -> None:
        train_seq2seq(
            self.network, windows, labels, val_windows, val_labels, self.train_config
        )

    def fit(self, windows, labels, val_windows=None, val_labels=None):
        if val_windows is None:
            val_windows, val_labels = windows, labels
        start = time.perf_counter()
        self._train(windows, labels, val_windows, val_labels)
        seconds = time.perf_counter() - start
        self.network.eval()
        self._mark_fitted(self.label_count(labels), seconds)
        return self

    # -- inference --------------------------------------------------------
    def _frame_probs(self, x: np.ndarray, batch_size: int) -> np.ndarray:
        """Per-timestamp sigmoid probabilities ``(N, L)``."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"expected (N, L) windows, got shape {x.shape}")
        return predict_proba_seq2seq(self.network, x, batch_size)

    def _window_proba(self, frame_probs: np.ndarray) -> np.ndarray:
        """Window detection probability from frame probabilities."""
        if len(frame_probs) == 0:
            return np.zeros(0, dtype=np.float32)
        return frame_probs.max(axis=1)

    def detect(self, x, batch_size: int = 256):
        return self._window_proba(self._frame_probs(x, batch_size))

    def localize(self, x, batch_size: int = 256) -> LocalizationOutput:
        x = np.asarray(x, dtype=np.float32)
        soft = self._frame_probs(x, batch_size)
        proba = self._window_proba(soft)
        gate = self.power_gate_watts
        return LocalizationOutput(
            detection_proba=proba,
            detected=proba > self.detection_threshold,
            cam=soft,
            soft_status=soft,
            # x is the /1000-scaled aggregate, so the gate is scaled to match.
            status=on_status(
                soft, self.status_threshold, x,
                None if gate is None else gate / SCALE_DIVISOR,
            ),
        )

    def eval(self):
        self.network.eval()
        return self

    def num_parameters(self) -> int:
        return self.network.num_parameters()

    def save(self, directory: str) -> None:
        from .persistence import save_estimator

        save_estimator(self, directory)


class WeakMILLocalizer(Seq2SeqLocalizer):
    """CRNN-weak: multiple-instance learning on window labels.

    Training pools frame probabilities into one sequence probability with
    linear softmax pooling (``p_seq = Σp² / Σp``) and applies window-level
    BCE only (:func:`~repro.training.train_weak_mil`); detection uses the
    same pooling, and localization still reads the frame probabilities.
    """

    supervision = "weak"

    def _train(self, windows, labels, val_windows, val_labels) -> None:
        train_weak_mil(
            self.network, windows, labels, val_windows, val_labels, self.train_config
        )

    def _window_proba(self, frame_probs: np.ndarray) -> np.ndarray:
        if len(frame_probs) == 0:
            return np.zeros(0, dtype=np.float32)
        eps = 1e-6
        pooled = (frame_probs * frame_probs).sum(axis=1) / (
            frame_probs.sum(axis=1) + eps
        )
        return np.clip(pooled, 0.0, 1.0).astype(np.float32)


# ----------------------------------------------------------------------
# Registry entries: names, configs and the Table-II / small / tiny scales
# ----------------------------------------------------------------------
def _camal_factory(config, train=None, **kwargs):
    return CamALLocalizer(config, train=train, **kwargs)


def _network_factory(name: str, estimator_cls: type, network_cls: type):
    def build(config, train=None, **kwargs):
        return estimator_cls(name, network_cls(config), config, train=train, **kwargs)

    return build


#: ``paper`` scales are the config-dataclass defaults (Table II sizes).
_BASELINE_SCALES = {
    "crnn": {
        "paper": {},
        "small": {"conv_channels": (16, 32, 32), "hidden_size": 32},
        "tiny": {"conv_channels": (8, 16, 16), "hidden_size": 16},
    },
    "bigru": {
        "paper": {},
        "small": {"conv_channels": 16, "hidden_size": 24},
        "tiny": {"conv_channels": 8, "hidden_size": 12},
    },
    "unet-nilm": {
        "paper": {},
        "small": {"channels": (8, 16, 32), "bottleneck": 64},
        "tiny": {"channels": (8, 16, 16), "bottleneck": 32},
    },
    "tpnilm": {
        "paper": {},
        "small": {"channels": (16, 32, 64)},
        "tiny": {"channels": (8, 16, 32)},
    },
    "transnilm": {
        "paper": {},
        "small": {"embed_dim": 32, "num_heads": 4, "num_layers": 1, "ff_dim": 64},
        "tiny": {"embed_dim": 16, "num_heads": 2, "num_layers": 1, "ff_dim": 32},
    },
}

register(
    "camal",
    config_cls=EnsembleConfig,
    factory=_camal_factory,
    supervision="weak",
    conv_shapes=lambda cfg: ensemble_conv_shapes(cfg.filters, cfg.kernel_set),
    description="CamAL: ResNet detection ensemble + CAM localization (the paper's method)",
    scales={
        "paper": {
            "kernel_set": (5, 7, 9, 15, 25),
            "n_trials": 3,
            "n_models": 5,
            "filters": (64, 128, 128),
        },
        "small": {
            "kernel_set": (3, 5, 9),
            "n_trials": 1,
            "n_models": 3,
            "filters": (32, 64, 64),
        },
        "tiny": {
            "kernel_set": (3, 9),
            "n_trials": 1,
            "n_models": 2,
            "filters": (16, 32, 32),
        },
    },
)

register(
    "crnn",
    config_cls=bl.CRNNConfig,
    network_cls=bl.CRNN,
    factory=_network_factory("crnn", Seq2SeqLocalizer, bl.CRNN),
    supervision="strong",
    description="CRNN (Tanoni et al. 2023), frame-level BCE on strong labels",
    scales=_BASELINE_SCALES["crnn"],
)

register(
    "crnn-weak",
    config_cls=bl.CRNNConfig,
    network_cls=bl.CRNN,
    factory=_network_factory("crnn-weak", WeakMILLocalizer, bl.CRNN),
    supervision="weak",
    description="CRNN-weak: MIL linear-softmax pooling on window labels",
    scales=_BASELINE_SCALES["crnn"],
)

register(
    "bigru",
    config_cls=bl.BiGRUConfig,
    network_cls=bl.BiGRUNILM,
    factory=_network_factory("bigru", Seq2SeqLocalizer, bl.BiGRUNILM),
    supervision="strong",
    description="BiGRU (Precioso & Gomez-Ullate 2023), conv + biGRU seq2seq",
    scales=_BASELINE_SCALES["bigru"],
)

register(
    "unet-nilm",
    config_cls=bl.UNetConfig,
    network_cls=bl.UNetNILM,
    factory=_network_factory("unet-nilm", Seq2SeqLocalizer, bl.UNetNILM),
    supervision="strong",
    description="UNet-NILM (Faustine et al. 2020), encoder/decoder seq2seq",
    scales=_BASELINE_SCALES["unet-nilm"],
)

register(
    "tpnilm",
    config_cls=bl.TPNILMConfig,
    network_cls=bl.TPNILM,
    factory=_network_factory("tpnilm", Seq2SeqLocalizer, bl.TPNILM),
    supervision="strong",
    description="TPNILM (Massidda et al. 2020), temporal-pooling seq2seq",
    scales=_BASELINE_SCALES["tpnilm"],
)

register(
    "transnilm",
    config_cls=bl.TransNILMConfig,
    network_cls=bl.TransNILM,
    factory=_network_factory("transnilm", Seq2SeqLocalizer, bl.TransNILM),
    supervision="strong",
    description="TransNILM, transformer encoder + temporal pooling seq2seq",
    scales=_BASELINE_SCALES["transnilm"],
)

#: Legacy experiment-runner spellings -> registry names (all lower-case
#: already canonicalizes ``"CRNN-weak"`` etc.; kept for documentation).
LEGACY_NAMES = {
    "CRNN": "crnn",
    "CRNN-weak": "crnn-weak",
    "BiGRU": "bigru",
    "UNet-NILM": "unet-nilm",
    "TPNILM": "tpnilm",
    "TransNILM": "transnilm",
    "CamAL": "camal",
}
