"""``repro.core`` — CamAL, the paper's primary contribution.

* :mod:`repro.core.resnet` — the ResNet time-series classifier (Fig. 4);
* :mod:`repro.core.ensemble` — Algorithm 1 ensemble training/selection;
* :mod:`repro.core.cam` — class activation maps (Definition II.1);
* :mod:`repro.core.localization` — the CAM-attention localization pipeline;
* :mod:`repro.core.energy` — binary status -> power estimation (§IV-C);
* :mod:`repro.core.soft_labels` — soft-label augmentation (RQ5, §V-I).
"""

from .cam import cam_from_features, compute_cam, ensemble_cam, normalize_cam
from .energy import estimate_power, estimate_power_adaptive
from .ensemble import (
    EnsembleConfig,
    FusedForwardOutput,
    ResNetEnsemble,
    TrainedCandidate,
    train_ensemble,
)
from .localization import CamAL, LocalizationOutput, localize_double_forward
from .report import (
    Activation,
    ApplianceReport,
    analyze_series,
    household_report,
    merge_close_segments,
    report_from_status,
    segments_from_status,
)
from .resnet import (
    DEFAULT_FILTERS,
    DEFAULT_KERNEL_SET,
    ConvBlock,
    ResNetConfig,
    ResNetTSC,
    ResUnit,
)
from .soft_labels import SoftLabelSet, generate_soft_labels, mix_strong_and_soft

__all__ = [
    "ResNetTSC",
    "ResNetConfig",
    "ResUnit",
    "ConvBlock",
    "DEFAULT_KERNEL_SET",
    "DEFAULT_FILTERS",
    "compute_cam",
    "cam_from_features",
    "normalize_cam",
    "ensemble_cam",
    "EnsembleConfig",
    "FusedForwardOutput",
    "ResNetEnsemble",
    "TrainedCandidate",
    "train_ensemble",
    "CamAL",
    "LocalizationOutput",
    "localize_double_forward",
    "estimate_power",
    "estimate_power_adaptive",
    "Activation",
    "ApplianceReport",
    "analyze_series",
    "household_report",
    "report_from_status",
    "segments_from_status",
    "merge_close_segments",
    "SoftLabelSet",
    "generate_soft_labels",
    "mix_strong_and_soft",
]
