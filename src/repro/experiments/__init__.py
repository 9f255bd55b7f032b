"""``repro.experiments`` — runners regenerating every table and figure.

Paper table or figure -> runner:

* Table II  -> :mod:`repro.experiments.complexity`
* Table III -> :mod:`repro.experiments.weak_table`
* Table IV  -> :func:`repro.experiments.ablations.run_design_ablation`
* Fig. 1/5  -> :mod:`repro.experiments.label_sweep`
* Fig. 6a   -> :func:`repro.experiments.ablations.run_window_length`
* Fig. 6b   -> :mod:`repro.experiments.correlation`
* Fig. 6c   -> :func:`repro.experiments.ablations.run_ensemble_size`
* Fig. 7    -> :mod:`repro.experiments.scalability`
* Fig. 8    -> :mod:`repro.experiments.possession`
* Fig. 9    -> :mod:`repro.experiments.cost_analysis`
* Fig. 10   -> :mod:`repro.experiments.augmentation`
"""

from .ablations import (
    AblationResult,
    EnsembleSizeResult,
    WindowLengthResult,
    run_design_ablation,
    run_ensemble_size,
    run_window_length,
)
from .augmentation import Figure10Result, run_figure10
from .complexity import ComplexityResult, run_complexity_table
from .config import (
    BENCH,
    FAST,
    PAPER,
    PRESETS,
    Preset,
    TABLE3_CASES,
    get_preset,
    scaled,
    smoke_preset,
)
from .correlation import CorrelationResult, run_correlation
from .cost_analysis import CostResult, run_cost_analysis
from .label_sweep import LabelSweepResult, run_label_sweep
from .possession import (
    Figure8Result,
    PossessionRunResult,
    run_figure8,
    run_possession_pipeline,
)
from .reporting import render_dict, render_series, render_table
from .runner import (
    BASELINE_NAMES,
    CaseData,
    CaseResult,
    build_corpus,
    case_windows,
    case_windows_from_store,
    create_model,
    evaluate_status,
    fit_on_case,
    house_windows,
    run_camal,
    run_model,
)
from .scalability import (
    EpochTimeResult,
    ThroughputResult,
    TrainingTimeResult,
    run_epoch_times,
    run_throughput,
    run_training_times,
    white_noise_households,
)
from .weak_table import WeakTableResult, run_weak_table

__all__ = [
    "Preset",
    "PRESETS",
    "PAPER",
    "FAST",
    "BENCH",
    "get_preset",
    "scaled",
    "smoke_preset",
    "TABLE3_CASES",
    "BASELINE_NAMES",
    "CaseData",
    "CaseResult",
    "build_corpus",
    "case_windows",
    "case_windows_from_store",
    "house_windows",
    "create_model",
    "fit_on_case",
    "run_model",
    "run_camal",
    "evaluate_status",
    "run_weak_table",
    "WeakTableResult",
    "run_label_sweep",
    "LabelSweepResult",
    "run_design_ablation",
    "AblationResult",
    "run_window_length",
    "WindowLengthResult",
    "run_ensemble_size",
    "EnsembleSizeResult",
    "run_correlation",
    "CorrelationResult",
    "run_training_times",
    "TrainingTimeResult",
    "run_epoch_times",
    "EpochTimeResult",
    "run_throughput",
    "ThroughputResult",
    "white_noise_households",
    "run_possession_pipeline",
    "PossessionRunResult",
    "run_figure8",
    "Figure8Result",
    "run_figure10",
    "Figure10Result",
    "run_complexity_table",
    "ComplexityResult",
    "run_cost_analysis",
    "CostResult",
    "render_table",
    "render_series",
    "render_dict",
]
