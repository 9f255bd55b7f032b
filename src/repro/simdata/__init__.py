"""``repro.simdata`` — synthetic smart-meter data substrate.

Replaces the UK-DALE / REFIT / IDEAL / EDF recordings (unavailable offline)
with a parametric household simulator whose corpora match the papers' house
counts, sampling rates, bounded forward-fill budgets, ON-power thresholds
and average powers (Table I).
"""

from .appliances import APPLIANCES, ApplianceSpec, get_spec
from .corpora import (
    CORPUS_BUILDERS,
    Corpus,
    edf_ev_like,
    edf_weak_like,
    ideal_like,
    refit_like,
    ukdale_like,
)
from .household import (
    HouseholdConfig,
    HouseholdTrace,
    simulate_appliance_channel,
    simulate_base_load,
    simulate_household,
)
from .labels import (
    LabelBudget,
    label_sweep_sizes,
    possession_budget,
    replicate_possession_label,
    strong_budget,
    subset_windows,
    weak_budget,
)
from .preprocessing import (
    DEFAULT_WINDOW,
    SCALE_DIVISOR,
    WindowSet,
    concat_window_sets,
    forward_fill,
    on_status,
    resample_average,
    scale_aggregate,
    slice_windows,
)
from .signatures import SIGNATURES, generate_activation
from .splits import HouseSplit, possession_split, split_houses

__all__ = [
    "APPLIANCES",
    "ApplianceSpec",
    "get_spec",
    "SIGNATURES",
    "generate_activation",
    "HouseholdConfig",
    "HouseholdTrace",
    "simulate_household",
    "simulate_appliance_channel",
    "simulate_base_load",
    "Corpus",
    "CORPUS_BUILDERS",
    "ukdale_like",
    "refit_like",
    "ideal_like",
    "edf_ev_like",
    "edf_weak_like",
    "WindowSet",
    "slice_windows",
    "concat_window_sets",
    "forward_fill",
    "resample_average",
    "on_status",
    "scale_aggregate",
    "SCALE_DIVISOR",
    "DEFAULT_WINDOW",
    "LabelBudget",
    "strong_budget",
    "weak_budget",
    "possession_budget",
    "subset_windows",
    "replicate_possession_label",
    "label_sweep_sizes",
    "HouseSplit",
    "split_houses",
    "possession_split",
]
