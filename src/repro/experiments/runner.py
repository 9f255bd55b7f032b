"""Shared orchestration: corpus -> windows -> trained model -> metrics.

Every table/figure runner builds on these helpers so that data handling
(§V-B) and evaluation (§V-D, including the §IV-C power reconstruction
applied to *all* baselines) stay identical across experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import api
from .. import simdata as sd
from ..core import CamAL, estimate_power, train_ensemble
from ..metrics import balanced_accuracy, f1_score, mae, matching_ratio, precision_score, recall_score, rmse
from .config import Preset

#: Legacy spellings of the §V-C comparison methods (registry names are the
#: lower-cased versions; both work everywhere a method name is accepted).
BASELINE_NAMES = ("CRNN", "CRNN-weak", "BiGRU", "UNet-NILM", "TPNILM", "TransNILM")


def build_corpus(name: str, preset: Preset, seed: int = 0) -> sd.Corpus:
    """Instantiate a corpus at the preset's scale."""
    days = preset.corpus_days[name]
    if name == "ukdale":
        return sd.ukdale_like(days=days, seed=seed)
    if name == "refit":
        return sd.refit_like(days=days, seed=seed + 1)
    if name == "ideal":
        return sd.ideal_like(
            days=days, n_possession_only=preset.ideal_possession_houses, seed=seed + 2
        )
    if name == "edf_ev":
        return sd.edf_ev_like(days=days, seed=seed + 3)
    if name == "edf_weak":
        return sd.edf_weak_like(days=days, n_houses=preset.edf_weak_houses, seed=seed + 4)
    raise KeyError(f"unknown corpus {name!r}")


@dataclass
class CaseData:
    """Model-ready windows for one dataset x appliance case.

    The three pools are :class:`repro.simdata.WindowSet`-shaped; the
    store-backed path (:func:`case_windows_from_store`) fills them with
    :class:`repro.data.StreamingWindows`, whose arrays are bit-identical
    but stream from disk shards on demand.
    """

    corpus: str
    appliance: str
    train: sd.WindowSet
    val: sd.WindowSet
    test: sd.WindowSet

    @property
    def spec(self) -> sd.ApplianceSpec:
        return sd.get_spec(self.appliance)


def house_windows(
    corpus: sd.Corpus, appliance: str, house_id: str, window: int
) -> sd.WindowSet:
    """Preprocess one house for one appliance (ffill + slice + scale)."""
    spec = sd.get_spec(appliance)
    house = corpus.house(house_id)
    aggregate = sd.forward_fill(house.aggregate, corpus.max_ffill_samples)
    power = house.appliance_power.get(appliance)
    return sd.slice_windows(
        aggregate, power, spec.on_threshold_watts, window=window, house_id=house_id
    )


def case_windows(
    corpus: sd.Corpus, appliance: str, window: int, split_seed: int = 0
) -> CaseData:
    """Build the train/val/test window pools with house-level splits."""
    split = sd.split_houses(corpus, seed=split_seed)

    def pool(house_ids) -> sd.WindowSet:
        return sd.concat_window_sets(
            [house_windows(corpus, appliance, hid, window) for hid in house_ids]
        )

    return CaseData(
        corpus=corpus.name,
        appliance=appliance,
        train=pool(split.train),
        val=pool(split.val),
        test=pool(split.test),
    )


def case_windows_from_store(
    store, appliance: str, window: int, split_seed: int = 0
) -> CaseData:
    """Build a case from an ingested :class:`repro.data.MeterStore`.

    The store stands in for the corpus end to end: the manifest carries
    the submetered-house list, so :func:`repro.simdata.split_houses`
    produces the exact split of the in-memory path, and each pool is a
    :class:`~repro.data.StreamingWindows` whose windows and labels are
    bit-identical to :func:`case_windows` on the source corpus —
    ``fit_on_case`` / ``run_model`` / ``run_camal`` consume the result
    unchanged.
    """
    from ..data import StreamingWindows

    split = sd.split_houses(store, seed=split_seed)

    def pool(house_ids) -> "StreamingWindows":
        return StreamingWindows(
            store, appliance, house_ids=house_ids, window=window
        )

    return CaseData(
        corpus=store.name,
        appliance=appliance,
        train=pool(split.train),
        val=pool(split.val),
        test=pool(split.test),
    )


@dataclass
class CaseResult:
    """Metrics of one method on one case (the columns of Table III)."""

    method: str
    corpus: str
    appliance: str
    f1: float
    precision: float
    recall: float
    mae_watts: float
    rmse_watts: float
    matching_ratio: float
    balanced_accuracy: float = float("nan")  # detection score (CamAL only)
    train_seconds: float = 0.0
    n_labels: int = 0

    def row(self) -> Dict[str, float]:
        return {
            "F1": self.f1,
            "Pr": self.precision,
            "Rc": self.recall,
            "MAE": self.mae_watts,
            "RMSE": self.rmse_watts,
            "MR": self.matching_ratio,
        }


def evaluate_status(
    method: str,
    case: CaseData,
    status_pred: np.ndarray,
    train_seconds: float,
    n_labels: int,
    detection_pred: Optional[np.ndarray] = None,
) -> CaseResult:
    """Score per-timestamp predictions with §V-D metrics.

    Power reconstruction (§IV-C: ``min(ŝ * P_a, x)``) is applied uniformly,
    exactly as the paper applies it to every baseline before evaluating.
    """
    spec = case.spec
    power_pred = estimate_power(status_pred, spec.avg_power_watts, case.test.aggregate_watts)
    truth = case.test.strong
    bal = float("nan")
    if detection_pred is not None:
        bal = balanced_accuracy(case.test.weak, detection_pred)
    return CaseResult(
        method=method,
        corpus=case.corpus,
        appliance=case.appliance,
        f1=f1_score(truth, status_pred),
        precision=precision_score(truth, status_pred),
        recall=recall_score(truth, status_pred),
        mae_watts=mae(case.test.power_watts, power_pred),
        rmse_watts=rmse(case.test.power_watts, power_pred),
        matching_ratio=matching_ratio(case.test.power_watts, power_pred),
        balanced_accuracy=bal,
        train_seconds=train_seconds,
        n_labels=n_labels,
    )


# ----------------------------------------------------------------------
# CamAL
# ----------------------------------------------------------------------
def run_camal(
    case: CaseData,
    preset: Preset,
    seed: int = 0,
    use_attention: bool = True,
    power_gate: bool = True,
    kernel_set: Optional[Tuple[int, ...]] = None,
    n_models: Optional[int] = None,
    n_workers: int = 1,
    checkpoint_dir: Optional[str] = None,
) -> Tuple[CaseResult, CamAL]:
    """Train the CamAL ensemble on weak labels and evaluate localization.

    ``n_workers > 1`` trains the ensemble candidates in parallel worker
    processes (identical results, see :func:`repro.core.train_ensemble`);
    ``checkpoint_dir`` makes the run resumable per candidate.
    """
    config = preset.ensemble_config(seed)
    if kernel_set is not None:
        from dataclasses import replace

        config = replace(config, kernel_set=kernel_set)
    if n_models is not None:
        from dataclasses import replace

        config = replace(config, n_models=n_models)

    start = time.perf_counter()
    ensemble, _ = train_ensemble(
        case.train.inputs,
        case.train.weak,
        case.val.inputs,
        case.val.weak,
        config,
        n_workers=n_workers,
        checkpoint_dir=checkpoint_dir,
    )
    train_seconds = time.perf_counter() - start

    gate = case.spec.on_threshold_watts if power_gate else None
    camal = CamAL(ensemble, use_attention=use_attention, power_gate_watts=gate)
    output = camal.localize(case.test.inputs)
    result = evaluate_status(
        "CamAL",
        case,
        output.status,
        train_seconds,
        n_labels=len(case.train.weak),
        detection_pred=output.detected,
    )
    return result, camal


# ----------------------------------------------------------------------
# Baselines (registry-backed)
# ----------------------------------------------------------------------
def create_model(
    name: str, preset: Preset, seed: int = 0, **kwargs
) -> api.WeakLocalizer:
    """Instantiate an unfitted estimator at the preset's baseline scale.

    Thin registry lookup: the scale presets (``paper`` = Table II sizes,
    ``small``, ``tiny``) live in :mod:`repro.api.adapters`, the training
    loop settings come from the preset.
    """
    train = preset.train_config(preset.seq2seq_epochs, seed)
    return api.create(
        name, scale=preset.baseline_scale, seed=seed, train=train, **kwargs
    )


def fit_on_case(estimator: api.WeakLocalizer, case: CaseData) -> api.WeakLocalizer:
    """Fit an estimator on a case's train/val pools; returns it fitted.

    The weak/strong label routing lives in the estimator adapter
    (:meth:`~repro.api.WeakLocalizer.labels_for`), so this is the whole
    ritual — shared by :func:`run_model` and the CLI.
    """
    return estimator.fit(
        case.train.inputs,
        estimator.labels_for(case.train),
        case.val.inputs,
        estimator.labels_for(case.val),
    )


def run_model(
    name: str,
    case: CaseData,
    preset: Preset,
    seed: int = 0,
) -> CaseResult:
    """Train one registered model on the case and evaluate localization.

    Any registry name works, in legacy (``"CRNN-weak"``) or canonical
    (``"crnn-weak"``) spelling; ``"CamAL"`` routes to :func:`run_camal`
    so the ensemble uses the preset's Algorithm-1 configuration.
    """
    if api.canonical_name(name) == "camal":
        result, _ = run_camal(case, preset, seed=seed)
        return result
    estimator = fit_on_case(create_model(name, preset, seed), case)
    status = estimator.predict_status(case.test.inputs)
    return evaluate_status(
        name, case, status, estimator.train_seconds_, estimator.n_labels_
    )
