"""Command-line interface: regenerate paper artifacts, or train pipelines.

Usage::

    python -m repro table3 --preset bench
    python -m repro fig8 --preset fast
    python -m repro report --preset fast        # serving-engine demo
    python -m repro report --model tpnilm@tiny  # serve a baseline instead
    python -m repro all --preset bench          # everything, in order
    python -m repro models                      # list registered models
    python -m repro train --appliance kettle --workers 4 \
        --checkpoint-dir ckpts/kettle --out models/kettle
    python -m repro train --model crnn@small --out models/kettle-crnn
    python -m repro data ingest --corpus ukdale --days 7 --out stores/ukdale
    python -m repro data info stores/ukdale
    python -m repro data windows stores/ukdale --appliance kettle
    python -m repro data verify stores/ukdale --quarantine

Each experiment subcommand prints the same rows/series the paper
reports; ``report`` trains per-appliance pipelines and serves an unseen
household through the :class:`repro.serving.InferenceEngine`; ``models``
lists every estimator in the :mod:`repro.api` registry with its scale
presets; ``train`` fits one appliance model — CamAL (Algorithm 1,
optionally across worker processes and resumable from per-candidate
checkpoints) or any registered baseline via ``--model <name>@<scale>`` —
and persists it for ``InferenceEngine.load`` (see ``docs/training.md``
and ``docs/api.md``); ``data`` manages :mod:`repro.data` meter stores —
``ingest`` builds a sharded store from a corpus or CSV directory,
``info`` prints its manifest, ``windows`` counts streamable training
windows per household, ``verify`` re-hashes every shard against its
manifest checksum (see ``docs/data.md`` and ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from . import api
from . import experiments as ex


def _table2(preset: ex.Preset, seed: int) -> str:
    return ex.run_complexity_table().render()


def _table3(preset: ex.Preset, seed: int) -> str:
    cases = [
        ("ukdale", "kettle"),
        ("ukdale", "dishwasher"),
        ("refit", "kettle"),
        ("edf_ev", "electric_vehicle"),
    ]
    return ex.run_weak_table(preset, cases=cases, seed=seed).render()


def _table4(preset: ex.Preset, seed: int) -> str:
    return ex.run_design_ablation(
        preset, corpus_name="ukdale", appliances=["kettle", "dishwasher"], seed=seed
    ).render()


def _fig5(preset: ex.Preset, seed: int) -> str:
    result = ex.run_label_sweep(
        "ukdale", "kettle", preset,
        methods=["CamAL", "CRNN-weak", "TPNILM"], n_points=3, seed=seed,
    )
    factors = result.label_factor_to_match_camal()
    return result.render() + f"\n  label factors to match CamAL: {factors}"


def _fig6a(preset: ex.Preset, seed: int) -> str:
    windows = (preset.window // 2, preset.window, preset.window * 2)
    return ex.run_window_length(
        "ukdale", "kettle", preset, train_windows=windows, seed=seed
    ).render()


def _fig6b(preset: ex.Preset, seed: int) -> str:
    cases = [
        ("ukdale", "kettle"),
        ("ukdale", "dishwasher"),
        ("ukdale", "microwave"),
        ("edf_ev", "electric_vehicle"),
    ]
    return ex.run_correlation(preset, cases=cases, seed=seed).render()


def _fig6c(preset: ex.Preset, seed: int) -> str:
    return ex.run_ensemble_size(
        preset, corpus_name="ukdale", appliances=["kettle"], sizes=(1, 3, 5), seed=seed
    ).render()


def _fig7(preset: ex.Preset, seed: int) -> str:
    parts = [
        ex.run_training_times(
            preset, [("ukdale", "kettle")], methods=["CamAL", "CRNN-weak", "TPNILM"],
            seed=seed,
        ).render(),
        ex.run_epoch_times(
            preset, (1, 2), methods=["CamAL", "TPNILM"],
            series_length=preset.window * 8, seed=seed,
        ).render(),
        ex.run_throughput(
            preset, (preset.window, preset.window * 2),
            methods=["CamAL", "CRNN-weak", "TPNILM"], n_windows=8, seed=seed,
        ).render(),
    ]
    return "\n\n".join(parts)


def _fig8(preset: ex.Preset, seed: int) -> str:
    edf_weak = ex.build_corpus("edf_weak", preset, seed)
    edf_ev = ex.build_corpus("edf_ev", preset, seed)
    return ex.run_figure8(
        edf_weak, edf_ev, "electric_vehicle", preset,
        window_candidates=(preset.window,), seed=seed,
    ).render()


def _fig9(preset: ex.Preset, seed: int) -> str:
    return ex.run_cost_analysis().render()


def _fig10(preset: ex.Preset, seed: int) -> str:
    edf_weak = ex.build_corpus("edf_weak", preset, seed)
    edf_ev = ex.build_corpus("edf_ev", preset, seed)
    possession = ex.run_possession_pipeline(
        edf_weak, edf_ev, "electric_vehicle", preset,
        window_candidates=(preset.window,), seed=seed,
    )
    return ex.run_figure10(
        possession.camal, edf_ev, preset,
        methods=["TPNILM", "BiGRU"], mixes=((0, 8), (2, 6), (4, 4)), seed=seed,
    ).render()


def _fit_case_estimator(
    model: str, scale: Optional[str], case: "ex.CaseData", preset: ex.Preset, seed: int
) -> api.WeakLocalizer:
    """Create a registry estimator for a case and fit it (weak or strong)."""
    is_camal = api.canonical_name(model) == "camal"
    epochs = preset.clf_epochs if is_camal else preset.seq2seq_epochs
    estimator = api.create(
        model,
        scale=scale or preset.baseline_scale,
        seed=seed,
        train=preset.train_config(epochs, seed),
        power_gate_watts=case.spec.on_threshold_watts,
    )
    return ex.fit_on_case(estimator, case)


def _report(preset: ex.Preset, seed: int, model: Optional[str] = None) -> str:
    """DeviceScope-style household report served by the InferenceEngine.

    ``model`` is an optional registry spec (``name[@scale]``); the default
    serves CamAL pipelines trained through :func:`ex.run_camal`.
    """
    from . import simdata as sd
    from .core import report_from_status
    from .serving import EngineConfig, InferenceEngine

    corpus = ex.build_corpus("ukdale", preset, seed)
    split = sd.split_houses(corpus, seed=seed)
    house = corpus.house(split.test[0])

    engine = InferenceEngine(
        EngineConfig(
            window=preset.window,
            stride=max(1, preset.window // 2),
            cache_size=4096,
        )
    )
    name, scale = api.parse_model_spec(model) if model else ("camal", None)
    for appliance in ("kettle", "dishwasher"):
        case = ex.case_windows(corpus, appliance, preset.window, split_seed=seed)
        if model is None:
            _, pipeline = ex.run_camal(case, preset, seed=seed)
        else:
            pipeline = _fit_case_estimator(name, scale, case, preset, seed)
        engine.register(appliance, pipeline)

    aggregate = sd.forward_fill(house.aggregate, corpus.max_ffill_samples)
    aggregate = np.nan_to_num(aggregate, nan=0.0)
    inference = engine.run(aggregate)

    plan = inference.plan
    parts = [
        f"Household {house.house_id}: {inference.n_samples} samples served as "
        f"{plan.n_windows} windows (window={plan.window}, stride={plan.stride}, "
        f"model={name if model else 'camal'})"
    ]
    for appliance, result in inference:
        report = report_from_status(
            appliance, result.status, aggregate, house.dt_seconds,
            min_activation_samples=2, merge_gap_samples=2,
        )
        parts.append(report.render())
        parts.append(f"  windows detected   : {result.detection_rate:.0%}")
    return "\n".join(parts)


def run_models_listing() -> str:
    """Render the ``repro models`` table from the registry."""
    rows = []
    for name in api.available_models():
        entry = api.get_entry(name)
        rows.append(
            [name, entry.supervision, "/".join(sorted(entry.scales)), entry.description]
        )
    return ex.render_table(
        ["Model", "Supervision", "Scales", "Description"],
        rows,
        title="Registered estimators (repro.api) — use with --model <name>[@<scale>]",
    )


COMMANDS: Dict[str, Callable[[ex.Preset, int], str]] = {
    "report": _report,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig5": _fig5,
    "fig6a": _fig6a,
    "fig6b": _fig6b,
    "fig6c": _fig6c,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the CamAL paper.",
        epilog="additional subcommands: 'repro train [...]' — train and "
        "persist one appliance model (own flags; see 'repro train --help' "
        "and docs/training.md); 'repro models' — list every registered "
        "estimator and its scale presets (docs/api.md); 'repro data "
        "ingest|info|windows|verify' — build, inspect and checksum-verify "
        "sharded meter stores (docs/data.md, docs/robustness.md)",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all"],
        help="which table/figure to regenerate (or 'report' for the "
        "serving-engine household demo)",
    )
    parser.add_argument(
        "--preset",
        default="bench",
        choices=sorted(ex.PRESETS),
        help="scale preset (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--model",
        default=None,
        metavar="NAME[@SCALE]",
        help="registry model served by the 'report' command "
        "(default: camal; see 'repro models')",
    )
    return parser


def build_train_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro train`` subcommand."""
    from .training.config import SCHEDULERS

    parser = argparse.ArgumentParser(
        prog="repro train",
        description="Train one appliance model — CamAL (Algorithm 1, the "
        "default) or any registered estimator — and persist it for "
        "InferenceEngine.load.",
    )
    parser.add_argument("--corpus", default="ukdale", help="corpus name (default: ukdale)")
    parser.add_argument("--appliance", default="kettle", help="target appliance")
    parser.add_argument(
        "--model",
        default="camal",
        metavar="NAME[@SCALE]",
        help="registry model to train (default: camal; scale defaults to "
        "the preset's baseline scale — see 'repro models')",
    )
    parser.add_argument(
        "--preset",
        default="bench",
        choices=sorted(ex.PRESETS),
        help="scale preset (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for candidate training (1 = serial; results "
        "are identical for any value)",
    )
    parser.add_argument(
        "--epochs", type=int, default=None, help="override the preset's epoch count"
    )
    parser.add_argument(
        "--scheduler",
        default="none",
        choices=SCHEDULERS,
        help="LR schedule applied inside each candidate's training loop",
    )
    parser.add_argument(
        "--warmup-epochs",
        type=int,
        default=0,
        help="linear-warmup epochs (warmup_cosine scheduler only)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-candidate resumable checkpoints",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing checkpoints and retrain from scratch",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to persist the trained model (manifest layout, "
        "loadable with repro.api.load_estimator / InferenceEngine.load)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-epoch train/val losses and learning rate",
    )
    return parser


def _run_train_camal(
    args: argparse.Namespace,
    case: "ex.CaseData",
    preset: ex.Preset,
    scale: Optional[str],
) -> str:
    """``repro train`` for CamAL: Algorithm 1 with workers + checkpoints."""
    from dataclasses import replace

    from .core import CamAL, train_ensemble

    config = preset.ensemble_config(args.seed)
    if scale is not None:
        # Named registry scale overrides the preset's ensemble shape; the
        # preset keeps supplying the training-loop settings.
        shaped = api.get_entry("camal").config(scale=scale, seed=args.seed)
        config = replace(shaped, train=config.train)
    train_cfg = replace(
        config.train,
        epochs=args.epochs if args.epochs is not None else config.train.epochs,
        scheduler=args.scheduler,
        warmup_epochs=args.warmup_epochs,
        resume=not args.no_resume,
        verbose=args.progress,
    )
    config = replace(config, train=train_cfg)

    start = time.perf_counter()
    ensemble, candidates = train_ensemble(
        case.train.inputs,
        case.train.weak,
        case.val.inputs,
        case.val.weak,
        config,
        n_workers=max(args.workers, 1),
        checkpoint_dir=args.checkpoint_dir,
    )
    wall = time.perf_counter() - start

    camal = CamAL(ensemble, power_gate_watts=case.spec.on_threshold_watts)
    lines = [
        f"Trained camal for {args.appliance} on {args.corpus} "
        f"(preset={preset.name}, workers={max(args.workers, 1)})",
        f"  candidates        : {len(candidates)} "
        f"(kernels {tuple(config.kernel_set)}, {config.n_trials} trial(s) each)",
        f"  selected ensemble : {len(ensemble)} members, "
        f"kernels {tuple(ensemble.kernel_sizes)}",
        f"  best val loss     : {min(c.val_loss for c in candidates):.4f}",
        f"  wall time         : {wall:.1f}s",
    ]
    if args.checkpoint_dir:
        lines.append(f"  checkpoints       : {args.checkpoint_dir}")
    if args.out:
        # Wrap in the estimator so the manifest records label consumption.
        estimator = api.CamALLocalizer(pipeline=camal)
        estimator.n_labels_ = len(case.train.weak)
        estimator.save(args.out)
        lines.append(f"  pipeline saved to : {args.out}")
    return "\n".join(lines)


def _run_train_estimator(
    name: str,
    scale: Optional[str],
    args: argparse.Namespace,
    case: "ex.CaseData",
    preset: ex.Preset,
) -> str:
    """``repro train`` for any non-CamAL registry model."""
    import os
    from dataclasses import replace

    scale = scale or preset.baseline_scale
    train_cfg = preset.train_config(preset.seq2seq_epochs, args.seed)
    train_cfg = replace(
        train_cfg,
        epochs=args.epochs if args.epochs is not None else train_cfg.epochs,
        scheduler=args.scheduler,
        warmup_epochs=args.warmup_epochs,
        resume=not args.no_resume,
        verbose=args.progress,
        checkpoint_path=(
            os.path.join(args.checkpoint_dir, f"{name}.npz")
            if args.checkpoint_dir
            else None
        ),
    )
    estimator = api.create(
        name,
        scale=scale,
        seed=args.seed,
        train=train_cfg,
        power_gate_watts=case.spec.on_threshold_watts,
    )
    ex.fit_on_case(estimator, case)
    lines = [
        f"Trained {name}@{scale} for {args.appliance} on {args.corpus} "
        f"(preset={preset.name}, supervision={estimator.supervision})",
        f"  parameters        : {estimator.num_parameters()}",
        f"  labels consumed   : {estimator.n_labels_} "
        f"({'one per window' if estimator.supervision == 'weak' else 'one per timestamp'})",
        f"  wall time         : {estimator.train_seconds_:.1f}s",
    ]
    if args.workers > 1:
        lines.append("  note              : --workers applies to CamAL only")
    if args.checkpoint_dir:
        lines.append(f"  checkpoints       : {args.checkpoint_dir}")
    if args.out:
        estimator.save(args.out)
        lines.append(f"  estimator saved to: {args.out}")
    return "\n".join(lines)


def build_data_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro data`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro data",
        description="Manage sharded on-disk meter stores (repro.data): "
        "ingest a corpus or CSV directory once, then train and serve from "
        "the memory-mapped shards (see docs/data.md).",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    ingest = sub.add_parser(
        "ingest", help="preprocess + shard a corpus or CSV directory"
    )
    source = ingest.add_mutually_exclusive_group(required=True)
    from .simdata import CORPUS_BUILDERS

    source.add_argument(
        "--corpus",
        choices=sorted(CORPUS_BUILDERS),
        help="simulated Table-I corpus to ingest (hermetic path)",
    )
    source.add_argument(
        "--csv",
        metavar="DIR",
        help="CSV directory layout (one sub-directory per household with "
        "aggregate.csv + <appliance>.csv channels)",
    )
    ingest.add_argument("--out", required=True, help="store directory to create")
    ingest.add_argument(
        "--days", type=float, default=7.0, help="recording length per simulated house"
    )
    ingest.add_argument(
        "--houses", type=int, default=None, help="house count override (corpus mode)"
    )
    ingest.add_argument("--seed", type=int, default=0, help="corpus simulation seed")
    ingest.add_argument(
        "--dt-seconds",
        type=float,
        default=None,
        help="sampling period of the CSV series (csv mode, required there)",
    )
    ingest.add_argument(
        "--resample",
        type=int,
        default=1,
        metavar="FACTOR",
        help="integer resample factor applied at ingest (interval averaging)",
    )
    ingest.add_argument(
        "--max-ffill",
        type=int,
        default=None,
        help="forward-fill bound in post-resample samples (default: the "
        "corpus's Table-I budget; required for --csv)",
    )
    ingest.add_argument(
        "--shard-length",
        type=int,
        default=None,
        help="samples per shard (default: 65536)",
    )
    ingest.add_argument(
        "--workers", type=int, default=1, help="households ingested in parallel"
    )
    ingest.add_argument(
        "--drop-tail",
        action="store_true",
        help="drop the partial trailing resample block instead of averaging it",
    )

    info = sub.add_parser("info", help="print a store's manifest summary")
    info.add_argument("store", help="store directory")

    windows = sub.add_parser(
        "windows", help="count streamable training windows per household"
    )
    windows.add_argument("store", help="store directory")
    windows.add_argument("--appliance", required=True, help="target appliance")
    windows.add_argument(
        "--window", type=int, default=None,
        help="window length w (default: the paper's 510)",
    )
    windows.add_argument(
        "--houses", default=None,
        help="comma-separated household subset (default: all)",
    )

    verify = sub.add_parser(
        "verify",
        help="re-hash every shard against its manifest checksum "
        "(exits non-zero on corruption)",
    )
    verify.add_argument("store", help="store directory")
    verify.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt shards aside so reads fail fast; repair with "
        "repro.data.repair_household_from_source",
    )
    return parser


def _run_data_ingest(args: argparse.Namespace) -> str:
    from . import data, simdata as sd

    kwargs = {}
    for field, value in (
        ("resample_factor", args.resample),
        ("max_ffill_samples", args.max_ffill),
        ("shard_length", args.shard_length),
        ("n_workers", args.workers),
    ):
        if value is not None:
            kwargs[field] = value
    config = data.IngestConfig(keep_tail=not args.drop_tail, **kwargs)

    start = time.perf_counter()
    if args.corpus:
        import inspect

        builder = sd.CORPUS_BUILDERS[args.corpus]
        builder_kwargs = {"days": args.days, "seed": args.seed}
        if args.houses is not None:
            if "n_houses" not in inspect.signature(builder).parameters:
                raise SystemExit(
                    f"--houses is not supported by the {args.corpus!r} builder"
                )
            builder_kwargs["n_houses"] = args.houses
        corpus = builder(**builder_kwargs)
        store = data.ingest_corpus(corpus, args.out, config)
    else:
        if args.dt_seconds is None or args.max_ffill is None:
            raise SystemExit("--csv ingest requires --dt-seconds and --max-ffill")
        store = data.ingest_csv_dir(
            args.csv, args.out, args.dt_seconds, args.max_ffill, config=config
        )
    wall = time.perf_counter() - start
    total = store.total_samples()
    return "\n".join(
        [
            f"Ingested {store.name!r} into {args.out}",
            f"  households        : {len(store)}",
            f"  samples           : {total} "
            f"({total / max(wall, 1e-9):,.0f} samples/s over {wall:.1f}s)",
            f"  shard length      : {store.shard_length}",
            f"  provenance        : {store.preprocessing}",
        ]
    )


def _run_data_info(args: argparse.Namespace) -> str:
    from .data import MeterStore

    store = MeterStore(args.store)
    rows = []
    for hid, meta in store.households.items():
        rows.append(
            [
                hid,
                str(meta.n_samples),
                str(meta.n_shards),
                "/".join(meta.submetered) or "-",
                str(sum(meta.possession.values())),
            ]
        )
    table = ex.render_table(
        ["House", "Samples", "Shards", "Submetered", "Owned"],
        rows,
        title=f"Store {store.name!r} (format {store.manifest['format']}) — "
        f"dt={store.dt_seconds:g}s, shard={store.shard_length}, "
        f"targets: {', '.join(store.target_appliances)}",
    )
    return table + f"\npreprocessing: {store.preprocessing}"


def _run_data_windows(args: argparse.Namespace) -> str:
    from .data import MeterStore, StreamingWindows
    from .simdata.preprocessing import DEFAULT_WINDOW

    from .simdata.preprocessing import on_status

    store = MeterStore(args.store)
    window = args.window or DEFAULT_WINDOW
    house_ids = args.houses.split(",") if args.houses else store.house_ids
    rows = []
    n_valid = 0
    for hid in house_ids:
        ws = StreamingWindows(store, args.appliance, house_ids=[hid], window=window)
        total = store.n_samples(hid) // window
        # Weak labels need only the power channel — skip the aggregate
        # reads/scaling a full __getitem__ would pay per window.
        positives = sum(
            bool(on_status(ws.power_window(i), ws.threshold_watts).max())
            for i in range(len(ws))
        )
        n_valid += len(ws)
        rows.append([hid, str(total), str(len(ws)), str(total - len(ws)), str(positives)])
    table = ex.render_table(
        ["House", "Windows", "Valid", "Gap-dropped", "Positive"],
        rows,
        title=f"Streamable windows — appliance={args.appliance}, w={window}",
    )
    return table + (
        f"\npooled: {n_valid} windows "
        f"({n_valid} weak / {n_valid * window} strong labels)"
    )


def _run_data_verify(args: argparse.Namespace) -> str:
    """``repro data verify``: the manifest's checksum, then every shard's.

    Raises ``SystemExit`` carrying the report when corruption is found, so
    the process exits non-zero — CI can gate on store integrity directly.
    """
    from .data import ManifestError, MeterStore

    try:
        store = MeterStore(args.store)
    except (ManifestError, ValueError) as exc:  # a bad manifest, or another format
        raise SystemExit(str(exc)) from None
    start = time.perf_counter()
    bad = store.verify(quarantine=args.quarantine)
    wall = time.perf_counter() - start
    n_shards = sum(meta.n_shards for meta in store.households.values())
    header = (
        f"Verified {n_shards} shard(s) across {len(store)} household(s) "
        f"in {wall:.2f}s"
    )
    if not bad:
        return f"{header}\n  all checksums match"
    lines = [header]
    for hid in sorted(bad):
        for shard, reason in sorted(bad[hid].items()):
            action = "quarantined" if args.quarantine else "CORRUPT"
            lines.append(f"  {action}: house {hid!r} shard {shard}: {reason}")
    lines.append(
        "repair: repro.data.repair_household_from_source(store, house_id, "
        "aggregate, appliance_channels) re-ingests just the bad shards"
    )
    raise SystemExit("\n".join(lines))


def run_data(args: argparse.Namespace) -> str:
    """Execute ``repro data`` and return the human-readable summary."""
    if args.action == "ingest":
        return _run_data_ingest(args)
    if args.action == "info":
        return _run_data_info(args)
    if args.action == "verify":
        return _run_data_verify(args)
    return _run_data_windows(args)


def run_train(args: argparse.Namespace) -> str:
    """Execute ``repro train`` and return the human-readable summary."""
    preset = ex.get_preset(args.preset)
    corpus = ex.build_corpus(args.corpus, preset, args.seed)
    case = ex.case_windows(corpus, args.appliance, preset.window, split_seed=args.seed)

    name, scale = api.parse_model_spec(args.model)
    if name == "camal":
        return _run_train_camal(args, case, preset, scale)
    return _run_train_estimator(name, scale, args, case, preset)


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro serve`` subcommand; its defaults are ``ServeConfig()``'s."""
    from .serving import ServeConfig

    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the fleet-scale serving daemon: a warm model fleet "
        "behind a newline-delimited-JSON TCP protocol with cross-request "
        "micro-batch coalescing, backpressure and graceful SIGTERM drain "
        "(see docs/serving.md).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--fleet",
        metavar="DIR",
        help="fleet directory (save_pipelines layout: one saved estimator "
        "per appliance sub-directory); also enables shard-parallel store jobs",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="serve seeded *untrained* tiny CamAL pipelines (kettle, "
        "dishwasher) — protocol/benchmark smoke mode, not real predictions",
    )
    parser.add_argument("--host", default=defaults.host, help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="TCP port; 0 binds an ephemeral one (default: %(default)s)",
    )
    parser.add_argument(
        "--window", type=int, default=128, help="serving window length (default: 128)"
    )
    parser.add_argument(
        "--stride", type=int, default=None, help="window stride (default: window/2)"
    )
    parser.add_argument(
        "--batch-size", type=int, default=256, help="micro-batch size per forward"
    )
    parser.add_argument(
        "--cache-size", type=int, default=0, help="LRU window-result cache entries"
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=defaults.max_batch_windows,
        help="coalescer flush threshold in windows (default: %(default)s)",
    )
    parser.add_argument(
        "--max-wait-us",
        type=int,
        default=defaults.max_wait_us,
        help="upper bound on the coalescer linger after the first queued "
        "request (default: %(default)s)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=defaults.queue_depth,
        help="bounded pending requests per appliance (default: %(default)s)",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable cross-request micro-batch coalescing (A/B baseline)",
    )
    parser.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the plan warm-up passes at startup "
        "(engine warm-up and the daemon's batch-bucket pre-tracing)",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write a JSON line {host, port, pid} once listening (for "
        "supervisors and the CI boot check)",
    )
    return parser


def _demo_pipelines() -> Dict[str, object]:
    """Seeded untrained tiny CamAL fleet for `repro serve --demo`."""
    from .core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC

    fleet: Dict[str, object] = {}
    for offset, appliance in enumerate(("kettle", "dishwasher")):
        models = [
            ResNetTSC(
                ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=10 * offset + i)
            )
            for i, k in enumerate((5, 7, 9))
        ]
        for model in models:
            model.eval()
        fleet[appliance] = CamAL(ResNetEnsemble(models), detection_threshold=0.0)
    return fleet


def run_serve(args: argparse.Namespace) -> int:
    """Execute ``repro serve``: build the engine, bind, drain on SIGTERM."""
    import json
    import os
    import signal

    from .api.persistence import load_pipelines
    from .serving import EngineConfig, InferenceEngine, ServeConfig, ServingDaemon

    engine = InferenceEngine(
        EngineConfig(
            window=args.window,
            stride=args.stride if args.stride is not None else max(1, args.window // 2),
            batch_size=args.batch_size,
            cache_size=args.cache_size,
        )
    )
    if args.demo:
        print("serving DEMO pipelines (untrained weights — smoke mode only)")
        for appliance, pipeline in _demo_pipelines().items():
            engine.register(appliance, pipeline)
    else:
        fleet = load_pipelines(args.fleet)
        if not fleet:
            raise SystemExit(f"no loadable estimator directories under {args.fleet!r}")
        for appliance, estimator in fleet.items():
            engine.register(appliance, estimator)
    if not args.no_warm:
        engine.warmup()

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch_windows=args.max_batch,
        max_wait_us=args.max_wait_us,
        queue_depth=args.queue_depth,
        coalesce=not args.no_coalesce,
        warm_start=not args.no_warm,
    )

    daemon = ServingDaemon(engine, config, fleet_dir=args.fleet)
    host, port = daemon.start()
    ready = {"host": host, "port": port, "pid": os.getpid()}
    print(
        f"repro serve: listening on {host}:{port} "
        f"(appliances: {', '.join(engine.appliances)}; "
        f"coalesce={'on' if config.coalesce else 'off'})",
        flush=True,
    )
    if args.ready_file:
        tmp = f"{args.ready_file}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(ready, fh)
        os.replace(tmp, args.ready_file)

    def _drain(signum, frame):  # noqa: ARG001 - signal handler signature
        print(f"repro serve: caught signal {signum}, draining", flush=True)
        daemon.shutdown(drain=True)

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    daemon.serve_forever()
    print("repro serve: drained, bye", flush=True)
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro lint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Check the invariant rules (hot-path allocation ban, "
        "determinism, env-var registry, backend contract, counter "
        "discipline) over the given files/directories.  Exits non-zero on "
        "any error-severity violation; see docs/analysis.md.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root anchoring docs/tests cross-checks (default: cwd)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list waived violations",
    )
    parser.add_argument(
        "--envvars",
        action="store_true",
        help="print the registered REPRO_* environment variable table and exit",
    )
    return parser


def run_lint_cli(args: argparse.Namespace) -> int:
    """Run ``repro lint`` and return the process exit code."""
    from .analysis import envvars as envvars_mod
    from .analysis.lint import run_lint

    if args.envvars:
        print(envvars_mod.render_table())
        return 0
    report = run_lint(args.paths or ["src", "benchmarks"], root=args.root)
    print(report.format(verbose=args.verbose))
    return 1 if report.errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        return run_lint_cli(build_lint_parser().parse_args(argv[1:]))
    if argv and argv[0] == "train":
        print(run_train(build_train_parser().parse_args(argv[1:])))
        return 0
    if argv and argv[0] == "data":
        print(run_data(build_data_parser().parse_args(argv[1:])))
        return 0
    if argv and argv[0] == "models":
        print(run_models_listing())
        return 0
    if argv and argv[0] == "serve":
        return run_serve(build_serve_parser().parse_args(argv[1:]))
    args = build_parser().parse_args(argv)
    preset = ex.get_preset(args.preset)
    names = sorted(COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"== {name} (preset={preset.name}) ==")
        if name == "report" and args.model:
            print(_report(preset, args.seed, model=args.model))
        else:
            print(COMMANDS[name](preset, args.seed))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
