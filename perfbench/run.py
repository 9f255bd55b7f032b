"""Run one benchmark workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload serve-compact --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, untraced and then traced, and
prints the per-layer metrics of the traced run with the tracing overhead
relative to the untraced one.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` (errors, refusals
and output-check mismatches) and ``metrics``.  ``--workload all`` runs
every workload in its own process and prints one table.

The seed and the sizes are arguments; the defaults are the benchmark's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = {
    "serve-compact": "serve_compact",
    "bulk-paper": "bulk_paper",
    "train-small": "train_small",
}
#: Seconds one workload process may take under ``--workload all``.
CHILD_TIMEOUT_S = 600
SIZE_FLAGS = ("setups", "pool", "houses", "train_windows", "val_windows", "epochs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setups",
        type=int,
        default=None,
        help="set-ups per run; setup_s is the median of their fastest quarter "
        "(default: the workload's SETUPS)",
    )
    parser.add_argument(
        "--pool", type=int, default=64, help="serve-compact: distinct requests, cycled"
    )
    parser.add_argument(
        "--houses", type=int, default=4, help="bulk-paper: households in the store"
    )
    parser.add_argument(
        "--train-windows", type=int, default=64, help="train-small: training windows"
    )
    parser.add_argument(
        "--val-windows", type=int, default=32, help="train-small: validation windows"
    )
    parser.add_argument("--epochs", type=int, default=2, help="train-small: epochs per run")
    return parser


def measure(args) -> Tuple[common.Outcome, Dict[str, Tuple[float, str]]]:
    """Run the workload in this process; returns the outcome and printed metrics."""
    common.pin_blas()
    threads = common.check_blas_pinned()
    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    os.makedirs(common.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK)
    peak = common.sgemm_peak_gflops()
    try:
        if args.trace:
            # Half the time untraced, half traced: a traced run costs what an
            # untraced one does.
            half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
            untraced = workload.run(half, os.path.join(work, "untraced"), False, 1, peak)
            outcome = workload.run(half, os.path.join(work, "traced"), True, 1, peak)
            outcome.layers["trace.overhead_frac"] = 1.0 - (
                outcome.end_to_end["windows_per_s"] / untraced.end_to_end["windows_per_s"]
            )
            outcome.notes["untraced_end_to_end"] = untraced.end_to_end
            outcome.notes["traced_end_to_end"] = outcome.end_to_end
            outcome.notes["spans"] = len(outcome.spans)
            outcome.attempted += untraced.attempted
            outcome.failed += untraced.failed
            outcome.mismatches += untraced.mismatches
            unknown = sorted(set(outcome.layers) - set(PER_LAYER))
            if unknown:
                raise RuntimeError(f"{args.workload} measured unlisted layers {unknown}")
            # A layer the workload does not exercise reads 0.
            outcome.notes["layers_not_exercised"] = sorted(set(PER_LAYER) - set(outcome.layers))
            units, values = PER_LAYER, {**dict.fromkeys(PER_LAYER, 0.0), **outcome.layers}
        else:
            setups = workload.SETUPS if args.setups is None else args.setups
            outcome = workload.run(args, work, False, setups, peak)
            units, values = END_TO_END, outcome.end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.notes["env"] = common.env_block(threads, peak)
    outcome.notes["flops_per_window_gflop"] = common.flops_table(window=128)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    return outcome, {name: (values[name], unit) for name, unit in units.items()}


def report(args, outcome: common.Outcome, metrics: Dict[str, Tuple[float, str]]) -> List[str]:
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    ]
    lines += [f"  {name:<28} {value:>14.6g}  {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"  {'error_rate':<28} {outcome.error_rate:>14.6g}  fraction "
        f"({outcome.failed} failed, refused or mismatched of {outcome.attempted} attempted)"
    )
    samples = outcome.notes["latency_samples"]
    lines.append(
        f"  windows_per_s and latencies are over the fastest quarter of the run's slices; "
        f"latency samples there: {samples} ({samples / 100:.1f} beyond p99); "
        f"setup_s is the median of the fastest quarter of "
        f"{len(outcome.notes['setup_samples'])} set-ups"
    )
    if args.trace:
        lines.append(
            "  tracing overhead: traced windows_per_s "
            f"{outcome.notes['traced_end_to_end']['windows_per_s']:.6g} vs untraced "
            f"{outcome.notes['untraced_end_to_end']['windows_per_s']:.6g}"
        )
    lines.append(f"  plan.gflops and plan.gflop_per_window are {common.FLOPS_SOURCE}")
    notes = {key: value for key, value in outcome.notes.items() if key != "env"}
    lines.append("notes " + json.dumps(notes, default=float))
    lines.append("env " + json.dumps(outcome.notes["env"]))
    return lines


def write_results(args, outcome: common.Outcome, metrics) -> str:
    """Keep the full result, and the spans of a traced run, inside the checkout."""
    out_dir = os.path.join(common.WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "error_rate": outcome.error_rate,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
                "notes": outcome.notes,
            },
            fh,
            indent=1,
            default=float,
        )
    if outcome.spans:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump([span.__dict__ for span in outcome.spans], fh)
    return stem + ".json"


def run_all(args) -> int:
    """Every workload in its own process; one table at the end."""
    rows, results = [], {}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        for flag in SIZE_FLAGS:
            if getattr(args, flag) is not None:
                command += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
        done = subprocess.run(
            command, cwd=common.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[name] = result
        error_rate = result["failed"] / result["attempted"]
        for metric, cell in result["metrics"].items():
            rows.append((name, metric, cell["value"], cell["unit"]))
        rows.append((name, "error_rate", error_rate, "fraction"))
    print()
    print(f"{'workload':<15} {'metric':<28} {'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<15} {metric:<28} {value:>14.6g}  {unit}")
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    outcome, metrics = measure(args)
    for line in report(args, outcome, metrics):
        print(line)
    print(f"results {write_results(args, outcome, metrics)}")
    print(common.result_line(outcome.correct, outcome.attempted, outcome.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
