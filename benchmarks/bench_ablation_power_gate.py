"""Ablation: the power-gate refinement, a step beyond the paper's §IV-B.

The literal §IV-B formula marks a timestamp ON whenever the ensemble CAM
is positive (the base load keeps x(t) > 0 everywhere); gating by the
appliance's Table-I ON threshold removes the false-positive halo for
short-spike appliances while leaving long-cycle appliances unchanged.
"""

import repro.experiments as ex


def _run(preset):
    corpus = ex.build_corpus("ukdale", preset)
    rows = []
    for appliance in ("kettle", "dishwasher"):
        case = ex.case_windows(corpus, appliance, preset.window, split_seed=0)
        gated, _ = ex.run_camal(case, preset, seed=0, power_gate=True)
        literal, _ = ex.run_camal(case, preset, seed=0, power_gate=False)
        rows.append((appliance, gated, literal))
    return rows


def test_power_gate_ablation(benchmark, preset):
    rows = benchmark.pedantic(_run, args=(preset,), rounds=1, iterations=1)
    print()
    table = []
    for appliance, gated, literal in rows:
        table.append([appliance, "power gate", gated.f1, gated.precision, gated.recall])
        table.append([appliance, "literal §IV-B", literal.f1, literal.precision, literal.recall])
    print(ex.render_table(
        ["Case", "Variant", "F1", "Pr", "Rc"], table,
        title="Ablation — power gate vs literal attention formula",
    ))
    for appliance, gated, literal in rows:
        # The gate never hurts precision and never reduces recall below the
        # literal variant's ON set (it only removes predictions).
        assert gated.precision >= literal.precision - 1e-9
        assert gated.recall <= literal.recall + 1e-9
    # For the short-spike appliance the gate must deliver a real F1 gain.
    kettle_gated = rows[0][1]
    kettle_literal = rows[0][2]
    assert kettle_gated.f1 >= kettle_literal.f1
