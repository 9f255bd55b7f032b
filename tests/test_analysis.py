"""Tests for repro.analysis: lint rules (good/bad fixture pairs per rule),
waiver semantics, the runtime sanitizer, and the repo tree's own cleanliness."""

import os
import textwrap

import numpy as np
import pytest

from repro.analysis import envvars, sanitize
from repro.analysis.lint import run_lint
from repro.nn.backend.pool import BufferPool
from repro.nn.plan import PlanBuilder, trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_snippet(tmp_path, source, relpath="src/snippet.py", project_rules=False):
    """Write ``source`` at ``relpath`` under a tmp root and lint that file."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([str(path)], root=tmp_path, project_rules=project_rules)


def rules_of(report):
    return sorted(v.rule for v in report.violations)


# ----------------------------------------------------------------------
# HOT001 / HOT002 — hot-path allocation ban
# ----------------------------------------------------------------------
class TestHotPathRules:
    def test_hot001_bad_allocation_in_decorated_function(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def replay(n):
                return np.zeros(n, dtype=np.float32)
            """,
        )
        assert rules_of(report) == ["HOT001"]

    def test_hot001_good_pool_acquisition(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path
            from repro.nn.backend import scratch

            @hot_path
            def replay(n):
                return scratch((n,), np.float32)

            def cold(n):
                return np.zeros(n)  # not hot: allowed
            """,
        )
        assert rules_of(report) == []

    def test_hot001_by_location_in_replay_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def helper(n):
                return np.empty(n)
            """,
            relpath="src/repro/nn/plan.py",
        )
        assert rules_of(report) == ["HOT001"]

    def test_hot001_nested_function_inherits_hotness(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def outer(n):
                def inner():
                    return np.concatenate([np.empty(n)])
                return inner
            """,
        )
        assert rules_of(report) == ["HOT001", "HOT001"]

    def test_hot002_bad_list_growth_in_loop(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.analysis import hot_path

            @hot_path
            def replay(items):
                out = []
                for item in items:
                    out.append(item * 2)
                return out
            """,
        )
        assert rules_of(report) == ["HOT002"]

    def test_hot002_good_growth_outside_loop_or_cold(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.analysis import hot_path

            @hot_path
            def replay(out, item):
                out.append(item)  # no loop: one bounded append

            def cold(items):
                out = []
                for item in items:
                    out.append(item)
                return out
            """,
        )
        assert rules_of(report) == []


# ----------------------------------------------------------------------
# DET001 / DET002 / DET003 — determinism rules
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_det001_bad_global_rng(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import random
            import numpy as np

            def sample(n):
                random.shuffle(list(range(n)))
                return np.random.rand(n)
            """,
        )
        assert rules_of(report) == ["DET001", "DET001"]

    def test_det001_good_generator_and_blessed_helper(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import random
            import numpy as np

            def sample(n, seed):
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                return rng.random(n), local.random()

            def seed_everything(seed):
                random.seed(seed)
                return np.random.default_rng(seed)
            """,
        )
        assert rules_of(report) == []

    def test_det002_bad_wall_clock(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rules_of(report) == ["DET002"]

    def test_det002_good_perf_counter(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def measure(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            """,
        )
        assert rules_of(report) == []

    def test_det003_bad_fit_without_seed_param(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def fit(x, y):
                return x + y

            def train_model(data):
                return data
            """,
        )
        assert rules_of(report) == ["DET003", "DET003"]

    def test_det003_good_seed_config_or_method(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def fit(x, y, seed=0):
                return x + y

            def train_model(data, config):
                return data

            class Estimator:
                def fit(self, x, y):  # methods route seeds via their config
                    return x
            """,
        )
        assert rules_of(report) == []


# ----------------------------------------------------------------------
# ENV001 / ENV002 — env-var registry
# ----------------------------------------------------------------------
class TestEnvVarRules:
    def test_env001_bad_unregistered_literal(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import os

            def flag():
                return os.environ.get("REPRO_BOGUS_KNOB", "")
            """,
        )
        assert rules_of(report) == ["ENV001"]

    def test_env001_good_registered_literal(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import os

            def flag():
                return os.environ.get("REPRO_NN_PLAN", "")
            """,
        )
        assert rules_of(report) == []

    def test_env002_docs_coverage(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        names = sorted(envvars.ENV_VARS)
        complete = "\n".join(f"`{name}`" for name in names)
        (docs / "config.md").write_text(complete)
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == []

        (docs / "config.md").write_text(
            "\n".join(f"`{name}`" for name in names if name != "REPRO_SMOKE")
        )
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == ["ENV002"]
        assert "REPRO_SMOKE" in report.violations[0].message

    def test_env002_bad_documented_name_not_registered(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        lines = [f"`{name}`" for name in sorted(envvars.ENV_VARS)]
        lines.append("| `REPRO_NN_AUTOTUNE` | `off` | deleted knob, still documented |")
        (docs / "config.md").write_text("\n".join(lines))
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == ["ENV002"]
        violation = report.violations[0]
        assert "REPRO_NN_AUTOTUNE" in violation.message
        assert (violation.path, violation.line) == ("docs/config.md", len(lines))

    def test_env002_good_wildcards_are_prose(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        lines = [f"`{name}`" for name in sorted(envvars.ENV_VARS)]
        lines.append("Every `REPRO_*` variable; the `REPRO_NN_*` family tunes nn.")
        (docs / "config.md").write_text("\n".join(lines))
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == []

    def test_registry_table_renders_every_entry(self):
        table = envvars.render_table()
        for name in envvars.ENV_VARS:
            assert name in table


# ----------------------------------------------------------------------
# BCK001 — backend kernel contract
# ----------------------------------------------------------------------
class TestBackendContractRule:
    BAD = """
        NAME = "partial"

        def forward(x):
            return x
        """
    GOOD = """
        NAME = "whole"

        def forward(x):
            return x

        def forward_fused(x):
            return x

        def grad_weight(ctx, g):
            return g

        def grad_input(ctx, g):
            return g
        """

    def test_bck001_bad_missing_kernels(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.BAD, relpath="src/repro/nn/backend/partial.py"
        )
        assert rules_of(report) == ["BCK001"]
        assert "grad_input" in report.violations[0].message

    def test_bck001_good_full_contract(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.GOOD, relpath="src/repro/nn/backend/whole.py"
        )
        assert rules_of(report) == []

    def test_bck001_ignores_non_kernel_modules(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def helper():\n    return 1\n",
            relpath="src/repro/nn/backend/util.py",
        )
        assert rules_of(report) == []


# ----------------------------------------------------------------------
# CNT001 — counter discipline
# ----------------------------------------------------------------------
class TestCounterRule:
    def _make_tree(self, tmp_path, counters, test_body):
        counters_py = tmp_path / "src" / "repro" / "nn" / "backend" / "counters.py"
        counters_py.parent.mkdir(parents=True)
        keys = ", ".join(f'"{k}": 0' for k in counters)
        counters_py.write_text(f"_COUNTS = {{{keys}}}\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_counters.py").write_text(test_body)

    def test_cnt001_bad_unasserted_counter(self, tmp_path):
        self._make_tree(
            tmp_path,
            ["gemms", "orphan_counter"],
            'def test_gemms():\n    assert counts["gemms"] == 1\n',
        )
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == ["CNT001"]
        assert "orphan_counter" in report.violations[0].message

    def test_cnt001_good_all_asserted(self, tmp_path):
        self._make_tree(
            tmp_path,
            ["gemms"],
            'def test_gemms():\n    assert counts["gemms"] == 1\n',
        )
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == []

    def test_cnt001_handles_annotated_assignment(self, tmp_path):
        # The real counters.py uses `_COUNTS: Dict[str, int] = {...}`.
        counters_py = tmp_path / "src" / "repro" / "nn" / "backend" / "counters.py"
        counters_py.parent.mkdir(parents=True)
        counters_py.write_text(
            "from typing import Dict\n"
            '_COUNTS: Dict[str, int] = {"tagged": 0}\n'
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_none.py").write_text("def test_x():\n    pass\n")
        report = run_lint([], root=tmp_path)
        assert rules_of(report) == ["CNT001"]


# ----------------------------------------------------------------------
# Waivers + SYN001
# ----------------------------------------------------------------------
class TestWaivers:
    def test_waiver_with_justification_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def replay(n):
                # repro: waive[HOT001] setup-time allocation, measured cold
                return np.zeros(n)
            """,
        )
        assert rules_of(report) == []
        assert [v.rule for v in report.waived] == ["HOT001"]

    def test_waiver_on_same_line(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def replay(n):
                return np.zeros(n)  # repro: waive[HOT001] cold setup path
            """,
        )
        assert rules_of(report) == []

    def test_wvr001_waiver_without_justification_is_error(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def replay(n):
                # repro: waive[HOT001]
                return np.zeros(n)
            """,
        )
        # The bare waiver does not suppress, and is itself an error.
        assert rules_of(report) == ["HOT001", "WVR001"]

    def test_wvr002_unused_waiver_is_warning(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def quiet():
                # repro: waive[HOT001] nothing here actually allocates
                return 1
            """,
        )
        assert rules_of(report) == ["WVR002"]
        assert report.errors == []
        assert len(report.warnings) == 1

    def test_multi_rule_waiver(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import hot_path

            @hot_path
            def replay(items):
                out = []
                for item in items:
                    # repro: waive[HOT001,HOT002] bounded warmup, runs once
                    out.append(np.zeros(item))
                return out
            """,
        )
        assert rules_of(report) == []
        assert sorted(v.rule for v in report.waived) == ["HOT001", "HOT002"]

    def test_syn001_unparseable_file(self, tmp_path):
        report = lint_snippet(tmp_path, "def broken(:\n    pass\n")
        assert rules_of(report) == ["SYN001"]


# ----------------------------------------------------------------------
# ERR001 — no silent error swallowing
# ----------------------------------------------------------------------
class TestErrorSwallowRule:
    def test_err001_bare_except(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
        )
        assert rules_of(report) == ["ERR001"]
        assert "SystemExit" in report.violations[0].message

    def test_err001_exception_wide_pass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def close(handle):
                try:
                    handle.close()
                except Exception:
                    pass

            def close2(handle):
                try:
                    handle.close()
                except (ValueError, BaseException):
                    ...
            """,
        )
        assert rules_of(report) == ["ERR001", "ERR001"]

    def test_err001_good_typed_or_handled(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def close(handle):
                try:
                    handle.close()
                except OSError:
                    pass  # narrow best-effort close stays legal

            def guard(fn):
                try:
                    return fn()
                except Exception as exc:
                    raise RuntimeError(f"wrapped: {exc}") from exc
            """,
        )
        assert rules_of(report) == []

    def test_err001_waivable(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def reap(children):
                for child in children:
                    try:
                        child.kill()
                    # repro: waive[ERR001] teardown must survive any child state
                    except Exception:
                        pass
            """,
        )
        assert rules_of(report) == []
        assert [v.rule for v in report.waived] == ["ERR001"]


# ----------------------------------------------------------------------
# The repo's own tree + CLI
# ----------------------------------------------------------------------
class TestRepoTree:
    def test_src_and_benchmarks_lint_clean(self):
        report = run_lint(["src", "benchmarks"], root=REPO_ROOT)
        assert report.errors == [], report.format()
        assert report.warnings == [], report.format()
        # Every waiver in the tree carries a justification (else WVR001
        # would have fired); keep the count pinned so new waivers are a
        # conscious review decision, not drive-by suppression.
        assert len(report.waived) == 4, report.format(verbose=True)

    def test_cli_lint_exit_codes(self, tmp_path):
        from repro.cli import main

        assert main(["lint", "src", "--root", REPO_ROOT]) == 0

        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        assert main(["lint", str(bad), "--root", str(tmp_path)]) == 1

    def test_cli_lint_envvars_table(self, capsys):
        from repro.cli import main

        assert main(["lint", "--envvars"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_NN_SANITIZE" in out


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------
def _traced(record):
    """``record(builder)`` through both passes of a plan trace: the
    sanitizer tracks the second."""

    def both(builder):
        record(builder)
        return builder.build("sig", {}, {})

    return trace(both)


class TestSanitizer:
    def test_disabled_by_default(self):
        assert sanitize.pool_tracker() is None
        assert sanitize.plan_tracker() is None

    def test_pool_poisons_released_buffers_when_enabled(self):
        with sanitize.force(True):
            pool = BufferPool()
            buf = pool.take((4,))
            buf[:] = 1.0
            pool.step()
        assert np.isnan(buf).all()
        assert pool.tracker.generation(buf) == 1

    def test_pool_untouched_when_disabled(self):
        with sanitize.force(False):
            pool = BufferPool()
            buf = pool.take((4,))
            buf[:] = 1.0
            pool.step()
        assert pool.tracker is None
        np.testing.assert_array_equal(buf, np.ones(4, dtype=np.float32))

    def test_plan_use_after_release_names_offending_step(self):
        """The seeded use-after-release regression: a deliberate read of a
        released buffer must raise at trace time, naming the reading step
        and the releasing step.  Without the sanitizer's tracking the same
        trace records silently."""

        def record(builder):
            slot = builder.buffer((8,))
            builder.emit(lambda: None, label="produce", writes=(slot,))
            builder.release(slot)
            builder.emit(lambda: None, label="consume-freed", reads=(slot,))

        with sanitize.force(True):
            with pytest.raises(sanitize.PlanSanitizeError) as exc:
                _traced(record)
        assert "consume-freed" in str(exc.value)
        assert "'produce'" in str(exc.value)
        assert "use-after-release" in str(exc.value)

        # Same deliberate bug, sanitizer off: no tracking, no error — the
        # detection genuinely comes from the tracker, not from the plan
        # layer itself.
        with sanitize.force(False):
            _traced(record)

    def test_plan_stale_read_through_recycled_slot(self):
        """A buffer placed over a released one's bytes must be written
        before it is read: reading it first would read the released
        buffer's stale value."""

        def record(builder, stale):
            a = builder.buffer((8,))
            builder.emit(lambda: None, label="w1", writes=(a,))
            builder.release(a)
            b = builder.buffer((8,))  # placed over a's bytes
            assert np.shares_memory(a, b)
            if stale:
                builder.emit(lambda: None, label="stale-reader", reads=(b,))
            builder.emit(lambda: None, label="w2", writes=(b,))
            builder.emit(lambda: None, label="reader", reads=(b,))

        with sanitize.force(True):
            with pytest.raises(sanitize.PlanSanitizeError) as exc:
                _traced(lambda builder: record(builder, stale=True))
            assert "stale-reader" in str(exc.value)
            # After a write the read is legal.
            _traced(lambda builder: record(builder, stale=False))

    def test_plan_read_of_never_written_fresh_slot(self):
        """A fresh buffer holds whatever its bytes held before, so reading
        it before any step wrote it is flagged like a stale read."""

        def record(builder):
            slot = builder.buffer((8,))
            builder.emit(lambda: None, label="fresh-reader", reads=(slot,))

        with sanitize.force(True):
            with pytest.raises(sanitize.PlanSanitizeError) as exc:
                _traced(record)
        assert "fresh-reader" in str(exc.value)
        assert "read before write" in str(exc.value)

    def test_plan_input_slot_counts_as_written(self):
        def record(builder):
            x = builder.input((8,))
            builder.emit(lambda: None, label="reads-input", reads=(x[:4],))

        with sanitize.force(True):
            _traced(record)

    def test_plan_write_to_released_slot_is_aliasing(self):
        def record(builder):
            slot = builder.buffer((8,))
            builder.emit(lambda: None, label="produce", writes=(slot,))
            builder.release(slot)
            builder.emit(lambda: None, label="alias-writer", writes=(slot,))

        with sanitize.force(True):
            with pytest.raises(sanitize.PlanSanitizeError) as exc:
                _traced(record)
        assert "alias-writer" in str(exc.value)
        assert "alias" in str(exc.value)

    def test_plan_views_resolve_to_owning_slot(self):
        def record(builder):
            slot = builder.buffer((4, 8))
            view = slot.reshape(2, 16)[1:].view(np.int32)
            builder.emit(lambda: None, label="produce", writes=(view,))
            builder.release(slot)
            builder.emit(lambda: None, label="view-reader", reads=(view,))

        with sanitize.force(True):
            with pytest.raises(sanitize.PlanSanitizeError) as exc:
                _traced(record)
        assert "view-reader" in str(exc.value)

    def test_plan_buffer_over_a_live_buffer_is_an_overlap(self):
        """A layout that puts two live buffers on the same bytes (a broken
        planner, forged here) raises when the second is handed out,
        naming the last step before it."""

        def record(builder):
            a = builder.buffer((8,))
            builder.emit(lambda: None, label="produce", writes=(a,))
            b = builder.buffer((8,))
            builder.emit(lambda: None, label="copy", reads=(a,), writes=(b,))
            return builder.build("sig", {}, {})

        first = PlanBuilder()
        record(first)
        layout = first.layout()
        assert layout.offsets[0] != layout.offsets[1]  # the planner keeps them apart
        layout.offsets[1] = layout.offsets[0]
        with sanitize.force(True):
            with pytest.raises(sanitize.PlanSanitizeError) as exc:
                record(PlanBuilder(None, layout))
        assert "'produce'" in str(exc.value)
        assert "overlapping layout" in str(exc.value)
        # Off, nothing checks the layout.
        with sanitize.force(False):
            record(PlanBuilder(None, layout))

    def test_external_arrays_are_ignored(self):
        param = np.zeros(3, dtype=np.float32)  # not a plan buffer

        def record(builder):
            builder.emit(lambda: None, label="uses-param", reads=(param,))

        with sanitize.force(True):
            _traced(record)

    def test_freeze_gated_by_flag(self):
        with sanitize.force(True):
            frozen = sanitize.freeze(np.zeros(3))
            assert not frozen.flags.writeable
            with pytest.raises(ValueError):
                frozen[0] = 1.0
        with sanitize.force(False):
            untouched = sanitize.freeze(np.zeros(3))
            assert untouched.flags.writeable

    def test_store_reads_frozen_under_sanitizer(self, tmp_path):
        from repro.data import MeterStore, ingest_corpus
        from repro.simdata import ukdale_like

        corpus = ukdale_like(days=0.25, n_houses=1, seed=0)
        store_dir = tmp_path / "store"
        ingest_corpus(corpus, str(store_dir))
        with sanitize.force(True):
            store = MeterStore(str(store_dir))
            house = store.house_ids[0]
            mask = store.read_mask(house, 0, 64)
            assert not mask.flags.writeable
            gaps = store.read_channel(house, "aggregate", 0, 64, nan_gaps=True)
            assert not gaps.flags.writeable

    def test_ensemble_plan_passes_sanitizer_with_identical_outputs(self):
        """The real grouped trace must satisfy its own declared read/write
        discipline, and sanitizing must not change a single output bit."""
        from repro.core import ResNetConfig, ResNetEnsemble, ResNetTSC

        def build():
            models = [
                ResNetTSC(
                    ResNetConfig(kernel_size=k, filters=(2, 4, 4), seed=i)
                ).eval()
                for i, k in enumerate((3, 5))
            ]
            return ResNetEnsemble(models)

        x = np.random.default_rng(7).random((6, 32)).astype(np.float32)
        with sanitize.force(False):
            plain = build().forward_fused(x, batch_size=4)
        with sanitize.force(True):
            checked = build().forward_fused(x, batch_size=4)
        np.testing.assert_array_equal(plain.proba, checked.proba)
        np.testing.assert_array_equal(plain.cam, checked.cam)

    def test_stats_counters_move(self):
        sanitize.reset_stats()
        with sanitize.force(True):
            pool = BufferPool()
            pool.take((4,))
            pool.step()
        stats = sanitize.stats()
        assert stats["poison_fills"] == 1
        assert stats["generation_bumps"] == 1
        sanitize.reset_stats()
        assert sanitize.stats()["poison_fills"] == 0

    def test_poison_fill_dtypes(self):
        f = np.ones(3, dtype=np.float32)
        sanitize.poison_fill(f)
        assert np.isnan(f).all()
        i = np.ones(3, dtype=np.int32)
        sanitize.poison_fill(i)
        assert (i == np.iinfo(np.int32).min).all()
        b = np.zeros(3, dtype=bool)
        sanitize.poison_fill(b)
        assert b.all()
