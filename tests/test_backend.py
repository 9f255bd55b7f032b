"""The conv backend layer: kernels, selection, inference mode, buffer pool.

Covers the contract of ``repro.nn.backend``:

* finite-difference gradient checks for the im2col kernel across the same
  stride/padding grid that ``tests/test_gradients.py`` pins for
  ``reference``;
* im2col/reference forward equivalence at paper (Table-II ResNet) shapes;
* kernel selection accepting exactly ``reference|im2col``;
* inference mode building zero graph nodes, the plan compiling for im2col
  only, engine outputs independent of the kernel, and the buffer pool's
  allocation-free steady state.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import nn
from repro.nn import backend, check_gradients
from repro.nn import functional as F
from repro.nn.tensor import Tensor, graph_nodes_created

RNG = np.random.default_rng(7)


def _t(shape, scale=1.0):
    return Tensor(RNG.normal(size=shape).astype(np.float32) * scale, requires_grad=True)


def _mask(shape):
    return Tensor(RNG.normal(size=shape).astype(np.float32))


@pytest.fixture(params=["im2col"])
def fast_backend(request):
    with backend.use_backend(request.param):
        yield request.param


class TestBackendGradients:
    """The im2col backward contractions match finite differences."""

    def test_conv1d_basic(self, fast_backend):
        x, w, b = _t((2, 3, 12)), _t((4, 3, 3), 0.4), _t((4,), 0.1)
        m = _mask((2, 4, 12))
        check_gradients(lambda: (F.conv1d(x, w, b, padding=1) * m).sum(), [x, w, b])

    def test_conv1d_stride2(self, fast_backend):
        x, w = _t((1, 2, 11)), _t((3, 2, 5), 0.4)
        m = _mask((1, 3, 5))  # (11 + 2 - 5) // 2 + 1
        check_gradients(
            lambda: (F.conv1d(x, w, None, stride=2, padding=1) * m).sum(), [x, w]
        )

    def test_conv1d_no_padding(self, fast_backend):
        x, w = _t((2, 1, 9)), _t((2, 1, 4), 0.5)
        m = _mask((2, 2, 6))
        check_gradients(lambda: (F.conv1d(x, w, None) * m).sum(), [x, w])

    def test_conv1d_stride3_uneven(self, fast_backend):
        x, w = _t((1, 1, 13)), _t((2, 1, 3), 0.5)
        out_len = (13 - 3) // 3 + 1
        m = _mask((1, 2, out_len))
        check_gradients(lambda: (F.conv1d(x, w, None, stride=3) * m).sum(), [x, w])


#: Representative Table-II ResNet conv signatures: the C_in=1 entry layers
#: (one per member kernel), mid-stack and the widest long-kernel block.
PAPER_SHAPES = [
    (1, 64, 5),
    (1, 64, 25),
    (64, 128, 7),
    (128, 128, 5),
    (128, 128, 25),
]


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("c_in,c_out,kernel", PAPER_SHAPES)
    def test_forward_matches_reference(self, c_in, c_out, kernel):
        x = Tensor(RNG.normal(size=(4, c_in, 128)).astype(np.float32))
        w = Tensor(RNG.normal(size=(c_out, c_in, kernel)).astype(np.float32) * 0.1)
        b = Tensor(RNG.normal(size=(c_out,)).astype(np.float32) * 0.1)
        pad = (kernel - 1) // 2
        outs = {}
        for name in ("reference", "im2col"):
            with backend.use_backend(name):
                outs[name] = F.conv1d(x, w, b, padding=pad).data
        rel = np.abs(outs["im2col"] - outs["reference"]).max()
        rel /= np.abs(outs["reference"]).max()
        assert rel < 1e-5, f"im2col diverges from reference: rel={rel}"

    def test_strided_forward_matches_reference(self):
        x = Tensor(RNG.normal(size=(3, 8, 57)).astype(np.float32))
        w = Tensor(RNG.normal(size=(6, 8, 5)).astype(np.float32) * 0.2)
        outs = {}
        for name in ("reference", "im2col"):
            with backend.use_backend(name):
                outs[name] = F.conv1d(x, w, stride=3, padding=2).data
        np.testing.assert_allclose(
            outs["im2col"], outs["reference"], rtol=1e-4, atol=1e-5
        )

    def test_im2col_is_batch_size_invariant(self):
        """The serving cache's bit-identity contract: a window scored alone
        must produce the same bits as inside any batch."""
        x = RNG.normal(size=(16, 8, 32)).astype(np.float32)
        w = Tensor(RNG.normal(size=(12, 8, 5)).astype(np.float32) * 0.2)
        with backend.use_backend("im2col"):
            full = F.conv1d(Tensor(x), w, padding=2).data
            for sl in (slice(3, 4), slice(0, 7), slice(10, 16)):
                sub = F.conv1d(Tensor(np.ascontiguousarray(x[sl])), w, padding=2).data
                assert np.array_equal(full[sl], sub)


class TestBackendSelection:
    def test_exactly_two_kernels(self):
        assert backend.available_backends() == ("reference", "im2col")

    def test_unknown_backend_rejected(self):
        before = backend.get_backend()
        for mode in ("winograd", "fft", "auto"):  # fft/auto: deleted modes
            with pytest.raises(ValueError, match="unknown nn backend"):
                backend.set_backend(mode)
        assert backend.get_backend() == before  # a failed set changes nothing
        with pytest.raises(ValueError):
            with backend.use_backend("nope"):
                pass  # pragma: no cover

    def test_deleted_mode_in_env_rejected_at_import(self):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, REPRO_NN_BACKEND="fft", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.nn"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr
        assert "unknown nn backend 'fft'" in proc.stderr


class TestInferenceMode:
    def _tiny_model(self, seed=0):
        from repro.core import ResNetConfig, ResNetTSC

        model = ResNetTSC(ResNetConfig(kernel_size=5, filters=(4, 8, 8), seed=seed))
        model.eval()
        return model

    def test_no_grad_builds_zero_graph_nodes(self):
        model = self._tiny_model()
        x = RNG.normal(size=(3, 1, 32)).astype(np.float32)
        before = graph_nodes_created()
        with nn.no_grad():
            out = model(Tensor(x, requires_grad=True))
        assert graph_nodes_created() == before
        assert out._backward is None and out._parents == ()
        # The same forward with gradients enabled does record the graph.
        model.train()
        out = model(Tensor(x, requires_grad=True))
        assert graph_nodes_created() > before
        assert out.requires_grad

    def test_max_pool_inference_matches_grad_path(self):
        x_data = RNG.normal(size=(2, 3, 17)).astype(np.float32)
        ref = F.max_pool1d(Tensor(x_data, requires_grad=True), 4).data
        with nn.no_grad():
            fast = F.max_pool1d(Tensor(x_data), 4).data
        assert np.array_equal(ref, fast)

    def test_batch_norm_fold_matches_reference_path(self):
        x_data = RNG.normal(size=(4, 5, 16)).astype(np.float32)
        g = Tensor(RNG.normal(size=5).astype(np.float32))
        b = Tensor(RNG.normal(size=5).astype(np.float32))
        rm = RNG.normal(size=5).astype(np.float32)
        rv = RNG.random(5).astype(np.float32) + 0.5
        ref = F.batch_norm(
            Tensor(x_data, requires_grad=True), g, b, rm.copy(), rv.copy(),
            training=False,
        ).data
        with nn.no_grad():
            fold = F.batch_norm(
                Tensor(x_data), g, b, rm.copy(), rv.copy(), training=False
            ).data
        np.testing.assert_allclose(fold, ref, rtol=1e-5, atol=1e-6)

    def test_conv_block_fold_matches_training_graph_path(self):
        """Eval-mode conv+BN folding stays on the normalize-then-affine values."""
        from repro.core.resnet import ConvBlock

        block = ConvBlock(3, 6, 5, seed=1)
        # Non-trivial running stats, as after real training.
        block.norm.running_mean[...] = RNG.normal(size=6).astype(np.float32)
        block.norm.running_var[...] = RNG.random(6).astype(np.float32) + 0.5
        block.eval()
        x_data = RNG.normal(size=(2, 3, 24)).astype(np.float32)
        unfolded = block(Tensor(x_data, requires_grad=True)).data  # graph path
        with nn.no_grad():
            folded = block(Tensor(x_data)).data
        np.testing.assert_allclose(folded, unfolded, rtol=1e-4, atol=1e-5)

    def test_buffer_pool_steady_state_allocates_nothing(self):
        """Plan replays perform zero new large allocations: the warm-up run
        takes persistent slots from the pool (trace) plus recycling scratch
        (the validation loop); afterwards the counter stays flat."""
        from repro.core import ResNetEnsemble

        ensemble = ResNetEnsemble([self._tiny_model(seed=s) for s in (0, 1)])
        x = RNG.random((24, 32)).astype(np.float32)
        first = ensemble.forward_fused(x, batch_size=8)
        warm = ensemble.buffer_pool.fresh_allocations
        assert warm > 0  # the warm-up run did populate the pool
        second = ensemble.forward_fused(x, batch_size=8)
        assert ensemble.buffer_pool.fresh_allocations == warm  # zero new
        assert ensemble.plan_cache.replays > 0  # the second run replayed
        np.testing.assert_array_equal(first.proba, second.proba)
        np.testing.assert_array_equal(first.cam, second.cam)

    def test_buffer_pool_steady_state_loop_path_reuses(self, monkeypatch):
        """With plans disabled, the member loop recycles pool buffers across
        micro-batches (the pre-plan steady-state guarantee still holds)."""
        from repro.core import ResNetEnsemble

        monkeypatch.setenv("REPRO_NN_PLAN", "off")
        ensemble = ResNetEnsemble([self._tiny_model(seed=s) for s in (0, 1)])
        x = RNG.random((24, 32)).astype(np.float32)
        first = ensemble.forward_fused(x, batch_size=8)
        warm = ensemble.buffer_pool.fresh_allocations
        assert warm > 0
        second = ensemble.forward_fused(x, batch_size=8)
        assert ensemble.buffer_pool.fresh_allocations == warm  # zero new
        assert ensemble.buffer_pool.reuses > 0
        np.testing.assert_array_equal(first.proba, second.proba)
        np.testing.assert_array_equal(first.cam, second.cam)

    def test_grouped_plan_one_gemm_per_layer_group_at_paper_shapes(self):
        """At the paper preset (5 members, distinct kernels {5,7,9,15,25}),
        a planned forward issues exactly one batched GEMM per layer group —
        23 in total (per unit: 5 member-specific block1 groups + block2 +
        block3 [+ shortcut in units 1-2]) — where the member loop issues one
        GEMM per member per layer (55)."""
        from repro.core import ResNetConfig, ResNetEnsemble, ResNetTSC
        from repro.core.resnet import DEFAULT_KERNEL_SET

        models = [
            ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=i)).eval()
            for i, k in enumerate(DEFAULT_KERNEL_SET)
        ]
        ensemble = ResNetEnsemble(models)
        x = RNG.random((4, 64)).astype(np.float32)
        ensemble.forward_fused(x, batch_size=8)  # trace + validate
        backend.reset_op_counts()
        ensemble.forward_fused(x, batch_size=8)  # pure replay
        counts = backend.op_counts()
        assert counts["fused_conv_gemms"] == 23
        assert counts["fused_conv_gemms"] < 5 * 11  # vs one GEMM per member
        # Every grouped GEMM is one fused-conv entry call, so the two
        # counters move in lockstep on a pure im2col replay.
        assert counts["fused_conv_calls"] == counts["fused_conv_gemms"]

    def test_reference_kernel_runs_member_loop_untraced(self):
        """Plans compile for im2col only: under ``reference`` every batch
        takes the member loop, counted as a fallback, with its own bits."""
        from repro.core import ResNetEnsemble

        ensemble = ResNetEnsemble([self._tiny_model(seed=s) for s in (0, 1)])
        x = RNG.random((8, 32)).astype(np.float32)
        proba = np.zeros(8, dtype=np.float32)
        cam = np.zeros((8, 32), dtype=np.float32)
        with backend.use_backend("reference"):
            fused = ensemble.forward_fused(x, batch_size=8)
            with nn.no_grad():
                ensemble._forward_fused_loop(x, proba, cam, 0, class_index=1)
        stats = ensemble.plan_cache.stats
        assert stats["traces"] == 0
        assert stats["fallbacks"] >= 1
        np.testing.assert_array_equal(fused.proba, proba)
        np.testing.assert_array_equal(fused.cam, cam)

    def test_plan_replay_zero_module_dispatch_and_pool_traffic(self):
        from repro.core import ResNetEnsemble

        ensemble = ResNetEnsemble([self._tiny_model(seed=s) for s in (0, 1)])
        x = RNG.random((8, 32)).astype(np.float32)
        ensemble.forward_fused(x, batch_size=8)  # trace
        pool = ensemble.buffer_pool
        before_fresh, before_reuse = pool.fresh_allocations, pool.reuses
        calls_before = nn.module_calls()
        ensemble.forward_fused(x, batch_size=8)  # replay
        assert nn.module_calls() == calls_before
        assert pool.fresh_allocations == before_fresh
        assert pool.reuses == before_reuse  # replay touches no pooled scratch


class TestEngineBackendChoice:
    def _engine(self):
        from repro.core import CamAL, ResNetConfig, ResNetEnsemble, ResNetTSC
        from repro.serving import EngineConfig, InferenceEngine

        models = [
            ResNetTSC(ResNetConfig(kernel_size=k, filters=(4, 8, 8), seed=i))
            for i, k in enumerate((5, 7))
        ]
        camal = CamAL(ResNetEnsemble(models), detection_threshold=0.0)
        engine = InferenceEngine(EngineConfig(window=32, stride=16, batch_size=16))
        engine.register("kettle", camal)
        return engine

    def test_outputs_unchanged_by_backend_choice(self):
        series = (RNG.random(500) * 2000.0).astype(np.float32)
        results = {}
        for name in ("reference", "im2col"):
            with backend.use_backend(name):
                results[name] = self._engine().run(series).per_appliance["kettle"]
        ref, got = results["reference"], results["im2col"]
        np.testing.assert_allclose(
            got.soft_status, ref.soft_status, rtol=1e-5, atol=1e-5
        )
        # Binary status may only differ where the soft score sits within
        # float tolerance of the 0.5 rounding threshold.
        disagree = got.status != ref.status
        assert np.all(np.abs(ref.soft_status[disagree] - 0.5) < 1e-4)

    def test_buffer_pool_stats_surface(self):
        engine = self._engine()
        series = (RNG.random(200) * 2000.0).astype(np.float32)
        engine.run(series)
        stats = engine.buffer_pool_stats()
        assert "kettle" in stats
        assert stats["kettle"]["fresh_allocations"] > 0

    def test_plan_stats_surface_and_warmup(self):
        engine = self._engine()
        assert engine.plan_stats() == {}  # nothing traced yet
        engine.warmup()  # primes the plan cache with a (batch, window) batch
        stats = engine.plan_stats()
        assert stats["kettle"]["traces"] >= 1
        replays_before = stats["kettle"]["replays"]
        series = np.full(16 * 16 + 16, 800.0, dtype=np.float32)
        engine.run(series)  # full batches replay the warmed plan
        assert engine.plan_stats()["kettle"]["replays"] > replays_before


class TestPlanMemory:
    """Plan buffers: planned offsets, strict release, and the memory figures."""

    def test_slots_reused_by_size_across_shapes_and_dtypes(self):
        """A released buffer's bytes go to later buffers of any shape or
        dtype; buffers live at the same time get bytes of their own."""
        import itertools

        from repro.nn.plan import trace

        got = {}

        def record(builder):
            got["big"] = builder.buffer((4, 16))  # 256 bytes
            got["small"] = builder.buffer((8,))  # 32 bytes
            builder.release(got["big"])
            builder.release(got["small"])
            got["flags"] = builder.buffer((24,), dtype=bool)
            got["wide"] = builder.buffer((2, 20))
            got["fresh"] = builder.buffer((8,))
            return builder.build("sig", {}, {})

        plan = trace(record)  # ``got`` holds the second pass's buffers
        assert np.shares_memory(got["wide"], got["big"])
        assert np.shares_memory(got["flags"], got["big"])
        for together in (("big", "small"), ("flags", "wide", "fresh")):
            for a, b in itertools.combinations(together, 2):
                assert not np.shares_memory(got[a], got[b])
        # Each buffer starts 64-byte aligned, so both live sets take
        # 256 + 64 bytes: the chunk holds exactly that.
        assert plan.slot_bytes == 256 + 64
        assert plan.peak_live_bytes == 256 + 32

    def test_release_rejects_views_and_foreign_arrays(self):
        from repro.nn.plan import PlanBuilder

        builder = PlanBuilder()
        slot = builder.buffer((4, 8))
        with pytest.raises(ValueError):
            builder.release(slot[1:])  # a view would free a live slot
        with pytest.raises(ValueError):
            builder.release(np.zeros((4, 8), dtype=np.float32))
        builder.release(slot)

    def test_release_rejects_a_second_release(self):
        from repro.nn.plan import PlanBuilder

        builder = PlanBuilder()
        slot = builder.buffer((8,))
        builder.release(slot)
        with pytest.raises(ValueError):
            builder.release(slot)

    @pytest.mark.parametrize(
        "preset,n",
        [("paper", 16), ("compact", 4), ("compact", 64)],
    )
    def test_slot_bytes_within_twice_peak_live(self, preset, n):
        from repro.core import ResNetConfig, ResNetTSC
        from repro.core.grouped import compile_ensemble_plan
        from repro.core.resnet import DEFAULT_FILTERS, DEFAULT_KERNEL_SET

        kernels, filters = {
            "paper": (DEFAULT_KERNEL_SET, DEFAULT_FILTERS),
            "compact": ((5, 7, 9), (8, 16, 16)),
        }[preset]
        models = [
            ResNetTSC(ResNetConfig(kernel_size=k, filters=filters, seed=i)).eval()
            for i, k in enumerate(kernels)
        ]
        plan = compile_ensemble_plan(models, None, n, 128)
        assert plan.peak_live_bytes > 0
        assert plan.slot_bytes <= 2 * plan.peak_live_bytes


def _compact_ensemble(seed=0):
    """The serve-compact shape: kernels 5/7/9, filters 8/16/16."""
    from repro.core import ResNetConfig, ResNetEnsemble, ResNetTSC

    return ResNetEnsemble([
        ResNetTSC(ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=seed + i)).eval()
        for i, k in enumerate((5, 7, 9))
    ])


class TestEnsembleArena:
    """Cache-sized column tiles and one arena per plan cache."""

    MiB = 1 << 20

    def test_compact_256_window_plan_fits_in_40_mib(self):
        from repro.core.grouped import compile_ensemble_plan

        plan = compile_ensemble_plan(_compact_ensemble().models, None, 256, 128)
        assert plan.slot_bytes <= 40 * self.MiB  # untiled columns: 80.8 MiB

    def test_tiles_match_untiled_plan_bit_for_bit(self, monkeypatch):
        from repro.core import grouped

        models = _compact_ensemble().models
        x = RNG.random((64, 128)).astype(np.float32)
        outputs = []
        # The smallest budget is below one window's columns: one-window tiles.
        for budget in (1 << 40, 64 << 10, 8 << 10):
            monkeypatch.setattr(grouped, "COLUMN_BUDGET_BYTES", budget)
            plan = grouped.compile_ensemble_plan(models, None, 64, 128)
            np.copyto(plan.inputs["x"], x)
            plan.run()
            outputs.append({k: v.copy() for k, v in plan.outputs.items()})
        for tiled in outputs[1:]:
            for name, value in outputs[0].items():
                np.testing.assert_array_equal(tiled[name], value)

    def test_warm_ladder_arena_is_about_its_largest_plan(self):
        """Engine warm-up (256 windows) plus the daemon's 1…256 bucket
        ladder on one lane: nine plans, one arena, all of it in the
        ensemble's pool."""
        from unittest import mock

        ensemble = _compact_ensemble()
        with mock.patch.object(nn.plan, "plan_lanes", lambda: 1):
            ensemble.forward_fused(np.zeros((256, 128), np.float32), batch_size=256)
            for bucket in (1, 2, 4, 8, 16, 32, 64, 128, 256):
                ensemble.forward_fused(np.zeros((bucket, 128), np.float32), batch_size=bucket)
        cache = ensemble.plan_cache
        stats = cache.stats
        assert stats["plans"] == 9 and stats["fallbacks"] == 0
        largest = max(plan.slot_bytes for plan in cache._plans.values())
        assert stats["slot_bytes"] == cache.arena.nbytes
        # One chunk, sized by the first (largest) plan, holds all nine.
        assert stats["slot_bytes"] == largest and len(cache.arena.chunks) == 1
        assert stats["slot_bytes"] == ensemble.buffer_pool.bytes_allocated
        assert stats["peak_live_bytes"] == max(
            plan.peak_live_bytes for plan in cache._plans.values()
        )

    def test_concurrent_replays_of_different_sizes_match_serial(self):
        """Threads replay plans sharing one arena at once; the ensemble lock
        keeps each replay's slots its own."""
        import threading

        ensemble = _compact_ensemble(seed=3)
        inputs = {n: RNG.random((n, 128)).astype(np.float32) for n in (64, 16, 4, 1)}
        serial = {n: ensemble.forward_fused(x, batch_size=n) for n, x in inputs.items()}
        start = threading.Barrier(len(inputs))
        failures = []

        def worker(n):
            try:
                start.wait(10.0)
                for _ in range(20):
                    got = ensemble.forward_fused(inputs[n], batch_size=n)
                    if not (np.array_equal(got.proba, serial[n].proba)
                            and np.array_equal(got.cam, serial[n].cam)):
                        failures.append(n)
            except Exception as exc:  # a torn pool also counts as a failure
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(n,)) for n in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


class TestSharedCounters:
    """Process-wide counters that threads training at once all write."""

    def test_totals_are_exact_under_thread_contention(self):
        import threading

        from repro.nn.backend import counters

        class Nop(nn.Module):
            def forward(self, x):
                return x

        n_threads = 2 * (os.cpu_count() or 1) + 2
        rounds = 2000
        start = threading.Barrier(n_threads)
        failures = []

        def worker():
            try:
                start.wait(10.0)
                nop = Nop()
                w = Tensor([1.0], requires_grad=True)
                for _ in range(rounds):
                    counters.record("fused_conv_calls")
                    w * 2.0  # one graph node
                    nop(w)
            except Exception as exc:
                failures.append(repr(exc))

        before = (
            backend.op_counts()["fused_conv_calls"], graph_nodes_created(), nn.module_calls()
        )
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        after = (
            backend.op_counts()["fused_conv_calls"], graph_nodes_created(), nn.module_calls()
        )
        assert [b - a for a, b in zip(before, after)] == [n_threads * rounds] * 3


class TestUpsampleSegmentSum:
    """Oracle test: the bincount backward equals the old ``np.add.at`` path."""

    @staticmethod
    def _old_backward(x_data, idx, grad):
        d_x = np.zeros_like(x_data)
        np.add.at(d_x, (slice(None), slice(None), idx), grad)
        return d_x

    @pytest.mark.parametrize("length,target", [(5, 13), (10, 4), (7, 7), (3, 50)])
    def test_matches_add_at_oracle(self, length, target):
        x = Tensor(RNG.normal(size=(2, 3, length)).astype(np.float32), requires_grad=True)
        out = F.upsample_to1d(x, target)
        upstream = RNG.normal(size=out.shape).astype(np.float32)
        out.backward(upstream)
        idx = np.minimum((np.arange(target) * length) // target, length - 1)
        oracle = self._old_backward(x.data, idx, upstream)
        np.testing.assert_allclose(x.grad, oracle, rtol=1e-5, atol=1e-6)
