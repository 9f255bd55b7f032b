"""Equivalence contracts, each stated once and driven by generated inputs.

Hypothesis draws the shapes (batch size, channels, kernel width, stride,
padding, length) and a seed for the data; every contract must hold for
every draw.  Example counts stay small so tier-1 stays fast.

* **im2col == reference**: the forward, ``grad_weight`` and ``grad_input``
  of the two conv kernels agree to within ``1e-5`` of the largest entry.
* **im2col is batch-size invariant**: a sample's forward bits do not
  depend on which batch it runs in, in grad mode, in no-grad mode and on
  the fused inference entry point.
* **Gradients match finite differences**: ``conv1d`` under both kernels,
  and training-mode ``batch_norm``.
* **The fused ensemble forward is batch-size invariant**: a window's
  ``proba`` and CAM bits from ``forward_fused`` do not depend on the batch
  it is scored in, at the compact preset and at paper width.
* **Two lanes change nothing but the time**: a batch splits into two
  halves exactly where its one-lane plan tiles a conv group, and the
  halves, replayed at once on two lanes, give the one-lane plan's and the
  member loop's bits; a busy helper leaves both halves to the caller, a
  failure in the helper's half is raised on the caller, and the caller
  waits for the helper through an interrupt.  Chains of steps come back
  in list order, stepped on both lanes.  The lane count is forced
  through ``repro.nn.plan.plan_lanes``, so these run whatever the box's
  BLAS threads and CPUs.
* **Planned arenas**: no two buffers live at once share a byte, the
  plans the workloads replay span exactly their aligned peak live bytes,
  and plans sharing an arena chunk, or growing the arena by a chunk,
  replay their own bits.
* **Algorithm 1 on one lane == on two lanes == on two worker
  processes**: the candidates' weights and validation losses and the
  selected members are the same bits however the candidates are spread,
  with or without per-candidate checkpoints and early stopping, and
  training traces and replays no plan.  On two lanes at most three
  candidates are open.  A step that fails on either lane is raised on
  the caller once the other lane's step has ended, no further step
  starts and every unfinished candidate is closed; an interrupt is
  handled the same way.
* **score_store == run**: a stored household scored in chunks of any
  size, at any stride, with the power gate off or on, gets the soft
  status, status and detection count of ``run`` on its whole series, bit
  for bit.
"""

import contextlib
import functools
import inspect
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro import simdata as sd
from repro.core import CamAL, EnsembleConfig, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.core import ensemble as algorithm1
from repro.core.grouped import COLUMN_BUDGET_BYTES, compile_ensemble_plan, widest_columns
from repro.core.resnet import DEFAULT_FILTERS, DEFAULT_KERNEL_SET
from repro.data import AGGREGATE_CHANNEL, IngestConfig, ingest_corpus
from repro.nn import backend, check_gradients
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.serving import EngineConfig, InferenceEngine, plan_windows
from repro.training import TrainConfig, state_dicts_equal

KERNELS = ("reference", "im2col")
#: Relative to the largest entry, as the fixed-shape equivalence tests pin it.
REL_TOL = 1e-5

#: Derandomized, so tier-1 replays the same examples on every run.
contract = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def conv_cases(draw, max_n=6, max_c=12, max_k=9, max_len=40):
    """A valid conv1d signature plus a data seed."""
    kernel = draw(st.integers(1, max_k))
    padding = draw(st.integers(0, kernel))
    length = draw(st.integers(max(1, kernel - 2 * padding), max_len))
    return dict(
        n=draw(st.integers(1, max_n)),
        c_in=draw(st.integers(1, max_c)),
        c_out=draw(st.integers(1, max_c)),
        kernel=kernel,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        length=length,
        seed=draw(st.integers(0, 2**16)),
    )


def _conv_data(case, weight_scale=0.3):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c_in"], case["length"])).astype(np.float32)
    w = rng.normal(size=(case["c_out"], case["c_in"], case["kernel"])) * weight_scale
    return x, w.astype(np.float32), rng


def _l_out(case):
    return (case["length"] + 2 * case["padding"] - case["kernel"]) // case["stride"] + 1


def _assert_close(got, want):
    scale = max(float(np.abs(want).max()), 1e-6)
    assert float(np.abs(got - want).max()) <= REL_TOL * scale


class TestIm2colMatchesReference:
    @contract
    @given(conv_cases())
    def test_forward_and_both_gradients(self, case):
        x_np, w_np, rng = _conv_data(case)
        upstream = rng.normal(size=(case["n"], case["c_out"], _l_out(case))).astype(np.float32)
        got = {}
        for name in KERNELS:
            x = Tensor(x_np, requires_grad=True)
            w = Tensor(w_np, requires_grad=True)
            with backend.use_backend(name):
                out = F.conv1d(x, w, stride=case["stride"], padding=case["padding"])
                (out * Tensor(upstream)).sum().backward()
            got[name] = (out.data, w.grad, x.grad)
        for im2col_part, reference_part in zip(got["im2col"], got["reference"]):
            _assert_close(im2col_part, reference_part)


class TestIm2colBatchSizeInvariance:
    """The serving cache's and the coalescer's bit-identity contract."""

    @staticmethod
    def _split(case, data):
        cut = data.draw(st.integers(0, case["n"] - 1))
        width = data.draw(st.integers(1, case["n"] - cut))
        return slice(cut, cut + width)

    @contract
    @given(conv_cases(), st.data())
    def test_grad_and_no_grad_forward(self, case, data):
        x_np, w_np, _ = _conv_data(case)
        part = self._split(case, data)
        w = Tensor(w_np, requires_grad=True)
        kwargs = dict(stride=case["stride"], padding=case["padding"])
        with backend.use_backend("im2col"):
            for grad_mode in (True, False):
                with contextlib.nullcontext() if grad_mode else nn.no_grad():
                    full = F.conv1d(Tensor(x_np, requires_grad=True), w, **kwargs).data
                    sub_x = Tensor(np.ascontiguousarray(x_np[part]), requires_grad=True)
                    sub = F.conv1d(sub_x, w, **kwargs).data
                    assert np.array_equal(full[part], sub), f"grad mode {grad_mode}"

    @contract
    @given(conv_cases(), st.data())
    def test_fused_forward(self, case, data):
        x_np, w_np, rng = _conv_data(case)
        part = self._split(case, data)
        shift = rng.normal(size=case["c_out"]).astype(np.float32)
        kwargs = dict(shift=shift, stride=case["stride"], padding=case["padding"])
        with backend.use_backend("im2col"), nn.no_grad():
            full = backend.conv1d_fused(x_np, w_np, **kwargs).copy()
            sub = backend.conv1d_fused(np.ascontiguousarray(x_np[part]), w_np, **kwargs)
        assert np.array_equal(full[part], sub)


class TestGradientsMatchFiniteDifferences:
    @contract
    @given(conv_cases(max_n=3, max_c=3, max_k=5, max_len=12), st.sampled_from(KERNELS))
    def test_conv1d(self, case, kernel_name):
        x_np, w_np, rng = _conv_data(case, weight_scale=0.4)
        x, w = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
        b = Tensor(rng.normal(size=case["c_out"]).astype(np.float32) * 0.1, requires_grad=True)
        mask = Tensor(rng.normal(size=(case["n"], case["c_out"], _l_out(case))).astype(np.float32))
        kwargs = dict(stride=case["stride"], padding=case["padding"])
        with backend.use_backend(kernel_name):
            check_gradients(lambda: (F.conv1d(x, w, b, **kwargs) * mask).sum(), [x, w, b])

    @contract
    @given(
        st.one_of(
            st.tuples(st.integers(4, 8), st.integers(1, 3)),
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(4, 8)),
        ),
        st.integers(0, 2**16),
    )
    def test_batch_norm_training(self, shape, seed):
        """``(N, C)`` and ``(N, C, L)`` inputs, at least four values a channel."""
        channels = shape[1]
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        gamma = Tensor(rng.normal(size=channels).astype(np.float32) * 0.5, requires_grad=True)
        beta = Tensor(rng.normal(size=channels).astype(np.float32) * 0.5, requires_grad=True)
        mask = Tensor(rng.normal(size=shape).astype(np.float32))

        def loss():
            running_mean = np.zeros(channels, np.float32)
            running_var = np.ones(channels, np.float32)
            out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
            return (out * mask).sum()

        # A 1e-2 step: float32 round-off in a 1e-3 central difference of this
        # smooth loss already reaches check_gradients' 1e-3 tolerance.
        check_gradients(loss, [x, gamma, beta], eps=1e-2)


#: (kernels, filters, batch sizes) per preset; window length 128 throughout.
ENSEMBLE_PRESETS = {
    "compact": ((5, 7, 9), (8, 16, 16), (1, 2, 3, 4, 8, 16, 64, 256)),
    "paper": (DEFAULT_KERNEL_SET, DEFAULT_FILTERS, tuple(range(1, 17))),
}


@pytest.fixture(scope="module")
def ensemble_of():
    """One eval-mode ensemble per preset, built on first use and shared by
    the module's tests so each plan traces once."""
    built = {}

    def get(preset):
        if preset not in built:
            kernels, filters, _ = ENSEMBLE_PRESETS[preset]
            built[preset] = ResNetEnsemble([
                ResNetTSC(ResNetConfig(kernel_size=k, filters=filters, seed=40 + i)).eval()
                for i, k in enumerate(kernels)
            ])
        return built[preset]

    return get


class TestFusedForwardBatchSizeInvariance:
    """The coalescer's coalesced == solo contract, end to end: each window
    scored inside a batch of any size gets the bits it gets alone."""

    @pytest.mark.parametrize("preset", sorted(ENSEMBLE_PRESETS))
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), scale=st.sampled_from((1.0, 3.0, 1e-3, 0.0)))
    def test_proba_and_cam_bits(self, ensemble_of, preset, seed, scale):
        ensemble = ensemble_of(preset)
        sizes = ENSEMBLE_PRESETS[preset][2]
        x = np.random.default_rng(seed).random((max(sizes), 128)).astype(np.float32)
        x *= np.float32(scale)
        with backend.use_backend("im2col"):
            solo = [ensemble.forward_fused(x[i : i + 1], batch_size=1) for i in range(len(x))]
            for n in sizes:
                got = ensemble.forward_fused(x[:n], batch_size=n)
                for i in range(n):
                    assert got.proba[i].tobytes() == solo[i].proba.tobytes(), (n, i)
                    assert got.cam[i].tobytes() == solo[i].cam[0].tobytes(), (n, i)
        # Every batch size replayed a plan; none was rejected at trace time.
        assert ensemble.plan_cache.fallbacks == 0

    @pytest.mark.parametrize("preset,n", [("compact", 256), ("compact", 3), ("paper", 16)])
    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_plan_cam_equals_member_loop(self, ensemble_of, preset, n, seed):
        """The plan contracts the CAM in the member loop's form, so trace-time
        validation compares equal bits, however small the CAM's maximum."""
        ensemble = ensemble_of(preset)
        x = np.random.default_rng(seed).random((n, 128)).astype(np.float32)
        proba = np.zeros(n, dtype=np.float32)
        cam = np.zeros((n, 128), dtype=np.float32)
        with backend.use_backend("im2col"):
            got = ensemble.forward_fused(x, batch_size=n)
            with nn.no_grad():
                ensemble._forward_fused_loop(x, proba, cam, 0, class_index=1)
        assert np.array_equal(got.cam, cam)
        np.testing.assert_allclose(got.proba, proba, rtol=0, atol=1e-6)

    def test_zero_warmup_keeps_the_plan_with_one_blas_thread(self):
        """Regression: with BLAS on one thread, a 256-window all-zeros warm-up
        of this ensemble (serve-compact's kettle at seed 504) used to fail
        trace-time validation through CAM drift and disable the plan."""
        code = (
            "import numpy as np\n"
            "from repro.core import ResNetConfig, ResNetEnsemble, ResNetTSC\n"
            "ms = [ResNetTSC(ResNetConfig(kernel_size=k, filters=(8, 16, 16), seed=50400 + i)).eval()"
            " for i, k in enumerate((5, 7, 9))]\n"
            "ens = ResNetEnsemble(ms)\n"
            "ens.forward_fused(np.zeros((256, 128), np.float32), batch_size=256)\n"
            "if ens.plan_cache.fallbacks:\n"
            "    raise SystemExit(str(ens.plan_cache.stats))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=src)
        env.pop("REPRO_NN_PLAN", None)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr


def _lanes(n):
    """Work started inside the block sees ``n`` lanes."""
    return mock.patch.object(nn.plan, "plan_lanes", lambda: n)


def _wait(event, seconds=10):
    """``event.wait(seconds)`` in short slices, so that a signal handler
    runs within one even if its signal came just before a wait blocked."""
    deadline = time.monotonic() + seconds
    while not event.wait(0.01):
        if time.monotonic() > deadline:
            return False
    return True


@st.composite
def lane_cases(draw):
    """An ensemble shape and a batch size from 1 up to twice the first
    batch whose widest conv group is tiled."""
    members = draw(st.integers(1, 3))
    f1 = draw(st.sampled_from((8, 16)))
    f2 = draw(st.sampled_from((32, 48, 64)))
    f3 = draw(st.sampled_from((f2, 2 * f2)))
    length = draw(st.sampled_from((64, 96, 128)))
    kernels = tuple(draw(st.lists(st.sampled_from((3, 5, 7, 9, 15)),
                                  min_size=members, max_size=members)))
    # Widest group: unit 3's kernel-5 block (all members) or a unit-3
    # block1 group (the members sharing a kernel).
    widest = 4 * length * max([members * f3 * 5] + [kernels.count(k) * f2 * k for k in kernels])
    tiled_n = COLUMN_BUDGET_BYTES // widest + 1
    return dict(
        kernels=kernels,
        filters=(f1, f2, f3),
        length=length,
        n=draw(st.integers(1, 2 * tiled_n)),
        tiled_n=tiled_n,
        seed=draw(st.integers(0, 2**16)),
    )


def _lane_ensemble(case):
    return ResNetEnsemble([
        ResNetTSC(ResNetConfig(kernel_size=k, filters=case["filters"], seed=case["seed"] + i)).eval()
        for i, k in enumerate(case["kernels"])
    ])


def _plan(cache):
    (plan,) = cache._plans.values()
    return plan


def _member_loop(ensemble, x):
    n, length = x.shape
    proba = np.zeros(n, dtype=np.float32)
    cam = np.zeros((n, length), dtype=np.float32)
    with nn.no_grad():
        ensemble._forward_fused_loop(x, proba, cam, 0, class_index=1)
    return proba, cam


#: A batch that splits at its first sight: 24 windows of 12 + 12.
SPLIT_CASE = dict(kernels=(5, 9), filters=(16, 64, 64), length=128, n=24, seed=3)


class TestLanes:
    """Two lanes replay the two halves of a batch whose one-lane plan
    would tile a conv group: the calling thread one half, the lane helper
    the other, each from its own plan cache."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(lane_cases())
    # Paper filters at the paper's window of 510, one kernel-25 member: one
    # window's columns exceed the budget in several groups, so N=1 is tiled
    # but cannot split, and N=2 splits into two one-window halves.
    @example(dict(kernels=(25,), filters=DEFAULT_FILTERS, length=510, n=1, tiled_n=1, seed=5))
    @example(dict(kernels=(25,), filters=DEFAULT_FILTERS, length=510, n=2, tiled_n=1, seed=5))
    def test_two_lanes_replay_one_lane_bits(self, case):
        n, length = case["n"], case["length"]
        x = np.random.default_rng(case["seed"]).random((n, length)).astype(np.float32)
        one_lane, ensemble = _lane_ensemble(case), _lane_ensemble(case)
        with backend.use_backend("im2col"):
            with _lanes(1):
                want = one_lane.forward_fused(x, batch_size=n)
            with _lanes(2):
                first = ensemble.forward_fused(x, batch_size=n)  # traces
                backend.reset_op_counts()
                again = ensemble.forward_fused(x, batch_size=n)  # replays
                gemms = backend.op_counts()["fused_conv_gemms"]
            proba, cam = _member_loop(ensemble, x)
        # A batch splits exactly where its one-lane plan tiles a group.
        labels = _plan(one_lane.plan_cache).labels
        tiled = any(",w" in label for label in labels if label.startswith("gemm["))
        first_tiled = COLUMN_BUDGET_BYTES // widest_columns(ensemble.models, length) + 1
        assert tiled == (n >= first_tiled)
        split = ensemble.second_plan_cache.stats["plans"] == 1
        assert split == (tiled and n >= 2)
        halves = [_plan(ensemble.plan_cache)] + ([_plan(ensemble.second_plan_cache)] if split else [])
        assert [plan.signature[0] for plan in halves] == ([(n + 1) // 2, n // 2] if split else [n])
        # Each half counts its GEMMs, none lost to the helper thread.
        assert gemms == sum(label.startswith("gemm[") for plan in halves for label in plan.labels)
        assert ensemble.plan_stats()["fallbacks"] == 0
        for got in (first, again):
            assert got.proba.tobytes() == want.proba.tobytes()
            assert got.cam.tobytes() == want.cam.tobytes()
        assert np.array_equal(want.cam, cam)
        np.testing.assert_allclose(want.proba, proba, rtol=0, atol=1e-6)

    def test_a_compact_16_window_batch_does_not_split(self, ensemble_of):
        """serve-compact's live batches (1-8 windows a request) stay whole:
        at compact width a group first tiles at 18 windows."""
        models = ensemble_of("compact").models
        assert COLUMN_BUDGET_BYTES // widest_columns(models, 128) + 1 == 18
        ensemble = ResNetEnsemble(models)
        x = np.random.default_rng(0).random((18, 128)).astype(np.float32)
        with backend.use_backend("im2col"), _lanes(2):
            ensemble.forward_fused(x[:16], batch_size=16)
            assert ensemble.second_plan_cache.stats["plans"] == 0
            ensemble.forward_fused(x, batch_size=18)
        assert ensemble.second_plan_cache.stats["plans"] == 1
        assert sorted(p.signature[0] for p in ensemble.plan_cache._plans.values()) == [9, 16]

    def test_a_busy_helper_leaves_both_halves_to_the_caller(self):
        """While the helper runs other work, the calling thread claims and
        replays both halves itself, with the same bits, instead of waiting."""
        x = np.random.default_rng(0).random((24, 128)).astype(np.float32)
        one_lane, ensemble = _lane_ensemble(SPLIT_CASE), _lane_ensemble(SPLIT_CASE)
        busy, release = threading.Event(), threading.Event()

        class Busy:
            def run_on_helper(self):
                busy.set()
                release.wait(60)

        with backend.use_backend("im2col"):
            with _lanes(1):
                want = one_lane.forward_fused(x, batch_size=24)
            nn.plan._lane_helper().submit(Busy())
            assert busy.wait(10)
            try:
                with _lanes(2):
                    got = [ensemble.forward_fused(x, batch_size=24) for _ in range(2)]
                helper_still_busy = not release.is_set()
            finally:
                release.set()
        assert helper_still_busy and ensemble.second_plan_cache.stats["plans"] == 1
        for out in got:
            assert out.proba.tobytes() == want.proba.tobytes()
            assert out.cam.tobytes() == want.cam.tobytes()

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupted_join_still_waits_for_lane_one(self):
        """A signal handler raising (as Ctrl-C raises KeyboardInterrupt)
        once the calling thread has run its task: ``run_on_lanes`` raises it
        only once the helper's task has ended, and later calls still wait
        for theirs."""

        class Interrupt(Exception):
            pass

        interrupted = threading.Event()

        def on_signal(signum, frame):
            interrupted.set()
            raise Interrupt

        main = threading.main_thread().ident
        helper = nn.plan._lane_helper().thread
        ended = []

        def task(interrupt, helper_started, caller_done):
            if threading.current_thread() is not helper:
                assert helper_started.wait(10)  # the helper claims the other task
                caller_done.set()
                return
            helper_started.set()
            assert caller_done.wait(10)
            if interrupt:
                signal.pthread_kill(main, signal.SIGUSR1)
                assert interrupted.wait(10)  # the calling thread has it, waiting
            ended.append(interrupt)

        def tasks(interrupt):
            return [functools.partial(task, interrupt, threading.Event(), threading.Event())] * 2

        previous = signal.signal(signal.SIGUSR1, on_signal)
        try:
            with pytest.raises(Interrupt):
                nn.plan.run_on_lanes(tasks(True))
            assert ended == [True]
            nn.plan.run_on_lanes(tasks(False))
            assert ended == [True, False]
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert nn.plan._lane_helper().thread is helper and helper.is_alive()

    def test_lanes_step_chains_in_turn(self):
        """Chains of steps: both lanes claim one step at a time, no more than
        ``OPEN_CHAINS`` chains are open at once, and the values come back in
        list order."""
        helper = nn.plan._lane_helper().thread
        helper_stepped = threading.Event()
        stepped, open_now, most_open = [], set(), []

        def chain(i, steps):
            open_now.add(i)
            most_open.append(len(open_now))
            for step in range(steps):
                on_helper = threading.current_thread() is helper
                stepped.append((i, step, on_helper))
                if on_helper:
                    helper_stepped.set()
                else:
                    assert helper_stepped.wait(10)  # both lanes take part
                yield
            open_now.discard(i)
            return 10 * i

        lengths = (3, 1, 4, 1, 5, 2)
        values = nn.plan.run_on_lanes([chain(i, n) for i, n in enumerate(lengths)])
        assert values == [10 * i for i in range(len(lengths))]
        assert sorted((i, step) for i, step, _ in stepped) == [
            (i, step) for i, n in enumerate(lengths) for step in range(n)
        ]
        assert {on_helper for *_, on_helper in stepped} == {False, True}
        assert max(most_open) <= nn.plan.OPEN_CHAINS

    def test_a_failure_in_lane_one_is_raised_on_the_caller(self):
        """A failure in the half the helper replays is raised on the calling
        thread once both halves have ended; the helper survives it, and the
        next replay is whole again."""
        x = np.random.default_rng(0).random((24, 128)).astype(np.float32)
        one_lane, ensemble = _lane_ensemble(SPLIT_CASE), _lane_ensemble(SPLIT_CASE)
        helper = nn.plan._lane_helper().thread
        helper_failed = threading.Event()
        ran_on = []

        def gate():
            """First step of both halves: fails on the helper; on the caller,
            waits for that, so each lane runs one half."""
            if threading.current_thread() is helper:
                ran_on.append(helper.name)
                helper_failed.set()
                raise RuntimeError("lane 1 failed")
            assert helper_failed.wait(10)

        with backend.use_backend("im2col"):
            with _lanes(1):
                want = one_lane.forward_fused(x, batch_size=24)
            with _lanes(2):
                ensemble.forward_fused(x, batch_size=24)
                halves = [_plan(ensemble.plan_cache), _plan(ensemble.second_plan_cache)]
                steps = [plan.steps for plan in halves]
                for plan in halves:
                    plan.steps = (gate,) + plan.steps
                with pytest.raises(RuntimeError, match="lane 1 failed"):
                    ensemble.forward_fused(x, batch_size=24)
                for plan, kept in zip(halves, steps):
                    plan.steps = kept
                got = ensemble.forward_fused(x, batch_size=24)
        assert ran_on == [helper.name] and helper.name != threading.current_thread().name
        assert nn.plan._lane_helper().thread is helper and helper.is_alive()
        assert got.proba.tobytes() == want.proba.tobytes()
        assert got.cam.tobytes() == want.cam.tobytes()


def _aligned_peak(layout):
    """The most aligned bytes of ``layout``'s buffers live at one time: no
    placement of them spans fewer."""
    sizes = [-(-math.prod(shape) * dtype.itemsize // nn.plan.ALIGN) * nn.plan.ALIGN
             for shape, dtype in layout.requests]
    return max(
        sum(size for size, (s, e) in zip(sizes, layout.spans) if s <= start < e)
        for start, _ in layout.spans
    )


def _replay(plan, x):
    np.copyto(plan.inputs["x"], x)
    plan.run()
    return plan.outputs["proba"].tobytes() + plan.outputs["cam"].tobytes()


class TestPlannedArenas:
    """A plan's buffers sit at planned offsets in one arena chunk, sized to
    the plan's peak live bytes."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(lane_cases())
    def test_live_buffers_never_share_bytes(self, case):
        """Over generated shapes: no two buffers live at once overlap, the
        chunk is at least the aligned peak (no layout is smaller) and
        greedy placement stays near it."""
        plan = compile_ensemble_plan(_lane_ensemble(case).models, None, case["n"], case["length"])
        layout = plan.layout
        sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in layout.requests]
        placed = list(zip(layout.offsets, sizes, layout.spans))
        for i, (offset, size, (start, end)) in enumerate(placed):
            assert offset % nn.plan.ALIGN == 0 and offset + size <= plan.slot_bytes
            for other, other_size, (other_start, other_end) in placed[:i]:
                if start < other_end and other_start < end:
                    assert offset + size <= other or other + other_size <= offset
        assert _aligned_peak(layout) <= plan.slot_bytes <= 1.1 * _aligned_peak(layout)
        assert plan.peak_live_bytes <= _aligned_peak(layout)

    @pytest.mark.parametrize("preset,sizes", [
        ("compact", (1, 2, 4, 8, 9, 16, 32, 64, 128)),
        ("paper", (1, 8, 16)),
    ])
    def test_workload_plans_span_their_peak(self, ensemble_of, preset, sizes):
        """The plans serve-compact's ladder and bulk-paper's halves replay
        span exactly their aligned peak live bytes."""
        models = ensemble_of(preset).models
        for n in sizes:
            plan = compile_ensemble_plan(models, None, n, 128)
            assert plan.slot_bytes == _aligned_peak(plan.layout), n
            assert plan.slot_bytes <= 1.01 * plan.peak_live_bytes, n

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(lane_cases())
    def test_plans_share_chunks_and_grow_the_arena(self, case):
        """A smaller plan goes in the chunk a larger one made and replays its
        own bits; a plan larger than every chunk gets a new chunk, and the
        plans before it still replay theirs."""
        models = _lane_ensemble(case).models
        length, n = case["length"], case["n"]
        x = np.random.default_rng(case["seed"]).random((2 * n + 1, length)).astype(np.float32)
        with backend.use_backend("im2col"):
            alone = {
                size: _replay(compile_ensemble_plan(models, None, size, length), x[:size])
                for size in (n, 2 * n + 1)
            }
            arena = nn.SlotArena()
            large = compile_ensemble_plan(models, arena, n, length)
            small = compile_ensemble_plan(models, arena, 1, length)
            assert len(arena.chunks) == 1 and arena.nbytes == large.slot_bytes
            assert _replay(small, x[:1]) == _replay(
                compile_ensemble_plan(models, None, 1, length), x[:1]
            )
            larger = compile_ensemble_plan(models, arena, 2 * n + 1, length)
            assert len(arena.chunks) == 2
            assert arena.nbytes == large.slot_bytes + larger.slot_bytes
            assert _replay(larger, x) == alone[2 * n + 1]
            assert _replay(large, x[:n]) == alone[n]


@st.composite
def algorithm1_cases(draw):
    """An ensemble seed and a grid of 1-5 candidates (kernels may repeat),
    trained up to 3 epochs with early stopping drawn on or off, so
    candidates may end at different steps."""
    n_trials = draw(st.integers(1, 2))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        kernels=tuple(draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1,
                                    max_size=5 // n_trials))),
        n_trials=n_trials,
        epochs=draw(st.integers(1, 3)),
        patience=draw(st.integers(0, 1)),
        checkpoint=draw(st.booleans()),
    )


def _algorithm1(case, n_windows=24, **kwargs):
    """``train_ensemble`` on seeded spike windows, in a fresh checkpoint
    directory when the case asks for one."""
    rng = np.random.default_rng(case["seed"])
    x = (rng.random((n_windows, 32)) * 0.2).astype(np.float32)
    y = np.arange(n_windows) % 2
    x[y == 1, 10:14] += 2.0
    config = EnsembleConfig(
        kernel_set=case["kernels"],
        n_trials=case["n_trials"],
        n_models=2,
        filters=(4, 8, 8),
        train=TrainConfig(epochs=case["epochs"], batch_size=8, patience=case["patience"]),
        seed=case["seed"],
    )
    with tempfile.TemporaryDirectory() as directory:
        return algorithm1.train_ensemble(
            x, y, x[:8], y[:8], config,
            checkpoint_dir=directory if case["checkpoint"] else None, **kwargs,
        )


def _assert_same_run(got, want):
    (got_ensemble, got_candidates), (want_ensemble, want_candidates) = got, want
    assert [(c.kernel_size, c.trial, c.val_loss) for c in got_candidates] == [
        (c.kernel_size, c.trial, c.val_loss) for c in want_candidates
    ]
    for a, b in zip(got_candidates, want_candidates):
        assert state_dicts_equal(a.model.state_dict(), b.model.state_dict())
    assert len(got_ensemble) == len(want_ensemble)
    for a, b in zip(got_ensemble.models, want_ensemble.models):
        assert state_dicts_equal(a.state_dict(), b.state_dict())


def _no_plans():
    """Inside the block, tracing or replaying any plan raises."""
    stack = contextlib.ExitStack()
    for owner, name in ((nn.plan.PlanBuilder, "__init__"), (nn.plan.ExecutionPlan, "run")):
        stack.enter_context(mock.patch.object(
            owner, name, side_effect=AssertionError(f"{owner.__name__}.{name} during training")
        ))
    return stack


#: A grid of four candidates: they open kernels 9, 7 and 5 first, then 3.
FOUR_CANDIDATES = dict(
    seed=1, kernels=(3, 5, 7, 9), n_trials=1, epochs=1, patience=0, checkpoint=False
)


class _LoggedSteps:
    """Stands in for ``_train_candidate``: each candidate's real chain,
    stepped through ``gate(lane, first)`` before every step, with a log of
    the steps that started and ended on each lane (``"caller"`` or
    ``"helper"``).  ``stopped`` is set once the lane runtime stops a run
    after a failure or an interrupt."""

    def __init__(self, gate):
        self.gate = gate
        self.train = algorithm1._train_candidate
        self.helper = nn.plan._lane_helper().thread
        self.chains, self.started, self.ended = [], [], []
        self.stopped = threading.Event()

    def __call__(self, plan, data):
        chain = self._steps(plan, data)
        self.chains.append(chain)
        return chain

    def _steps(self, plan, data):
        steps = self.train(plan, data)
        while True:
            lane = "helper" if threading.current_thread() is self.helper else "caller"
            self.started.append((plan[1], lane))
            self.gate(lane, [l for _, l in self.started].count(lane) == 1)
            try:
                next(steps)
            except StopIteration as end:
                return end.value
            self.ended.append((plan[1], lane))
            yield

    @contextlib.contextmanager
    def patched(self):
        stop = nn.plan._LaneRun.stop

        def stop_and_tell(run):
            stop(run)
            self.stopped.set()

        with _lanes(2), mock.patch.object(algorithm1, "_train_candidate", self), \
                mock.patch.object(nn.plan._LaneRun, "stop", stop_and_tell):
            yield

    def assert_stopped_after_one_step_a_lane(self, running_lane):
        """No step started after the first on each lane; the other lane's
        step ended before the raise; every unfinished chain is closed."""
        assert sorted(lane for _, lane in self.started) == ["caller", "helper"]
        assert [lane for _, lane in self.ended] == [running_lane]
        assert len(self.chains) == 4
        assert all(inspect.getgeneratorstate(c) == inspect.GEN_CLOSED for c in self.chains)
        assert self.helper is nn.plan._lane_helper().thread and self.helper.is_alive()


class TestAlgorithm1Lanes:
    """Candidates stepped in turn on two lanes change nothing but the time."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(algorithm1_cases())
    # Early stopping ends these grids' candidates after 2, 2 and 3 epochs,
    # and after 2, 3, 2, 3 and 3 epochs (with checkpoints).
    @example(dict(seed=11, kernels=(3, 5, 7), n_trials=1, epochs=3, patience=1,
                  checkpoint=False))
    @example(dict(seed=5, kernels=(7, 3, 5, 7, 3), n_trials=1, epochs=3, patience=1,
                  checkpoint=True))
    def test_two_lanes_train_the_one_lane_candidates(self, case):
        """Same bits, no plan traced or replayed while training, and no
        thread started per call."""
        with _lanes(1):
            one = _algorithm1(case)
        threads = set(threading.enumerate()) | {nn.plan._lane_helper().thread}
        with _lanes(2), _no_plans():
            two = _algorithm1(case)
        _assert_same_run(two, one)
        assert set(threading.enumerate()) <= threads

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(algorithm1_cases())
    def test_worker_processes_train_the_one_lane_candidates(self, case):
        with _lanes(1):
            one = _algorithm1(case, n_windows=16)
        _assert_same_run(_algorithm1(case, n_windows=16, n_workers=2), one)

    def test_two_lanes_hold_at_most_three_candidates(self):
        """Six candidates on two lanes: three are open at once (one per lane
        plus one), so at most three candidates' models are alive."""
        alive, counts = weakref.WeakSet(), []
        build = algorithm1.ResNetTSC

        def counted(*args, **kwargs):
            model = build(*args, **kwargs)
            alive.add(model)
            counts.append(len(alive))
            return model

        case = dict(FOUR_CANDIDATES, kernels=(3, 5, 7), n_trials=2, epochs=2)
        with _lanes(2), mock.patch.object(algorithm1, "ResNetTSC", counted):
            _, candidates = _algorithm1(case)
        # The first six models are the candidates' own; the rest are built
        # from their state dicts once training is over.
        assert len(candidates) == 6 and max(counts[:6]) == nn.plan.OPEN_CHAINS == 3

    def test_candidate_seconds_count_only_their_own_steps(self):
        """At most two steps run at once, so seconds that leave out the time
        a candidate sat parked sum to at most twice the run's."""
        with _lanes(2):
            start = time.perf_counter()
            _, candidates = _algorithm1(dict(FOUR_CANDIDATES, epochs=3))
            wall = time.perf_counter() - start
        seconds = [c.wall_time_seconds for c in candidates]
        assert min(seconds) > 0 and sum(seconds) <= 2 * wall

    @pytest.mark.parametrize("failing_lane", ["caller", "helper"], ids=["lane0", "lane1"])
    def test_a_failed_candidate_is_raised_after_the_other_lane_ends(self, failing_lane):
        """A step fails on one lane while the other lane runs a step."""
        other_in_step = threading.Event()

        def gate(lane, first):
            if not first:
                return
            if lane == failing_lane:
                assert other_in_step.wait(10)
                raise RuntimeError("candidate failed")
            other_in_step.set()
            assert steps.stopped.wait(10)  # the failure is seen; this step ends after

        steps = _LoggedSteps(gate)
        with steps.patched(), pytest.raises(RuntimeError, match="candidate failed"):
            _algorithm1(FOUR_CANDIDATES)
        steps.assert_stopped_after_one_step_a_lane(
            "helper" if failing_lane == "caller" else "caller"
        )

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_is_raised_after_the_running_candidates_end(self):
        """A signal handler raising (as Ctrl-C raises KeyboardInterrupt) in
        the calling thread's step while the helper runs a step."""

        class Interrupt(Exception):
            pass

        interrupted, caller_in_step = threading.Event(), threading.Event()

        def on_signal(signum, frame):
            interrupted.set()
            raise Interrupt

        def gate(lane, first):
            if not first:
                return
            if lane == "caller":
                caller_in_step.set()
                _wait(steps.stopped)  # the interrupt lands here
                return
            assert caller_in_step.wait(10)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGUSR1)
            assert interrupted.wait(10) and steps.stopped.wait(10)

        steps = _LoggedSteps(gate)
        previous = signal.signal(signal.SIGUSR1, on_signal)
        try:
            with steps.patched(), pytest.raises(Interrupt):
                _algorithm1(FOUR_CANDIDATES)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        steps.assert_stopped_after_one_step_a_lane("helper")


STORE_WINDOW = 32


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """Two 360-sample households in 100-sample shards, the last one partial."""
    corpus = sd.ukdale_like(days=0.25, n_houses=2, seed=0)
    out = str(tmp_path_factory.mktemp("store"))
    return ingest_corpus(corpus, out, IngestConfig(shard_length=100))


@st.composite
def store_cases(draw, store):
    """A household, a stride, a chunk size and a power gate for it."""
    house = draw(st.sampled_from(store.house_ids))
    stride = draw(st.integers(1, STORE_WINDOW))
    n_windows = plan_windows(store.n_samples(house), STORE_WINDOW, stride).n_windows
    chunk = draw(st.one_of(st.none(), st.integers(1, n_windows)))
    # A percentile strictly inside the range: the aggregate straddles it.
    gate_percentile = draw(st.one_of(st.none(), st.integers(10, 90)))
    return house, stride, chunk, gate_percentile


class TestScoreStoreMatchesRun:
    """The stitcher and the ON rule merge chunks exactly as ``run`` scores
    the whole series, shard-by-shard power gate included."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.data())
    def test_any_chunk_size_equals_run(self, small_store, ensemble_of, data):
        house, stride, chunk, gate_percentile = data.draw(store_cases(small_store))
        series = np.asarray(small_store.read_channel(house, AGGREGATE_CHANNEL))
        gate = None
        if gate_percentile is not None:
            gate = float(np.percentile(series, gate_percentile))
        engine = InferenceEngine(EngineConfig(window=STORE_WINDOW, stride=stride))
        pipeline = CamAL(ensemble_of("compact"), detection_threshold=0.0, power_gate_watts=gate)
        engine.register("kettle", pipeline)
        ref = engine.run(series).per_appliance["kettle"]
        (_, scores), = engine.score_store(small_store, house_ids=[house], chunk_windows=chunk)
        got = scores.per_appliance["kettle"]
        assert got.soft_status.tobytes() == ref.soft_status.tobytes()
        assert got.status.tobytes() == ref.status.tobytes()
        assert got.n_detected == int(ref.windows.detected.sum())
