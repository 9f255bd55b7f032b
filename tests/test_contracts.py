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
* **Two lanes change nothing but the time**: a plan whose tiled conv
  groups run on two lanes replays the one-lane plan's bits, counts one
  GEMM per tile, runs a lone tile on one lane, raises a failure in lane 1
  on the caller, and waits for lane 1 through an interrupt.  The lane
  count is forced through ``repro.nn.plan.plan_lanes``, so these run
  whatever the box's BLAS threads and CPUs.
* **Algorithm 1 on one lane == on two lanes == on two worker
  processes**: the candidates' weights and validation losses and the
  selected members are the same bits however the candidates are spread,
  with or without per-candidate checkpoints.  A candidate that fails on
  either lane is raised on the caller once the other lane's candidate
  has ended, the candidates not yet started never run, and no lane
  thread outlives the call; an interrupt is handled the same way.
* **score_store == run**: a stored household scored in chunks of any
  size, at any stride, with the power gate off or on, gets the soft
  status, status and detection count of ``run`` on its whole series, bit
  for bit.
"""

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro import simdata as sd
from repro.core import CamAL, EnsembleConfig, ResNetConfig, ResNetEnsemble, ResNetTSC
from repro.core import ensemble as algorithm1
from repro.core.grouped import COLUMN_BUDGET_BYTES
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
    """Trace plans with ``n`` lanes inside the block."""
    return mock.patch.object(nn.plan, "plan_lanes", lambda: n)


@st.composite
def lane_cases(draw):
    """An ensemble shape and a batch size from 1 up to twice the smallest
    batch whose widest conv group (unit 2's kernel-5 block) is tiled."""
    members = draw(st.integers(1, 3))
    f1 = draw(st.sampled_from((8, 16)))
    f2 = draw(st.sampled_from((32, 48, 64)))
    length = draw(st.sampled_from((64, 96, 128)))
    tiled_n = COLUMN_BUDGET_BYTES // (members * f2 * 5 * length * 4) + 1
    return dict(
        kernels=tuple(draw(st.lists(st.sampled_from((3, 5, 7, 9, 15)),
                                    min_size=members, max_size=members))),
        filters=(f1, f2, draw(st.sampled_from((f2, 2 * f2)))),
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


def _plan(ensemble):
    (plan,) = ensemble.plan_cache._plans.values()
    return plan


def _lane_steps(plan):
    return [step for step in plan.steps if isinstance(step, nn.plan.LaneStep)]


class TestLanes:
    """Tiled conv groups on two lanes: the replaying thread and a helper."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(lane_cases())
    # Paper filters at the paper's window of 510, one kernel-25 member: one
    # window's columns exceed the budget in several groups, so at N=1 each
    # is a lone tile, lane 1 would have nothing to run, and lanes engage at N=2.
    @example(dict(kernels=(25,), filters=DEFAULT_FILTERS, length=510, n=1, tiled_n=2, seed=5))
    @example(dict(kernels=(25,), filters=DEFAULT_FILTERS, length=510, n=2, tiled_n=2, seed=5))
    def test_two_lanes_replay_one_lane_bits(self, case):
        n, length = case["n"], case["length"]
        x = np.random.default_rng(case["seed"]).random((n, length)).astype(np.float32)
        got = {}
        with backend.use_backend("im2col"):
            for lanes in (1, 2):
                ensemble = _lane_ensemble(case)
                with _lanes(lanes):
                    ensemble.forward_fused(x, batch_size=n)  # traces
                backend.reset_op_counts()
                got[lanes] = ensemble.forward_fused(x, batch_size=n)  # replays
                gemms = backend.op_counts()["fused_conv_gemms"]
                plan = _plan(ensemble)
                tiles = sum(len(lane) for step in _lane_steps(plan) for lane in step.lanes)
                untiled = sum(label.startswith("gemm[") for label in plan.labels)
                # Counted on the replaying thread once both lanes are done:
                # one GEMM per tile, none lost to the helper thread.
                assert gemms == tiles + untiled
                assert backend.op_counts()["fused_conv_calls"] == gemms
                assert ensemble.plan_cache.stats["lanes"] == (2 if tiles else 1)
                assert ensemble.plan_cache.fallbacks == 0
            proba = np.zeros(n, dtype=np.float32)
            cam = np.zeros((n, length), dtype=np.float32)
            with nn.no_grad():
                ensemble._forward_fused_loop(x, proba, cam, 0, class_index=1)
        assert got[2].proba.tobytes() == got[1].proba.tobytes()
        assert got[2].cam.tobytes() == got[1].cam.tobytes()
        assert np.array_equal(got[2].cam, cam)
        if n >= case["tiled_n"]:
            assert ensemble.plan_cache.stats["lanes"] == 2

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupted_join_still_waits_for_lane_one(self):
        """A signal handler raising (as Ctrl-C raises KeyboardInterrupt)
        while the replaying thread waits for lane 1: the step raises it only
        once lane 1 has ended, and later calls still wait for their lane 1."""

        class Interrupt(Exception):
            pass

        def on_signal(signum, frame):
            raise Interrupt

        main = threading.main_thread().ident
        lane0_ended = threading.Event()
        ended = []

        def lane1(interrupt):
            lane0_ended.wait(10)
            time.sleep(0.05)  # the replaying thread is waiting by now
            if interrupt:
                signal.pthread_kill(main, signal.SIGUSR1)
            time.sleep(0.05)
            ended.append(interrupt)

        step = nn.plan.LaneStep(([lane0_ended.set], [lambda: lane1(True)]))
        previous = signal.signal(signal.SIGUSR1, on_signal)
        try:
            with pytest.raises(Interrupt):
                step()
            assert ended == [True]
            lane0_ended.clear()
            step.lanes = (step.lanes[0], (lambda: lane1(False),))
            step()
            assert ended == [True, False]
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert nn.plan._lane_helper().thread.is_alive()

    def test_a_failure_in_lane_one_is_raised_on_the_caller(self):
        case = dict(kernels=(5, 9), filters=(16, 64, 64), length=128, n=24, seed=3)
        x = np.random.default_rng(0).random((24, 128)).astype(np.float32)
        one_lane = _lane_ensemble(case)
        ensemble = _lane_ensemble(case)
        ran_on = []

        def fail():
            ran_on.append(threading.current_thread().name)
            raise RuntimeError("lane 1 failed")

        with backend.use_backend("im2col"):
            with _lanes(1):
                want = one_lane.forward_fused(x, batch_size=24)
            with _lanes(2):
                ensemble.forward_fused(x, batch_size=24)
            helper = nn.plan._lane_helper().thread
            step = _lane_steps(_plan(ensemble))[0]
            lanes = step.lanes
            # Fail before lane 1's tiles run, so that replay leaves them unwritten.
            step.lanes = (lanes[0], (fail,) + lanes[1])
            with pytest.raises(RuntimeError, match="lane 1 failed"):
                ensemble.forward_fused(x, batch_size=24)
            step.lanes = lanes
            got = ensemble.forward_fused(x, batch_size=24)
        assert ran_on == [helper.name] and helper.name != threading.current_thread().name
        assert nn.plan._lane_helper().thread is helper and helper.is_alive()
        assert got.proba.tobytes() == want.proba.tobytes()
        assert got.cam.tobytes() == want.cam.tobytes()


@st.composite
def algorithm1_cases(draw):
    """An ensemble seed and a candidate grid: 1-4 kernels, repeats allowed."""
    return dict(
        seed=draw(st.integers(0, 2**16)),
        kernels=tuple(draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=4))),
        n_trials=draw(st.integers(1, 2)),
        epochs=draw(st.integers(1, 2)),
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
        train=TrainConfig(epochs=case["epochs"], batch_size=8, patience=0),
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


def _lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-candidate")]


#: A grid of four candidates: lanes start kernels 9 and 7, then 5 and 3.
FOUR_CANDIDATES = dict(seed=1, kernels=(3, 5, 7, 9), n_trials=1, epochs=1, checkpoint=False)


class TestAlgorithm1Lanes:
    """Two candidates at a time change nothing but the time."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(algorithm1_cases())
    def test_two_lanes_train_the_one_lane_candidates(self, case):
        with _lanes(1):
            one = _algorithm1(case)
        with _lanes(2):
            two = _algorithm1(case)
        _assert_same_run(two, one)
        assert not _lane_threads()

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(algorithm1_cases())
    def test_worker_processes_train_the_one_lane_candidates(self, case):
        with _lanes(1):
            one = _algorithm1(case, n_windows=16)
        _assert_same_run(_algorithm1(case, n_windows=16, n_workers=2), one)

    @pytest.mark.parametrize("failing_kernel", [9, 7], ids=["lane0", "lane1"])
    def test_a_failed_candidate_is_raised_after_the_other_lane_ends(self, failing_kernel):
        train = algorithm1._train_candidate
        both_started = threading.Barrier(2)
        failed = threading.Event()
        started, ended = [], []

        def candidate(plan, data):
            started.append(plan[1])
            both_started.wait(10)
            if plan[1] == failing_kernel:
                failed.set()
                raise RuntimeError("candidate failed")
            assert failed.wait(10)
            time.sleep(0.05)  # the caller has seen the failure by now
            outcome = train(plan, data)
            ended.append(plan[1])
            return outcome

        with _lanes(2), mock.patch.object(algorithm1, "_train_candidate", candidate):
            with pytest.raises(RuntimeError, match="candidate failed"):
                _algorithm1(FOUR_CANDIDATES)
        assert sorted(started) == [7, 9]  # kernels 5 and 3 never started
        assert ended == [16 - failing_kernel]
        assert not _lane_threads()

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_is_raised_after_the_running_candidates_end(self):
        """A signal handler raising (as Ctrl-C raises KeyboardInterrupt)
        while the caller waits for its lanes."""

        class Interrupt(Exception):
            pass

        def on_signal(signum, frame):
            raise Interrupt

        train = algorithm1._train_candidate
        main = threading.main_thread().ident
        both_started = threading.Barrier(2)
        started, ended = [], []

        def candidate(plan, data):
            started.append(plan[1])
            both_started.wait(10)
            if plan[1] == 9:
                signal.pthread_kill(main, signal.SIGUSR1)
            time.sleep(0.05)
            outcome = train(plan, data)
            ended.append(plan[1])
            return outcome

        previous = signal.signal(signal.SIGUSR1, on_signal)
        try:
            with _lanes(2), mock.patch.object(algorithm1, "_train_candidate", candidate):
                with pytest.raises(Interrupt):
                    _algorithm1(FOUR_CANDIDATES)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert sorted(started) == sorted(ended) == [7, 9]
        assert not _lane_threads()


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
