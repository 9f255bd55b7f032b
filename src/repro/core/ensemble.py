"""Algorithm 1: training and selecting the CamAL ResNet ensemble.

For each kernel size ``k_p`` in the kernel set, train ``n_trials`` ResNets
on an 80/20 split of the training windows (the 20 % sub-split monitors
training / early stopping), evaluate every candidate on the *separate*
validation set, and keep the ``n`` models with the lowest validation loss.

The candidates are fully independent — each is seeded by a deterministic
function of ``(seed, kernel, trial)`` — so :func:`train_ensemble` can
step them in turn on two lanes in-process, one optimizer step at a time
(when :func:`repro.nn.plan.plan_lanes` allows two lanes), or fan them
out over a ``ProcessPoolExecutor`` (``n_workers > 1``), and produce
results bit-identical to the serial order.  With ``checkpoint_dir`` set,
every candidate writes a resumable per-candidate checkpoint (see
:mod:`repro.training.checkpoint`), so an interrupted ensemble run picks up
where it left off instead of retraining finished members.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor
from ..training import TrainConfig, classifier_steps, evaluate_classifier_loss, predict_proba
from ..training import train_classifier  # noqa: F401  perfbench's training probes wrap it
from .cam import cam_from_features, normalize_cam
from .resnet import DEFAULT_FILTERS, DEFAULT_KERNEL_SET, ResNetConfig, ResNetTSC

#: Windows per member-loop call when a new plan is checked against the
#: loop: the check's scratch scales with it, and it runs once per trace.
VALIDATE_WINDOWS = 8


@dataclass
class EnsembleConfig:
    """Hyper-parameters of Algorithm 1."""

    kernel_set: Tuple[int, ...] = DEFAULT_KERNEL_SET
    n_trials: int = 3  # trials per kernel size (Algorithm 1, line 3)
    n_models: int = 5  # ensemble size n (paper default)
    filters: Tuple[int, int, int] = DEFAULT_FILTERS
    train_sub_fraction: float = 0.8  # D_train-sub share (Algorithm 1, line 1)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0


@dataclass
class TrainedCandidate:
    """One trained candidate with its selection score."""

    model: ResNetTSC
    kernel_size: int
    trial: int
    val_loss: float
    wall_time_seconds: float


@dataclass
class FusedForwardOutput:
    """Detection probabilities and ensemble CAM from one pass per member."""

    proba: np.ndarray  # (N,) ensemble detection probability P_ens
    cam: np.ndarray  # (N, L) mean of per-member normalized class CAMs


class ResNetEnsemble:
    """Container for the selected models; implements steps 1-2 of CamAL."""

    def __init__(self, models: Sequence[ResNetTSC]):
        if not models:
            raise ValueError("ensemble needs at least one model")
        self.models: List[ResNetTSC] = list(models)
        #: Pool the plans' arenas are taken from, also recycling the
        #: member loop's conv scratch/outputs across fused micro-batches;
        #: created on first use so a freshly loaded ensemble carries none.
        self._pool: Optional[nn.backend.BufferPool] = None
        #: Traced grouped-GEMM plans per (batch, window, backend) signature
        #: (see :mod:`repro.core.grouped`), placed in each cache's arena;
        #: lazy like the pool.  The second holds second halves' plans.
        self._plan_cache: Optional[nn.PlanCache] = None
        self._second_cache: Optional[nn.PlanCache] = None
        self._plan_unsupported: set = set()
        #: :func:`~repro.core.grouped.widest_columns` per window length.
        self._widest: Dict[int, int] = {}
        #: Serializes :meth:`forward_fused` and :meth:`predict_proba`: the
        #: plans of a cache share arena bytes, and the pool is
        #: single-threaded.
        self._lock = threading.Lock()

    @property
    def buffer_pool(self) -> nn.backend.BufferPool:
        """The pool :meth:`forward_fused` recycles buffers through."""
        if self._pool is None:
            self._pool = nn.backend.BufferPool()
        return self._pool

    @property
    def plan_cache(self) -> nn.PlanCache:
        """Cache of traced grouped execution plans (+ trace/replay counters)."""
        if self._plan_cache is None:
            self._plan_cache = nn.PlanCache(arena=nn.SlotArena(self.buffer_pool))
        return self._plan_cache

    @property
    def second_plan_cache(self) -> nn.PlanCache:
        """Plans of the second halves of split batches (see :meth:`_halves`)."""
        if self._second_cache is None:
            self._second_cache = nn.PlanCache(arena=nn.SlotArena(self.buffer_pool))
        return self._second_cache

    def plan_stats(self) -> Dict[str, int]:
        """Both plan caches' ``stats``, summed (empty before the first trace)."""
        stats = [c.stats for c in (self._plan_cache, self._second_cache) if c is not None]
        return {key: sum(s[key] for s in stats) for key in (stats[0] if stats else ())}

    def __len__(self) -> int:
        return len(self.models)

    @property
    def kernel_sizes(self) -> List[int]:
        return [m.kernel_size for m in self.models]

    def _halves(self, n: int, length: int) -> Tuple[int, ...]:
        """The window counts ``n`` windows are scored in: two halves on two
        lanes where two may run now and a one-lane plan would tile a conv
        group; the first half replays a plan of :attr:`plan_cache`, the
        second one of :attr:`second_plan_cache`."""
        from .grouped import COLUMN_BUDGET_BYTES, widest_columns

        if n < 2 or nn.plan.plan_lanes() != 2:
            return (n,)
        if length not in self._widest:
            self._widest[length] = widest_columns(self.models, length)
        return ((n + 1) // 2, n // 2) if n * self._widest[length] > COLUMN_BUDGET_BYTES else (n,)

    def _plan_outputs(
        self, xb: np.ndarray, class_index: int, with_cam: bool
    ) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """One micro-batch through traced grouped plans, or ``None``.

        ``None`` means "take the untraced member loop" — plan layer
        disabled (``REPRO_NN_PLAN=off``), members in training mode, an
        untraceable structure, or a failed trace-time validation.  Every
        fallback is counted in :attr:`plan_cache` so it shows up in
        ``engine.plan_stats()`` and the benchmark JSON.  The halves
        (:meth:`_halves`) replay at once (:func:`repro.nn.plan.run_on_lanes`)
        and, a window's bits not depending on its batch, give the one-lane
        plan's bits.  New plans are traced on this thread (arenas grow
        through the pool) and kept once their first outputs match the
        untraced loop.  Must run inside the lock and the ``no_grad`` +
        ``use_pool`` context of the caller.
        """
        from .grouped import PlanUnsupported, compile_ensemble_plan

        cache = self.plan_cache
        if not nn.plan_enabled() or any(m.training for m in self.models):
            cache.fallbacks += 1
            return None
        n, length = xb.shape
        signature = (
            n, length, class_index, with_cam, nn.backend.get_backend(), len(self.models),
        )
        if signature in self._plan_unsupported:
            cache.fallbacks += 1
            return None
        try:
            sizes = self._halves(n, length)
            caches = (cache, self.second_plan_cache)[: len(sizes)]
            plans = [c.get((size,) + signature[1:]) for c, size in zip(caches, sizes)]
            new = [plan is None for plan in plans]
            plans = [plan or compile_ensemble_plan(self.models, c.arena, size, length,
                                                   class_index=class_index, with_cam=with_cam)
                     for plan, c, size in zip(plans, caches, sizes)]
        except PlanUnsupported:
            self._plan_unsupported.add(signature)
            cache.fallbacks += 1
            return None
        proba = np.empty(n, dtype=np.float32)
        cam = np.empty((n, length), dtype=np.float32) if with_cam else None
        bounds = (0, sizes[0], n)
        tasks = [
            functools.partial(
                _replay_into, plan, xb[a:b], proba[a:b], None if cam is None else cam[a:b]
            )
            for plan, a, b in zip(plans, bounds, bounds[1:])
        ]
        nn.plan.run_on_lanes(tasks)
        if any(new):
            # Validate new plans against the untraced loop once, then keep
            # them.  The *plan* outputs are returned, bit-consistent with
            # every replay.  The loop runs in small chunks through a private
            # pool, so its scratch is freed with the pool instead of
            # lingering in the ensemble's, where no replay reads it.
            check_proba = np.zeros(n, dtype=np.float32)
            check_cam = np.zeros((n, length), dtype=np.float32)
            with nn.backend.use_pool(nn.backend.BufferPool()):
                for start in range(0, n, VALIDATE_WINDOWS):
                    self._forward_fused_loop(
                        xb[start : start + VALIDATE_WINDOWS],
                        check_proba, check_cam, start, class_index,
                    )
            ok = np.allclose(proba, check_proba, atol=1e-4)
            if not (ok and (cam is None or np.allclose(cam, check_cam, atol=1e-4))):
                self._plan_unsupported.add(signature)
                cache.fallbacks += 1
                return None
        for c, plan, fresh in zip(caches, plans, new):
            if fresh:
                c.put(plan.signature, plan)
            else:
                c.replays += 1
        return proba, cam

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Ensemble detection probability: mean of member probabilities."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            probs = np.stack([predict_proba(m, x, batch_size) for m in self.models])
            return probs.mean(axis=0)
        n = len(x)
        out = np.empty(n, dtype=np.float32)
        pool = self.buffer_pool
        with self._lock, nn.no_grad(), nn.backend.use_pool(pool):
            for start in range(0, n, batch_size):
                pool.step()
                xb = x[start : start + batch_size]
                got = self._plan_outputs(xb, class_index=1, with_cam=False)
                if got is not None:
                    out[start : start + len(xb)] = got[0]
                else:
                    batch = Tensor(xb[:, None, :])
                    member = np.stack(
                        [F.softmax(m(batch), axis=1).data[:, 1] for m in self.models]
                    )
                    out[start : start + len(xb)] = member.mean(axis=0)
            pool.step()
        return out

    def predict_detection(
        self, x: np.ndarray, threshold: float = 0.5, batch_size: int = 256
    ) -> np.ndarray:
        """Binary appliance-detection decision per window (Problem 1)."""
        return self.predict_proba(x, batch_size) > threshold

    def forward_fused(
        self, x: np.ndarray, batch_size: int = 256, class_index: int = 1
    ) -> FusedForwardOutput:
        """Detection probability *and* ensemble CAM in one forward per member.

        Equivalent to ``predict_proba`` followed by
        :func:`repro.core.cam.ensemble_cam`, but the conv stack of each
        member runs only once per window: the logits come from GAP + head
        on the same feature maps that yield the CAM, so the serving hot
        path pays a single forward instead of two (paper Table II's
        inference-cost story).
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"expected (N, L) windows, got shape {x.shape}")
        n, length = x.shape
        proba = np.zeros(n, dtype=np.float32)
        cam = np.zeros((n, length), dtype=np.float32)
        # The micro-batch loop runs through the ensemble's buffer pool.
        # Each batch goes through the traced grouped-GEMM plan (one batched
        # matmul per layer group, zero module dispatch — repro.core.grouped)
        # when one is available, and through the per-member loop otherwise;
        # pool.step() then recycles that batch's conv scratch, so
        # steady-state scoring performs no large allocations.
        pool = self.buffer_pool
        with self._lock, nn.no_grad(), nn.backend.use_pool(pool):
            for start in range(0, n, batch_size):
                pool.step()
                xb = x[start : start + batch_size]
                got = self._plan_outputs(xb, class_index, with_cam=True)
                if got is not None:
                    proba[start : start + len(xb)] = got[0]
                    cam[start : start + len(xb)] = got[1]
                else:
                    self._forward_fused_loop(xb, proba, cam, start, class_index)
            pool.step()
        return FusedForwardOutput(proba=proba, cam=cam)

    def _forward_fused_loop(
        self,
        xb: np.ndarray,
        proba: np.ndarray,
        cam: np.ndarray,
        start: int,
        class_index: int,
    ) -> None:
        """The untraced per-member micro-batch: fallback and trace validator.

        Steps the active pool after each member, once its probability and
        CAM are accumulated, so the loop's scratch is one member's worth.
        """
        inv_members = 1.0 / len(self.models)
        pool = nn.backend.current_pool()
        batch = Tensor(xb[:, None, :])
        for model in self.models:
            logits, feats = model.forward_with_features(batch)
            member_proba = F.softmax(logits, axis=1).data[:, 1]
            member_cam = normalize_cam(
                cam_from_features(feats.data, model.head.weight.data[class_index])
            )
            proba[start : start + len(member_proba)] += member_proba * inv_members
            cam[start : start + len(member_cam)] += member_cam * inv_members
            if pool is not None:
                pool.step()

    def num_parameters(self) -> int:
        return sum(m.num_parameters() for m in self.models)

    def eval(self) -> "ResNetEnsemble":
        for model in self.models:
            model.eval()
        return self


def _replay_into(
    plan: nn.ExecutionPlan, xb: np.ndarray, proba: np.ndarray, cam: Optional[np.ndarray]
) -> None:
    """Replay ``plan`` on windows ``xb``, writing its outputs to ``proba``/``cam``."""
    np.copyto(plan.inputs["x"], xb)
    plan.run()
    np.copyto(proba, plan.outputs["proba"])
    if cam is not None:
        np.copyto(cam, plan.outputs["cam"])


def _split_train_sub(
    x: np.ndarray, y: np.ndarray, fraction: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random 80/20 split of the training windows (Algorithm 1, line 1)."""
    n = len(x)
    order = rng.permutation(n)
    cut = max(1, int(round(fraction * n)))
    cut = min(cut, n - 1) if n > 1 else 1
    train_idx, monitor_idx = order[:cut], order[cut:]
    if len(monitor_idx) == 0:
        monitor_idx = train_idx[-1:]
    return x[train_idx], y[train_idx], x[monitor_idx], y[monitor_idx]


#: One row of Algorithm 1's candidate grid: (kernel_index, kernel_size,
#: trial, model_seed, checkpoint_path).  Plain tuple so it pickles cheaply.
_CandidatePlan = Tuple[int, int, int, int, Optional[str]]

#: Shared training data stashed per worker process by the pool initializer
#: (fork-safe and pickled once per worker instead of once per candidate).
_WORKER_DATA: Optional[Tuple] = None


def _training_digest(
    config: EnsembleConfig, arrays: Sequence[np.ndarray]
) -> str:
    """Short content hash of the training task (data + architecture).

    Folded into candidate checkpoint filenames so sharing one
    ``checkpoint_dir`` across appliances, corpora or presets can never
    silently resume another task's weights — a different task simply gets
    different filenames and trains fresh.
    """
    digest = hashlib.blake2b(digest_size=8)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    digest.update(repr(config.filters).encode())
    return digest.hexdigest()


def _candidate_plans(
    config: EnsembleConfig, checkpoint_dir: Optional[str], task_digest: str
) -> List[_CandidatePlan]:
    """The deterministic candidate grid of Algorithm 1, lines 2-3."""
    plans: List[_CandidatePlan] = []
    for kernel_index, kernel_size in enumerate(config.kernel_set):
        for trial in range(config.n_trials):
            # The index term keeps seeds distinct even when the ablation
            # passes the same kernel size several times.
            model_seed = (
                config.seed * 10_000 + kernel_index * 1_000 + kernel_size * 10 + trial
            )
            path = None
            if checkpoint_dir is not None:
                # model_seed isolates runs with different ensemble seeds;
                # the task digest isolates different data/architectures.
                # (TrainConfig drift inside a matching file is caught by the
                # checkpoint's own config fingerprint on resume.)
                path = os.path.join(
                    checkpoint_dir,
                    f"candidate_i{kernel_index}_k{kernel_size}_t{trial}"
                    f"_s{model_seed}_d{task_digest}.npz",
                )
            plans.append((kernel_index, kernel_size, trial, model_seed, path))
    return plans


#: What a trained candidate comes back as: its grid row, state dict,
#: validation loss and the seconds its training steps ran.
_Outcome = Tuple[_CandidatePlan, Dict[str, np.ndarray], float, float]


def _train_candidate(plan: _CandidatePlan, data: Tuple) -> Generator[None, None, _Outcome]:
    """Train one candidate, one optimizer step per ``next()``.

    Returns its state dict instead of the model so the outcome crosses
    process boundaries without pickling live modules.  The model is built
    at the first step, so a chain not yet stepped holds none.
    """
    filters, train_config, x_sub, y_sub, x_mon, y_mon, x_val, y_val = data
    _, kernel_size, _, model_seed, checkpoint_path = plan
    model = ResNetTSC(
        ResNetConfig(kernel_size=kernel_size, filters=filters, seed=model_seed)
    )
    train_cfg = replace(
        train_config, seed=model_seed, checkpoint_path=checkpoint_path
    )
    result = yield from classifier_steps(model, x_sub, y_sub, x_mon, y_mon, train_cfg)
    model.eval()
    val_loss = evaluate_classifier_loss(model, x_val, y_val)
    return plan, model.state_dict(), float(val_loss), result.wall_time_seconds


def _init_worker(data: Tuple) -> None:
    global _WORKER_DATA
    _WORKER_DATA = data


def _train_candidate_in_worker(plan: _CandidatePlan) -> _Outcome:
    return nn.plan.run_chain(_train_candidate(plan, _WORKER_DATA))


def train_ensemble(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: Optional[EnsembleConfig] = None,
    n_workers: int = 1,
    checkpoint_dir: Optional[str] = None,
) -> Tuple[ResNetEnsemble, List[TrainedCandidate]]:
    """Run Algorithm 1 and return (selected ensemble, all candidates).

    Args:
        x_train / y_train: training windows ``(N, L)`` and weak labels.
        x_val / y_val: the separate validation set used for model selection
            (Algorithm 1's ``D_validation``).
        config: ensemble and training hyper-parameters.
        n_workers: worker processes to train candidates on.  ``1`` (the
            default) trains in-process: when
            :func:`repro.nn.plan.plan_lanes` (read at call time) gives two
            lanes, each lane steps the next idle candidate one optimizer
            step at a time (:func:`repro.nn.plan.run_on_lanes`), three
            open at once; with one lane the candidates train one after
            another.  Any value is safe — the candidates are
            seed-isolated, so the selected ensemble is identical
            regardless of worker or lane count.
        checkpoint_dir: when set, each candidate checkpoints its epochs to
            ``<dir>/candidate_i<ki>_k<ks>_t<trial>_s<seed>_d<digest>.npz``
            (digest = hash of the training data + architecture) and
            resumes from an existing checkpoint (honouring
            ``config.train.resume``).
    """
    config = config or EnsembleConfig()
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    rng = np.random.default_rng(config.seed)
    x_sub, y_sub, x_mon, y_mon = _split_train_sub(
        np.asarray(x_train, dtype=np.float32),
        np.asarray(y_train, dtype=np.int64),
        config.train_sub_fraction,
        rng,
    )
    x_val = np.asarray(x_val, dtype=np.float32)
    y_val = np.asarray(y_val, dtype=np.int64)

    task_digest = ""
    if checkpoint_dir is not None:
        task_digest = _training_digest(config, (x_sub, y_sub, x_mon, y_mon))
    plans = _candidate_plans(config, checkpoint_dir, task_digest)
    data = (config.filters, config.train, x_sub, y_sub, x_mon, y_mon, x_val, y_val)
    if n_workers > 1 and len(plans) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(plans)),
            initializer=_init_worker,
            initargs=(data,),
        ) as pool:
            # executor.map preserves submission order, so the merge below is
            # independent of which worker finishes first.
            outcomes = list(pool.map(_train_candidate_in_worker, plans))
    elif nn.plan.plan_lanes() == 2:
        # Largest kernels open first, so the longest candidates do not
        # start last; the outcomes merge back in grid order.
        order = sorted(range(len(plans)), key=lambda i: -plans[i][1])
        chains = [_train_candidate(plans[i], data) for i in order]
        by_index = dict(zip(order, nn.plan.run_on_lanes(chains)))
        outcomes = [by_index[i] for i in range(len(plans))]
    else:
        outcomes = [nn.plan.run_chain(_train_candidate(plan, data)) for plan in plans]

    candidates: List[TrainedCandidate] = []
    for (_, kernel_size, trial, model_seed, _), state, val_loss, wall in outcomes:
        model = ResNetTSC(
            ResNetConfig(
                kernel_size=kernel_size, filters=config.filters, seed=model_seed
            )
        )
        model.load_state_dict(state)
        model.eval()
        candidates.append(
            TrainedCandidate(
                model=model,
                kernel_size=kernel_size,
                trial=trial,
                val_loss=val_loss,
                wall_time_seconds=wall,
            )
        )

    # Algorithm 1, line 9: keep the n models with lowest validation loss.
    # sorted() is stable, so equal losses keep grid order and the selection
    # matches the serial path exactly.
    ranked = sorted(candidates, key=lambda c: c.val_loss)
    selected = [c.model for c in ranked[: config.n_models]]
    return ResNetEnsemble(selected), candidates

