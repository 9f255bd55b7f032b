"""CamAL step 2: appliance pattern localization (§IV-B, Fig. 3).

Given a trained detection ensemble, localization proceeds per window:

1. ensemble detection probability ``P_ens = mean_i P_i``;
2. if ``P_ens <= threshold`` the status is all-zeros;
3. otherwise extract each member's class-1 CAM,
4. normalize each to [0, 1] and average them into ``CAM_ens``,
5. apply ``CAM_ens`` as an attention mask on the input:
   ``s(t) = sigmoid(CAM_ens(t) * x(t))``,
6. round at 0.5 into the binary status ``ŝ(t)`` (:func:`on_status`).

The paper's introduction additionally describes a post-processing of the
aggregated CAM "to refine the prediction".  We implement it as a *power
gate*: a timestamp can only be ON if the aggregate itself reaches the
appliance's ON-power threshold — a direct consequence of Eq. 2
(``x(t) >= s_a(t) * a(t)``, so an appliance drawing at least its threshold
cannot be ON while the whole-house reading sits below it).  The gate is
what gives short spiky appliances (kettle) usable precision; disabling it
recovers the literal formula (see the ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..simdata.preprocessing import SCALE_DIVISOR
from .cam import ensemble_cam
from .ensemble import ResNetEnsemble


def on_status(soft: np.ndarray, threshold: float, power: np.ndarray, gate) -> np.ndarray:
    """The ON rule: float32 1.0 where ``soft >= threshold``, gated by power.

    Unless ``gate`` is None, a timestamp is ON only where ``power >= gate``
    too (the Eq. 2 power gate).  ``power`` and ``gate`` come in one unit:
    scaled windows with ``gate / SCALE_DIVISOR``, or Watts.
    """
    status = (soft >= threshold).astype(np.float32)
    if gate is not None:
        status *= (power >= gate).astype(np.float32)
    return status


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clip to keep float32 exp() finite; sigmoid saturates long before 60.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


@dataclass
class LocalizationOutput:
    """Everything CamAL produces for a batch of windows."""

    detection_proba: np.ndarray  # (N,) ensemble probability P_ens
    detected: np.ndarray  # (N,) boolean detection decision
    cam: np.ndarray  # (N, L) averaged normalized CAM (zero when undetected)
    soft_status: np.ndarray  # (N, L) sigmoid attention output in [0, 1]
    status: np.ndarray  # (N, L) binary ŝ(t)

    @property
    def detected_float(self) -> np.ndarray:
        """Float view of ``detected`` for numeric post-processing."""
        return self.detected.astype(np.float32)


class CamAL:
    """The CamAL pipeline: a detection ensemble + CAM-based localization.

    Args:
        ensemble: trained :class:`ResNetEnsemble` for the target appliance.
        detection_threshold: minimum ensemble probability to localize.
        use_attention: if ``False``, skip the attention-sigmoid module and
            threshold the averaged CAM directly (the "w/o Attention module"
            ablation of Table IV).
        power_gate_watts: if set, a timestamp is only marked ON when the
            unscaled aggregate reaches this many Watts (usually the
            appliance's Table-I ON threshold).  ``None`` disables the gate
            and keeps the literal §IV-B formula.
        status_threshold: soft-score level at which a timestamp rounds to
            ON (the paper's 0.5 in §IV-B step 6).  The pipeline owns this
            value — consumers such as the serving engine's stitcher default
            to it rather than imposing their own.
    """

    def __init__(
        self,
        ensemble: ResNetEnsemble,
        detection_threshold: float = 0.5,
        use_attention: bool = True,
        power_gate_watts: Optional[float] = None,
        status_threshold: float = 0.5,
    ):
        self.ensemble = ensemble
        self.detection_threshold = detection_threshold
        self.use_attention = use_attention
        self.power_gate_watts = power_gate_watts
        self.status_threshold = status_threshold

    # -- Problem 1 --------------------------------------------------------
    def detect(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Window-level detection probabilities ``(N,)``."""
        return self.ensemble.predict_proba(
            np.asarray(x, dtype=np.float32), batch_size
        )

    # -- Problem 2 --------------------------------------------------------
    def localize(self, x: np.ndarray, batch_size: int = 256) -> LocalizationOutput:
        """Run the full localization pipeline on windows ``(N, L)``.

        Detection probability, CAM, soft status and binary status all come
        from exactly **one** forward pass per ensemble member
        (:meth:`ResNetEnsemble.forward_fused`): the CAM is a contraction of
        the same feature maps that produce the logits, so detected windows
        no longer pay a second trip through the conv stack.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"expected (N, L) windows, got shape {x.shape}")
        fused = self.ensemble.forward_fused(x, batch_size)
        proba = fused.proba
        detected = proba > self.detection_threshold

        mask = detected[:, None]
        cam = np.where(mask, fused.cam, 0.0).astype(np.float32)
        if self.use_attention:
            soft = np.where(mask, _sigmoid(cam * x), 0.0).astype(np.float32)
        else:
            # Ablation: threshold the raw averaged CAM directly.
            soft = cam
        gate = self.power_gate_watts
        # x is the /1000-scaled aggregate, so the gate is scaled to match;
        # undetected windows stay OFF at any threshold (step 2).
        status = on_status(
            soft, self.status_threshold, x, None if gate is None else gate / SCALE_DIVISOR
        )
        status *= mask

        return LocalizationOutput(
            detection_proba=proba,
            detected=detected,
            cam=cam,
            soft_status=soft,
            status=status,
        )

    def predict_status(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Binary per-timestamp status ``ŝ(t)``, shape ``(N, L)``."""
        return self.localize(x, batch_size).status

    def eval(self) -> "CamAL":
        """Switch every ensemble member to inference mode."""
        self.ensemble.eval()
        return self


def localize_double_forward(
    camal: CamAL, x: np.ndarray, batch_size: int = 256
) -> LocalizationOutput:
    """Reference implementation: the pre-fusion two-pass localization.

    Runs detection (one full forward per member) and then recomputes the
    conv features of detected windows through :func:`ensemble_cam` (a
    second full pass).  Kept as the ground truth for the fused path's
    equivalence tests and as the baseline of
    ``benchmarks/bench_serving_throughput.py``; production code should call
    :meth:`CamAL.localize`.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"expected (N, L) windows, got shape {x.shape}")
    n, length = x.shape
    proba = camal.ensemble.predict_proba(x, batch_size)
    detected = proba > camal.detection_threshold

    cam = np.zeros((n, length), dtype=np.float32)
    soft = np.zeros((n, length), dtype=np.float32)
    status = np.zeros((n, length), dtype=np.float32)
    idx = np.flatnonzero(detected)
    for start in range(0, len(idx), batch_size):
        chunk = idx[start : start + batch_size]
        cam_chunk = ensemble_cam(camal.ensemble.models, x[chunk])
        cam[chunk] = cam_chunk
        if camal.use_attention:
            soft_chunk = _sigmoid(cam_chunk * x[chunk])
        else:
            soft_chunk = cam_chunk
        soft[chunk] = soft_chunk
        status_chunk = (soft_chunk >= camal.status_threshold).astype(np.float32)
        if camal.power_gate_watts is not None:
            gate = x[chunk] >= camal.power_gate_watts / SCALE_DIVISOR
            status_chunk *= gate.astype(np.float32)
        status[chunk] = status_chunk

    return LocalizationOutput(
        detection_proba=proba,
        detected=detected,
        cam=cam,
        soft_status=soft,
        status=status,
    )
