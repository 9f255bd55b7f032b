"""Training hyper-parameters and run results shared by every loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Optimizers the loops know how to build (see ``loops._build_optimizer``).
OPTIMIZERS = ("adam", "adamw", "sgd")

#: LR schedules the loops know how to build (see ``loops._build_scheduler``).
SCHEDULERS = ("none", "step", "cosine", "warmup_cosine")


@dataclass
class TrainConfig:
    """Hyper-parameters shared by all training loops."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.0
    patience: int = 5  # early-stopping patience in epochs (0 disables)
    clip_grad: float = 5.0  # global-norm clip (0 disables)
    seed: int = 0
    verbose: bool = False
    # -- optimizer / LR schedule ------------------------------------------
    optimizer: str = "adam"  # one of OPTIMIZERS
    scheduler: str = "none"  # one of SCHEDULERS
    #: Positive-class weight for the BCE losses of the seq2seq / weak-MIL
    #: loops (``None`` keeps unweighted BCE).  NILM status labels are
    #: heavily OFF-skewed; weighting by ~1/positive-rate keeps the sigmoid
    #: outputs calibrated around the 0.5 decision threshold.
    pos_weight: Optional[float] = None
    warmup_epochs: int = 0  # linear-warmup epochs (warmup_cosine only)
    step_size: int = 10  # StepLR period
    gamma: float = 0.1  # StepLR decay factor
    eta_min: float = 0.0  # cosine floor
    # -- checkpoint / resume ----------------------------------------------
    checkpoint_path: Optional[str] = None  # .npz path; None disables
    checkpoint_every: int = 1  # save every k completed epochs
    resume: bool = True  # resume from checkpoint_path if it exists

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; known: {OPTIMIZERS}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; known: {SCHEDULERS}"
            )
        if self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )


@dataclass
class TrainResult:
    """Outcome of one training run."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_epoch: int = -1
    #: Seconds the run's own steps took; time parked between steps is left out.
    wall_time_seconds: float = 0.0
    epoch_times: List[float] = field(default_factory=list)
    resumed_from_epoch: int = 0  # 0 when the run started from scratch

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)
