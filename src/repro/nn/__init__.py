"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

This package replaces PyTorch for the CamAL reproduction: reverse-mode
autodiff (:mod:`repro.nn.tensor`), fused NN primitives
(:mod:`repro.nn.functional`), layers/modules, optimizers, data loading and
serialization.  The reproduction depends on NumPy alone, so the paper's
PyTorch models are rebuilt on this substrate.
"""

from . import backend, functional, plan
from .attention import MultiHeadSelfAttention, TransformerEncoderLayer
from .data import DataLoader, Dataset, Subset, TensorDataset, balance_binary, random_split
from .layers import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    Dropout,
    GELU,
    GlobalAvgPool1d,
    LayerNorm,
    Linear,
    MaxPool1d,
    ReLU,
    Sigmoid,
    Tanh,
    UpsampleNearest1d,
)
from .losses import BCEWithLogitsLoss, CrossEntropyLoss, MSELoss
from .modules import Module, ModuleList, Sequential, module_calls
from .plan import ExecutionPlan, PlanBuilder, PlanCache, SlotArena, plan_enabled
from .optim import (
    Adam,
    AdamW,
    CosineAnnealingLR,
    LRScheduler,
    Optimizer,
    SGD,
    StepLR,
    WarmupCosineLR,
)
from .recurrent import GRU, GRUCell
from .serialization import load_state, save_state
from .tensor import (
    Tensor,
    concat,
    graph_nodes_created,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
)
from .utils import check_gradients, count_parameters, one_hot, seed_everything

__all__ = [
    "backend",
    "functional",
    "plan",
    "ExecutionPlan",
    "PlanBuilder",
    "PlanCache",
    "SlotArena",
    "plan_enabled",
    "module_calls",
    "graph_nodes_created",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concat",
    "stack",
    "where",
    "no_grad",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Conv1d",
    "BatchNorm1d",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "GELU",
    "MaxPool1d",
    "AvgPool1d",
    "GlobalAvgPool1d",
    "UpsampleNearest1d",
    "GRU",
    "GRUCell",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "CrossEntropyLoss",
    "BCEWithLogitsLoss",
    "MSELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupCosineLR",
    "Dataset",
    "TensorDataset",
    "Subset",
    "DataLoader",
    "random_split",
    "balance_binary",
    "save_state",
    "load_state",
    "seed_everything",
    "count_parameters",
    "check_gradients",
    "one_hot",
]
