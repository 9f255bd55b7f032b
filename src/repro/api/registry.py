"""Declarative model registry: names, config dataclasses, scale presets.

The registry replaces the hard-coded ``paper``/``small``/``tiny`` lambda
tables that used to live in ``experiments/runner.py``: each model
registers once with its config dataclass and a dict of named **scale
presets** (field overrides), and every consumer — experiment runners, the
CLI, the serving engine's loader, benchmarks, tests — instantiates
estimators through :func:`create`.

    est = create("crnn", scale="small", seed=0)
    est.fit(windows, est.labels_for(train_set))

Scale names follow the experiment presets: ``paper`` is the Table-II size
(the config dataclass defaults), ``small`` and ``tiny`` are the
CPU-friendly widths of the fast/bench presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .base import SUPERVISION_KINDS, WeakLocalizer

#: The canonical scale-preset names (every model registers all three).
SCALE_NAMES = ("paper", "small", "tiny")


@dataclass(frozen=True)
class ModelEntry:
    """One registered estimator type."""

    name: str
    description: str
    supervision: str  # "weak" | "strong"
    config_cls: type  # per-model config dataclass
    #: ``factory(config, train=..., **kwargs) -> WeakLocalizer``
    factory: Callable[..., WeakLocalizer]
    #: Underlying ``nn.Module`` class (``None`` when the estimator builds
    #: its own networks, e.g. CamAL's Algorithm-1 ensemble).
    network_cls: Optional[type] = None
    #: Scale name -> config-field overrides applied on top of defaults.
    scales: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: Optional ``fn(config) -> [(C_in, C_out, K), ...]`` enumerating the
    #: model's convolution signatures at that config — the workload
    #: description consumed by ``benchmarks/bench_nn_ops.py`` (see
    #: :func:`conv_shapes`).
    conv_shapes_fn: Optional[Callable[[object], List[Tuple[int, int, int]]]] = None

    def config(self, scale: str = "paper", seed: int = 0, **overrides):
        """Build this model's config dataclass at a named scale."""
        try:
            fields = dict(self.scales[scale])
        except KeyError:
            raise KeyError(
                f"unknown scale {scale!r} for model {self.name!r}; "
                f"known: {sorted(self.scales)}"
            ) from None
        fields.update(overrides)
        return self.config_cls(seed=seed, **fields)


_REGISTRY: Dict[str, ModelEntry] = {}


def canonical_name(name: str) -> str:
    """Normalize a model name (legacy spellings like ``"CRNN-weak"`` work)."""
    return str(name).strip().lower()


def register(
    name: str,
    *,
    config_cls: type,
    factory: Callable[..., WeakLocalizer],
    scales: Mapping[str, Mapping[str, object]],
    supervision: str,
    description: str = "",
    network_cls: Optional[type] = None,
    conv_shapes: Optional[Callable[[object], List[Tuple[int, int, int]]]] = None,
    replace: bool = False,
) -> ModelEntry:
    """Register an estimator type under ``name`` (lower-cased)."""
    key = canonical_name(name)
    if supervision not in SUPERVISION_KINDS:
        raise ValueError(
            f"supervision must be one of {SUPERVISION_KINDS}, got {supervision!r}"
        )
    if key in _REGISTRY and not replace:
        raise ValueError(f"model {key!r} is already registered")
    entry = ModelEntry(
        name=key,
        description=description,
        supervision=supervision,
        config_cls=config_cls,
        factory=factory,
        network_cls=network_cls,
        scales={k: dict(v) for k, v in scales.items()},
        conv_shapes_fn=conv_shapes,
    )
    _REGISTRY[key] = entry
    return entry


def available_models() -> List[str]:
    """Registered model names, sorted."""
    return sorted(_REGISTRY)


def get_entry(name: str) -> ModelEntry:
    """Look up a registry entry (KeyError lists the known names)."""
    key = canonical_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; known: {available_models()}"
        ) from None


def create(
    name: str,
    scale: str = "paper",
    seed: int = 0,
    train=None,
    config=None,
    **kwargs,
) -> WeakLocalizer:
    """Instantiate an unfitted estimator from the registry.

    Args:
        name: registry name (case-insensitive; ``"CRNN-weak"`` works).
        scale: named scale preset (``paper``/``small``/``tiny``).
        seed: initialization seed folded into the model config.
        train: optional :class:`repro.training.TrainConfig` controlling
            the fit loop (epochs, lr, batch size, checkpointing...).
        config: explicit config dataclass instance; overrides ``scale``.
        **kwargs: estimator-specific knobs (e.g. ``power_gate_watts``,
            ``detection_threshold``, ``n_workers`` for CamAL).
    """
    entry = get_entry(name)
    if config is None:
        config = entry.config(scale=scale, seed=seed)
    return entry.factory(config, train=train, **kwargs)


def conv_shapes(
    name: str, scale: str = "paper", **overrides
) -> List[Tuple[int, int, int]]:
    """Distinct ``(C_in, C_out, K)`` conv signatures of a registered model.

    The ``paper`` scale of ``"camal"`` yields the Table-II ResNet-ensemble
    inventory that ``benchmarks/bench_nn_ops.py`` benchmarks per backend.
    Raises :class:`ValueError` for models that do not declare their shapes.
    """
    entry = get_entry(name)
    if entry.conv_shapes_fn is None:
        raise ValueError(f"model {entry.name!r} does not declare conv shapes")
    return entry.conv_shapes_fn(entry.config(scale=scale, **overrides))


def parse_model_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split a CLI ``<name>@<scale>`` spec; scale is optional.

    >>> parse_model_spec("crnn@small")
    ('crnn', 'small')
    >>> parse_model_spec("CamAL")
    ('camal', None)
    """
    text = str(spec).strip()
    if "@" in text:
        name, _, scale = text.partition("@")
        if not name or not scale:
            raise ValueError(f"malformed model spec {spec!r}; expected name[@scale]")
        return canonical_name(name), scale.strip().lower()
    return canonical_name(text), None
