"""``repro.api`` — one estimator API for CamAL *and* every baseline.

* :mod:`repro.api.base` — the :class:`WeakLocalizer` contract
  (``fit`` / ``detect`` / ``predict_status`` / ``localize`` /
  ``save`` / ``load``);
* :mod:`repro.api.registry` — declarative model registry with named scale
  presets (``paper`` = Table II sizes, ``small``, ``tiny``);
* :mod:`repro.api.adapters` — :class:`CamALLocalizer`,
  :class:`Seq2SeqLocalizer` and :class:`WeakMILLocalizer`, plus the
  built-in registrations (camal, crnn, crnn-weak, bigru, unet-nilm,
  tpnilm, transnilm);
* :mod:`repro.api.persistence` — one checksummed manifest format that
  round-trips any registered estimator (and whole per-appliance fleets).

Quickstart::

    from repro import api

    est = api.create("camal", scale="small", seed=0)
    est.fit(train_windows, est.labels_for(train_set),
            val_windows, est.labels_for(val_set))
    output = est.localize(test_windows)   # LocalizationOutput
    est.save("models/kettle")

    same = api.load_estimator("models/kettle")   # any registered model
"""

from .adapters import (
    LEGACY_NAMES,
    CamALLocalizer,
    Seq2SeqLocalizer,
    WeakMILLocalizer,
)
from .base import SUPERVISION_KINDS, NotFittedError, WeakLocalizer
from .persistence import (
    MODEL_FORMAT_VERSION,
    ModelIntegrityError,
    load_estimator,
    load_pipelines,
    save_estimator,
    save_pipelines,
)
from .registry import (
    SCALE_NAMES,
    ModelEntry,
    available_models,
    canonical_name,
    conv_shapes,
    create,
    get_entry,
    parse_model_spec,
    register,
)

__all__ = [
    "WeakLocalizer",
    "NotFittedError",
    "SUPERVISION_KINDS",
    "SCALE_NAMES",
    "ModelEntry",
    "register",
    "create",
    "get_entry",
    "available_models",
    "canonical_name",
    "conv_shapes",
    "parse_model_spec",
    "CamALLocalizer",
    "Seq2SeqLocalizer",
    "WeakMILLocalizer",
    "LEGACY_NAMES",
    "save_estimator",
    "load_estimator",
    "save_pipelines",
    "load_pipelines",
    "MODEL_FORMAT_VERSION",
    "ModelIntegrityError",
]
