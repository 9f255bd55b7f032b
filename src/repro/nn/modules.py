"""Module base class and containers for the ``repro.nn`` substrate."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor

#: Process-wide count of Module.__call__ dispatches.  Cheap enough to keep
#: always-on; plan-replay tests assert it stays flat across a replay (the
#: whole point of a traced plan is that no module dispatch happens at all).
#: Threads that dispatch at the same time count under the lock.
_module_calls = 0
_module_calls_lock = threading.Lock()


def module_calls() -> int:
    """Total ``Module.__call__`` dispatches since process start."""
    return _module_calls


class Module:
    """Base class for all neural-network modules.

    Subclasses register :class:`~repro.nn.tensor.Tensor` parameters and
    child modules simply by assigning them as attributes, mirroring the
    PyTorch convention.  Non-trainable state (running statistics) is kept
    in ``_buffers`` so it travels with ``state_dict``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute routing ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state saved with the state dict."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # -- train / eval -------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- (de)serialization ----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping name -> array for all parameters and buffers."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a mapping produced by :meth:`state_dict` (strict)."""
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            param.data[...] = value
        # Buffers are replaced in-place on the owning module.
        for name in own_buffers:
            module = self
            *path, leaf = name.split(".")
            for part in path:
                module = module._modules[part]
            buf = module._buffers[leaf]
            value = np.asarray(state[name], dtype=np.asarray(buf).dtype)
            np.asarray(buf)[...] = value

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.data.size for p in self.parameters())

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        global _module_calls
        with _module_calls_lock:
            _module_calls += 1
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
        self._sequence = list(modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._sequence)

    def __len__(self) -> int:
        return len(self._sequence)

    def __getitem__(self, index: int) -> Module:
        return self._sequence[index]

    def forward(self, x):
        for module in self._sequence:
            x = module(x)
        return x


class ModuleList(Module):
    """List container registering each element as a child module."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
