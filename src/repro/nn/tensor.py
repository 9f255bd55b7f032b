"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the ``repro.nn`` substrate: a small but
complete autograd engine in the spirit of PyTorch's eager mode.  A
:class:`Tensor` wraps a ``numpy.ndarray`` and records, for every operation,
a backward closure plus references to its parent tensors.  Calling
:meth:`Tensor.backward` runs a topological sort over the recorded graph,
accumulates gradients into every tensor created with ``requires_grad=True``
and frees the graph behind it.

Only the primitives needed by the CamAL reproduction are implemented, but
each supports full NumPy broadcasting where that is meaningful.  Heavier
fused primitives (convolution, pooling, normalization, fused losses) live in
:mod:`repro.nn.functional` and plug into the same graph mechanism via
:meth:`Tensor._make_from`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_DTYPE = np.float32

Number = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Number, Sequence]

class _GradMode(threading.local):
    """Per-thread grad mode: every thread starts with grad enabled."""

    enabled = True


_grad_mode = _GradMode()

#: Running count of graph nodes created (ops recorded with a backward
#: closure).  Regression tests diff this around inference passes to prove
#: that ``no_grad`` builds zero graph nodes.  Threads that build graphs at
#: the same time (Algorithm 1's candidate lanes) add under the lock.
_graph_nodes_created = 0
_graph_nodes_lock = threading.Lock()


def graph_nodes_created() -> int:
    """Total autograd graph nodes recorded so far in this process."""
    return _graph_nodes_created


class no_grad:
    """Context manager disabling graph construction (true inference mode).

    Inside the context no backward closures are built and no forward state
    is saved for reuse in a backward pass; the fused primitives in
    :mod:`repro.nn.functional` additionally take allocation-light fast
    paths (see ``docs/nn.md``).  The mode is per thread: a ``no_grad``
    block never stops (or, on exit, restarts) graph building in another
    thread.
    """

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _grad_mode.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether operations in this thread record the autograd graph."""
    return _grad_mode.enabled


def _freed_graph(grad: np.ndarray) -> None:
    """The backward closure of a node whose graph a ``backward()`` freed."""
    raise RuntimeError(
        "backward() through a graph that an earlier backward() has freed; "
        "run the forward again to build a new graph"
    )


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")

    def __init__(self, data: TensorLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype != DEFAULT_DTYPE:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.op: str = "leaf"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make_from(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str = "",
    ) -> "Tensor":
        """Create a graph node from raw output data and a backward closure.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`_accumulate` on each parent that requires grad.
        """
        parents = tuple(parents)
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            global _graph_nodes_created
            with _graph_nodes_lock:
                _graph_nodes_created += 1
            out._backward = backward
            out._parents = parents
            out.op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer."""
        if grad.dtype != DEFAULT_DTYPE:
            grad = grad.astype(DEFAULT_DTYPE)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is freed as the pass goes, as PyTorch frees it without
        ``retain_graph``: once a node's backward closure has run, the node
        drops the closure, and with it the forward state the closure saved,
        and its parents.  So a batch's graph dies with its ``backward()``
        instead of living on while the next batch builds its own.  A
        second ``backward()`` through a freed node raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if self._backward is _freed_graph:
            _freed_graph(grad)
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient on non-scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=DEFAULT_DTYPE)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()  # reverse topological order
            backward = node._backward
            if backward is None:
                continue
            node._backward, node._parents = _freed_graph, ()
            if node.grad is not None:
                backward(node.grad)
                if node is not self:
                    # Interior nodes do not need to retain gradients.
                    node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: TensorLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: TensorLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make_from(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make_from(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make_from(out_data, (self, other), backward, "sub")

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data * other.data), other.shape)
                )

        return Tensor._make_from(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make_from(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make_from(out_data, (self,), backward, "pow")

    # ------------------------------------------------------------------
    # Matrix multiply (supports batched operands via np.matmul)
    # ------------------------------------------------------------------
    def matmul(self, other: TensorLike) -> "Tensor":
        other = self._coerce(other)
        out_data = np.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.multiply.outer(grad, other.data) if grad.ndim else grad * other.data
                    if self.data.ndim == 1:
                        grad_self = grad * other.data
                else:
                    g = grad[..., None, :] if self.data.ndim == 1 else grad
                    grad_self = np.matmul(g, np.swapaxes(other.data, -1, -2))
                    if self.data.ndim == 1:
                        grad_self = grad_self.reshape(-1)
                self._accumulate(_unbroadcast(np.asarray(grad_self), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.multiply.outer(self.data, grad)
                else:
                    g = grad[..., :, None] if other.data.ndim == 1 else grad
                    grad_other = np.matmul(np.swapaxes(self.data, -1, -2), g)
                    if other.data.ndim == 1:
                        grad_other = grad_other.reshape(other.shape)
                other._accumulate(_unbroadcast(np.asarray(grad_other), other.shape))

        return Tensor._make_from(out_data, (self, other), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make_from(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make_from(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make_from(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._make_from(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make_from(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        if not (_grad_mode.enabled and self.requires_grad):
            # Inference fast path: no boolean mask, output into the active
            # buffer pool (if any) so the serving loop reuses it.
            from . import backend

            out = backend.scratch(self.data.shape, self.data.dtype)
            np.maximum(self.data, 0, out=out)
            return Tensor(out)
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make_from(self.data * mask, (self,), backward, "relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make_from(np.abs(self.data), (self,), backward, "abs")

    def clip(self, low: Number, high: Number) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make_from(np.clip(self.data, low, high), (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape).astype(DEFAULT_DTYPE))

        return Tensor._make_from(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    out = np.expand_dims(out, a)
            mask = self.data == out
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate((mask * g / counts).astype(DEFAULT_DTYPE))

        return Tensor._make_from(out_data, (self,), backward, "max")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make_from(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes_tuple: Optional[Tuple[int, ...]] = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_tuple = tuple(axes[0])
        else:
            axes_tuple = tuple(axes)
        out_data = self.data.transpose(axes_tuple)
        if axes_tuple is None:
            inverse: Optional[Tuple[int, ...]] = None
        else:
            inverse = tuple(int(i) for i in np.argsort(axes_tuple))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make_from(out_data, (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, a, b))

        return Tensor._make_from(out_data, (self,), backward, "swapaxes")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make_from(out_data, (self,), backward, "getitem")

    def pad1d(self, left: int, right: int, value: float = 0.0) -> "Tensor":
        """Pad the last axis with ``value`` (`left`/`right` elements)."""
        widths = [(0, 0)] * (self.data.ndim - 1) + [(left, right)]
        out_data = np.pad(self.data, widths, constant_values=value)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                sl = [slice(None)] * (self.data.ndim - 1)
                sl.append(slice(left, out_data.shape[-1] - right))
                self._accumulate(grad[tuple(sl)])

        return Tensor._make_from(out_data, (self,), backward, "pad1d")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(sl)])

    return Tensor._make_from(out_data, tensors, backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = i
                tensor._accumulate(grad[tuple(sl)])

    return Tensor._make_from(out_data, tensors, backward, "stack")


def where(condition: np.ndarray, a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise select: ``condition ? a : b`` (condition is constant)."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return Tensor._make_from(out_data, (a, b), backward, "where")


def tensor(data: TensorLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)
