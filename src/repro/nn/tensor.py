"""A reverse-mode automatic-differentiation engine on top of numpy.

This module is the deep-learning substrate of the reproduction: the paper
trains its reconstruction layers, selection layers and GNNs with
backpropagation (PyTorch in the original).  No deep-learning framework is
available offline, so :class:`Tensor` implements the same mechanics —
dynamic computation graphs, broadcasting-aware gradients, and the gather /
scatter primitives that message-passing GNNs are built from.

Only the operations the rest of the library needs are implemented, each with
an explicit backward closure.  Gradients are validated against central finite
differences in ``tests/test_nn_tensor.py``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record a backward graph."""
    return _GRAD_ENABLED


def _grad_active(*tensors: "Tensor") -> bool:
    """Whether an op over ``tensors`` must record a backward closure.

    Ops call this *before* constructing their backward closure: under
    ``no_grad()`` (or when no input requires grad) they return a plain
    result tensor immediately, so inference allocates no closure cells, no
    parent tuples and no graph bookkeeping — the "skip backward-closure
    allocation" half of the fused inference fast path.
    """
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload; converted to a ``float64`` ndarray.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transpose (reversed axes), as a differentiable op."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        """The first element as a Python float."""
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order over the dynamic graph.
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
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if not _grad_active(self, other):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), _backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if not _grad_active(self, other):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), _backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        if not _grad_active(self, other):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), _backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), _backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        if not _grad_active(self, other):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data)
                                     if self.data.ndim == 2
                                     else grad * other.data)
                else:
                    g = grad @ other.data.swapaxes(-1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad)
                                      if other.data.ndim == 2
                                      else grad * self.data)
                else:
                    g = self.data.swapaxes(-1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), _backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), _backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), _backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (inputs clipped to ±60)."""
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), _backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), _backward)

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        mask = self.data > 0
        out_data = self.data * mask
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), _backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """Elementwise leaky ReLU with the given negative slope."""
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out_data = self.data * scale
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * scale)

        return Tensor._make(out_data, (self,), _backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        out_data = np.abs(self.data)
        if not _grad_active(self):
            return Tensor(out_data)
        sign = np.sign(self.data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), _backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to the given bounds."""
        out_data = np.clip(self.data, low, high)
        if not _grad_active(self):
            return Tensor(out_data)
        mask = (self.data >= low) & (self.data <= high)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), _backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``axis`` is None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), _backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            mask = self.data == expanded
            # Split gradient among ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts)

        return Tensor._make(out_data, (self,), _backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Same data viewed under a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), _backward)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reversed when none are given)."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        if not _grad_active(self):
            return Tensor(out_data)
        inverse = np.argsort(axes)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), _backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), _backward)

    # ------------------------------------------------------------------
    # Gather / scatter — the message-passing primitives
    # ------------------------------------------------------------------
    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows ``self[index]`` (index may repeat), differentiable."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), _backward)

    def scatter_add(self, index: np.ndarray, num_targets: int) -> "Tensor":
        """Sum rows of ``self`` into ``num_targets`` buckets by ``index``.

        The forward pass computes ``out[t] = sum_{i: index[i]==t} self[i]``,
        which is exactly the aggregation step of message passing.
        """
        index = np.asarray(index, dtype=np.int64)
        out_data = np.zeros((num_targets,) + self.data.shape[1:])
        np.add.at(out_data, index, self.data)
        if not _grad_active(self):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[index])

        return Tensor._make(out_data, (self,), _backward)

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along an existing axis."""
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        if not _grad_active(*tensors):
            return Tensor(out_data)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tensors, _backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis."""
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)
        if not _grad_active(*tensors):
            return Tensor(out_data)

        def _backward(grad: np.ndarray) -> None:
            parts = np.split(grad, len(tensors), axis=axis)
            for t, part in zip(tensors, parts):
                if t.requires_grad:
                    t._accumulate(np.squeeze(part, axis=axis))

        return Tensor._make(out_data, tensors, _backward)


def as_tensor(value) -> Tensor:
    """Coerce scalars / ndarrays / tensors into :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
