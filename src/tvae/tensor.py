"""Dense f64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a backward closure on the result,
so a loss expression carries its own compute graph. ``evaluate_and_grad``
walks that graph once in reverse topological order and returns gradients
for every named trainable leaf.

Conventions:
  * all data is float64; python scalars and ndarrays are coerced on entry
  * tensors are immutable once built; the optimizer mutates parameters
    only through :meth:`Tensor.assign_`
  * primitives validate their domain up front (log of a non-positive
    value raises :class:`~tvae.errors.DomainError`) and verify the result
    is finite (otherwise :class:`~tvae.errors.NumericFault`), so NaN never
    propagates silently; every backward contribution is checked the same
    way. The check (``_all_finite``) first tests the sum of the array and
    looks at the elements only when that sum is not finite, so it is exact
    and costs one reduction in the common case
  * a backward closure returns ``None`` for a parent that does not require
    grad; ``take`` returns a ``_RowGrad`` that the walk scatters into the
    parent's accumulated gradient instead of a dense zero array
  * graphs are per-expression; there is no global tape, which keeps
    independent training runs safe to execute on separate threads
"""

import math

import numpy as np

from . import _kernels
from .errors import ContractViolation, DomainError, NumericFault


class GradientMap(dict):
    """Mapping from trainable-variable name to its gradient Tensor."""


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


def _all_finite(arr):
    """True when every element of the float64 array ``arr`` is finite.

    Under IEEE 754 a sum with an inf or NaN term is inf or NaN, so a finite
    sum proves every element finite. A non-finite sum may also be an
    overflow of finite terms (numpy then warns), so only then are the
    elements tested one by one.
    """
    return math.isfinite(np.add.reduce(arr, axis=None)) or bool(
        np.isfinite(arr).all()
    )


class _RowGrad:
    """Gradient that is zero except at ``index`` of the leading axis, where
    it is ``value``; returned by the backward of ``take``."""

    __slots__ = ("index", "value")

    def __init__(self, index, value):
        self.index = index
        self.value = value


def _sigmoid(x):
    # stable logistic used by softplus/backward only (plain ndarray math)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense float64 array plus the graph edge that produced it."""

    # ``_inv`` is set only by ``inverse()`` on an op output and read by the
    # backward of ``logdet()`` on the same node
    __slots__ = (
        "data", "requires_grad", "name", "_parents", "_backward", "_op", "_inv"
    )

    def __init__(self, data, requires_grad=False, name=None):
        arr = _as_array(data)
        if not _all_finite(arr):
            raise ContractViolation(
                "tensor construction requires finite data"
                + (f" (name={name!r})" if name else "")
            )
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    # -- constructors -------------------------------------------------

    @classmethod
    def param(cls, data, name):
        """A named trainable leaf; its gradient appears in the GradientMap."""
        if not name:
            raise ContractViolation("trainable parameters need a non-empty name")
        return cls(data, requires_grad=True, name=name)

    @classmethod
    def const(cls, data):
        return data if isinstance(data, Tensor) else cls(data)

    @classmethod
    def _from_op(cls, data, parents, op, backward):
        arr = _as_array(data)
        if not _all_finite(arr):
            raise NumericFault(f"primitive '{op}' produced non-finite values")
        out = cls.__new__(cls)
        out.data = arr
        out.name = None
        requires_grad = False
        for p in parents:
            if p.requires_grad:
                requires_grad = True
                break
        out.requires_grad = requires_grad
        if requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    # -- basic protocol -----------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{tag})"

    def detach(self):
        """Constant copy of this value; gradients do not flow through it."""
        return Tensor(self.data)

    def assign_(self, data):
        """Designated in-place update for parameters (optimizer use only)."""
        arr = _as_array(data)
        if arr.shape != self.data.shape:
            raise ContractViolation(
                f"assign_ shape mismatch: {arr.shape} vs {self.data.shape}"
            )
        if not _all_finite(arr):
            raise NumericFault(
                f"assign_ to {self.name or '<unnamed>'} with non-finite data"
            )
        self.data = arr

    # -- arithmetic primitives ------------------------------------------

    def __add__(self, other):
        other = Tensor.const(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data + b.data, (a, b), "add", backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor.const(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data - b.data, (a, b), "sub", backward)

    def __rsub__(self, other):
        return Tensor.const(other).__sub__(self)

    def __mul__(self, other):
        other = Tensor.const(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data * b.data, (a, b), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.const(other)
        a, b = self, other
        if (b.data == 0.0).any():
            raise DomainError("div requires a nonzero denominator")

        def backward(g):
            return (
                _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad
                else None,
            )

        return Tensor._from_op(a.data / b.data, (a, b), "div", backward)

    def __rtruediv__(self, other):
        return Tensor.const(other).__truediv__(self)

    def __neg__(self):
        a = self
        return Tensor._from_op(-a.data, (a,), "neg", lambda g: (-g,))

    def __matmul__(self, other):
        other = Tensor.const(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ContractViolation(
                f"matmul requires 2-d operands, got {a.shape} @ {b.shape}"
            )
        if a.shape[1] != b.shape[0]:
            raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")

        def backward(g):
            return (
                g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None,
            )

        return Tensor._from_op(a.data @ b.data, (a, b), "matmul", backward)

    # -- shape primitives ----------------------------------------------

    def transpose(self):
        if self.ndim != 2:
            raise ContractViolation(f"transpose expects a matrix, got {self.shape}")
        a = self
        return Tensor._from_op(a.data.T.copy(), (a,), "transpose", lambda g: (g.T,))

    @property
    def T(self):
        return self.transpose()

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape
        return Tensor._from_op(
            a.data.reshape(shape), (a,), "reshape", lambda g: (g.reshape(old),)
        )

    def take(self, index):
        """Select ``index`` along the leading axis (gradient scatters back)."""
        a = self
        if not 0 <= index < a.data.shape[0]:
            raise ContractViolation(
                f"take index {index} out of range for shape {a.shape}"
            )

        return Tensor._from_op(
            a.data[index].copy(), (a,), "take", lambda g: (_RowGrad(index, g),)
        )

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        old = a.data.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, old).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, old).copy(),)

        return Tensor._from_op(
            a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum", backward
        )

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise primitives -------------------------------------------

    def exp(self):
        a = self
        out = np.exp(a.data)
        return Tensor._from_op(out, (a,), "exp", lambda g: (g * out,))

    def log(self):
        a = self
        if (a.data <= 0.0).any():
            raise DomainError(
                f"log requires positive arguments; min was {float(a.data.min())!r}"
            )
        return Tensor._from_op(np.log(a.data), (a,), "log", lambda g: (g / a.data,))

    def square(self):
        a = self
        return Tensor._from_op(
            np.square(a.data), (a,), "square", lambda g: (2.0 * g * a.data,)
        )

    def abs(self):
        a = self
        return Tensor._from_op(
            np.abs(a.data), (a,), "abs", lambda g: (g * np.sign(a.data),)
        )

    def tanh(self):
        a = self
        out = np.tanh(a.data)
        return Tensor._from_op(out, (a,), "tanh", lambda g: (g * (1.0 - out * out),))

    def relu(self):
        a = self
        return Tensor._from_op(
            np.maximum(a.data, 0.0), (a,), "relu", lambda g: (g * (a.data > 0.0),)
        )

    def softplus(self):
        a = self
        out = np.logaddexp(0.0, a.data)
        return Tensor._from_op(
            out, (a,), "softplus", lambda g: (g * _sigmoid(a.data),)
        )

    def clip_min(self, lo):
        """max(x, lo); gradient passes only where x >= lo."""
        a = self
        lo = float(lo)
        return Tensor._from_op(
            np.maximum(a.data, lo), (a,), "clip_min", lambda g: (g * (a.data >= lo),)
        )

    def clip_max(self, hi):
        """min(x, hi); gradient passes only where x <= hi."""
        a = self
        hi = float(hi)
        return Tensor._from_op(
            np.minimum(a.data, hi), (a,), "clip_max", lambda g: (g * (a.data <= hi),)
        )

    def clip(self, lo, hi):
        return self.clip_min(lo).clip_max(hi)

    def softmax(self, axis=-1):
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - dot),)

        return Tensor._from_op(out, (a,), "softmax", backward)

    def lgamma(self):
        a = self
        out = _kernels.lgamma(a.data)  # raises DomainError on x <= 0
        return Tensor._from_op(
            out, (a,), "lgamma", lambda g: (g * _kernels.digamma(a.data),)
        )

    def digamma(self):
        a = self
        out = _kernels.digamma(a.data)
        return Tensor._from_op(
            out, (a,), "digamma", lambda g: (g * _kernels.trigamma(a.data),)
        )

    # -- matrix primitives ------------------------------------------------

    def inverse(self):
        a = self
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolation(f"inverse expects a square matrix, got {a.shape}")
        try:
            inv = np.linalg.inv(a.data)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"inverse of a singular matrix: {exc}") from exc
        if a._op != "leaf":
            # a leaf's data can be replaced by ``assign_``; an op output's not
            a._inv = inv

        def backward(g):
            return (-inv.T @ g @ inv.T,)

        return Tensor._from_op(inv, (a,), "inverse", backward)

    def logdet(self):
        a = self
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolation(f"logdet expects a square matrix, got {a.shape}")
        sign, ld = np.linalg.slogdet(a.data)
        if sign <= 0.0:
            raise DomainError("logdet requires a positive-determinant matrix")

        def backward(g):
            inv = getattr(a, "_inv", None)
            if inv is None:
                inv = np.linalg.inv(a.data)
            return (g * inv.T,)

        return Tensor._from_op(ld, (a,), "logdet", backward)

    def diag_part(self):
        a = self
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolation(f"diag_part expects a square matrix, got {a.shape}")
        n = a.shape[0]

        def backward(g):
            full = np.zeros_like(a.data)
            np.fill_diagonal(full, g)
            return (full,)

        return Tensor._from_op(np.diag(a.data).copy(), (a,), "diag_part", backward)

    def diag_embed(self):
        a = self
        if a.ndim != 1:
            raise ContractViolation(f"diag_embed expects a vector, got {a.shape}")
        return Tensor._from_op(
            np.diag(a.data), (a,), "diag_embed", lambda g: (np.diag(g).copy(),)
        )


def stack(tensors, axis=0):
    """Stack same-shaped tensors along a new axis."""
    tensors = [Tensor.const(t) for t in tensors]
    if not tensors:
        raise ContractViolation("stack of zero tensors")
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape:
            raise ContractViolation("stack requires identical shapes")

    def backward(g):
        return tuple(np.take(g, i, axis=axis).copy() for i in range(len(tensors)))

    return Tensor._from_op(
        np.stack([t.data for t in tensors], axis=axis), tensors, "stack", backward
    )


def concat(tensors, axis=0):
    """Concatenate tensors along an existing axis."""
    tensors = [Tensor.const(t) for t in tensors]
    if not tensors:
        raise ContractViolation("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)].copy())
        return tuple(grads)

    return Tensor._from_op(
        np.concatenate([t.data for t in tensors], axis=axis),
        tensors,
        "concat",
        backward,
    )


def _topological_order(root):
    """Parents-before-children ordering of the reachable grad-enabled graph."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def evaluate_and_grad(loss):
    """Evaluate a scalar loss expression and differentiate it.

    Returns ``(value, gradient_map)`` where the map holds one entry per
    named trainable leaf reachable from ``loss``. Unnamed trainable leaves
    are a caller bug and raise :class:`ContractViolation`, as do duplicate
    names on distinct leaves.
    """
    if not isinstance(loss, Tensor):
        raise ContractViolation("evaluate_and_grad expects a Tensor")
    if loss.data.shape != ():
        raise ContractViolation(
            f"loss must be a scalar tensor, got shape {loss.data.shape}"
        )
    grads = {id(loss): np.ones((), dtype=np.float64)}
    # ids whose accumulated gradient is an array this walk made and no one
    # else holds, so later contributions may be added into it in place
    owned = set()
    leaves = {}
    if loss.requires_grad:
        for node in reversed(_topological_order(loss)):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    if not node.name:
                        raise ContractViolation(
                            "trainable leaf without a name reached the loss"
                        )
                    if node.name in leaves and leaves[node.name][0] is not node:
                        raise ContractViolation(
                            f"two distinct leaves share the name {node.name!r}"
                        )
                    leaves[node.name] = (node, g)
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad:
                    continue
                index = None
                if type(pg) is _RowGrad:
                    index, pg = pg.index, pg.value
                pg = _as_array(pg)
                if not _all_finite(pg):
                    raise NumericFault(
                        f"backward of '{node._op}' produced non-finite gradients"
                    )
                key = id(parent)
                acc = grads.get(key)
                if acc is None:
                    if index is None:
                        grads[key] = pg  # may alias another array: never written
                        continue
                    acc = grads[key] = np.zeros_like(parent.data)
                    acc[index] = pg
                elif key not in owned:
                    if index is None:
                        grads[key] = acc + pg
                    else:
                        acc = grads[key] = acc.copy()
                        acc[index] += pg
                elif index is None:
                    np.add(acc, pg, out=acc)
                else:
                    acc[index] += pg
                owned.add(key)
    gmap = GradientMap()
    for name, (_, g) in leaves.items():
        gmap[name] = Tensor(g)
    return float(loss.data), gmap
