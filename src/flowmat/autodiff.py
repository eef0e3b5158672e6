"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and records the operations applied to it in a
dynamically built graph; calling ``backward()`` on a scalar result walks the
graph in reverse topological order and accumulates gradients into every
tensor created with ``requires_grad=True``. Operations work on the last one
or two axes so the same code path handles single samples and batched inputs
(leading axes broadcast).

The tape lives only in the Python object graph: dropping the loss tensor
frees it, so one graph per training step needs no explicit reset.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_CHECK_FINITE = False

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def set_checked(enabled: bool) -> None:
    """Toggle NaN/Inf rejection at Tensor construction."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the computation graph holding a float64 array."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if _CHECK_FINITE and not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite values rejected in checked mode")
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return Tensor._result(out_data, (a, b), backward)


def transpose(a: Tensor, axes=(-1, -2)) -> Tensor:
    """Swap two axes, by default the last two."""
    a = as_tensor(a)
    out_data = np.swapaxes(a.data, *axes)

    def backward(g):
        a._accumulate(np.swapaxes(g, *axes))

    return Tensor._result(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return Tensor._result(out_data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return Tensor._result(out_data, (a,), backward)


def tmean(a: Tensor) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return mul(tsum(a), 1.0 / n)


def rowsum(a: Tensor) -> Tensor:
    """Sum over the last axis, keeping it as size 1."""
    return tsum(a, axis=-1, keepdims=True)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * (0.5 / out_data))

    return Tensor._result(out_data, (a,), backward)


def square(a: Tensor) -> Tensor:
    return mul(a, a)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out_data = x * cdf

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (cdf + x * pdf))

    return Tensor._result(out_data, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-stabilized softmax over the last axis; rows sum to one."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        a._accumulate(s * (g - inner))

    return Tensor._result(s, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("gain/bias must match the normalized width")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((gx - m1 - xhat * m2) * inv)

    return Tensor._result(out_data, (x, gain, bias), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._result(out_data, tuple(tensors), backward)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis (negative axes count from the end)."""
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full)

    return Tensor._result(out_data, (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (second-to-last axis) at the given integer indices."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)
    out_data = np.take(a.data, indices, axis=-2)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(np.moveaxis(full, -2, 0), indices, np.moveaxis(g, -2, 0))
        a._accumulate(full)

    return Tensor._result(out_data, (a,), backward)


def select_active(z: Tensor, query: Tensor, m: int):
    """Keep the rows of ``z`` at the top-m positions of ``query``.

    Returns (kept rows in ascending index order, kept index array). The
    forward pass is a pure gather, so with m = N it is the identity. Row
    gradients flow back into ``z``; the query additionally receives the
    per-row gradient sum at its selected positions (straight-through), which
    is how a learnable query trains despite the hard top-K selection.
    """
    z, query = as_tensor(z), as_tensor(query)
    n = z.data.shape[-2]
    if query.data.shape != (n,):
        raise ValueError("query length must equal the token count")
    if not 1 <= m <= n:
        raise ValueError(f"keep count {m} outside [1, {n}]")
    order = np.argsort(-query.data, kind="stable")
    kept = np.sort(order[:m])
    out_data = np.take(z.data, kept, axis=-2)

    def backward(g):
        if z.requires_grad:
            full = np.zeros_like(z.data)
            mv = np.moveaxis(full, -2, 0)
            mv[kept] = np.moveaxis(g, -2, 0)
            z._accumulate(full)
        if query.requires_grad:
            gq = np.zeros_like(query.data)
            gsum = np.moveaxis(g, -2, 0).reshape(m, -1).sum(axis=1)
            gq[kept] = gsum
            query._accumulate(gq)

    return Tensor._result(out_data, (z, query), backward), kept


def insert_rows(z_part: Tensor, kept, n: int, fill: Tensor) -> Tensor:
    """Scatter ``z_part`` rows to positions ``kept`` of an n-row output;
    every other row is the shared ``fill`` vector."""
    z_part, fill = as_tensor(z_part), as_tensor(fill)
    kept = np.asarray(kept, dtype=np.intp)
    if len(np.unique(kept)) != len(kept):
        raise ValueError("kept indices collide")
    if z_part.data.shape[-2] != len(kept):
        raise ValueError("z_part row count must equal len(kept)")
    d = z_part.data.shape[-1]
    if fill.data.shape != (d,):
        raise ValueError("fill vector width mismatch")
    masked = np.setdiff1d(np.arange(n), kept)
    out_shape = z_part.data.shape[:-2] + (n, d)
    out_data = np.empty(out_shape)
    np.moveaxis(out_data, -2, 0)[masked] = fill.data
    np.moveaxis(out_data, -2, 0)[kept] = np.moveaxis(z_part.data, -2, 0)

    def backward(g):
        if z_part.requires_grad:
            z_part._accumulate(np.take(g, kept, axis=-2))
        if fill.requires_grad:
            fill._accumulate(np.take(g, masked, axis=-2).reshape(-1, d).sum(axis=0))

    return Tensor._result(out_data, (z_part, fill), backward)


def straight_through(a: Tensor, transform) -> Tensor:
    """Apply an arbitrary array transform in the forward pass while the
    backward pass copies the incoming gradient unchanged (identity)."""
    a = as_tensor(a)
    out_data = np.asarray(transform(a.data), dtype=np.float64)
    if out_data.shape != a.data.shape:
        raise ValueError("straight-through transform must preserve shape")

    def backward(g):
        a._accumulate(g)

    return Tensor._result(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam (Kingma & Ba 2015) over Tensor parameters; a
    parameter without a gradient steps on a zero gradient."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of the scalar
    function ``f`` at ``x`` and central finite differences with step h."""
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("step h outside [1e-6, 1e-3]")
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ValueError("f must return a scalar")
    out.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(x.data)).data)
        flat[i] = orig - h
        fm = float(f(Tensor(x.data)).data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
