"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and records the operations applied to it in a
dynamically built graph; calling ``backward()`` on a scalar result walks the
graph in reverse topological order and accumulates gradients into every
tensor created with ``requires_grad=True``. Gradients stay on leaves only:
an op result's ``.grad`` is dropped as soon as its backward has run, so a
second ``backward()`` adds exactly one more copy to each leaf. A gradient
array may be shared between tensors, so no code writes a ``.grad`` in
place. Operations work on the last one or two axes so the same code path
handles single samples and batched inputs (leading axes broadcast).

The tape lives only in the Python object graph: dropping the loss tensor
frees it, so one graph per training step needs no explicit reset.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from contextlib import contextmanager

import numpy as np


def _load_erf():
    """scipy's compiled ``erf`` ufunc, loaded from its extension module
    alone: ``import scipy.special`` runs a package init that loads about
    290 more modules and 18 MB. Falls back to that import where the
    module is missing (older scipy) or lacks ``erf``."""
    scipy = importlib.util.find_spec("scipy")  # finds, does not import
    if scipy is not None and scipy.submodule_search_locations:
        spec = importlib.machinery.PathFinder.find_spec(
            "scipy.special._special_ufuncs",
            [os.path.join(p, "special")
             for p in scipy.submodule_search_locations])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "erf"):
                return module.erf
    from scipy.special import erf
    return erf


erf = _load_erf()

_TAPE = True  # False inside no_tape()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5  # added to the variance in layer_norm
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # as in Kingma & Ba


@contextmanager
def no_tape():
    """Scope in which op results keep no parents or backward closure."""
    global _TAPE
    saved, _TAPE = _TAPE, False
    try:
        yield
    finally:
        _TAPE = saved


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    """Index of ``start:stop`` along one axis of an ndim-axis array."""
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    return tuple(idx)


def _scatter_rows(like: np.ndarray, rows, g: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with each row (second-to-last axis) of
    ``g`` added at its position in ``rows``; repeated positions sum."""
    full = np.zeros_like(like)
    np.add.at(np.moveaxis(full, -2, 0), rows, np.moveaxis(g, -2, 0))
    return full


class Tensor:
    """Node in the computation graph holding a float64 array."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
    def _result(data, operands, vjps):
        """Graph node of an op's forward value ``data``. ``vjps`` is either
        one VJP per operand, ``vjps[i](g)`` mapping the output gradient
        ``g`` to the gradient of ``operands[i]`` and run only when that
        operand needs a gradient, or one function ``vjps(g)`` returning
        every operand's gradient (None for an operand that needs none), so
        intermediates shared by several operands live only for that call."""
        out = Tensor(data)
        if _TAPE and any(p.requires_grad for p in operands):
            out.requires_grad = True
            out._parents = tuple(operands)
            if not callable(vjps):
                per_operand = vjps

                def vjps(g):  # lazy: each VJP runs just before its gradient
                    return (vjp(g) if p.requires_grad else None
                            for p, vjp in zip(operands, per_operand))

            def backward(g):
                for p, grad in zip(operands, vjps(g)):
                    if p.requires_grad:
                        p._accumulate(grad)

            out._backward = backward
        return out

    def _accumulate(self, g):
        """Add ``g`` to this node's gradient. The first gradient is adopted
        when it is laid out like ``data`` and copied into that layout
        otherwise, since the layout sets the summation order of later ops;
        later ones are added out of place, as ``g`` may alias another
        node's gradient."""
        if self.grad is not None:
            self.grad = self.grad + g
        elif (isinstance(g, np.ndarray) and g.shape == self.data.shape
              and g.strides == self.data.strides):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

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
                node.grad = None

    def zero_grad(self):
        self.grad = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(out_data, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Node of a broadcasting two-operand op: ``grad_a(g)`` and ``grad_b(g)``
    give each operand's full-size gradient, summed back to its shape."""
    return Tensor._result(out_data, (a, b), (
        lambda g: _unbroadcast(grad_a(g), a.data.shape),
        lambda g: _unbroadcast(grad_b(g), b.data.shape)))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data * b.data, a, b, lambda g: g * b.data,
                   lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data / b.data, a, b, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    return _binary(np.matmul(a.data, b.data), a, b,
                   lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
                   lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g))


def transpose(a: Tensor, axes=(-1, -2)) -> Tensor:
    """Swap two axes, by default the last two."""
    a = as_tensor(a)
    return Tensor._result(np.swapaxes(a.data, *axes), (a,),
                          (lambda g: np.swapaxes(g, *axes),))


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    return Tensor._result(a.data.reshape(shape), (a,),
                          (lambda g: g.reshape(a.data.shape),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    squeezed = axis is not None and not keepdims
    return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), (
        lambda g: np.broadcast_to(np.expand_dims(g, axis) if squeezed else g,
                                  a.data.shape).copy(),))


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
    return Tensor._result(out_data, (a,), (lambda g: g * (0.5 / out_data),))


def square(a: Tensor) -> Tensor:
    return mul(a, a)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of ``x``: GELU(x) = x * cdf."""
    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def _gelu_vjp(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    return g * (cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x)))


def _softmax(a: np.ndarray) -> np.ndarray:
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)  # in place: the same bits, one array fewer
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_vjp(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    a = as_tensor(a)
    x = a.data
    cdf = _gelu_cdf(x)
    return Tensor._result(x * cdf, (a,), (lambda g: _gelu_vjp(g, x, cdf),))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-stabilized softmax over the last axis; rows sum to one."""
    a = as_tensor(a)
    s = _softmax(a.data)
    return Tensor._result(s, (a,), (lambda g: _softmax_vjp(g, s),))


def _input_grad(g: np.ndarray, w: Tensor) -> np.ndarray:
    """Gradient of ``x`` in ``x @ w`` for the output gradient ``g``."""
    return np.matmul(g, np.swapaxes(w.data, -1, -2))


def _weight_grad(x: np.ndarray, g: np.ndarray, w: Tensor) -> np.ndarray:
    """Gradient of ``w`` in ``x @ w`` for the output gradient ``g``, as
    ``matmul``'s VJP gives it: one batched product, then the leading axes
    summed away."""
    return _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), w.data.shape)


def attention(x, wq, wk, wv, bias, n_heads: int) -> Tensor:
    """Multi-head self-attention over ``x`` [..., n, d] as one node.

    Projects ``x`` to queries, keys and values, splits the width into
    ``n_heads`` heads of width dh, adds the constant ``bias`` [n, n] (or
    None) to every head's logits, scales them by 1/sqrt(dh), takes the row
    softmax, weighs the values and merges the heads, all heads in one
    batched product. Forward and backward run the numpy calls of the same
    graph built from matmul, reshape, transpose, add, mul and softmax_rows,
    in its order and on its array layouts, so every value and gradient has
    the same bits. Elementwise steps on the op's own temporaries run in
    place, which gives the same bits and holds fewer arrays at once.
    """
    x, wq, wk, wv = as_tensor(x), as_tensor(wq), as_tensor(wk), as_tensor(wv)
    n, d = x.data.shape[-2:]
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (n, n):
            raise ValueError(f"bias must be [{n}, {n}], got {list(bias.shape)}")
    dh = d // n_heads
    split = x.data.shape[:-1] + (n_heads, dh)
    scale = 1.0 / math.sqrt(dh)

    def heads(w):  # [..., n, d] -> [..., heads, n, dh], a strided view
        return np.swapaxes(np.matmul(x.data, w.data).reshape(split), -3, -2)

    def merge(a):
        """[..., heads, n, dh] -> [..., n, d] in C order, the layout the
        graph's products received; a strided operand gives other bits."""
        return np.ascontiguousarray(np.swapaxes(a, -3, -2)).reshape(x.data.shape)

    q, k, v = heads(wq), heads(wk), heads(wv)
    logits = np.matmul(q, np.swapaxes(k, -1, -2))
    if bias is not None:
        logits += bias
    logits *= scale
    s = _softmax(logits)
    del logits

    def vjp(g):
        go = np.ascontiguousarray(np.swapaxes(g.reshape(split), -3, -2))
        gl = _softmax_vjp(np.matmul(go, np.swapaxes(v, -1, -2)), s) * scale
        gy = (merge(np.matmul(gl, k)),
              merge(np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gl), -1, -2)),
              merge(np.matmul(np.swapaxes(s, -1, -2), go)))
        gx = None
        if x.requires_grad:  # (from q + from k) + from v, as the graph sums
            gx = (_input_grad(gy[0], wq) + _input_grad(gy[1], wk)
                  + _input_grad(gy[2], wv))
        return [gx] + [_weight_grad(x.data, gh, w) if w.requires_grad
                       else None for gh, w in zip(gy, (wq, wk, wv))]

    return Tensor._result(merge(np.matmul(s, v)), (x, wq, wk, wv), vjp)


def mlp(h, w1, b1, w2, b2) -> Tensor:
    """Linear, exact GELU, linear over the last axis of ``h`` as one node,
    with the bits of the graph built from matmul, add, gelu, matmul and
    add. The backward keeps GELU's ``cdf`` from the forward and recomputes
    the hidden activation from it."""
    h, w1, b1, w2, b2 = (as_tensor(t) for t in (h, w1, b1, w2, b2))
    a = np.matmul(h.data, w1.data) + b1.data
    cdf = _gelu_cdf(a)
    out = np.matmul(a * cdf, w2.data) + b2.data

    def vjp(g):
        ga = _gelu_vjp(_input_grad(g, w2), a, cdf)
        return (_input_grad(ga, w1) if h.requires_grad else None,
                _weight_grad(h.data, ga, w1) if w1.requires_grad else None,
                _unbroadcast(ga, b1.data.shape),
                _weight_grad(a * cdf, g, w2) if w2.requires_grad else None,
                _unbroadcast(g, b2.data.shape))

    return Tensor._result(out, (h, w1, b1, w2, b2), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("gain/bias must match the normalized width")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x.data - mu) * inv

    def x_vjp(g):
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return (gx - m1 - xhat * m2) * inv

    return Tensor._result(xhat * gain.data + bias.data, (x, gain, bias), (
        x_vjp, lambda g: (g * xhat).reshape(-1, d).sum(axis=0),
        lambda g: g.reshape(-1, d).sum(axis=0)))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return Tensor._result(out_data, tensors, [
        (lambda g, lo=lo, hi=hi: g[_axis_slice(g.ndim, axis, lo, hi)])
        for lo, hi in zip(offsets[:-1], offsets[1:])])


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis (negative axes count from the end)."""
    a = as_tensor(a)
    idx = _axis_slice(a.data.ndim, axis, start, stop)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return full

    return Tensor._result(a.data[idx], (a,), (vjp,))


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (second-to-last axis) at the given integer indices."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)
    return Tensor._result(np.take(a.data, indices, axis=-2), (a,),
                          (lambda g: _scatter_rows(a.data, indices, g),))


def top_rows(query: np.ndarray, m: int) -> np.ndarray:
    """Ascending positions of the m largest ``query`` entries; of equal
    entries the lower position wins."""
    return np.sort(np.argsort(-query, kind="stable")[:m])


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
    kept = top_rows(query.data, m)

    def query_vjp(g):
        gq = np.zeros_like(query.data)
        gq[kept] = np.moveaxis(g, -2, 0).reshape(m, -1).sum(axis=1)
        return gq

    return Tensor._result(np.take(z.data, kept, axis=-2), (z, query), (
        lambda g: _scatter_rows(z.data, kept, g), query_vjp)), kept


def insert_rows(z_part: Tensor, kept, n: int, fill: Tensor) -> Tensor:
    """Scatter ``z_part`` rows to positions ``kept`` of an n-row output;
    every other row is the shared ``fill`` vector."""
    z_part, fill = as_tensor(z_part), as_tensor(fill)
    kept = np.asarray(kept, dtype=np.intp)
    if kept.size and (kept.min() < 0 or kept.max() >= n):
        raise ValueError(f"kept indices must lie in [0, {n})")
    is_kept = np.zeros(n, dtype=bool)
    is_kept[kept] = True
    if np.count_nonzero(is_kept) != len(kept):
        raise ValueError("kept indices collide")
    if z_part.data.shape[-2] != len(kept):
        raise ValueError("z_part row count must equal len(kept)")
    d = z_part.data.shape[-1]
    if fill.data.shape != (d,):
        raise ValueError("fill vector width mismatch")
    masked = np.flatnonzero(~is_kept)
    out_shape = z_part.data.shape[:-2] + (n, d)
    out_data = np.empty(out_shape)
    np.moveaxis(out_data, -2, 0)[masked] = fill.data
    np.moveaxis(out_data, -2, 0)[kept] = np.moveaxis(z_part.data, -2, 0)
    return Tensor._result(out_data, (z_part, fill), (
        lambda g: np.take(g, kept, axis=-2),
        lambda g: np.take(g, masked, axis=-2).reshape(-1, d).sum(axis=0)))


def straight_through(a: Tensor, transform) -> Tensor:
    """Apply an arbitrary array transform in the forward pass while the
    backward pass copies the incoming gradient unchanged (identity)."""
    a = as_tensor(a)
    out_data = np.asarray(transform(a.data), dtype=np.float64)
    if out_data.shape != a.data.shape:
        raise ValueError("straight-through transform must preserve shape")
    return Tensor._result(out_data, (a,), (lambda g: g,))


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam (Kingma & Ba 2015) over Tensor parameters; a
    parameter without a gradient steps on a zero gradient."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1**self.t
        bc2 = 1.0 - _ADAM_BETA2**self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = _ADAM_BETA1 * self.m[i] + (1.0 - _ADAM_BETA1) * g
            self.v[i] = _ADAM_BETA2 * self.v[i] + (1.0 - _ADAM_BETA2) * (g * g)
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


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
