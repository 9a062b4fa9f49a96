"""Reverse-mode differentiable array substrate.

Supplies exactly the operations the quality model needs, each with a
hand-coded vector-Jacobian product that is verified against central
finite differences (see :func:`gradient_check`). Tensors wrap numpy
arrays; the graph is recorded eagerly and walked once by
:func:`backward`, which frees it as it goes: an op node drops its VJP
closure, its parents and its gradient as soon as its VJP has run. Only
leaves (parameters and other tensors no op produced) keep ``grad``, and
``backward`` runs once per forward; a second call on a released graph
raises ``ValueError``. float64 is the verification precision, float32 the
training default; every op preserves the dtype of its inputs.

Graph edges point at value-free nodes, not at op outputs, and each VJP
closure keeps only the arrays it reads. A VJP that reads an input's
values keeps them through ``_keep``, which keeps a train-mode batch-norm
output as a recipe instead: the norm's own ``xhat`` and copies of
``gamma`` and ``beta``, from which the VJP rebuilds the output with the
forward's operations in the forward's order, bit for bit. Between
forward and backward a training step therefore keeps resident the
parameters, Adam's two moments and, per op, only:

- prelu: its input;
- batch_norm: ``xhat`` and ``sigma``;
- conv1d_pointwise: its input (for the weight gradient), or the recipe
  of a train-mode batch-norm input;
- conv1d_depthwise_dilated: its input (for the kernel gradient), or the
  recipe of a train-mode batch-norm input;
- mul: its inputs; softmax: its output;
- istft_synthesis: the spectrogram's real and imaginary parts;
- add, scale, sum, mean, cast, cumsum: shapes and dtypes only (sub is
  add and scale).

An op output that no VJP reads (a PReLU output, the last 1x1 conv of a
residual block, the mask heads) or that it reads through a recipe (a
train-mode batch-norm output) is freed as soon as the caller drops it.

A computation graph instance is single-threaded. Distinct graphs may run
on distinct threads.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from typing import Callable, Sequence

import numpy as np

from .signal import StftConfig, _synthesize, _synthesize_adjoint


class Tensor:
    """A value in the computation graph.

    ``values`` is the forward result, ``grad`` is filled by
    :func:`backward` for every leaf with ``requires_grad``. An op output
    that requires gradients records its VJP and its inputs on a
    :class:`_Node`; ``_vjp`` reads and writes that node's VJP, and is
    ``None`` on a leaf. ``_recompute`` is the recipe of a train-mode
    :func:`batch_norm` output (see :func:`_keep`) and ``None`` on every
    other tensor.
    """

    __slots__ = ("values", "grad", "requires_grad", "_node", "_recompute")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None
        self._recompute = None

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node._vjp = vjp

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """The graph record of one op output, without the output's values.

    ``_parents`` holds, per op input, the input's node, the input itself
    for a leaf that requires gradients, or ``None``; ``grad`` is the
    gradient accumulated during :func:`backward`.
    """

    __slots__ = ("grad", "_vjp", "_parents")

    def __init__(self, vjp: Callable, parents: tuple):
        self.grad = None
        self._vjp = vjp
        self._parents = parents


def parameter(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(values), requires_grad=True)


def constant(values) -> Tensor:
    """A non-trainable leaf tensor."""
    return Tensor(np.asarray(values))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _graph_ref(t: Tensor):
    """What the graph records for input ``t``: its node, itself (a leaf) or None."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _make(values: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if not np.isfinite(values).all():
        raise FloatingPointError("op produced non-finite values")
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(vjp, tuple([_graph_ref(p) for p in parents]))
    return out


def _keep(t: Tensor) -> Callable[[], np.ndarray]:
    """A call that returns ``t``'s values inside a VJP: ``t``'s recipe if it has one."""
    if t._recompute is not None:
        return t._recompute
    values = t.values
    return lambda: values


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
#
# Each VJP closure captures only the arrays, shapes and requires_grad flags
# it reads, never an input Tensor, so an op output that no VJP reads is
# freed as soon as the caller drops it. An input's values are kept through
# _keep.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    v = a.values + b.values
    a_shape = a.values.shape if a.requires_grad else None
    b_shape = b.values.shape if b.requires_grad else None

    def vjp(g):
        ga = _unbroadcast(g, a_shape) if a_shape is not None else None
        gb = _unbroadcast(g, b_shape) if b_shape is not None else None
        return ga, gb

    return _make(v, (a, b), vjp)


def sub(a, b) -> Tensor:
    """``a + (-b)``: the negation is exact, so this rounds as ``a - b`` does,
    forward and backward."""
    return add(a, scale(b, -1.0))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    v = a.values * b.values
    a_shape, b_shape = a.values.shape, b.values.shape
    # Each side's gradient reads the other side's values.
    read_b = _keep(b) if a.requires_grad else None
    read_a = _keep(a) if b.requires_grad else None

    def vjp(g):
        ga = _unbroadcast(g * read_b(), a_shape) if read_b is not None else None
        gb = _unbroadcast(g * read_a(), b_shape) if read_a is not None else None
        return ga, gb

    return _make(v, (a, b), vjp)


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar (kept out of the graph)."""
    x = as_tensor(x)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _make(x.values * c, (x,), vjp)


# ---------------------------------------------------------------------------
# shape and reduction ops


def cast(x, dtype) -> Tensor:
    """Change precision; the gradient is cast back to the input dtype."""
    x = as_tensor(x)
    dtype = np.dtype(dtype)
    old = x.values.dtype

    def vjp(g):
        return (g.astype(old),)

    return _make(x.values.astype(dtype), (x,), vjp)


def cumsum(x) -> Tensor:
    """Cumulative sum along the last axis."""
    x = as_tensor(x)

    def vjp(g):
        rev = np.flip(np.cumsum(np.flip(g, axis=-1), axis=-1), axis=-1)
        return (rev,)

    return _make(np.cumsum(x.values, axis=-1), (x,), vjp)


def sum(x, axis=None) -> Tensor:  # noqa: A001 - numpy-style name
    x = as_tensor(x)
    v = x.values.sum(axis=axis)
    shape, dtype = x.values.shape, x.values.dtype

    def vjp(g):
        g2 = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, shape).astype(dtype, copy=True),)

    return _make(v, (x,), vjp)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    shape, dtype = x.values.shape, x.values.dtype
    count = x.values.size if axis is None else shape[axis]
    # np.mean's sum and count; dividing by a Python int rounds as np.mean does.
    v = x.values.sum(axis=axis, keepdims=keepdims) / count

    def vjp(g):
        g2 = g if axis is None or keepdims else np.expand_dims(g, axis)
        return ((np.broadcast_to(g2, shape) / count).astype(dtype, copy=False),)

    return _make(v, (x,), vjp)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - inner),)

    return _make(p, (x,), vjp)


def prelu(x, slope) -> Tensor:
    """Per-channel parametric ReLU on a (batch, channels, time) tensor."""
    x, slope = as_tensor(x), as_tensor(slope)
    if x.values.ndim != 3 or slope.values.shape != (x.values.shape[1],):
        raise ValueError(
            f"prelu expects (B, C, T) input and per-channel slope, got {x.values.shape} / {slope.values.shape}"
        )
    sv = slope.values
    x_grad, slope_grad = x.requires_grad, slope.requires_grad

    def times_factor(xv, y):
        # The factor is exactly 1 where x > 0 and exactly the slope elsewhere,
        # so the product equals a two-branch select bit for bit, without one.
        m = (xv > 0).astype(xv.dtype)
        s = 1 - m
        s *= sv[None, :, None]
        s += m
        s *= y
        return s

    read_x = _keep(x)

    def vjp(g):
        xv = read_x()
        gx = times_factor(xv, g) if x_grad else None
        # Only x <= 0 contributes to the slope gradient: g * min(x, 0).
        gs = (g * np.minimum(xv, 0)).sum(axis=(0, 2)) if slope_grad else None
        return gx, gs

    return _make(times_factor(x.values, x.values), (x, slope), vjp)


# ---------------------------------------------------------------------------
# normalization

# batch_norm's running-statistics momentum and its variance floor.
NORM_MOMENTUM = 0.99
NORM_EPS = 1e-5


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization over (batch, time) of a (B, C, T) tensor.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode is a deterministic affine map using the
    frozen running statistics. Scoring does not run eval mode:
    ``model.freeze`` folds the same map into the convolutions next to the
    norm, and eval mode is the reference that fold is tested against. The
    train variance is the mean of the squared deviations, the same sums
    ``np.var`` forms, and its VJP works in place in the textbook order. A
    train-mode output carries a
    ``_recompute`` recipe that rebuilds it from ``xhat``, which the VJP
    keeps anyway, so the ops that read it do not keep it.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim != 3:
        raise ValueError(f"batch_norm expects (B, C, T), got {x.values.shape}")
    c = x.values.shape[1]
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise ValueError("gamma/beta must be per-channel vectors")
    gv = gamma.values
    x_grad, gamma_grad, beta_grad = x.requires_grad, gamma.requires_grad, beta.requires_grad
    read_g = _keep(gamma) if x_grad else None
    if training:
        m = x.values.shape[0] * x.values.shape[2]
        mu = x.values.sum(axis=(0, 2), keepdims=True) / m
        xhat = x.values - mu
        var = (xhat * xhat).sum(axis=(0, 2), keepdims=True) / m
        sigma = np.sqrt(var + NORM_EPS)
        xhat /= sigma
        running_mean.values[...] = NORM_MOMENTUM * running_mean.values + (1.0 - NORM_MOMENTUM) * mu.ravel()
        running_var.values[...] = NORM_MOMENTUM * running_var.values + (1.0 - NORM_MOMENTUM) * var.ravel()

        def grad_x(g):
            gg = g * read_g()[None, :, None]
            mean_g = gg.sum(axis=(0, 2), keepdims=True) / m
            gx = gg * xhat
            mean_gx = gx.sum(axis=(0, 2), keepdims=True) / m
            # gx = (gg - mean_g - xhat * mean_gx) / sigma
            np.multiply(xhat, mean_gx, out=gx)
            gg -= mean_g
            np.subtract(gg, gx, out=gx)
            gx /= sigma
            return gx

    else:
        sigma = np.sqrt(running_var.values + NORM_EPS)
        xhat = x.values - running_mean.values[None, :, None]
        xhat /= sigma[None, :, None]

        def grad_x(g):
            return g * (read_g() / sigma)[None, :, None]

    def vjp(g):
        gx = grad_x(g) if x_grad else None
        ggamma = (g * xhat).sum(axis=(0, 2)) if gamma_grad else None
        gbeta = g.sum(axis=(0, 2)) if beta_grad else None
        return gx, ggamma, gbeta

    dtype = x.values.dtype
    out = _make(_affine(xhat, gv, beta.values, dtype), (x, gamma, beta), vjp)
    if training:
        # The recipe owns copies of gamma and beta, so an in-place update of
        # the parameters (Adam's step) cannot change what it rebuilds.
        out._recompute = functools.partial(_affine, xhat, gv.copy(), beta.values.copy(), dtype)
    return out


def _affine(xhat, gv, bv, dtype) -> np.ndarray:
    """A batch-norm output from its normalized input: gamma * xhat + beta."""
    v = gv[None, :, None] * xhat
    v += bv[None, :, None]
    return v.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# convolutions


def conv1d_pointwise(x, w, b) -> Tensor:
    """1x1 convolution: (B, Cin, T) x (Cout, Cin) + (Cout,) -> (B, Cout, T).

    The forward pass and both weight-side VJPs are BLAS matrix products:
    ``w @ x[b]`` per batch item, ``w.T @ g[b]`` for the input gradient and
    one GEMM contracting (batch, time) for the weight gradient.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 3 or w.values.ndim != 2 or x.values.shape[1] != w.values.shape[1]:
        raise ValueError(
            f"pointwise conv shape mismatch: input {x.values.shape}, weight {w.values.shape}"
        )
    if b.values.shape != (w.values.shape[0],):
        raise ValueError("bias must match output channels")
    v = np.matmul(w.values, x.values)
    v += b.values[None, :, None]
    # The input gradient reads w, the weight gradient reads x.
    read_w = _keep(w) if x.requires_grad else None
    read_x = _keep(x) if w.requires_grad else None
    b_grad = b.requires_grad

    def vjp(g):
        gx = np.matmul(read_w().T, g) if read_w is not None else None
        gw = None
        if read_x is not None:
            # np.tensordot's steps over (batch, time): (Cout, B*T) @ (B*T, Cin).
            xv = read_x()
            gt, xt = g.transpose(1, 0, 2), xv.transpose(0, 2, 1)
            gw = np.dot(gt.reshape(gt.shape[0], -1), xt.reshape(-1, xt.shape[2]))
        gb = g.sum(axis=(0, 2)) if b_grad else None
        return gx, gw, gb

    return _make(v, (x, w, b), vjp)


def conv1d_depthwise_dilated(x, kernel, bias, dilation: int) -> Tensor:
    """Per-channel dilated convolution with same-length zero padding.

    (B, C, T) x (C, K) + (C,) -> (B, C, T), K odd; each side is padded by
    dilation * (K - 1) / 2 so the residual add lines up.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.values.ndim != 3 or kernel.values.ndim != 2:
        raise ValueError("depthwise conv expects (B, C, T) input and (C, K) kernel")
    batch, c, t = x.values.shape
    if kernel.values.shape[0] != c or bias.values.shape != (c,):
        raise ValueError("kernel/bias channel count must match the input")
    k = kernel.values.shape[1]
    if k % 2 != 1 or dilation < 1:
        raise ValueError("kernel size must be odd and dilation positive")
    pad = dilation * (k - 1) // 2
    # Tap j reads input frame tau + off for output frame tau, so only output
    # frames [lo, hi) read real input; a tap with lo >= hi sees only padding.
    taps = []
    for j in range(k):
        off = j * dilation - pad
        lo, hi = max(0, -off), min(t, t - off)
        if lo < hi:
            taps.append((j, off, lo, hi))
    xv, kv = x.values, kernel.values
    v = np.zeros((batch, c, t), dtype=xv.dtype)
    for j, off, lo, hi in taps:
        v[:, :, lo:hi] += kv[None, :, j : j + 1] * xv[:, :, lo + off : hi + off]
    v += bias.values[None, :, None]
    x_dtype, k_dtype = xv.dtype, kv.dtype
    bias_grad = bias.requires_grad
    # The input gradient reads the kernel, the kernel gradient reads x.
    read_k = _keep(kernel) if x.requires_grad else None
    read_x = _keep(x) if kernel.requires_grad else None

    def vjp(g):
        gx = None
        if read_k is not None:
            kv = read_k()
            gx = np.zeros((batch, c, t), dtype=x_dtype)
            for j, off, lo, hi in taps:
                gx[:, :, lo + off : hi + off] += kv[None, :, j : j + 1] * g[:, :, lo:hi]
        gk = None
        if read_x is not None:
            saved_x = read_x()
            # Each column sums a full-length product that is zero outside
            # [lo, hi): the same reduction order as over a padded input.
            gk = np.zeros((c, k), dtype=k_dtype)
            prod = np.empty(g.shape, dtype=np.result_type(g, saved_x))
            for j, off, lo, hi in taps:
                np.multiply(g[:, :, lo:hi], saved_x[:, :, lo + off : hi + off], out=prod[:, :, lo:hi])
                prod[:, :, :lo] = 0
                prod[:, :, hi:] = 0
                gk[:, j] = prod.sum(axis=(0, 2))
        gb = g.sum(axis=(0, 2)) if bias_grad else None
        return gx, gk, gb

    return _make(v, (x, kernel, bias), vjp)


# ---------------------------------------------------------------------------
# spectral ops


def istft_synthesis(mask_real, mask_imag, spec: np.ndarray, cfg: StftConfig) -> Tensor:
    """Differentiable inverse STFT of a constant (B, F, T) complex spectrogram
    under a complex mask, given as its real and imaginary parts.

    The masked spectrum is formed in the masks' dtype and resynthesized as
    :func:`speechq.signal.istft` does, into (B, L) with L = (T - 1) * hop +
    window. Only the masks get gradients.
    """
    mr, mi = as_tensor(mask_real), as_tensor(mask_imag)
    shape, dtype = mr.values.shape, mr.values.dtype
    if len(shape) != 3 or shape[1] != cfg.n_bins or mi.values.shape != shape or spec.shape != shape:
        raise ValueError(
            f"expected (B, {cfg.n_bins}, T) masks and spectrogram, got {shape}, {mi.values.shape} and {spec.shape}"
        )
    yr, yi = spec.real.astype(dtype), spec.imag.astype(dtype)
    masked = np.empty(shape, dtype=np.complex64 if dtype == np.float32 else np.complex128)
    masked.real = mr.values * yr - mi.values * yi
    masked.imag = mr.values * yi + mi.values * yr

    def vjp(g):
        # C-ordered copies: the reductions downstream sum in memory order, so
        # a transposed layout would change their rounding.
        sg = _synthesize_adjoint(g, shape[2], cfg)
        g0 = np.ascontiguousarray(sg.real, dtype=dtype)
        g1 = np.ascontiguousarray(sg.imag, dtype=dtype)
        return g0 * yr + g1 * yi, -g0 * yi + g1 * yr

    return _make(_synthesize(masked, cfg), (mr, mi), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _released(g):
    """Stands in for the VJP of an op node that :func:`backward` has consumed."""
    raise ValueError("backward through a graph that was already released by backward")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every reachable leaf.

    The graph is freed as it is walked: each op node drops its VJP, its
    parents and its gradient once the VJP has run, so only leaves (tensors
    no op produced, such as parameters) keep ``grad``. ``backward``
    therefore runs once per forward; a second call through a released node
    raises ``ValueError`` before any gradient changes.
    """
    if loss.values.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not connected to any tensor that requires gradients")
    # The walk visits op nodes only; the leaves they record just take gradients.
    root = _graph_ref(loss)
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)] if isinstance(root, _Node) else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _released:
            _released(None)  # raises before any gradient changes
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, _Node) and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(loss.values)
    # Reverse topological order; popping lets each node go as soon as its
    # VJP has consumed it.
    while topo:
        node = topo.pop()
        vjp, parents, g = node._vjp, node._parents, node.grad
        node._vjp, node._parents, node.grad = _released, (), None
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or parent is None:
                continue
            parent.grad = pg if parent.grad is None else parent.grad + pg


# ---------------------------------------------------------------------------
# finite-difference verification


def gradient_check(fn, inputs: Sequence[Tensor], step: float = 1e-5) -> float:
    """Compare analytic gradients of ``fn(*inputs)`` to central differences.

    ``fn`` must be a pure function of the given tensors. Non-scalar
    outputs are projected onto a fixed random probe so a single backward
    pass covers the whole Jacobian. Returns the max over all input
    coordinates of |analytic - difference| / max(|analytic|, |difference|, 1e-8).

    Callers are responsible for keeping inputs away from non-differentiable
    points (the PReLU kink, clip floors, argmax ties).
    """
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    probe_rng = np.random.default_rng(0x5EED)
    out0 = fn(*inputs)
    probe = probe_rng.standard_normal(out0.values.shape)

    def scalar_eval() -> float:
        return float(np.sum(fn(*inputs).values * probe))

    loss = sum(mul(fn(*inputs), constant(probe.astype(out0.values.dtype))))
    backward(loss)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.values) for t in inputs
    ]
    for t in inputs:
        t.grad = None

    worst = 0.0
    for t, an in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = scalar_eval()
            flat[i] = orig - step
            f_minus = scalar_eval()
            flat[i] = orig
            diff = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(aflat[i]), abs(diff), 1e-8)
            worst = max(worst, abs(aflat[i] - diff) / denom)
    return worst


# ---------------------------------------------------------------------------
# optimizer

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults):
# values -= lr * m_hat / (sqrt(v_hat) + ADAM_EPS).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Parameters of at most this many elements share flat moment buffers and are
# updated together; larger ones, where a call's overhead is small next to its
# arithmetic, are updated one by one.
ADAM_GROUP_MAX = 2**16


def _adam_update(g, m, v, lr: float, bc1: float, bc2: float, a, b) -> None:
    """One Adam update of the moments ``m`` and ``v`` in place; leaves the step
    lr * (m / bc1) / (sqrt(v / bc2) + eps) in ``a`` and uses ``b`` as scratch.
    ``b`` may be ``g``: ``g`` is not read once ``b`` is written.

    The operations run in the textbook order, so an element rounds as that
    formula does whichever buffer holds it.
    """
    # m = beta1 * m + (1 - beta1) * g
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    # v = beta2 * v + (1 - beta2) * (g * g)
    v *= ADAM_BETA2
    np.multiply(g, g, out=a)
    a *= 1.0 - ADAM_BETA2
    v += a
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b


class _AdamGroup:
    """The parameters of one dtype with at most ADAM_GROUP_MAX elements each:
    flat moment buffers ``m`` and ``v``, a gradient buffer ``g``, which is
    also the update's scratch, and the step buffer ``a``, whose
    per-parameter views are ``steps``."""

    def __init__(self, params: dict, dtype):
        self.params = params
        bounds = np.cumsum([0] + [t.values.size for t in params.values()]).tolist()
        self.slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.m, self.v = np.zeros(bounds[-1], dtype), np.zeros(bounds[-1], dtype)
        self.g, self.a = np.empty(bounds[-1], dtype), np.empty(bounds[-1], dtype)
        self.steps = list(self.views(self.a).values())

    def views(self, buf: np.ndarray) -> dict:
        """Each parameter's part of the flat buffer ``buf``, in the parameter's shape."""
        return {name: buf[s].reshape(t.values.shape) for (name, t), s in zip(self.params.items(), self.slices)}


class Adam:
    """Standard Adam over a named parameter map.

    ``step()`` applies the update, advances the step counter and clears
    the gradients. State arrays live in the parameter dtype so that
    checkpointed runs resume bit-exactly.

    The moments of parameters of at most ADAM_GROUP_MAX elements live in
    one flat buffer per dtype (``m[name]`` and ``v[name]`` are views of
    it), and ``step()`` updates each buffer with one call per operation;
    larger parameters keep their own moments and calls. Every element goes
    through the same operations in the same order either way.
    """

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = {name: t for name, t in params.items() if t.requires_grad}
        self.lr = float(lr)
        self.t = 0
        small: dict = {}
        for name, t in self.params.items():
            if t.values.size <= ADAM_GROUP_MAX:
                small.setdefault(t.values.dtype, {})[name] = t
        self._groups = [_AdamGroup(members, dtype) for dtype, members in small.items()]
        self._singles = {name: t for name, t in self.params.items() if t.values.size > ADAM_GROUP_MAX}
        self.m = {name: np.zeros_like(t.values) for name, t in self._singles.items()}
        self.v = {name: np.zeros_like(t.values) for name, t in self._singles.items()}
        for group in self._groups:
            self.m.update(group.views(group.m))
            self.v.update(group.views(group.v))

    def step(self) -> None:
        missing = [name for name, t in self.params.items() if t.grad is None]
        if missing:
            raise ValueError(f"adam step with missing gradients: {missing[:4]}")
        for group in self._groups:
            np.concatenate([t.grad.ravel() for t in group.params.values()], out=group.g)
        finite = all(np.isfinite(group.g).all() for group in self._groups) and all(
            np.isfinite(t.grad).all() for t in self._singles.values()
        )
        if not finite:
            name = next(name for name, t in self.params.items() if not np.isfinite(t.grad).all())
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for group in self._groups:
            _adam_update(group.g, group.m, group.v, self.lr, bc1, bc2, group.a, group.g)
            for t, step in zip(group.params.values(), group.steps):
                t.values -= step
                t.grad = None
        for name, t in self._singles.items():
            m = self.m[name]
            a, b = np.empty_like(m), np.empty_like(m)
            _adam_update(t.grad, m, self.v[name], self.lr, bc1, bc2, a, b)
            t.values -= a
            t.grad = None

    def state_arrays(self) -> dict:
        """Optimizer state flattened for checkpointing."""
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state(self, arrays: dict, step: int) -> None:
        """Take saved moments: copied into the shared buffers for grouped
        parameters, adopted without a copy for the others, which ``step()``
        then updates in place. The arrays must have their parameter's shape
        and dtype, and an adopted one must be writable and used by nothing
        else, as :func:`load_checkpoint` returns them.
        """
        # Parameters absent from the saved state (e.g. heads a previous run
        # did not optimize) keep fresh zero moments.
        for name in self.params:
            if f"opt.m.{name}" not in arrays:
                continue
            m, v = arrays[f"opt.m.{name}"], arrays[f"opt.v.{name}"]
            if name in self._singles:
                self.m[name], self.v[name] = m, v
            else:
                self.m[name][...], self.v[name][...] = m, v
        self.t = int(step)


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic | u32 version | u64 header_len | header JSON (utf-8) | u32 count |
# per array: u16 name_len, name, u8 dtype code (0=f4, 1=f8), u8 ndim,
# u64 dims..., u64 byte count, raw little-endian data. Reload is bit-exact.

_MAGIC = b"SQCK"
_FORMAT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path, arrays: dict, header: dict) -> None:
    """Write named float arrays plus a JSON header to a single file.

    The file is written under a temporary name in the target's directory
    and renamed over ``path`` once complete, so ``path`` holds its old
    contents or the whole new checkpoint, never a partial one; on an error
    the temporary file is removed, and an ``OSError`` of the write names
    ``path``. This protects against a process crash, not against a power
    loss: nothing is flushed to disk (no fsync).
    """
    head = dict(header)
    head["format_version"] = _FORMAT_VERSION
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            _write_checkpoint(fh, blob, arrays)
        os.replace(tmp, path)
    except BaseException as exc:
        os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename is None:
            exc.filename = path
        raise


def _write_checkpoint(fh, blob: bytes, arrays: dict) -> None:
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", _FORMAT_VERSION))
    fh.write(struct.pack("<Q", len(blob)))
    fh.write(blob)
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype == np.float32:
            code, data = 0, np.ascontiguousarray(arr, dtype="<f4")
        elif arr.dtype == np.float64:
            code, data = 1, np.ascontiguousarray(arr, dtype="<f8")
        else:
            raise ValueError(f"checkpoint arrays must be float32/float64, got {arr.dtype} for {name!r}")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<BB", code, arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<Q", d))
        fh.write(struct.pack("<Q", data.nbytes))
        fh.write(memoryview(data))


class CheckpointError(ValueError):
    """Raised for files that are not complete, well-formed checkpoints."""


def load_checkpoint(path):
    """Read a checkpoint back as (arrays, header). Bit-exact inverse of save.

    Raises:
        CheckpointError: bad magic, unknown version or dtype, a short read,
            or an array whose byte count disagrees with its shape.
    """
    if os.path.isdir(path):
        raise CheckpointError(f"{path}: is a directory, not a checkpoint file")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def check_left(n: int) -> None:
            # Checked against the file size before reading, so a corrupt length
            # field cannot make a read allocate an arbitrarily large buffer.
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated checkpoint")

        def read(n: int) -> bytes:
            check_left(n)
            return fh.read(n)

        def unpack(fmt: str):
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if fh.read(4) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = unpack("<I")
        if version != _FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = unpack("<Q")
        try:
            header = json.loads(read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
        (count,) = unpack("<I")
        arrays = {}
        for _ in range(count):
            (nlen,) = unpack("<H")
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: unreadable array name: {exc}") from exc
            code, ndim = unpack("<BB")
            if code not in _DTYPE_CODES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
            shape = unpack(f"<{ndim}Q")
            (nbytes,) = unpack("<Q")
            dtype = _DTYPE_CODES[code]
            if nbytes != math.prod(shape) * dtype.itemsize:
                raise CheckpointError(
                    f"{path}: array {name!r} holds {nbytes} bytes, shape {shape} needs "
                    f"{math.prod(shape) * dtype.itemsize}"
                )
            check_left(nbytes)
            arr = np.empty(shape, dtype=dtype)
            fh.readinto(arr)
            arrays[name] = arr
        return arrays, header
