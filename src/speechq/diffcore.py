"""Reverse-mode differentiable array substrate.

Supplies exactly the operations the quality model needs, each with a
hand-coded vector-Jacobian product that is verified against central
finite differences (see :func:`gradient_check`). Tensors wrap numpy
arrays; the graph is recorded eagerly and walked once by
:func:`backward`. float64 is the verification precision, float32 the
training default; every op preserves the dtype of its inputs.

A computation graph instance is single-threaded. Distinct graphs may run
on distinct threads.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Callable, Iterable, Sequence

import numpy as np

from .signal import StftConfig, _synthesize, _synthesize_adjoint

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "as_tensor",
    "backward",
    "gradient_check",
    "Adam",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]


class Tensor:
    """A value node in the computation graph.

    ``values`` is the forward result, ``grad`` is filled by
    :func:`backward` for every node with ``requires_grad``.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype}, requires_grad={self.requires_grad})"


def parameter(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(values), requires_grad=True)


def constant(values) -> Tensor:
    """A non-trainable leaf tensor."""
    return Tensor(np.asarray(values))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _make(values: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("op produced non-finite values")
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    v = a.values + b.values

    def vjp(g):
        ga = _unbroadcast(g, a.values.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.values.shape) if b.requires_grad else None
        return ga, gb

    return _make(v, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    v = a.values - b.values

    def vjp(g):
        ga = _unbroadcast(g, a.values.shape) if a.requires_grad else None
        gb = -_unbroadcast(g, b.values.shape) if b.requires_grad else None
        return ga, gb

    return _make(v, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    v = a.values * b.values

    def vjp(g):
        ga = _unbroadcast(g * b.values, a.values.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.values, b.values.shape) if b.requires_grad else None
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


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    old = x.values.shape

    def vjp(g):
        return (g.reshape(old),)

    return _make(x.values.reshape(shape), (x,), vjp)


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


def sum(x, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - numpy-style name
    x = as_tensor(x)
    v = np.sum(x.values, axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.values.shape).astype(x.values.dtype, copy=True),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.values.shape).astype(x.values.dtype, copy=True),)

    return _make(v, (x,), vjp)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    v = np.mean(x.values, axis=axis, keepdims=keepdims)
    count = x.values.size if axis is None else np.prod(
        [x.values.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def vjp(g):
        if axis is None:
            full = np.broadcast_to(g, x.values.shape)
        else:
            g2 = g if keepdims else np.expand_dims(g, axis)
            full = np.broadcast_to(g2, x.values.shape)
        return ((full / count).astype(x.values.dtype, copy=False),)

    return _make(v, (x,), vjp)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def clip_floor(x, floor: float) -> Tensor:
    """max(x, floor); the subgradient at the floor is taken as zero."""
    x = as_tensor(x)
    keep = x.values > floor

    def vjp(g):
        return (g * keep,)

    return _make(np.maximum(x.values, floor), (x,), vjp)


def log(x) -> Tensor:
    x = as_tensor(x)
    # log(0) and log(<0) are reported by the finiteness check in _make.
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.log(x.values)

    def vjp(g):
        return (g / x.values,)

    return _make(v, (x,), vjp)


def abs_squared(stacked) -> Tensor:
    """Squared magnitude of a (2, ...) real/imaginary stack, reducing the first axis."""
    x = as_tensor(stacked)
    if x.values.shape[0] != 2:
        raise ValueError("abs_squared expects a leading real/imaginary axis of size 2")
    v = x.values[0] ** 2 + x.values[1] ** 2

    def vjp(g):
        return (np.stack([2.0 * x.values[0] * g, 2.0 * x.values[1] * g]),)

    return _make(v, (x,), vjp)


def softplus(x) -> Tensor:
    x = as_tensor(x)
    v = np.logaddexp(0.0, x.values)

    def vjp(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * x.values))
        return (g * sig,)

    return _make(v, (x,), vjp)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.values - np.max(x.values, axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        inner = np.sum(g * p, axis=axis, keepdims=True)
        return (p * (g - inner),)

    return _make(p, (x,), vjp)


def prelu(x, slope) -> Tensor:
    """Per-channel parametric ReLU on a (batch, channels, time) tensor."""
    x, slope = as_tensor(x), as_tensor(slope)
    if x.values.ndim != 3 or slope.values.shape != (x.values.shape[1],):
        raise ValueError(
            f"prelu expects (B, C, T) input and per-channel slope, got {x.values.shape} / {slope.values.shape}"
        )
    pos = x.values > 0
    a = slope.values[None, :, None]
    v = np.where(pos, x.values, a * x.values)

    def vjp(g):
        gx = np.where(pos, g, a * g) if x.requires_grad else None
        gs = np.sum(np.where(pos, 0.0, g * x.values), axis=(0, 2)) if slope.requires_grad else None
        return gx, gs

    return _make(v, (x, slope), vjp)


# ---------------------------------------------------------------------------
# normalization


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
    momentum: float = 0.99,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over (batch, time) of a (B, C, T) tensor.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode is a deterministic affine map using the
    frozen running statistics.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim != 3:
        raise ValueError(f"batch_norm expects (B, C, T), got {x.values.shape}")
    c = x.values.shape[1]
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise ValueError("gamma/beta must be per-channel vectors")

    if training:
        mu = np.mean(x.values, axis=(0, 2))
        var = np.var(x.values, axis=(0, 2))
        running_mean.values[...] = momentum * running_mean.values + (1.0 - momentum) * mu
        running_var.values[...] = momentum * running_var.values + (1.0 - momentum) * var
        sigma = np.sqrt(var + eps)
        xhat = (x.values - mu[None, :, None]) / sigma[None, :, None]
        m = x.values.shape[0] * x.values.shape[2]

        def vjp(g):
            gg = g * gamma.values[None, :, None]
            gx = None
            if x.requires_grad:
                mean_g = np.sum(gg, axis=(0, 2), keepdims=True) / m
                mean_gx = np.sum(gg * xhat, axis=(0, 2), keepdims=True) / m
                gx = (gg - mean_g - xhat * mean_gx) / sigma[None, :, None]
            ggamma = np.sum(g * xhat, axis=(0, 2)) if gamma.requires_grad else None
            gbeta = np.sum(g, axis=(0, 2)) if beta.requires_grad else None
            return gx, ggamma, gbeta

    else:
        sigma = np.sqrt(running_var.values + eps)
        xhat = (x.values - running_mean.values[None, :, None]) / sigma[None, :, None]

        def vjp(g):
            gx = g * (gamma.values / sigma)[None, :, None] if x.requires_grad else None
            ggamma = np.sum(g * xhat, axis=(0, 2)) if gamma.requires_grad else None
            gbeta = np.sum(g, axis=(0, 2)) if beta.requires_grad else None
            return gx, ggamma, gbeta

    v = gamma.values[None, :, None] * xhat + beta.values[None, :, None]
    return _make(v.astype(x.values.dtype, copy=False), (x, gamma, beta), vjp)


def global_layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize each batch item over all (channel, time) positions.

    Stateless alternative to batch_norm for batch-size-1 training.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.values.ndim != 3:
        raise ValueError(f"global_layer_norm expects (B, C, T), got {x.values.shape}")
    c = x.values.shape[1]
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise ValueError("gamma/beta must be per-channel vectors")
    mu = np.mean(x.values, axis=(1, 2), keepdims=True)
    var = np.var(x.values, axis=(1, 2), keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = (x.values - mu) / sigma
    m = x.values.shape[1] * x.values.shape[2]

    def vjp(g):
        gg = g * gamma.values[None, :, None]
        gx = None
        if x.requires_grad:
            mean_g = np.sum(gg, axis=(1, 2), keepdims=True) / m
            mean_gx = np.sum(gg * xhat, axis=(1, 2), keepdims=True) / m
            gx = (gg - mean_g - xhat * mean_gx) / sigma
        ggamma = np.sum(g * xhat, axis=(0, 2)) if gamma.requires_grad else None
        gbeta = np.sum(g, axis=(0, 2)) if beta.requires_grad else None
        return gx, ggamma, gbeta

    v = gamma.values[None, :, None] * xhat + beta.values[None, :, None]
    return _make(v.astype(x.values.dtype, copy=False), (x, gamma, beta), vjp)


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

    def vjp(g):
        gx = np.matmul(w.values.T, g) if x.requires_grad else None
        gw = np.tensordot(g, x.values, axes=([0, 2], [0, 2])) if w.requires_grad else None
        gb = np.sum(g, axis=(0, 2)) if b.requires_grad else None
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
    xpad = np.zeros((batch, c, t + 2 * pad), dtype=x.values.dtype)
    xpad[:, :, pad : pad + t] = x.values
    v = np.zeros((batch, c, t), dtype=x.values.dtype)
    for j in range(k):
        v += kernel.values[None, :, j : j + 1] * xpad[:, :, j * dilation : j * dilation + t]
    v += bias.values[None, :, None]

    def vjp(g):
        gx = None
        if x.requires_grad:
            gpad = np.zeros_like(xpad)
            for j in range(k):
                gpad[:, :, j * dilation : j * dilation + t] += kernel.values[None, :, j : j + 1] * g
            gx = gpad[:, :, pad : pad + t]
        gk = None
        if kernel.requires_grad:
            gk = np.empty_like(kernel.values)
            for j in range(k):
                gk[:, j] = np.sum(g * xpad[:, :, j * dilation : j * dilation + t], axis=(0, 2))
        gb = np.sum(g, axis=(0, 2)) if bias.requires_grad else None
        return gx, gk, gb

    return _make(v, (x, kernel, bias), vjp)


# ---------------------------------------------------------------------------
# spectral ops


def complex_mask_apply(mask_real, mask_imag, spec_real, spec_imag) -> Tensor:
    """Complex multiply of a real/imaginary mask pair with a spectrogram.

    All four inputs share one shape; the output stacks the masked real and
    imaginary parts along a new leading axis of size 2.
    """
    mr, mi = as_tensor(mask_real), as_tensor(mask_imag)
    yr, yi = as_tensor(spec_real), as_tensor(spec_imag)
    shape = mr.values.shape
    for t in (mi, yr, yi):
        if t.values.shape != shape:
            raise ValueError("mask/spectrogram shapes must all match")
    out_r = mr.values * yr.values - mi.values * yi.values
    out_i = mr.values * yi.values + mi.values * yr.values

    def vjp(g):
        g0, g1 = g[0], g[1]
        gmr = g0 * yr.values + g1 * yi.values if mr.requires_grad else None
        gmi = -g0 * yi.values + g1 * yr.values if mi.requires_grad else None
        gyr = g0 * mr.values + g1 * mi.values if yr.requires_grad else None
        gyi = -g0 * mi.values + g1 * mr.values if yi.requires_grad else None
        return gmr, gmi, gyr, gyi

    return _make(np.stack([out_r, out_i]), (mr, mi, yr, yi), vjp)


def istft_synthesis(spec_stack, cfg: StftConfig) -> Tensor:
    """Differentiable inverse STFT of a (2, B, F, T) real/imaginary stack.

    Mirrors :func:`speechq.signal.istft` numerically; output is (B, L) with
    L = (T - 1) * hop + window.
    """
    x = as_tensor(spec_stack)
    if x.values.ndim != 4 or x.values.shape[0] != 2 or x.values.shape[2] != cfg.n_bins:
        raise ValueError(f"expected (2, B, {cfg.n_bins}, T) stack, got {x.values.shape}")
    n_frames = x.values.shape[3]
    cdtype = np.complex64 if x.values.dtype == np.float32 else np.complex128
    spec = (x.values[0] + 1j * x.values[1]).astype(cdtype)
    out = _synthesize(spec, cfg)

    def vjp(g):
        # Filled into a C-ordered array: the reductions downstream sum in
        # memory order, so a transposed layout would change their rounding.
        sg = _synthesize_adjoint(g, n_frames, cfg)
        grad = np.empty_like(x.values)
        grad[0] = sg.real
        grad[1] = sg.imag
        return (grad,)

    return _make(out, (x,), vjp)


# ---------------------------------------------------------------------------
# reductions used as losses


def mse_reduction(a, b, reduction: str = "sum") -> Tensor:
    """Squared-difference reduction, composed from the primitives above."""
    d = sub(a, b)
    sq = mul(d, d)
    if reduction == "sum":
        return sum(sq)
    if reduction == "mean":
        return mean(sq)
    raise ValueError(f"unknown reduction {reduction!r}")


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Fill ``grad`` on every reachable tensor with d(loss)/d(tensor)."""
    if loss.values.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not connected to any tensor that requires gradients")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


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
    zero_grads(inputs)

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


class Adam:
    """Standard Adam over a named parameter map.

    ``step()`` applies the update, advances the step counter and clears
    the gradients. State arrays live in the parameter dtype so that
    checkpointed runs resume bit-exactly.
    """

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = {name: t for name, t in params.items() if t.requires_grad}
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros_like(t.values) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.values) for name, t in self.params.items()}

    def step(self) -> None:
        missing = [name for name, t in self.params.items() if t.grad is None]
        if missing:
            raise ValueError(f"adam step with missing gradients: {missing[:4]}")
        for name, t in self.params.items():
            if not np.all(np.isfinite(t.grad)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, t in self.params.items():
            g = t.grad
            m = self.m[name]
            v = self.v[name]
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            t.values[...] = t.values - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            t.grad = None

    def state_arrays(self) -> dict:
        """Optimizer state flattened for checkpointing."""
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state(self, arrays: dict, step: int) -> None:
        # Parameters absent from the saved state (e.g. heads a previous run
        # did not optimize) keep fresh zero moments.
        for name in self.params:
            if f"opt.m.{name}" in arrays:
                self.m[name] = np.array(arrays[f"opt.m.{name}"])
                self.v[name] = np.array(arrays[f"opt.v.{name}"])
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
    """Write named float arrays plus a JSON header to a single file."""
    head = dict(header)
    head["format_version"] = _FORMAT_VERSION
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
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
            raw = data.tobytes()
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(raw)


class CheckpointError(ValueError):
    """Raised for files that are not complete, well-formed checkpoints."""


def load_checkpoint(path):
    """Read a checkpoint back as (arrays, header). Bit-exact inverse of save.

    Raises:
        CheckpointError: bad magic, unknown version or dtype, a short read,
            or an array whose byte count disagrees with its shape.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            # Checked against the file size first, so a corrupt length field
            # cannot make read() allocate an arbitrarily large buffer.
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated checkpoint")
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
            raw = read(nbytes)
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        return arrays, header
