"""The quality estimation network.

A fixed STFT encoder feeds log-power-spectrum features into a stack of
dilated depthwise-separable convolution blocks with residual
connections. The trunk output drives two branches: a reconstruction
branch that predicts an unbounded complex ratio mask, applies it to the
input spectrogram and resynthesizes a waveform; and a quality branch
that maps every frame to class logits, averages them over time and
applies a softmax to obtain a distribution over score classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import diffcore as dc
from . import signal as sig

# The reconstruction branch's two 1x1 heads, the real and imaginary mask parts.
MASK_HEADS = ("mask_real", "mask_imag")
# Taps of every depthwise convolution; odd, so same-length padding is symmetric.
KERNEL_SIZE = 3


@dataclass(frozen=True)
class ModelConfig:
    sample_rate: int = 16000
    bottleneck_channels: int = 256
    conv_channels: int = 512
    blocks_per_repeat: int = 8
    repeats: int = 4
    n_classes: int = 100  # total classes, padding included
    dtype: str = "float32"
    stft: sig.StftConfig = field(init=False, repr=False, compare=False)  # derived from sample_rate

    def __post_init__(self):
        """Raises one ValueError that names every invalid field, separated by `` | ``."""
        problems = []
        for name in ("sample_rate", "bottleneck_channels", "conv_channels", "blocks_per_repeat", "repeats", "n_classes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                problems.append(f"model {name} must be a positive integer, got {value!r}")
            elif name == "sample_rate":
                try:
                    object.__setattr__(self, "stft", sig.StftConfig(value))
                except ValueError as exc:
                    problems.append(str(exc))
        if self.dtype not in ("float32", "float64"):
            problems.append(f"model dtype must be float32 or float64, got {self.dtype!r}")
        if problems:
            raise ValueError(" | ".join(problems))

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def dilations(self) -> list[int]:
        return [2**b for b in range(self.blocks_per_repeat)]

    @property
    def receptive_field(self) -> int:
        """Trunk receptive field in frames."""
        return 1 + (KERNEL_SIZE - 1) * self.repeats * (2**self.blocks_per_repeat - 1)

    def to_dict(self) -> dict:
        """The constructor arguments; ``ModelConfig(**cfg.to_dict())`` rebuilds ``cfg``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}


@dataclass
class GraphOutput:
    """Graph tensors from a batched forward pass, consumed by the losses."""

    reconstruction: dc.Tensor | None  # (B, L_out)
    logits: dc.Tensor  # (B, n_classes, T)
    distribution: dc.Tensor  # (B, n_classes)


def param_layout(cfg: ModelConfig):
    """Yield ``(name, (shape, init))`` for every model tensor, in the order
    init_params draws them, without building the whole list.

    The initializer is an ``int`` fan-in for a uniform draw in
    ±1/sqrt(fan_in), or a ``float`` constant fill. Names ending in
    ``run_mean`` or ``run_var`` are normalization buffers, not parameters.
    """
    f_bins, k = cfg.stft.n_bins, KERNEL_SIZE
    cb, cc = cfg.bottleneck_channels, cfg.conv_channels
    yield from {"entry.w": ((cb, f_bins), f_bins), "entry.b": ((cb,), f_bins)}.items()
    for r in range(cfg.repeats):
        for x in range(cfg.blocks_per_repeat):
            p = f"block{r}.{x}."
            yield from {
                p + "pw1.w": ((cc, cb), cb),
                p + "pw1.b": ((cc,), cb),
                p + "act1.slope": ((cc,), 0.25),
                p + "norm1.gamma": ((cc,), 1.0),
                p + "norm1.beta": ((cc,), 0.0),
                p + "norm1.run_mean": ((cc,), 0.0),
                p + "norm1.run_var": ((cc,), 1.0),
                p + "dw.kernel": ((cc, k), k),
                p + "dw.b": ((cc,), k),
                p + "act2.slope": ((cc,), 0.25),
                p + "norm2.gamma": ((cc,), 1.0),
                p + "norm2.beta": ((cc,), 0.0),
                p + "norm2.run_mean": ((cc,), 0.0),
                p + "norm2.run_var": ((cc,), 1.0),
                p + "pw2.w": ((cb, cc), cc),
                p + "pw2.b": ((cb,), cc),
            }.items()
    for head in MASK_HEADS:
        yield head + ".w", ((f_bins, cb), cb)
        yield head + ".b", ((f_bins,), cb)
    yield "quality.w", ((cfg.n_classes, cb), 0.0)
    yield "quality.b", ((cfg.n_classes,), 0.0)


def is_buffer(name: str) -> bool:
    return name.endswith((".run_mean", ".run_var"))


def init_params(cfg: ModelConfig, seed: int = 0) -> dict:
    """Create all trainable tensors plus the normalization running buffers.

    1x1 and depthwise kernels use fan-in-scaled uniform init. The quality
    head starts at zero so an untrained model emits the uniform
    distribution (decoded score 2.0), which keeps early distribution-loss
    gradients well behaved.
    """
    rng = np.random.default_rng(seed)
    dt = cfg.np_dtype
    params: dict[str, dc.Tensor] = {}
    for name, (shape, init) in param_layout(cfg):
        if isinstance(init, int):
            bound = 1.0 / np.sqrt(init)
            values = rng.uniform(-bound, bound, size=shape).astype(dt)
        else:
            values = np.full(shape, init, dtype=dt)
        params[name] = dc.Tensor(values, requires_grad=not is_buffer(name))
    return params


# batch_norm's per-channel tensors in its argument order.
_NORM_TENSORS = ("gamma", "beta", "run_mean", "run_var")


def _norm_affine(params: dict, prefix: str):
    """An eval-mode batch norm as its per-channel map ``x -> a * x + c``, in float64."""
    gamma, beta, mean, var = (params[prefix + k].values.astype(np.float64) for k in _NORM_TENSORS)
    a = gamma / np.sqrt(var + dc.NORM_EPS)
    return a, beta - a * mean


def freeze(cfg: ModelConfig, params: dict) -> dict:
    """The eval-mode map: a constant view of every tensor (no copy), and per
    block both batch norms folded into the convolutions next to them.

    With each norm's per-channel map ``a * x + c`` (see :func:`_norm_affine`),
    ``eval.dw.kernel`` is ``dw.kernel * a1`` and ``eval.dw.b`` is
    ``dw.b + c1 * sum(dw.kernel)``. The depthwise zero padding comes after
    norm1, so a frame whose tap reads padding gets that tap's ``c1 * k`` too
    much: ``eval.dw.edge_first`` for the first ``dilation`` frames and
    ``eval.dw.edge_last`` for the last, both subtracted by :func:`conv_block`.
    norm2 becomes ``eval.pw2.scale`` (``a2``, applied to pw2's input) and
    ``eval.pw2.b`` (``pw2.w @ c2 + pw2.b``), so ``pw2.w`` is not copied. The
    folding arithmetic runs in float64 and is cast to the model dtype; a
    non-finite result fails the finiteness check of the op that reads it.
    """
    frozen = {name: dc.constant(t.values) for name, t in params.items()}
    with np.errstate(all="ignore"):
        for r in range(cfg.repeats):
            for x in range(cfg.blocks_per_repeat):
                p = f"block{r}.{x}."
                a1, c1 = _norm_affine(params, p + "norm1.")
                a2, c2 = _norm_affine(params, p + "norm2.")
                kernel = params[p + "dw.kernel"].values.astype(np.float64)
                folded = {
                    "dw.kernel": kernel * a1[:, None],
                    "dw.b": params[p + "dw.b"].values + c1 * kernel.sum(axis=1),
                    "dw.edge_first": c1[:, None] * kernel[:, :1],
                    "dw.edge_last": c1[:, None] * kernel[:, -1:],
                    "pw2.scale": a2[:, None],
                    # einsum sums in float64 without a float64 copy of pw2.w.
                    "pw2.b": np.einsum("oc,c->o", params[p + "pw2.w"].values, c2) + params[p + "pw2.b"].values,
                }
                frozen.update({p + "eval." + k: dc.constant(v.astype(cfg.np_dtype)) for k, v in folded.items()})
    return frozen


def conv_block(x, cfg: ModelConfig, params: dict, repeat: int, block: int, training: bool) -> dc.Tensor:
    """One residual block: 1x1 expand, PReLU, batch norm, dilated depthwise, PReLU, batch norm, 1x1 project.

    In eval mode ``params`` is :func:`freeze`'s map and no norm runs: its
    folded depthwise kernel and bias, edge terms, scale and pw2 bias stand in
    for both. The edge terms and the scale change arrays in place, and the
    next op's finiteness check reads the result.
    """
    p = f"block{repeat}.{block}."
    fold = p if training else p + "eval."
    dilation = cfg.dilations[block]
    u = dc.conv1d_pointwise(x, params[p + "pw1.w"], params[p + "pw1.b"])
    u = dc.prelu(u, params[p + "act1.slope"])
    if training:
        u = dc.batch_norm(u, *[params[p + "norm1." + k] for k in _NORM_TENSORS], training=True)
    u = dc.conv1d_depthwise_dilated(u, params[fold + "dw.kernel"], params[fold + "dw.b"], dilation)
    if not training:
        u.values[:, :, :dilation] -= params[fold + "dw.edge_first"].values
        u.values[:, :, max(0, u.shape[2] - dilation) :] -= params[fold + "dw.edge_last"].values
    u = dc.prelu(u, params[p + "act2.slope"])
    if training:
        u = dc.batch_norm(u, *[params[p + "norm2." + k] for k in _NORM_TENSORS], training=True)
    else:
        u.values *= params[fold + "pw2.scale"].values
    u = dc.conv1d_pointwise(u, params[p + "pw2.w"], params[fold + "pw2.b"])
    return dc.add(x, u)


def forward_graph(
    batch_samples: np.ndarray,
    cfg: ModelConfig,
    params: dict,
    training: bool = False,
    compute_reconstruction: bool = True,
) -> GraphOutput:
    """Run the network over a (B, L) batch of equal-length waveforms.

    Returns graph tensors so losses composed on top backpropagate into
    the parameters. The STFT features and the input spectrogram enter the
    graph as constants. In training mode ``params`` is the parameter map;
    eval mode takes :func:`freeze`'s map instead, whose constants record no
    graph.
    """
    batch_samples = np.asarray(batch_samples, dtype=np.float64)
    if batch_samples.ndim != 2:
        raise ValueError(f"expected a (B, L) sample batch, got {batch_samples.shape}")
    dt = cfg.np_dtype
    specs = sig.stft(batch_samples, cfg.stft)  # (B, F, T) complex
    feats = dc.constant(sig.lps(specs).astype(dt))

    h = dc.conv1d_pointwise(feats, params["entry.w"], params["entry.b"])
    for r in range(cfg.repeats):
        for x in range(cfg.blocks_per_repeat):
            h = conv_block(h, cfg, params, r, x, training)

    recon = None
    if compute_reconstruction:
        mask_r, mask_i = (dc.conv1d_pointwise(h, params[f"{head}.w"], params[f"{head}.b"]) for head in MASK_HEADS)
        recon = dc.istft_synthesis(mask_r, mask_i, specs, cfg.stft)

    logits = dc.conv1d_pointwise(h, params["quality.w"], params["quality.b"])
    pooled = dc.mean(logits, axis=2)
    # The softmax runs in float64 regardless of the training precision so
    # the output is a valid distribution at tight tolerance.
    distribution = dc.softmax(dc.cast(pooled, np.float64), axis=1)
    return GraphOutput(recon, logits, distribution)


def forward(wave: sig.Waveform, cfg: ModelConfig, frozen: dict) -> np.ndarray:
    """Score one utterance: its (n_classes,) quality distribution.

    Runs eval mode on ``frozen``, :func:`freeze`'s map, which a command
    builds once for all the files it scores, so no graph is recorded; skips
    the reconstruction branch, which only training reads.
    """
    if wave.sample_rate != cfg.sample_rate:
        raise sig.WavFormatError(f"sample rate {wave.sample_rate} does not match model rate {cfg.sample_rate}")
    out = forward_graph(wave.samples[None, :], cfg, frozen, training=False, compute_reconstruction=False)
    return out.distribution.values[0]
