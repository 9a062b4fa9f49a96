"""Training criteria.

All losses are composed from diffcore primitives, so they return graph
tensors and gradients flow to any differentiable input. Plain numpy
arrays are accepted and treated as constants. Batched inputs (leading
batch axis) are reduced by averaging the per-item loss.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc

__all__ = ["emd2", "td_mse", "joint_loss"]


def emd2(p_hat, p) -> dc.Tensor:
    """Squared earth mover's distance between distributions over ordered classes.

    Computed in closed form as the summed squared difference of the two
    cumulative distribution functions. For a batch, returns the mean over
    items.
    """
    p_hat, p = dc.as_tensor(p_hat), dc.as_tensor(p)
    if p_hat.values.shape != p.values.shape:
        raise ValueError(
            f"distribution shapes differ: {p_hat.values.shape} vs {p.values.shape}"
        )
    d = dc.sub(dc.cumsum(p_hat), dc.cumsum(p))
    per_item = dc.sum(dc.mul(d, d), axis=-1)
    return per_item if per_item.values.shape == () else dc.mean(per_item)


def td_mse(x_hat, x, weights=None, reduction: str = "sum") -> dc.Tensor:
    """Time-domain squared reconstruction error after zero-mean normalization.

    The per-item value is the squared l2 norm of the mean-removed
    difference. ``reduction="mean"`` divides each item by its length,
    which makes the term comparable across utterance durations when
    balancing against the distribution loss. ``weights`` (0/1 per batch
    item, all ones when omitted) masks items without a clean reference out
    of the average; with every weight zero the value is an exact zero.
    """
    x_hat, x = dc.as_tensor(x_hat), dc.as_tensor(x)
    if x_hat.values.shape != x.values.shape:
        raise ValueError(f"waveform shapes differ: {x_hat.values.shape} vs {x.values.shape}")
    a = dc.sub(x_hat, dc.mean(x_hat, axis=-1, keepdims=True))
    b = dc.sub(x, dc.mean(x, axis=-1, keepdims=True))
    d = dc.sub(a, b)
    per_item = dc.sum(dc.mul(d, d), axis=-1)
    if reduction == "mean":
        per_item = dc.scale(per_item, 1.0 / x.values.shape[-1])
    elif reduction != "sum":
        raise ValueError(f"unknown reduction {reduction!r}")
    shape, dtype = per_item.values.shape, x_hat.values.dtype
    w = np.ones(shape, dtype) if weights is None else np.asarray(weights, dtype=dtype)
    if w.shape != shape:
        raise ValueError("weights must have one entry per batch item")
    total = float(w.sum())
    return dc.scale(dc.sum(dc.mul(per_item, dc.constant(w))), 1.0 / total if total else 0.0)


def joint_loss(x_hat, x, p_hat, p, recon_weight: float = 1.0, weights=None, reduction: str = "sum"):
    """The joint objective recon_weight * td_mse + emd2, with its terms.

    Returns (total, td_mse term, emd2 term). ``weights`` and ``reduction``
    pass through to :func:`td_mse`. Without a reconstruction (``x_hat`` is
    None) the total is the emd2 term alone and the td_mse term is None.
    """
    emd = emd2(p_hat, p)
    if x_hat is None:
        return emd, None, emd
    recon = td_mse(x_hat, x, weights=weights, reduction=reduction)
    return dc.add(dc.scale(recon, recon_weight), emd), recon, emd
