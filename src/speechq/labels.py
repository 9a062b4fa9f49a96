"""Quality-score quantization and label distributions.

Scores live in [-0.5, 4.5] and are split into N equal classes of width
5/N; class n covers the half-open interval (-0.5 + (n-1)*step,
-0.5 + n*step]. Soft labels need two extra classes padded onto each end
of the range so the fixed smoothing kernel never runs off the vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerConfig",
    "quantize",
    "one_hot",
    "soft_label",
    "targets",
    "decode_max",
    "decode_expect",
    "validate_distribution",
]

SCORE_LO = -0.5
SCORE_HI = 4.5

# Smoothing kernel for soft labels: mass at the true class and +-1, +-2.
SOFT_KERNEL = (0.1, 0.2, 0.4, 0.2, 0.1)


@dataclass(frozen=True)
class QuantizerConfig:
    """Number of score classes plus the boundary padding per side.

    pad = 0 for one-hot targets, pad = 2 for soft labels.
    """

    n_classes: int
    pad: int = 0

    def __post_init__(self):
        for name in ("n_classes", "pad"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_classes < 1:
            raise ValueError("need at least one class")
        if self.pad < 0:
            raise ValueError("pad must be non-negative")

    @property
    def step(self) -> float:
        return (SCORE_HI - SCORE_LO) / self.n_classes

    @property
    def n_total(self) -> int:
        return self.n_classes + 2 * self.pad

    def midpoints(self) -> np.ndarray:
        """Interval midpoints for every class, padded classes extrapolated linearly."""
        j = np.arange(self.n_total, dtype=np.float64)
        return SCORE_LO + (j - self.pad) * self.step + self.step / 2.0


def quantize(score: float, cfg: QuantizerConfig) -> int:
    """Map a score to its 1-based class index within the unpadded classes.

    A score exactly at the open lower boundary (-0.5) clamps into class 1.
    Boundary values sitting within ~1e-9 * step of an interval edge are
    snapped to that edge so float noise cannot shift the class.
    """
    score = float(score)
    if not (SCORE_LO <= score <= SCORE_HI):
        raise ValueError(f"score {score} outside [{SCORE_LO}, {SCORE_HI}]")
    r = (score - SCORE_LO) / cfg.step
    nu = int(np.ceil(r - 1e-9))
    return min(max(nu, 1), cfg.n_classes)


def one_hot(nu: int, cfg: QuantizerConfig) -> np.ndarray:
    """One-hot target distribution; requires an unpadded config."""
    if cfg.pad != 0:
        raise ValueError("one-hot labels use pad = 0")
    if not (1 <= nu <= cfg.n_classes):
        raise ValueError(f"class index {nu} outside 1..{cfg.n_classes}")
    p = np.zeros(cfg.n_total)
    p[nu - 1] = 1.0
    return p


def soft_label(nu: int, cfg: QuantizerConfig) -> np.ndarray:
    """Fixed-kernel soft target centered on the true class.

    Kernel mass that falls past the score range lands on the boundary pad
    classes and is kept there (no renormalization), which is what the pad
    classes exist for.
    """
    if cfg.pad < 2:
        raise ValueError("soft labels need pad >= 2")
    if not (1 <= nu <= cfg.n_classes):
        raise ValueError(f"class index {nu} outside 1..{cfg.n_classes}")
    p = np.zeros(cfg.n_total)
    center = (nu - 1) + cfg.pad
    for offset, mass in zip((-2, -1, 0, 1, 2), SOFT_KERNEL):
        p[center + offset] = mass
    return p


def targets(scores, cfg: QuantizerConfig) -> np.ndarray:
    """Target distributions, one row per score: one-hot for an unpadded
    quantizer, soft labels for a padded one."""
    label = one_hot if cfg.pad == 0 else soft_label
    return np.stack([label(quantize(score, cfg), cfg) for score in scores])


def validate_distribution(p, cfg: QuantizerConfig) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (cfg.n_total,):
        raise ValueError(f"distribution length {p.shape} does not match {cfg.n_total} classes")
    if np.min(p) < -1e-12:
        raise ValueError("distribution has negative entries")
    if abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {float(np.sum(p))}, not 1")
    return p


def decode_max(p, cfg: QuantizerConfig) -> float:
    """Midpoint of the most probable class, ties broken to the lower index."""
    p = validate_distribution(p, cfg)
    j = int(np.argmax(p))
    return float(np.clip(cfg.midpoints()[j], SCORE_LO, SCORE_HI))


def decode_expect(p, cfg: QuantizerConfig) -> float:
    """Expected score under the distribution, clamped to the valid range."""
    p = validate_distribution(p, cfg)
    return float(np.clip(p @ cfg.midpoints(), SCORE_LO, SCORE_HI))
