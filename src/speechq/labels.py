"""Quality-score quantization and label distributions.

Scores live in [-0.5, 4.5] and are split into N equal classes of width
5/N; class n covers the half-open interval (-0.5 + (n-1)*step,
-0.5 + n*step]. A label kind is a kernel of class masses centred on the
true class; each end of the range is padded with the kernel's half-width
in classes, so the kernel never runs off the vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCORE_LO = -0.5
SCORE_HI = 4.5

# Each label kind's class masses, centred on the true class.
LABEL_KERNELS = {"one-hot": (1.0,), "soft": (0.1, 0.2, 0.4, 0.2, 0.1)}
# [training] label_kind -> QuantizerConfig.pad: the kernel's half-width.
LABEL_KIND_PAD = {kind: len(kernel) // 2 for kind, kernel in LABEL_KERNELS.items()}


@dataclass(frozen=True)
class QuantizerConfig:
    """Number of score classes plus the boundary padding per side: a label kind's pad."""

    n_classes: int = 100
    pad: int = 0

    def __post_init__(self):
        """Raises one ValueError that names every invalid field, separated by `` | ``."""
        problems = []
        if isinstance(self.n_classes, bool) or not isinstance(self.n_classes, int) or self.n_classes < 1:
            problems.append(f"quantizer n_classes must be a positive integer, got {self.n_classes!r}")
        if isinstance(self.pad, bool) or not isinstance(self.pad, int) or self.pad not in LABEL_KIND_PAD.values():
            problems.append(f"quantizer pad must be {' or '.join(map(str, LABEL_KIND_PAD.values()))}, got {self.pad!r}")
        if problems:
            raise ValueError(" | ".join(problems))

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


def targets(scores, cfg: QuantizerConfig) -> np.ndarray:
    """Float64 target rows, one per score: the kernel of the label kind whose pad
    is ``cfg.pad``, centred on the score's class at padded index class - 1 + pad.
    Mass past the score range stays on the pad classes, which exist for it."""
    kernel = {len(k) // 2: k for k in LABEL_KERNELS.values()}[cfg.pad]
    rows = np.zeros((len(scores), cfg.n_total))
    for row, score in zip(rows, scores):
        start = quantize(score, cfg) - 1  # the kernel starts pad classes before its centre
        row[start : start + len(kernel)] = kernel
    return rows


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
