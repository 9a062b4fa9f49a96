"""Evaluation statistics between predicted and ground-truth scores.

A correlation without a value, over fewer than two pairs or with a zero
denominator (a constant vector), is None, which a report prints as
``undefined``; it is never reported as zero. Score vectors that are
empty, of unequal length or not finite are a ValueError. Squares and
products are taken of vectors scaled by a power of two, which is exact,
so they overflow or underflow only where the statistic itself would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvalReport:
    """MSE plus linear and rank correlation over n score pairs; a correlation
    is None when undefined."""

    mse: float
    lcc: float | None
    srcc: float | None
    n: int

    def to_record(self, **extra) -> str:
        corr = {k: "undefined" if v is None else f"{v:.6f}" for k, v in (("lcc", self.lcc), ("srcc", self.srcc))}
        fields = {**extra, "mse": f"{self.mse:.6f}", **corr, "n": str(self.n)}
        return " ".join(f"{k}={v}" for k, v in fields.items())


def _check_pair(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 1 or truth.shape != pred.shape or pred.size == 0:
        raise ValueError(f"score vectors must be 1-D, non-empty and equal length, got {pred.shape} / {truth.shape}")
    if not (np.isfinite(pred).all() and np.isfinite(truth).all()):
        raise ValueError("score vectors must hold finite numbers")
    return pred, truth


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x / 2**e`` and ``e``, where 2**e brings the largest magnitude into [0.5, 1)."""
    e = int(np.frexp(np.max(np.abs(x)))[1])
    return np.ldexp(x, -e), e


def mse_metric(pred, truth) -> float:
    """Mean squared difference between predicted and true scores."""
    pred, truth = _check_pair(pred, truth)
    d, e = _unit_scaled(pred - truth)
    return float(np.ldexp(np.mean(d**2), 2 * e))


def lcc(pred, truth) -> float | None:
    """Pearson linear correlation coefficient; None for one pair or a constant vector."""
    pred, truth = _check_pair(pred, truth)
    # Scaled before centring too, so that a sum near the float range's end cannot overflow.
    a, b = (_unit_scaled(x - x.mean())[0] for x in (_unit_scaled(pred)[0], _unit_scaled(truth)[0]))
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    return None if denom == 0.0 else float(np.sum(a * b) / denom)


def rankdata(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span:
    a group of c ties ending at sorted position k ranks k - (c - 1) / 2."""
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def srcc(pred, truth) -> float | None:
    """Spearman rank correlation: Pearson correlation of average-tied ranks, or None."""
    pred, truth = _check_pair(pred, truth)
    return lcc(rankdata(pred), rankdata(truth))


def evaluate_scores(pred, truth) -> EvalReport:
    """MSE, LCC and SRCC of predicted against true scores."""
    pred, truth = _check_pair(pred, truth)
    return EvalReport(mse=mse_metric(pred, truth), lcc=lcc(pred, truth), srcc=srcc(pred, truth), n=pred.size)
