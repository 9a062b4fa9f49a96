"""Evaluation statistics between predicted and ground-truth scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvalReport:
    """MSE plus linear and rank correlation over n score pairs.

    Correlations are None when undefined (fewer than two samples or a
    constant vector); they are never silently reported as zero.
    """

    mse: float
    lcc: float | None
    srcc: float | None
    n: int

    def to_record(self, **extra) -> str:
        fields = dict(extra)
        fields["mse"] = f"{self.mse:.6f}"
        fields["lcc"] = "undefined" if self.lcc is None else f"{self.lcc:.6f}"
        fields["srcc"] = "undefined" if self.srcc is None else f"{self.srcc:.6f}"
        fields["n"] = str(self.n)
        return " ".join(f"{k}={v}" for k, v in fields.items())


def _check_pair(pred, truth, min_len: int = 1):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 1 or truth.shape != pred.shape:
        raise ValueError(f"score vectors must be 1-D and equal length, got {pred.shape} / {truth.shape}")
    if pred.size < min_len:
        raise ValueError(f"need at least {min_len} samples, got {pred.size}")
    return pred, truth


def mse_metric(pred, truth) -> float:
    """Mean squared difference between predicted and true scores."""
    pred, truth = _check_pair(pred, truth, min_len=1)
    return float(np.mean((pred - truth) ** 2))


def lcc(pred, truth) -> float:
    """Pearson linear correlation coefficient.

    Raises ValueError for constant inputs, where the statistic is undefined.
    """
    pred, truth = _check_pair(pred, truth, min_len=2)
    a = pred - pred.mean()
    b = truth - truth.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0.0:
        raise ValueError("correlation undefined for a constant score vector")
    return float(np.sum(a * b) / denom)


def rankdata(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i + 1
        while j < values.size and values[order[j]] == values[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return ranks


def srcc(pred, truth) -> float:
    """Spearman rank correlation: Pearson correlation of average-tied ranks."""
    pred, truth = _check_pair(pred, truth, min_len=2)
    return lcc(rankdata(pred), rankdata(truth))


def evaluate_scores(pred, truth) -> EvalReport:
    """Full report; correlations degrade to None instead of raising."""
    pred, truth = _check_pair(pred, truth, min_len=1)
    report = EvalReport(mse=mse_metric(pred, truth), lcc=None, srcc=None, n=pred.size)
    if pred.size >= 2:
        try:
            report.lcc = lcc(pred, truth)
        except ValueError:
            pass
        try:
            report.srcc = srcc(pred, truth)
        except ValueError:
            pass
    return report
