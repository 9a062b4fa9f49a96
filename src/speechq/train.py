"""Training loop, checkpointing and model evaluation.

Each step draws its batch and crop offsets from an RNG keyed on
(seed, step), so an interrupted run resumed from a checkpoint replays
the exact same batches and stays bit-identical to the uninterrupted run
on a single thread.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import labels as lb
from . import losses
from . import metrics
from . import model as mdl
from .config import RunConfig
from .data import DatasetEntry
from .labels import QuantizerConfig
from .model import ModelConfig
from .signal import WavFormatError

__all__ = [
    "NumericalDivergence",
    "TrainResult",
    "run_training",
    "evaluate_entries",
    "save_run_checkpoint",
    "load_run_checkpoint",
]


class NumericalDivergence(RuntimeError):
    """Raised when training produces a non-finite loss or gradient."""


@dataclass
class TrainResult:
    final_checkpoint: str
    best_checkpoint: str
    history: list  # (step, td_mse, emd2, total)
    final_total: float
    steps: int


def build_targets(entries: list[DatasetEntry], quant: QuantizerConfig, label_kind: str) -> np.ndarray:
    """Target label distributions, one row per entry."""
    rows = []
    for entry in entries:
        nu = lb.quantize(entry.label, quant)
        if label_kind == "soft":
            rows.append(lb.soft_label(nu, quant))
        else:
            rows.append(lb.one_hot(nu, quant))
    return np.stack(rows)


def _crop_length(entries: list[DatasetEntry], cfg: ModelConfig, crop_seconds: float) -> int:
    want = int(round(crop_seconds * cfg.sample_rate))
    shortest = min(len(e.degraded) for e in entries)
    crop = min(want, shortest)
    if crop < cfg.stft.window_len:
        raise WavFormatError(
            f"crop of {crop} samples is shorter than one analysis window ({cfg.stft.window_len})"
        )
    return crop


def save_run_checkpoint(
    path,
    cfg: ModelConfig,
    quant: QuantizerConfig,
    params: dict,
    optimizer: dc.Adam | None = None,
    step: int = 0,
) -> None:
    arrays = {name: t.values for name, t in params.items()}
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    header = {
        "model": cfg.to_dict(),
        "quantizer": {"n_classes": quant.n_classes, "pad": quant.pad},
        "step": int(step),
        "has_optimizer": optimizer is not None,
    }
    dc.save_checkpoint(path, arrays, header)


def load_run_checkpoint(path):
    """Returns (cfg, quant, params, optimizer_arrays, step)."""
    arrays, header = dc.load_checkpoint(path)
    cfg = ModelConfig.from_dict(header["model"])
    quant = QuantizerConfig(**header["quantizer"])
    params: dict[str, dc.Tensor] = {}
    opt_arrays: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        if name.startswith("opt."):
            opt_arrays[name] = arr
        else:
            trainable = not (".run_mean" in name or ".run_var" in name)
            params[name] = dc.Tensor(arr, requires_grad=trainable)
    return cfg, quant, params, opt_arrays, int(header["step"])


def _batch_crops(entries, crop, rng, batch_size):
    n = len(entries)
    if n >= batch_size:
        idx = rng.permutation(n)[:batch_size]
    else:
        idx = rng.integers(0, n, size=batch_size)
    degraded = np.empty((batch_size, crop))
    clean = np.zeros((batch_size, crop))
    has_clean = np.zeros(batch_size)
    for row, i in enumerate(idx):
        entry = entries[i]
        hi = len(entry.degraded) - crop
        off = int(rng.integers(0, hi + 1)) if hi > 0 else 0
        degraded[row] = entry.degraded.samples[off : off + crop]
        if entry.clean is not None:
            clean[row] = entry.clean.samples[off : off + crop]
            has_clean[row] = 1.0
    return idx, degraded, clean, has_clean


def _step_losses(run: RunConfig, params, degraded, clean, has_clean, target_rows, quant, want_recon):
    tcfg = run.training
    out = mdl.forward_graph(
        degraded, run.model, params, training=True, compute_reconstruction=want_recon
    )
    emd = losses.emd2(out.distribution, dc.constant(target_rows))
    if want_recon:
        n_out = out.reconstruction.values.shape[1]
        clean_t = dc.constant(clean[:, :n_out].astype(run.model.np_dtype))
        recon = losses.td_mse(
            out.reconstruction, clean_t, weights=has_clean, reduction=tcfg.td_mse_reduction
        )
        total = dc.add(dc.scale(recon, tcfg.recon_weight), emd)
    else:
        recon = None
        total = emd
    if tcfg.rank_loss:
        mids = dc.constant(quant.midpoints())
        pred_scores = dc.sum(dc.mul(out.distribution, mids), axis=-1)
        true_scores = np.array([lb.decode_expect(row, quant) for row in target_rows])
        total = dc.add(total, dc.scale(losses.rank_loss(pred_scores, true_scores), tcfg.rank_weight))
    return recon, emd, total


def run_training(
    run: RunConfig,
    entries: list[DatasetEntry],
    val_entries: list[DatasetEntry] | None = None,
    out_dir: str | None = None,
    resume_from: str | None = None,
    log_stream=None,
) -> TrainResult:
    """Optimize the joint objective with Adam over the given entries.

    Writes an append-only training log plus `final.ckpt` and `best.ckpt`
    under ``out_dir``. ``resume_from`` continues a checkpointed run; the
    configuration must match the one stored in the checkpoint.
    """
    if not entries:
        raise ValueError("no training entries")
    tcfg = run.training
    out_dir = out_dir or run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    quant = run.quantizer

    # With a quality-only objective the mask heads receive no gradients,
    # so they stay out of the optimizer entirely.
    use_recon = tcfg.recon_weight > 0 and any(e.clean is not None for e in entries)

    def optimizer_params(params):
        if use_recon:
            return params
        return {k: v for k, v in params.items() if not k.startswith(("mask_real.", "mask_imag."))}

    if resume_from is not None:
        cfg, ck_quant, params, opt_arrays, start_step = load_run_checkpoint(resume_from)
        if cfg.to_dict() != run.model.to_dict() or (ck_quant.n_classes, ck_quant.pad) != (
            quant.n_classes,
            quant.pad,
        ):
            raise ValueError("checkpoint configuration does not match the run configuration")
        optimizer = dc.Adam(optimizer_params(params), lr=tcfg.lr, beta1=tcfg.beta1, beta2=tcfg.beta2)
        if opt_arrays:
            optimizer.load_state(opt_arrays, start_step)
    else:
        params = mdl.init_params(run.model, seed=tcfg.seed)
        optimizer = dc.Adam(optimizer_params(params), lr=tcfg.lr, beta1=tcfg.beta1, beta2=tcfg.beta2)
        start_step = 0

    for entry in entries:
        if entry.degraded.sample_rate != run.model.sample_rate:
            raise ValueError(
                f"entry rate {entry.degraded.sample_rate} != model rate {run.model.sample_rate}"
            )
    targets = build_targets(entries, quant, tcfg.label_kind)
    crop = _crop_length(entries, run.model, tcfg.crop_seconds)

    log_path = os.path.join(out_dir, "train_log.txt")
    history = []
    best_total = np.inf
    best_path = os.path.join(out_dir, "best.ckpt")
    final_path = os.path.join(out_dir, "final.ckpt")
    val_every = tcfg.val_every if tcfg.val_every > 0 else max(1, tcfg.max_steps // 10)

    with open(log_path, "a", encoding="utf-8") as log:
        for step in range(start_step + 1, tcfg.max_steps + 1):
            rng = np.random.default_rng([tcfg.seed, step])
            _idx, degraded, clean, has_clean = _batch_crops(
                entries, crop, rng, tcfg.batch_size
            )
            target_rows = targets[_idx]
            try:
                recon, emd, total = _step_losses(
                    run, params, degraded, clean, has_clean, target_rows, quant, use_recon
                )
                dc.backward(total)
                optimizer.step()
            except FloatingPointError as exc:
                raise NumericalDivergence(
                    f"non-finite value at step {step}: {exc}"
                ) from exc
            td_value = float(recon.values) if recon is not None else 0.0
            total_value = float(total.values)
            history.append((step, td_value, float(emd.values), total_value))
            log.write(
                f"step={step} td_mse={td_value:.6f} emd2={float(emd.values):.6f} "
                f"total={total_value:.6f} time={time.strftime('%Y-%m-%dT%H:%M:%S')}\n"
            )
            if log_stream is not None and (step % val_every == 0 or step == tcfg.max_steps):
                log_stream(f"step {step}/{tcfg.max_steps} total={total_value:.4f}")
            if step % val_every == 0 or step == tcfg.max_steps:
                score = _validation_total(run, params, val_entries, quant) if val_entries else total_value
                if score <= best_total:
                    best_total = score
                    save_run_checkpoint(best_path, run.model, quant, params, optimizer, step)

    save_run_checkpoint(final_path, run.model, quant, params, optimizer, tcfg.max_steps)
    if not os.path.exists(best_path):
        save_run_checkpoint(best_path, run.model, quant, params, optimizer, tcfg.max_steps)
    return TrainResult(
        final_checkpoint=final_path,
        best_checkpoint=best_path,
        history=history,
        final_total=history[-1][3] if history else float("nan"),
        steps=tcfg.max_steps,
    )


def _validation_total(run: RunConfig, params, val_entries, quant) -> float:
    total = 0.0
    targets = build_targets(val_entries, quant, run.training.label_kind)
    for entry, row in zip(val_entries, targets):
        out = mdl.forward_graph(
            entry.degraded.samples[None, :], run.model, params, training=False,
            compute_reconstruction=run.training.recon_weight > 0 and entry.clean is not None,
        )
        loss = losses.emd2(out.distribution, dc.constant(row[None, :]))
        value = float(loss.values)
        if out.reconstruction is not None:
            n_out = out.reconstruction.values.shape[1]
            clean_t = dc.constant(entry.clean.samples[None, :n_out].astype(run.model.np_dtype))
            rec = losses.td_mse(out.reconstruction, clean_t, reduction=run.training.td_mse_reduction)
            value += run.training.recon_weight * float(rec.values)
        total += value
    return total / len(val_entries)


def predict_entries(cfg: ModelConfig, quant: QuantizerConfig, params: dict, entries) -> dict:
    """Scores for each entry under both decoders."""
    expect_scores, max_scores, truth = [], [], []
    for entry in entries:
        wave = entry.degraded if isinstance(entry, DatasetEntry) else entry
        dist = mdl.forward(wave, cfg, params, mode="eval").distribution
        expect_scores.append(lb.decode_expect(dist, quant))
        max_scores.append(lb.decode_max(dist, quant))
        if isinstance(entry, DatasetEntry):
            truth.append(entry.label)
    return {
        "expect": np.array(expect_scores),
        "max": np.array(max_scores),
        "truth": np.array(truth) if truth else None,
    }


def evaluate_entries(cfg: ModelConfig, quant: QuantizerConfig, params: dict, entries) -> dict:
    """EvalReports keyed by decoder, mirroring the two score readouts."""
    scores = predict_entries(cfg, quant, params, entries)
    if scores["truth"] is None:
        raise ValueError("entries carry no labels to evaluate against")
    return {
        "expect": metrics.evaluate_scores(scores["expect"], scores["truth"]),
        "max": metrics.evaluate_scores(scores["max"], scores["truth"]),
        "scores": scores,
    }
