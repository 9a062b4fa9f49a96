"""Training loop, checkpointing and model evaluation.

Each step draws its batch and crop offsets from an RNG keyed on
(seed, step), so an interrupted run resumed from a checkpoint replays
the exact same batches and stays bit-identical to the uninterrupted run
on a single thread.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, fields

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

__all__ = [
    "TrainResult",
    "run_training",
    "evaluate_entries",
    "save_run_checkpoint",
    "load_run_checkpoint",
]


@dataclass
class TrainResult:
    final_checkpoint: str
    best_checkpoint: str
    history: list  # (step, td_mse, emd2, total)
    final_total: float
    steps: int


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
        "quantizer": asdict(quant),
        "step": int(step),
        "has_optimizer": optimizer is not None,
    }
    dc.save_checkpoint(path, arrays, header)


def load_run_checkpoint(path):
    """Returns (cfg, quant, params, optimizer_arrays, step).

    Raises:
        CheckpointError: the file is not a checkpoint, its header lacks
            valid model, quantizer and step entries (a model ``norm`` entry,
            which older headers carry, must be ``"batch"``), the quantizer's class
            count differs from the model's, or its arrays do not match the
            model's parameter names, shapes and dtype. Optimizer state is
            optional, but each ``opt.m.<p>`` needs its ``opt.v.<p>`` (and the
            reverse) for a trainable parameter ``p``, with ``p``'s shape
            and dtype.
    """
    arrays, header = dc.load_checkpoint(path)
    missing = [key for key in ("model", "quantizer", "step") if key not in header]
    if missing:
        raise dc.CheckpointError(f"{path}: checkpoint header has no {', '.join(missing)}")
    try:
        model_fields = dict(header["model"])
        # Older headers name the normalization; batch norm is the only one left.
        norm = model_fields.pop("norm", "batch")
        if norm != "batch":
            raise ValueError(f"norm {norm!r} is not supported, only batch norm")
        cfg = ModelConfig(**model_fields)
        quant = QuantizerConfig(**header["quantizer"])
        step = int(header["step"])
    except (TypeError, ValueError, AttributeError) as exc:
        raise dc.CheckpointError(f"{path}: invalid run settings in checkpoint header: {exc}") from exc
    if quant.n_total != cfg.n_classes:
        raise dc.CheckpointError(
            f"{path}: quantizer has {quant.n_total} classes but the model has {cfg.n_classes}"
        )
    layout = mdl.param_layout(cfg)
    shapes = {name: shape for name, (shape, _init) in layout.items()}
    moments = {f"opt.{k}.{name}": shape for name, shape in shapes.items() if not mdl.is_buffer(name) for k in "mv"}
    # Adam's moments are optional, but a parameter has both or neither.
    paired = [f"opt.{k}.{name[len('opt.m.'):]}" for name in arrays if name in moments for k in "mv"]
    shapes.update(moments)
    required = dict.fromkeys([*layout, *paired])
    problems = [f"missing {name}" for name in required if name not in arrays]
    problems += [f"unexpected {name}" for name in arrays if name not in shapes]
    problems += [
        f"{name} has shape {arr.shape}, expected {shapes[name]}"
        for name, arr in arrays.items()
        if name in shapes and arr.shape != shapes[name]
    ]
    problems += [
        f"{name} has dtype {arr.dtype}, expected {cfg.dtype}"
        for name, arr in arrays.items()
        if arr.dtype != cfg.np_dtype
    ]
    if problems:
        shown = "; ".join(problems[:3]) + ("; ..." if len(problems) > 3 else "")
        raise dc.CheckpointError(f"{path}: arrays do not match the model: {shown}")
    params = {
        name: dc.Tensor(arr, requires_grad=not mdl.is_buffer(name)) for name, arr in arrays.items() if name in layout
    }
    opt_arrays = {name: arr for name, arr in arrays.items() if name not in layout}
    return cfg, quant, params, opt_arrays, step


def _config_mismatch(saved, wanted, section: str) -> str | None:
    """The first compared field where two config dataclasses differ, described."""
    for f in fields(saved):
        ours, theirs = getattr(saved, f.name), getattr(wanted, f.name)
        if f.compare and ours != theirs:
            return f"[{section}] {f.name} is {ours!r} in the checkpoint but {theirs!r} in the configuration"
    return None


def _batch_crops(entries, crop, rng, batch_size):
    """Draw a batch of entries and one offset each; read their (B, crop) degraded
    and clean rows. Rows without a clean reference stay zero, flagged by has_clean."""
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
        degraded[row] = entry.degraded.read(off, crop)
        if entry.clean is not None:
            clean[row] = entry.clean.read(off, crop)
            has_clean[row] = 1.0
    return idx, degraded, clean, has_clean


def _objective(run: RunConfig, params, samples, clean, target_rows, training, weights=None):
    """Forward a (B, L) batch and return its losses.joint_loss terms.

    A ``clean`` (B, L) reference turns on the reconstruction branch and its
    td_mse term; without one the objective is emd2 alone.
    """
    out = mdl.forward_graph(
        samples, run.model, params, training=training, compute_reconstruction=clean is not None
    )
    clean_t = None
    if clean is not None:
        n_out = out.reconstruction.values.shape[1]
        clean_t = dc.constant(clean[:, :n_out].astype(run.model.np_dtype))
    return losses.joint_loss(
        out.reconstruction,
        clean_t,
        out.distribution,
        dc.constant(target_rows),
        run.training.recon_weight,
        weights=weights,
        reduction=run.training.td_mse_reduction,
    )


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
    model and quantizer settings must match the ones stored in the
    checkpoint, or ``CheckpointError`` names the first that differs. A
    non-finite value raises ``FloatingPointError`` naming the step.
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

    if resume_from is not None:
        cfg, ck_quant, params, opt_arrays, start_step = load_run_checkpoint(resume_from)
        mismatch = _config_mismatch(cfg, run.model, "model") or _config_mismatch(ck_quant, quant, "quantizer")
        if mismatch:
            raise dc.CheckpointError(
                f"{resume_from}: checkpoint does not match the run configuration: {mismatch}"
            )
    else:
        params, opt_arrays, start_step = mdl.init_params(run.model, seed=tcfg.seed), {}, 0
    trained = {k: v for k, v in params.items() if use_recon or k.partition(".")[0] not in mdl.MASK_HEADS}
    optimizer = dc.Adam(trained, lr=tcfg.lr, beta1=tcfg.beta1, beta2=tcfg.beta2)
    if opt_arrays:
        optimizer.load_state(opt_arrays, start_step)
    del opt_arrays  # the optimizer adopted its moments; the rest is unused

    for entry in entries:
        if entry.degraded.sample_rate != run.model.sample_rate:
            raise ValueError(
                f"entry rate {entry.degraded.sample_rate} != model rate {run.model.sample_rate}"
            )
    targets = lb.targets([e.label for e in entries], quant)
    crop = min(round(tcfg.crop_seconds * run.model.sample_rate), min(len(e.degraded) for e in entries))

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
                # With use_recon, a batch without clean rows still runs the mask
                # heads: its all-zero weights give them exact zero gradients for Adam.
                total, recon, emd = _objective(
                    run, params, degraded, clean if use_recon else None, target_rows,
                    training=True, weights=has_clean,
                )
                dc.backward(total)
                optimizer.step()
            except FloatingPointError as exc:
                raise FloatingPointError(f"non-finite value at step {step}: {exc}") from exc
            td_value = float(recon.values) if recon is not None else 0.0
            total_value = float(total.values)
            history.append((step, td_value, float(emd.values), total_value))
            log.write(
                f"step={step} td_mse={td_value:.6f} emd2={float(emd.values):.6f} "
                f"total={total_value:.6f} time={time.strftime('%Y-%m-%dT%H:%M:%S')}\n"
            )
            if step % val_every == 0 or step == tcfg.max_steps:
                if log_stream is not None:
                    log_stream(f"step {step}/{tcfg.max_steps} total={total_value:.4f}")
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
    """Mean joint objective over the validation entries, eval mode, no graph recorded."""
    frozen = {name: dc.constant(t.values) for name, t in params.items()}
    targets = lb.targets([e.label for e in val_entries], quant)
    total = 0.0
    for entry, row in zip(val_entries, targets):
        use_clean = run.training.recon_weight > 0 and entry.clean is not None
        clean = entry.clean.samples[None, :] if use_clean else None
        loss, _recon, _emd = _objective(
            run, frozen, entry.degraded.samples[None, :], clean, row[None, :], training=False
        )
        total += float(loss.values)
    return total / len(val_entries)


def evaluate_entries(cfg: ModelConfig, quant: QuantizerConfig, params: dict, entries) -> dict:
    """EvalReports keyed by decoder, mirroring the two score readouts."""
    scores = {"expect": [], "max": []}
    for entry in entries:
        dist = mdl.forward(entry.degraded, cfg, params)
        scores["expect"].append(lb.decode_expect(dist, quant))
        scores["max"].append(lb.decode_max(dist, quant))
    scores = {name: np.array(values) for name, values in scores.items()}
    scores["truth"] = np.array([entry.label for entry in entries])
    return {
        "expect": metrics.evaluate_scores(scores["expect"], scores["truth"]),
        "max": metrics.evaluate_scores(scores["max"], scores["truth"]),
        "scores": scores,
    }
