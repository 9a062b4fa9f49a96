"""Training loop, checkpointing and model evaluation.

Each step draws its batch and crop offsets from an RNG keyed on
(seed, step), so an interrupted run resumed from a checkpoint replays
the exact same batches and stays bit-identical to the uninterrupted run
on a single thread.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import diffcore as dc
from . import labels as lb
from . import losses
from . import metrics
from . import model as mdl
from .config import CLASS_COUNT_RULE, ConfigError, RunConfig
from .data import DatasetEntry
from .labels import LABEL_KIND_PAD, QuantizerConfig
from .model import ModelConfig

# Model keys that older checkpoint headers carry, each with its only legal value.
RETIRED_MODEL_KEYS = {"norm": "batch", "kernel_size": mdl.KERNEL_SIZE}


@dataclass
class TrainResult:
    final_checkpoint: str
    best_checkpoint: str
    history: list  # (step, td_mse, emd2, total)


def save_run_checkpoint(
    path,
    cfg: ModelConfig,
    quant: QuantizerConfig,
    params: dict,
    optimizer: dc.Adam | None = None,
    step: int = 0,
    best_total: float = np.inf,
) -> None:
    """``best_total`` is the run's best validation score so far; the header
    stores it only when finite, and a header without it reads as ``inf``."""
    arrays = _checkpoint_arrays(params, optimizer)
    header = {"model": cfg.to_dict(), "quantizer": asdict(quant), "step": int(step)}
    if np.isfinite(best_total):
        header["best_total"] = float(best_total)
    dc.save_checkpoint(path, arrays, header)


def _checkpoint_arrays(params: dict, optimizer: dc.Adam | None = None) -> dict:
    """The arrays a run checkpoint holds: the params, then the optimizer's state."""
    arrays = {name: t.values for name, t in params.items()}
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    return arrays


def _first_non_finite(arrays: dict) -> str | None:
    """The name of the first array that holds a NaN or an infinity, or None."""
    return next((name for name, arr in arrays.items() if not np.isfinite(arr).all()), None)


def load_run_checkpoint(path):
    """Returns (cfg, quant, params, optimizer_arrays, step).

    Raises:
        CheckpointError: the file is not a checkpoint, its header lacks
            valid model and quantizer entries and a non-negative integer
            step (a RETIRED_MODEL_KEYS key must hold its one legal value,
            and ``best_total``, when present, a finite number),
            the quantizer's class count differs from the model's, or its
            arrays do not match the model's parameter names, shapes and
            dtype. Optimizer state is optional, but each ``opt.m.<p>``
            needs its ``opt.v.<p>`` (and the reverse) for a trainable
            parameter ``p``, with ``p``'s shape and dtype. Every array
            must be finite.
    """
    return _read_run_checkpoint(path)[:5]


def _read_run_checkpoint(path):
    """load_run_checkpoint's tuple and the header's best validation score,
    ``inf`` when the header has none."""
    arrays, header = dc.load_checkpoint(path)
    missing = [key for key in ("model", "quantizer", "step") if key not in header]
    if missing:
        raise dc.CheckpointError(f"{path}: checkpoint header has no {', '.join(missing)}")
    try:
        model_fields = dict(header["model"])
        for key, legal in RETIRED_MODEL_KEYS.items():
            value = model_fields.pop(key, legal)
            if value != legal:
                raise ValueError(f"{key} {value!r} is not supported, only {legal!r}")
        cfg = ModelConfig(**model_fields)
        quant = QuantizerConfig(**header["quantizer"])
        step = header["step"]
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise ValueError(f"step must be a non-negative integer, got {step!r}")
        best_total = header.get("best_total", np.inf)
        if "best_total" in header and not (type(best_total) in (int, float) and -np.inf < best_total < np.inf):
            raise ValueError(f"best_total must be a finite number, got {best_total!r}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise dc.CheckpointError(f"{path}: invalid run settings in checkpoint header: {exc}") from exc
    if quant.n_total != cfg.n_classes:
        raise dc.CheckpointError(
            f"{path}: quantizer has {quant.n_total} classes but the model has {cfg.n_classes}"
        )
    # At most one tensor more than the file holds: a header whose model cannot
    # fit still names the first it lacks, without building the whole layout.
    layout = dict(itertools.islice(mdl.param_layout(cfg), len(arrays) + 1))
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
    bad = _first_non_finite(arrays)
    if bad is not None:
        raise dc.CheckpointError(f"{path}: {bad} holds a non-finite value")
    params = {
        name: dc.Tensor(arr, requires_grad=not mdl.is_buffer(name)) for name, arr in arrays.items() if name in layout
    }
    opt_arrays = {name: arr for name, arr in arrays.items() if name not in layout}
    return cfg, quant, params, opt_arrays, step, best_total


def _truncate_log(path, step: int) -> None:
    """Keep a training log's complete lines up to ``step`` and drop the rest,
    which a run resumed at ``step`` writes again."""
    try:
        with open(path, "rb+") as fh:
            end = 0
            for line in fh:
                head = line.partition(b" ")[0].removeprefix(b"step=")
                if not (line.endswith(b"\n") and head.isdigit() and int(head) <= step):
                    break
                end += len(line)
            fh.truncate(end)
    except FileNotFoundError:
        pass


def _config_mismatch(saved, wanted, section: str) -> str | None:
    """The first compared field where two config dataclasses differ, described by
    the key that sets it: the quantizer's padding by [training] label_kind."""
    kinds = {pad: kind for kind, pad in LABEL_KIND_PAD.items()}
    for f in fields(saved):
        ours, theirs = getattr(saved, f.name), getattr(wanted, f.name)
        if f.compare and ours != theirs:
            key = f"[{section}] {f.name}"
            if key == "[quantizer] pad":
                key, ours, theirs = "[training] label_kind", kinds[ours], kinds[theirs]
            return f"{key} is {ours!r} in the checkpoint but {theirs!r} in the configuration"
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
    resume_from: str | None = None,
    log_stream=None,
) -> TrainResult:
    """Optimize the joint objective with Adam over the given entries.

    Writes a training log plus `final.ckpt` and `best.ckpt` under
    ``run.out_dir``; every validation step flushes the log and then writes
    `best.ckpt` (when the score improves) and `final.ckpt`, so a killed run
    resumes from its last validation. ``resume_from`` continues a
    checkpointed run; the model and quantizer settings must match the ones
    stored in the checkpoint, or ``CheckpointError`` names the first that
    differs; a checkpoint at or past ``max_steps`` is a ``CheckpointError``
    too. The resumed run keeps the log's lines up to the checkpoint's step
    and, if ``run.out_dir`` holds a `best.ckpt`, the checkpoint's best
    validation score; a fresh run starts a new log. A ``run.out_dir`` that
    holds a checkpoint raises ``FileExistsError`` unless it is the directory
    of ``resume_from``. A model whose class count is not the quantizer's
    classes plus padding raises ``ConfigError``, a training or validation
    entry at another rate than the model's ``ValueError`` and a crop shorter
    than one analysis window ``WavFormatError``; these checks run before
    ``run.out_dir`` is created.
    A non-finite value raises ``FloatingPointError`` naming the step, also
    one in the params, running statistics or Adam moments a checkpoint would
    hold; that step writes no checkpoint.
    """
    quant = run.quantizer
    if run.model.n_classes != quant.n_total:
        raise ConfigError(CLASS_COUNT_RULE.format(run.model.n_classes, quant.n_total))
    if not entries:
        raise ValueError("no training entries")
    tcfg = run.training
    out_dir = run.out_dir

    # With a quality-only objective the mask heads receive no gradients,
    # so they stay out of the optimizer entirely.
    use_recon = tcfg.recon_weight > 0 and any(e.clean is not None for e in entries)

    if resume_from is not None:
        cfg, ck_quant, params, opt_arrays, start_step, best_total = _read_run_checkpoint(resume_from)
        # The quantizer first: its class count also sets the model's.
        mismatch = _config_mismatch(ck_quant, quant, "quantizer") or _config_mismatch(cfg, run.model, "model")
        if mismatch:
            raise dc.CheckpointError(
                f"{resume_from}: checkpoint does not match the run configuration: {mismatch}"
            )
        if start_step >= tcfg.max_steps:
            raise dc.CheckpointError(
                f"{resume_from}: checkpoint is at step {start_step}, not before [training] max_steps {tcfg.max_steps}"
            )
    else:
        params, opt_arrays, start_step, best_total = mdl.init_params(run.model, seed=tcfg.seed), {}, 0, np.inf
    trained = {k: v for k, v in params.items() if use_recon or k.partition(".")[0] not in mdl.MASK_HEADS}
    optimizer = dc.Adam(trained, lr=tcfg.lr)
    if opt_arrays:
        optimizer.load_state(opt_arrays, start_step)
    del opt_arrays  # the optimizer adopted its moments; the rest is unused

    for kind, group in (("training", entries), ("validation", val_entries or ())):
        for entry in group:
            if entry.degraded.sample_rate != run.model.sample_rate:
                raise ValueError(f"{kind} entry rate {entry.degraded.sample_rate} != model rate {run.model.sample_rate}")
    targets = lb.targets([e.label for e in entries], quant)
    crop = min(round(tcfg.crop_seconds * run.model.sample_rate), min(len(e.degraded) for e in entries))
    run.model.stft.num_frames(crop)  # a crop shorter than one window fails before any output

    best_path = os.path.join(out_dir, "best.ckpt")
    final_path = os.path.join(out_dir, "final.ckpt")
    # A run writes only into a directory without checkpoints or into the one it resumes.
    if (os.path.exists(final_path) or os.path.exists(best_path)) and not (
        resume_from is not None and os.path.samefile(os.path.dirname(os.path.abspath(resume_from)), out_dir)
    ):
        raise FileExistsError(f"{out_dir} holds a checkpoint; resume it with --checkpoint or train elsewhere")
    if not os.path.exists(best_path):
        best_total = np.inf  # no best.ckpt here to keep: select among the steps this run trains
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.txt")
    _truncate_log(log_path, start_step)  # a fresh run, at step 0, starts an empty log
    history = []
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
                bad = _first_non_finite(_checkpoint_arrays(params, optimizer))
                if bad is not None:
                    raise FloatingPointError(f"non-finite value at step {step}: {bad}; no checkpoint written")
                if log_stream is not None:
                    log_stream(f"step {step}/{tcfg.max_steps} total={total_value:.4f}")
                score = _validation_total(run, params, val_entries, quant, use_recon) if val_entries else total_value
                log.flush()
                if score <= best_total:
                    best_total = score
                    save_run_checkpoint(best_path, run.model, quant, params, optimizer, step, best_total)
                save_run_checkpoint(final_path, run.model, quant, params, optimizer, step, best_total)
    return TrainResult(final_checkpoint=final_path, best_checkpoint=best_path, history=history)


def _validation_total(run: RunConfig, params, val_entries, quant, use_recon: bool) -> float:
    """Mean joint objective over the validation entries, eval mode, no graph recorded.

    Runs the scoring path: one :func:`model.freeze` map, with the batch
    norms folded, for the whole validation. ``use_recon`` is the training
    run's choice of objective, so a run that trains quality only is scored
    without its untrained mask heads.
    """
    frozen = mdl.freeze(run.model, params)
    targets = lb.targets([e.label for e in val_entries], quant)
    total = 0.0
    for entry, row in zip(val_entries, targets):
        clean = entry.clean.samples[None, :] if use_recon and entry.clean is not None else None
        loss, _recon, _emd = _objective(
            run, frozen, entry.degraded.samples[None, :], clean, row[None, :], training=False
        )
        total += float(loss.values)
    return total / len(val_entries)


def evaluate_entries(cfg: ModelConfig, quant: QuantizerConfig, params: dict, entries) -> dict:
    """EvalReports keyed by decoder, mirroring the two score readouts."""
    frozen = mdl.freeze(cfg, params)
    dists = [mdl.forward(entry.degraded, cfg, frozen) for entry in entries]
    scores = {
        "expect": np.array([lb.decode_expect(d, quant) for d in dists]),
        "max": np.array([lb.decode_max(d, quant) for d in dists]),
        "truth": np.array([entry.label for entry in entries]),
    }
    reports = {name: metrics.evaluate_scores(scores[name], scores["truth"]) for name in ("expect", "max")}
    return {**reports, "scores": scores}
