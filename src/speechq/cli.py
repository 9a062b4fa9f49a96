"""Command-line entry point: simulate, train, predict, eval.

Exit codes: 0 success, 1 usage/configuration error, 2 data error (also
any other file a command cannot read or write), 3 numerical failure. A Python
warning raised while a command runs is printed as one
``warning: <message>`` line on stderr.

``main`` owns the process, so it also tunes the C allocator through
glibc's ``mallopt``: blocks up to 32 MiB come from the heap instead of
fresh mmaps, and the heap top is never trimmed. Backward frees each
training step's graph, and without this glibc returns those pages to the
kernel only for the next forward to fault them back in. Where the C
library has no ``mallopt`` (macOS, Windows), nothing changes.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import warnings

import numpy as np

from . import data as dt
from . import labels as lb
from . import model as mdl
from .config import ConfigError, RunConfig
from .data import ManifestError
from .diffcore import CheckpointError
from .signal import WavFormatError, Waveform, load_wav, save_wav
from .train import evaluate_entries, load_run_checkpoint, run_training

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# (parameter, value) pairs for glibc's mallopt: M_MMAP_THRESHOLD (-3) at its
# 64-bit maximum of 32 MiB, and M_TRIM_THRESHOLD (-1) at -1, which turns
# heap trimming off.
_MALLOPT_SETTINGS = ((-3, 32 * 1024 * 1024), (-1, -1))


def _keep_freed_pages() -> None:
    """Keep freed heap pages resident for reuse; a no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT_SETTINGS:
        mallopt(param, value)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors raise instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="speechq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)

    p_train = sub.add_parser("train", help="train a model on a manifest")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--checkpoint", default=None, help="resume from this checkpoint")

    p_pred = sub.add_parser("predict", help="score WAV files with a trained model")
    p_pred.add_argument("wavs", nargs="+")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--decoder", choices=("expect", "max"), default="expect")
    p_pred.add_argument("--dist", action="store_true", help="also print the class distribution")

    p_eval = sub.add_parser("eval", help="evaluate a trained model against manifest labels")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--decoder", choices=("expect", "max"), default="expect")
    p_eval.add_argument("--out", default=None, help="also write the reports to this file")
    return parser


def _load_run(args) -> RunConfig:
    """The run configuration of ``--config`` with the ``--seed`` and ``--out`` flags applied."""
    run = RunConfig.from_file(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        run.training.seed = run.simulate.seed = args.seed
    if args.out is not None:
        run.out_dir = args.out
    return run


def cmd_simulate(args) -> int:
    run = _load_run(args)
    sim = run.simulate
    # Loaded before anything is written, so a bad impulse response leaves no output.
    rirs = [load_wav(p) for p in sim.rir_paths]
    out_dir = run.out_dir
    wav_dir = os.path.join(out_dir, "wavs")
    os.makedirs(wav_dir, exist_ok=True)
    rate = run.model.sample_rate

    def make_entry(index: int):
        rng = np.random.default_rng([sim.seed, index])
        kind = dt.SYNTH_KINDS[int(rng.integers(0, len(dt.SYNTH_KINDS)))]
        clean = dt.synth_clean(kind, sim.duration_seconds, seed=int(rng.integers(1 << 31)), sample_rate=rate)
        if rirs:
            clean = dt.convolve_rir(clean, rirs[int(rng.integers(0, len(rirs)))])
        noise = dt.synth_noise(sim.duration_seconds, seed=int(rng.integers(1 << 31)), sample_rate=rate)
        snr = float(rng.uniform(sim.snr_lo, sim.snr_hi))
        degraded, clean_ref = dt.mix_at_snr(clean, noise, snr)
        perturbed = bool(rng.uniform() < sim.perturb_prob)
        if perturbed:
            degraded = dt.perturb_spectrogram(degraded, seed=int(rng.integers(1 << 31)))
            n = min(len(degraded), len(clean_ref))
            degraded = Waveform(degraded.samples[:n], rate)
            clean_ref = Waveform(clean_ref.samples[:n], rate)
        label = dt.proxy_label(clean_ref, degraded)
        deg_name = f"entry_{index:05d}_degraded.wav"
        cln_name = f"entry_{index:05d}_clean.wav"
        save_wav(os.path.join(wav_dir, deg_name), degraded)
        save_wav(os.path.join(wav_dir, cln_name), clean_ref)
        return (os.path.join("wavs", deg_name), os.path.join("wavs", cln_name), label)

    # Splits are disjoint by construction: the holdout continues the index
    # range, so entry randomness never overlaps the training split.
    train_records = [make_entry(i) for i in range(sim.count)]
    dt.save_manifest(os.path.join(out_dir, "manifest.tsv"), train_records)
    print(f"wrote {len(train_records)} entries to {os.path.join(out_dir, 'manifest.tsv')}")
    if sim.holdout_count > 0:
        holdout = [make_entry(sim.count + i) for i in range(sim.holdout_count)]
        dt.save_manifest(os.path.join(out_dir, "manifest_holdout.tsv"), holdout)
        print(
            f"wrote {len(holdout)} entries to {os.path.join(out_dir, 'manifest_holdout.tsv')}"
        )
    return EXIT_OK


def cmd_train(args) -> int:
    run = _load_run(args)
    if run.manifest is None:
        raise ConfigError("training requires [data] manifest")
    entries = dt.load_manifest(run.manifest, sample_rate=run.model.sample_rate)
    val_entries = None
    if run.val_manifest:
        val_entries = dt.load_manifest(run.val_manifest, sample_rate=run.model.sample_rate)
    result = run_training(
        run,
        entries,
        val_entries=val_entries,
        resume_from=args.checkpoint,
        log_stream=print,
    )
    print(f"final total loss {result.final_total:.6f} after {result.steps} steps")
    print(f"checkpoints: {result.final_checkpoint} (final), {result.best_checkpoint} (best)")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg, quant, params, _opt, _step = load_run_checkpoint(args.checkpoint)
    for path in args.wavs:
        wave = load_wav(path)
        try:
            dist = mdl.forward(wave, cfg, params)
        except WavFormatError as exc:
            raise WavFormatError(f"{path}: {exc}") from exc
        s_e = lb.decode_expect(dist, quant)
        s_m = lb.decode_max(dist, quant)
        # Both scores always appear; the selected decoder's comes first.
        first, second = (s_e, s_m) if args.decoder == "expect" else (s_m, s_e)
        line = f"{path}\t{first:.6f}\t{second:.6f}"
        if args.dist:
            line += "\t" + ",".join(f"{p:.6g}" for p in dist)
        print(line)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, quant, params, _opt, _step = load_run_checkpoint(args.checkpoint)
    entries = dt.load_manifest(args.manifest, sample_rate=cfg.sample_rate)
    reports = evaluate_entries(cfg, quant, params, entries)
    order = ("expect", "max") if args.decoder == "expect" else ("max", "expect")
    lines = [reports[name].to_record(decoder=name) for name in order]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = _build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            handler = {
                "simulate": cmd_simulate,
                "train": cmd_train,
                "predict": cmd_predict,
                "eval": cmd_eval,
            }[args.command]
            return handler(args)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (ManifestError, WavFormatError, CheckpointError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except FloatingPointError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
