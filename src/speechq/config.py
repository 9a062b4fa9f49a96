"""Declarative run configuration.

A run is described by an INI-style text file with [model], [quantizer],
[training], [data], [simulate] and [output] sections of key = value
pairs. The keys of [model], [quantizer], [training] and [simulate] are
the init field names of ModelConfig, QuantizerConfig, TrainingConfig and
SimulateConfig. Each value parses to its field's annotated type (float
only when finite) and defaults to the field's default. The exceptions:

- [quantizer] n_classes defaults to 100;
- [quantizer] pad is not a key: it follows [training] label_kind (0 for
  one-hot, 2 for soft);
- [model] n_classes defaults to, and must equal, the quantizer's classes
  plus padding;
- [simulate] rir_paths is a comma-separated list;
- [simulate] rir_paths, [data] manifest and val_manifest and [output] dir
  are paths, resolved against the config file's directory;
- [training] crop_seconds and [simulate] duration_seconds are at most
  MAX_SECONDS (one hour, ample for utterances of a few seconds), so their
  sample counts stay representable;
- a [training] crop_seconds crop holds at least one analysis window at
  [model] sample_rate;
- [simulate] snr_lo and snr_hi lie in [-MAX_SNR_DB, MAX_SNR_DB] (300 dB,
  far past any audible difference), so the noise gain stays finite and
  nonzero;
- the seeds and [training] val_every are non-negative.

Values are literal: ``%`` is not an interpolation character. Validation
is exhaustive and happens before any work starts; an invalid
configuration never produces partial output. Its message lists every
problem on one line, separated by `` | ``.
"""

from __future__ import annotations

import configparser
import math
import os
import typing
from dataclasses import dataclass, field, fields

from .labels import QuantizerConfig
from .model import ModelConfig

__all__ = ["ConfigError", "TrainingConfig", "SimulateConfig", "RunConfig"]

# Upper bound on the seconds-valued keys crop_seconds and duration_seconds.
MAX_SECONDS = 3600.0
# Bound on the magnitude of the SNR keys snr_lo and snr_hi.
MAX_SNR_DB = 300.0


class ConfigError(ValueError):
    """Raised for unusable run configurations."""


@dataclass
class TrainingConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 4
    crop_seconds: float = 1.0
    max_steps: int = 1000
    seed: int = 0
    recon_weight: float = 1.0  # weight on the reconstruction term; 0 trains quality only
    label_kind: str = "one-hot"  # "one-hot" | "soft"
    td_mse_reduction: str = "sum"  # "sum" (plain squared norm) | "mean" (length-normalized)
    val_every: int = 0  # 0: every max(1, max_steps // 10) steps; the last step always validates


@dataclass
class SimulateConfig:
    count: int = 20
    holdout_count: int = 0
    duration_seconds: float = 1.0
    seed: int = 0
    snr_lo: float = -12.0
    snr_hi: float = 30.0
    perturb_prob: float = 0.0
    rir_paths: list = field(default_factory=list)


def _field_types(cls) -> dict:
    # Annotations are strings under `from __future__ import annotations`.
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


# Section -> key -> parse type. [data] and [output] hold the RunConfig paths.
_SECTIONS = {
    "model": _field_types(ModelConfig),
    "quantizer": {"n_classes": int},  # pad follows [training] label_kind
    "training": _field_types(TrainingConfig),
    "simulate": _field_types(SimulateConfig),
    "data": {"manifest": str, "val_manifest": str},
    "output": {"dir": str},
}


def _parse(parser, section: str, key: str, kind):
    raw = parser.get(section, key)
    if kind is list:
        return [p.strip() for p in raw.split(",") if p.strip()]
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _read_section(parser, section: str, types: dict, errors: list) -> dict:
    """The section's valid values by key; unknown keys and bad values go to ``errors``."""
    values = {}
    if not parser.has_section(section):
        return values
    for key in parser.options(section):
        if key not in types:
            errors.append(f"unknown key {key!r} in section [{section}]")
            continue
        try:
            values[key] = _parse(parser, section, key, types[key])
        except ValueError:
            raw = parser.get(section, key)
            errors.append(f"[{section}] {key} = {raw!r} is not a valid {types[key].__name__}")
    return values


@dataclass
class RunConfig:
    model: ModelConfig
    quantizer: QuantizerConfig
    training: TrainingConfig
    simulate: SimulateConfig
    manifest: str | None = None
    val_manifest: str | None = None
    out_dir: str = "runs/out"

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Parse and validate a UTF-8 config file.

        Raises:
            ConfigError: the file cannot be opened or decoded, is not INI
                text, or holds an invalid configuration; one line that
                names the path.
        """
        path = os.fspath(path)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"{path}: cannot parse config: {' '.join(str(exc).split())}") from exc
        try:
            return cls.from_parser(parser, base=os.path.dirname(os.path.abspath(path)))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    @classmethod
    def from_parser(cls, parser, base: str = ".") -> "RunConfig":
        errors = [f"unknown section [{s}]" for s in parser.sections() if s not in _SECTIONS]
        given = {section: _read_section(parser, section, types, errors) for section, types in _SECTIONS.items()}

        training = TrainingConfig(**given["training"])
        if training.label_kind not in ("one-hot", "soft"):
            errors.append(f"label_kind must be one-hot or soft, got {training.label_kind!r}")
            training.label_kind = "one-hot"
        pad = 2 if training.label_kind == "soft" else 0
        try:
            quantizer = QuantizerConfig(given["quantizer"].get("n_classes", 100), pad)
        except ValueError as exc:
            errors.append(str(exc))
            quantizer = QuantizerConfig(100, pad)

        model_values = {**given["model"], "n_classes": quantizer.n_total}
        model_classes = given["model"].get("n_classes", quantizer.n_total)
        if model_classes != quantizer.n_total:
            errors.append(
                f"model n_classes = {model_classes} must equal quantizer classes + padding"
                f" = {quantizer.n_total}"
            )
        try:
            model = ModelConfig(**model_values)
        except ValueError as exc:
            errors.append(str(exc))
            model = None

        def resolve(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base, p)

        simulate = SimulateConfig(**given["simulate"])
        simulate.rir_paths = [resolve(p) for p in simulate.rir_paths]
        paths = {**given["data"], "out_dir": given["output"].get("dir", cls.out_dir)}
        paths = {name: resolve(p) for name, p in paths.items()}

        for name, value in (
            ("lr", training.lr),
            ("batch_size", training.batch_size),
            ("crop_seconds", training.crop_seconds),
            ("max_steps", training.max_steps),
        ):
            if value <= 0:
                errors.append(f"training {name} must be positive, got {value}")
        for name, value in (
            ("training seed", training.seed),
            ("training val_every", training.val_every),
            ("simulate seed", simulate.seed),
        ):
            if value < 0:
                errors.append(f"{name} must be non-negative, got {value}")
        if not (0.0 < training.beta1 < 1.0 and 0.0 < training.beta2 < 1.0):
            errors.append("adam betas must lie in (0, 1)")
        if training.recon_weight < 0:
            errors.append("recon_weight must be non-negative")
        if training.td_mse_reduction not in ("sum", "mean"):
            errors.append(f"td_mse_reduction must be sum or mean, got {training.td_mse_reduction!r}")
        if simulate.count < 0 or simulate.holdout_count < 0:
            errors.append("simulate counts must be non-negative")
        if simulate.duration_seconds < 0.2:
            errors.append("simulate duration_seconds must be at least 0.2")
        for name, value in (
            ("training crop_seconds", training.crop_seconds),
            ("simulate duration_seconds", simulate.duration_seconds),
        ):
            if value > MAX_SECONDS:
                errors.append(f"{name} must be at most {MAX_SECONDS:g}, got {value:g}")
        # Compared as floats: round() would overflow on a huge crop_seconds.
        if model is not None and 0 < training.crop_seconds * model.sample_rate < model.stft.window_len:
            errors.append(
                f"training crop_seconds = {training.crop_seconds:g} is shorter than one analysis window"
                f" ({model.stft.window_len} samples at {model.sample_rate} Hz)"
            )
        if not (0.0 <= simulate.perturb_prob <= 1.0):
            errors.append("perturb_prob must lie in [0, 1]")
        for name in ("snr_lo", "snr_hi"):
            value = getattr(simulate, name)
            if abs(value) > MAX_SNR_DB:
                errors.append(f"simulate {name} must lie in [-{MAX_SNR_DB:g}, {MAX_SNR_DB:g}] dB, got {value:g}")
        if simulate.snr_hi < simulate.snr_lo:
            errors.append("snr_hi must be >= snr_lo")

        if errors:
            raise ConfigError("invalid configuration: " + " | ".join(errors))
        return cls(model=model, quantizer=quantizer, training=training, simulate=simulate, **paths)
