"""Declarative run configuration.

A run is described by an INI-style text file with [model], [quantizer],
[training], [data], [simulate] and [output] sections of key = value
pairs. The keys of [model], [quantizer], [training] and [simulate] are
the init field names of ModelConfig, QuantizerConfig, TrainingConfig and
SimulateConfig. Each value parses to its field's annotated type (float
only when finite) and defaults to the field's default. The exceptions:

- [training] label_kind (one-hot or soft) is a key but not a field: it
  sets [quantizer] pad (0 for one-hot, 2 for soft), which is not a key;
- [model] n_classes defaults to, and must equal, the quantizer's classes
  plus padding;
- [simulate] rir_paths is a comma-separated list, parsed to a tuple;
- [simulate] rir_paths, [data] manifest and val_manifest and [output] dir
  are paths, resolved against the config file's directory;
- a [training] crop_seconds crop holds at least one analysis window at
  [model] sample_rate.

The depthwise kernel size (model.KERNEL_SIZE) and the simulator's SNR
range (data.SNR_RANGE_DB) are constants, not keys. The four section
dataclasses are frozen (edit one with ``dataclasses.replace``) and check
their own rules when built, from a file or in Python. Among them,
[training] crop_seconds and [simulate] duration_seconds are at most
MAX_SECONDS (one hour, ample for utterances of a few seconds), so their
sample counts stay representable, and the seeds and [training] val_every
are non-negative. RunConfig stays mutable: ``--out`` sets its out_dir.

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
from dataclasses import dataclass, fields

from .labels import QuantizerConfig
from .model import ModelConfig

# Upper bound on the seconds-valued keys crop_seconds and duration_seconds.
MAX_SECONDS = 3600.0


class ConfigError(ValueError):
    """Raised for unusable run configurations."""


def _integer_problems(section, prefix: str, names: tuple) -> tuple[list, set]:
    """One message per named field of ``section`` that holds no int (a bool is
    none), and the set of those fields, which skip their value rules."""
    values = {name: getattr(section, name) for name in names}
    not_ints = {name for name, v in values.items() if isinstance(v, bool) or not isinstance(v, int)}
    return [f"{prefix} {name} must be an integer, got {values[name]!r}" for name in names if name in not_ints], not_ints


@dataclass(frozen=True)
class TrainingConfig:
    """The [training] values; construction raises ConfigError naming every invalid one."""

    lr: float = 1e-3
    batch_size: int = 4
    crop_seconds: float = 1.0
    max_steps: int = 1000
    seed: int = 0
    recon_weight: float = 1.0  # weight on the reconstruction term; 0 trains quality only
    td_mse_reduction: str = "sum"  # "sum" (plain squared norm) | "mean" (length-normalized)
    val_every: int = 0  # 0: every max(1, max_steps // 10) steps; the last step always validates

    def __post_init__(self):
        problems, not_ints = _integer_problems(self, "training", ("batch_size", "max_steps", "seed", "val_every"))
        problems += [
            f"training {name} must be positive, got {getattr(self, name)}"
            for name in ("lr", "batch_size", "crop_seconds", "max_steps")
            if name not in not_ints and not getattr(self, name) > 0
        ]
        problems += [
            f"training {name} must be non-negative, got {getattr(self, name)}"
            for name in ("seed", "val_every")
            if name not in not_ints and not getattr(self, name) >= 0
        ]
        if not self.recon_weight >= 0:
            problems.append("recon_weight must be non-negative")
        if self.td_mse_reduction not in ("sum", "mean"):
            problems.append(f"td_mse_reduction must be sum or mean, got {self.td_mse_reduction!r}")
        if self.crop_seconds > MAX_SECONDS:
            problems.append(f"training crop_seconds must be at most {MAX_SECONDS:g}, got {self.crop_seconds:g}")
        if problems:
            raise ConfigError(" | ".join(problems))


@dataclass(frozen=True)
class SimulateConfig:
    """The [simulate] values; construction raises ConfigError naming every invalid one."""

    count: int = 20
    holdout_count: int = 0
    duration_seconds: float = 1.0
    seed: int = 0
    perturb_prob: float = 0.0
    rir_paths: tuple = ()

    def __post_init__(self):
        problems, not_ints = _integer_problems(self, "simulate", ("count", "holdout_count", "seed"))
        if "seed" not in not_ints and not self.seed >= 0:
            problems.append(f"simulate seed must be non-negative, got {self.seed}")
        if any(name not in not_ints and getattr(self, name) < 0 for name in ("count", "holdout_count")):
            problems.append("simulate counts must be non-negative")
        if not self.duration_seconds >= 0.2:
            problems.append("simulate duration_seconds must be at least 0.2")
        if self.duration_seconds > MAX_SECONDS:
            problems.append(f"simulate duration_seconds must be at most {MAX_SECONDS:g}, got {self.duration_seconds:g}")
        if not 0.0 <= self.perturb_prob <= 1.0:
            problems.append("perturb_prob must lie in [0, 1]")
        if not (isinstance(self.rir_paths, tuple) and all(isinstance(p, str) for p in self.rir_paths)):
            problems.append(f"simulate rir_paths must be a tuple of str, got {self.rir_paths!r}")
        if problems:
            raise ConfigError(" | ".join(problems))


def _field_types(cls) -> dict:
    # Annotations are strings under `from __future__ import annotations`.
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


# [training] label_kind -> [quantizer] pad.
LABEL_KIND_PAD = {"one-hot": 0, "soft": 2}

# Section -> key -> parse type. [data] and [output] hold the RunConfig paths.
_SECTIONS = {
    "model": _field_types(ModelConfig),
    "quantizer": {"n_classes": int},  # pad follows [training] label_kind
    "training": {**_field_types(TrainingConfig), "label_kind": str},
    "simulate": _field_types(SimulateConfig),
    "data": {"manifest": str, "val_manifest": str},
    "output": {"dir": str},
}


def _build(cls, values: dict, errors: list):
    """``cls(**values)``, or None with the ValueError it raised appended to ``errors``."""
    try:
        return cls(**values)
    except ValueError as exc:
        errors.append(str(exc))
        return None


def _parse(parser, section: str, key: str, kind):
    raw = parser.get(section, key)
    if kind is tuple:
        return tuple(p.strip() for p in raw.split(",") if p.strip())
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

        label_kind = given["training"].pop("label_kind", "one-hot")
        if label_kind not in LABEL_KIND_PAD:
            errors.append(f"label_kind must be one-hot or soft, got {label_kind!r}")
        pad = LABEL_KIND_PAD.get(label_kind, 0)
        training = _build(TrainingConfig, given["training"], errors)
        quantizer = _build(QuantizerConfig, {**given["quantizer"], "pad": pad}, errors)
        quantizer = quantizer or QuantizerConfig(pad=pad)

        model_values = {**given["model"], "n_classes": quantizer.n_total}
        model_classes = given["model"].get("n_classes", quantizer.n_total)
        if model_classes != quantizer.n_total:
            errors.append(
                f"model n_classes = {model_classes} must equal quantizer classes + padding"
                f" = {quantizer.n_total}"
            )
        model = _build(ModelConfig, model_values, errors)

        def resolve(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base, p)

        rir_paths = tuple(resolve(p) for p in given["simulate"].get("rir_paths", ()))
        simulate = _build(SimulateConfig, {**given["simulate"], "rir_paths": rir_paths}, errors)
        paths = {**given["data"], "out_dir": given["output"].get("dir", cls.out_dir)}
        paths = {name: resolve(p) for name, p in paths.items()}

        # The file's value, so a short crop is reported next to any other [training] fault.
        # Compared as floats: round() would overflow on a huge crop_seconds.
        crop = given["training"].get("crop_seconds", TrainingConfig.crop_seconds)
        if model is not None and 0 < crop * model.sample_rate < model.stft.window_len:
            errors.append(
                f"training crop_seconds = {crop:g} is shorter than one analysis window"
                f" ({model.stft.window_len} samples at {model.sample_rate} Hz)"
            )

        if errors:
            raise ConfigError("invalid configuration: " + " | ".join(errors))
        return cls(model=model, quantizer=quantizer, training=training, simulate=simulate, **paths)
