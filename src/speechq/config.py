"""Declarative run configuration.

A run is described by an INI-style text file with [model], [quantizer],
[training], [data], [simulate] and [output] sections of key = value
pairs. The keys of [model], [quantizer], [training] and [simulate] are
the init field names of ModelConfig, QuantizerConfig, TrainingConfig and
SimulateConfig. Each value parses to its field's annotated type, or stays
text when it does not, and defaults to the field's default. The exceptions:

- [training] label_kind (one-hot or soft) is a key but not a field: it
  sets [quantizer] pad, which is not a key, to the kind's entry of
  labels.LABEL_KIND_PAD (0 for one-hot, 2 for soft);
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
their own fields when built, from a file or in Python, one rule per field
that covers its type and its range. An integer is an int and not a bool;
a number is an int or a float, not a bool, and finite, so NaN and +-inf
fail every number rule. Each broken rule reads ``<section> <field> must
be <rule>, got <value!r>``. Among the rules, [training] crop_seconds and
[simulate] duration_seconds are at most MAX_SECONDS (one hour, ample for
utterances of a few seconds), so their sample counts stay representable.
RunConfig stays mutable: ``--out`` sets its out_dir.

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

from .labels import LABEL_KIND_PAD, QuantizerConfig
from .model import ModelConfig

# Upper bound on the seconds-valued keys crop_seconds and duration_seconds.
MAX_SECONDS = 3600.0
# The message of the rule that the model's class count is the quantizer's classes plus padding.
CLASS_COUNT_RULE = "model n_classes = {} must equal quantizer classes + padding = {}"


class ConfigError(ValueError):
    """Raised for unusable run configurations."""


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return _integer(value) or isinstance(value, float) and math.isfinite(value)


# A field's rule: its text in the message and its predicate, which covers type and range.
_POSITIVE_INTEGER = ("a positive integer", lambda v: _integer(v) and v > 0)
_NON_NEGATIVE_INTEGER = ("a non-negative integer", lambda v: _integer(v) and v >= 0)


def _check(section: str, config, rules: dict) -> None:
    """Raise one ConfigError that names every field of ``config`` breaking its rule."""
    problems = [
        f"{section} {name} must be {rule}, got {getattr(config, name)!r}"
        for name, (rule, ok) in rules.items()
        if not ok(getattr(config, name))
    ]
    if problems:
        raise ConfigError(" | ".join(problems))


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
        _check("training", self, {
            "lr": ("a positive number", lambda v: _number(v) and v > 0),
            "batch_size": _POSITIVE_INTEGER,
            "crop_seconds": (f"a number in (0, {MAX_SECONDS:g}]", lambda v: _number(v) and 0 < v <= MAX_SECONDS),
            "max_steps": _POSITIVE_INTEGER,
            "seed": _NON_NEGATIVE_INTEGER,
            "recon_weight": ("a non-negative number", lambda v: _number(v) and v >= 0),
            "td_mse_reduction": ("sum or mean", lambda v: v in ("sum", "mean")),
            "val_every": _NON_NEGATIVE_INTEGER,
        })


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
        _check("simulate", self, {
            "count": _NON_NEGATIVE_INTEGER,
            "holdout_count": _NON_NEGATIVE_INTEGER,
            "duration_seconds": (
                f"a number in [0.2, {MAX_SECONDS:g}]", lambda v: _number(v) and 0.2 <= v <= MAX_SECONDS
            ),
            "seed": _NON_NEGATIVE_INTEGER,
            "perturb_prob": ("a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1),
            "rir_paths": ("a tuple of str", lambda v: isinstance(v, tuple) and all(isinstance(p, str) for p in v)),
        })


def _field_types(cls) -> dict:
    # Annotations are strings under `from __future__ import annotations`.
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


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


def _parse(raw: str, kind):
    """``raw`` converted to ``kind``, or ``raw`` itself when it does not convert,
    which its field's rule then rejects."""
    if kind is tuple:
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    try:
        return kind(raw)
    except ValueError:
        return raw


def _read_section(parser, section: str, types: dict, errors: list) -> dict:
    """The section's values by key; unknown keys go to ``errors``."""
    values = {}
    if not parser.has_section(section):
        return values
    for key in parser.options(section):
        if key not in types:
            errors.append(f"unknown key {key!r} in section [{section}]")
            continue
        values[key] = _parse(parser.get(section, key), types[key])
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
            errors.append(f"training label_kind must be one-hot or soft, got {label_kind!r}")
        pad = LABEL_KIND_PAD.get(label_kind, 0)
        training = _build(TrainingConfig, given["training"], errors)
        quantizer = _build(QuantizerConfig, {**given["quantizer"], "pad": pad}, errors)
        quantizer = quantizer or QuantizerConfig(pad=pad)

        # An n_classes that did not parse is left to the model's rule.
        model_classes = given["model"].get("n_classes", quantizer.n_total)
        if isinstance(model_classes, int) and model_classes != quantizer.n_total:
            errors.append(CLASS_COUNT_RULE.format(model_classes, quantizer.n_total))
            model_classes = quantizer.n_total
        model = _build(ModelConfig, {**given["model"], "n_classes": model_classes}, errors)

        def resolve(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base, p)

        rir_paths = tuple(resolve(p) for p in given["simulate"].get("rir_paths", ()))
        simulate = _build(SimulateConfig, {**given["simulate"], "rir_paths": rir_paths}, errors)
        paths = {**given["data"], "out_dir": given["output"].get("dir", cls.out_dir)}
        paths = {name: resolve(p) for name, p in paths.items()}

        # The file's value, so a short crop is reported next to any other [training] fault;
        # one that did not parse is a str. Compared as floats: round() would overflow on
        # a huge crop_seconds.
        crop = given["training"].get("crop_seconds", TrainingConfig.crop_seconds)
        if model is not None and isinstance(crop, float) and 0 < crop * model.sample_rate < model.stft.window_len:
            errors.append(
                f"training crop_seconds = {crop:g} is shorter than one analysis window"
                f" ({model.stft.window_len} samples at {model.sample_rate} Hz)"
            )

        if errors:
            raise ConfigError("invalid configuration: " + " | ".join(errors))
        return cls(model=model, quantizer=quantizer, training=training, simulate=simulate, **paths)
