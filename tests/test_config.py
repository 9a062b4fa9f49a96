"""Run-config parsing: defaults, types, path resolution, errors and CLI overrides."""

import dataclasses
import hashlib
import math
import os

import pytest

from speechq import cli
from speechq.config import MAX_SECONDS, ConfigError, RunConfig, SimulateConfig, TrainingConfig
from speechq.labels import QuantizerConfig
from speechq.model import ModelConfig
from speechq.signal import StftConfig

DEFAULTS = {
    "model": {
        "sample_rate": 16000,
        "bottleneck_channels": 256,
        "conv_channels": 512,
        "blocks_per_repeat": 8,
        "repeats": 4,
        "n_classes": 100,
        "dtype": "float32",
    },
    "quantizer": {"n_classes": 100, "pad": 0},
    "training": {
        "lr": 1e-3,
        "batch_size": 4,
        "crop_seconds": 1.0,
        "max_steps": 1000,
        "seed": 0,
        "recon_weight": 1.0,
        "td_mse_reduction": "sum",
        "val_every": 0,
    },
    "simulate": {
        "count": 20,
        "holdout_count": 0,
        "duration_seconds": 1.0,
        "seed": 0,
        "perturb_prob": 0.0,
        "rir_paths": (),
    },
}

# One non-default value per key, as written in the file and as parsed.
EVERY_KEY = """
[model]
sample_rate = 8000
bottleneck_channels = 16
conv_channels = 32
blocks_per_repeat = 3
repeats = 2
n_classes = 24
dtype = float64

[quantizer]
n_classes = 20

[training]
lr = 5e-4
batch_size = 6
crop_seconds = 2
max_steps = 50
seed = 9
recon_weight = 0.5
label_kind = soft
td_mse_reduction = mean
val_every = 5

[simulate]
count = 7
holdout_count = 2
duration_seconds = 1.5
seed = 4
perturb_prob = 0.25
rir_paths = a.wav
"""

EVERY_KEY_PARSED = {
    "model": {
        "sample_rate": 8000,
        "bottleneck_channels": 16,
        "conv_channels": 32,
        "blocks_per_repeat": 3,
        "repeats": 2,
        "n_classes": 24,
        "dtype": "float64",
    },
    "quantizer": {"n_classes": 20, "pad": 2},
    "training": {
        "lr": 5e-4,
        "batch_size": 6,
        "crop_seconds": 2.0,
        "max_steps": 50,
        "seed": 9,
        "recon_weight": 0.5,
        "td_mse_reduction": "mean",
        "val_every": 5,
    },
    "simulate": {
        "count": 7,
        "holdout_count": 2,
        "duration_seconds": 1.5,
        "seed": 4,
        "perturb_prob": 0.25,
        "rir_paths": ("a.wav",),
    },
}

TINY = """
[model]
bottleneck_channels = 8
conv_channels = 16
blocks_per_repeat = 2
repeats = 1

[quantizer]
n_classes = 10

[training]
batch_size = 2
crop_seconds = 0.5
max_steps = 3
seed = {seed}

[simulate]
count = 3
duration_seconds = 0.5
seed = {seed}
"""


def load(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return RunConfig.from_file(path)


def section_values(run):
    model = {key: getattr(run.model, key) for key in DEFAULTS["model"]}
    return {
        "model": model,
        "quantizer": dataclasses.asdict(run.quantizer),
        "training": dataclasses.asdict(run.training),
        "simulate": dataclasses.asdict(run.simulate),
    }


def problems(message, path):
    """The problems listed on the one line of a ``<path>: invalid configuration: a | b`` message."""
    head = f"{path}: invalid configuration: "
    assert message.startswith(head) and "\n" not in message, message
    return message[len(head) :].split(" | ")


def config_errors(tmp_path, text):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, text)
    return set(problems(str(info.value), tmp_path / "run.ini"))


def stderr_problems(err, path):
    """The problems of the single stderr line a command prints for the invalid configuration ``path``."""
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    return problems(err[len("configuration error: ") : -1], path)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestParse:
    def test_empty_file_gives_every_default(self, tmp_path):
        run = load(tmp_path, "")
        assert section_values(run) == DEFAULTS
        assert run.manifest is None and run.val_manifest is None
        assert run.out_dir == os.path.join(str(tmp_path), "runs/out")

    def test_soft_labels_default_to_two_pad_classes(self, tmp_path):
        run = load(tmp_path, "[training]\nlabel_kind = soft\n")
        assert (run.quantizer.n_classes, run.quantizer.pad) == (100, 2)
        assert run.model.n_classes == 104

    def test_every_key_parses_to_its_type(self, tmp_path):
        values = section_values(load(tmp_path, EVERY_KEY))
        assert values == EVERY_KEY_PARSED | {
            "simulate": EVERY_KEY_PARSED["simulate"] | {"rir_paths": (os.path.join(str(tmp_path), "a.wav"),)}
        }
        for section, expected in EVERY_KEY_PARSED.items():
            for key, value in expected.items():
                assert type(values[section][key]) is type(value), (section, key)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("", []),
            ("one.wav", ["one.wav"]),
            ("a.wav, b.wav,, c.wav ,", ["a.wav", "b.wav", "c.wav"]),
            ("rooms/ir.wav, /abs/ir.wav", ["rooms/ir.wav", "/abs/ir.wav"]),
        ],
    )
    def test_rir_paths_split_on_commas(self, tmp_path, raw, expected):
        # Relative paths resolve against the config file's directory.
        paths = load(tmp_path, f"[simulate]\nrir_paths = {raw}\n").simulate.rir_paths
        assert paths == tuple(os.path.join(str(tmp_path), p) for p in expected)

    def test_data_and_output_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "configs"
        sub.mkdir()
        absolute = str(tmp_path / "elsewhere" / "val.tsv")
        run = load(
            sub,
            f"[data]\nmanifest = data/train.tsv\nval_manifest = {absolute}\n[output]\ndir = runs/a\n",
        )
        assert run.manifest == os.path.join(str(sub), "data/train.tsv")
        assert run.val_manifest == absolute
        assert run.out_dir == os.path.join(str(sub), "runs/a")


class TestErrors:
    def test_unknown_section(self, tmp_path):
        assert config_errors(tmp_path, "[modle]\nrepeats = 2\n") == {"unknown section [modle]"}

    @pytest.mark.parametrize("section", ["model", "quantizer", "training", "data", "simulate", "output"])
    def test_unknown_key(self, tmp_path, section):
        errors = config_errors(tmp_path, f"[{section}]\nbogus = 1\n")
        assert errors == {f"unknown key 'bogus' in section [{section}]"}

    def test_model_stft_is_not_a_key(self, tmp_path):
        assert config_errors(tmp_path, "[model]\nstft = 1\n") == {"unknown key 'stft' in section [model]"}

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                """
[model]
sample_rate = fast
repeats = 0
n_classes = 7

[quantizer]
n_classes = 10
pad = 2

[training]
lr = -1
beta1 = 1.5
batch_size = 2.5
recon_weight = -0.5
td_mse_reduction = median

[data]
manifest = m.tsv
bogus = x

[simulate]
count = -1
duration_seconds = 0.1
perturb_prob = 2
colour = red

[extra]
a = 1
""",
                {
                    "unknown section [extra]",
                    "unknown key 'bogus' in section [data]",
                    "unknown key 'colour' in section [simulate]",
                    "training batch_size must be a positive integer, got '2.5'",
                    "unknown key 'pad' in section [quantizer]",
                    "model n_classes = 7 must equal quantizer classes + padding = 10",
                    "model sample_rate must be a positive integer, got 'fast'",
                    "model repeats must be a positive integer, got 0",
                    "training lr must be a positive number, got -1.0",
                    "unknown key 'beta1' in section [training]",
                    "training recon_weight must be a non-negative number, got -0.5",
                    "training td_mse_reduction must be sum or mean, got 'median'",
                    "simulate count must be a non-negative integer, got -1",
                    "simulate duration_seconds must be a number in [0.2, 3600], got 0.1",
                    "simulate perturb_prob must be a number in [0, 1], got 2.0",
                },
            ),
            (
                """
[model]
dtype = float16
n_classes = 100

[quantizer]
n_classes = 0

[training]
label_kind = hard
crop_seconds = 0
max_steps = -3
beta2 = 1

[output]
dir = x
path = y
""",
                {
                    "unknown key 'path' in section [output]",
                    "training label_kind must be one-hot or soft, got 'hard'",
                    "quantizer n_classes must be a positive integer, got 0",
                    "model dtype must be float32 or float64, got 'float16'",
                    "training crop_seconds must be a number in (0, 3600], got 0.0",
                    "training max_steps must be a positive integer, got -3",
                    "unknown key 'beta2' in section [training]",
                },
            ),
            (
                "[quantizer]\nn_classes = ten\n[model]\nconv_channels = 0\n",
                {
                    "quantizer n_classes must be a positive integer, got 'ten'",
                    "model conv_channels must be a positive integer, got 0",
                },
            ),
            (
                "[model]\ndtype = float16\nrepeats = 0\nconv_channels = 0\n[quantizer]\nn_classes = 0\n",
                {
                    "quantizer n_classes must be a positive integer, got 0",
                    "model conv_channels must be a positive integer, got 0",
                    "model repeats must be a positive integer, got 0",
                    "model dtype must be float32 or float64, got 'float16'",
                },
            ),
            ("[model]\nn_classes = ten\n", {"model n_classes must be a positive integer, got 'ten'"}),
            ("[training]\nlr = fast\n", {"training lr must be a positive number, got 'fast'"}),
            ("[training]\ncrop_seconds = short\n", {"training crop_seconds must be a number in (0, 3600], got 'short'"}),
        ],
        ids=[
            "every-section", "fallback-quantizer", "quantizer-parse", "every-model-field", "model-classes-text",
            "lr-text", "crop-text",
        ],
    )
    def test_every_fault_is_reported(self, tmp_path, text, expected):
        assert config_errors(tmp_path, text) == expected

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("use_out_flag", [False, True], ids=["config-dir", "out-flag"])
    def test_invalid_config_creates_no_output(self, tmp_path, capsys, command, use_out_flag):
        never = tmp_path / "never_created"
        text = TINY.format(seed=1).replace("max_steps = 3", "max_steps = 0")
        text += f"\n[data]\nmanifest = m.tsv\n[output]\ndir = {never}\n"
        path = tmp_path / "bad.ini"
        path.write_text(text)
        argv = [command, "--config", str(path)]
        if use_out_flag:
            argv += ["--out", str(never)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "max_steps must be a positive integer" in err
        assert not never.exists()

    @pytest.mark.parametrize("value", ["3600.5", "1e308"])
    @pytest.mark.parametrize("section, key", [("training", "crop_seconds"), ("simulate", "duration_seconds")])
    def test_seconds_keys_are_bounded(self, tmp_path, section, key, value):
        errors = config_errors(tmp_path, TINY.format(seed=1).replace(f"{key} = 0.5", f"{key} = {value}"))
        rule = {"crop_seconds": "a number in (0, 3600]", "duration_seconds": "a number in [0.2, 3600]"}[key]
        assert errors == {f"{section} {key} must be {rule}, got {float(value):g}"}

    def test_one_hour_is_allowed(self, tmp_path):
        text = TINY.format(seed=1).replace("crop_seconds = 0.5", "crop_seconds = 3600")
        run = load(tmp_path, text.replace("duration_seconds = 0.5", "duration_seconds = 3600"))
        assert run.training.crop_seconds == run.simulate.duration_seconds == MAX_SECONDS == 3600

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("section, key", [("training", "crop_seconds"), ("simulate", "duration_seconds")])
    def test_huge_seconds_exit_1_and_write_nothing(self, tmp_path, capsys, command, section, key):
        # A real manifest, so train would otherwise reach the crop-length conversion.
        data = tmp_path / "data"
        (tmp_path / "sim.ini").write_text(TINY.format(seed=1) + f"\n[output]\ndir = {data}\n")
        assert cli.main(["simulate", "--config", str(tmp_path / "sim.ini")]) == 0
        never = tmp_path / "never_created"
        text = TINY.format(seed=1).replace(f"{key} = 0.5", f"{key} = 1e308")
        text += f"\n[data]\nmanifest = {data / 'manifest.tsv'}\n[output]\ndir = {never}\n"
        path = tmp_path / "huge.ini"
        path.write_text(text)
        capsys.readouterr()
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        rule = {"crop_seconds": "a number in (0, 3600]", "duration_seconds": "a number in [0.2, 3600]"}[key]
        assert stderr_problems(err, path) == [f"{section} {key} must be {rule}, got 1e+308"]
        assert not never.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "norm", "batch"),
            ("model", "kernel_size", "3"),
            ("training", "rank_loss", "true"),
            ("training", "rank_weight", "1.0"),
            ("training", "beta1", "0.9"),
            ("training", "beta2", "0.999"),
            ("quantizer", "pad", "0"),
            ("simulate", "snr_lo", "-12"),
            ("simulate", "snr_hi", "30"),
        ],
        ids=["norm", "kernel_size", "rank_loss", "rank_weight", "beta1", "beta2", "pad", "snr_lo", "snr_hi"],
    )
    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_removed_keys_exit_1_and_write_nothing(self, tmp_path, capsys, command, section, key, value):
        never = tmp_path / "never_created"
        text = TINY.format(seed=1).replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        text += f"\n[data]\nmanifest = m.tsv\n[output]\ndir = {never}\n"
        path = tmp_path / "old.ini"
        path.write_text(text)
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert stderr_problems(err, path) == [f"unknown key {key!r} in section [{section}]"]
        assert not never.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("simulate", ["--seed", "8"]),
            ("train", ["--seed", "8"]),
            ("predict", ["--decoder", "max"]),
            ("eval", ["--decoder", "max"]),
            ("eval", ["--out", "report.txt"]),
        ],
        ids=["simulate-seed", "train-seed", "predict-decoder", "eval-decoder", "eval-out"],
    )
    def test_removed_flags_exit_1_and_write_nothing(self, tmp_path, capsys, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)  # so a relative report path would land in tmp_path
        never = tmp_path / "never_created"
        config = tmp_path / "run.ini"
        config.write_text(TINY.format(seed=1) + f"\n[data]\nmanifest = m.tsv\n[output]\ndir = {never}\n")
        args = {
            "simulate": ["--config", str(config)],
            "train": ["--config", str(config)],
            "predict": ["--checkpoint", str(tmp_path / "model.ckpt"), str(tmp_path / "a.wav")],
            "eval": ["--checkpoint", str(tmp_path / "model.ckpt"), "--manifest", "m.tsv"],
        }[command]
        assert cli.main([command, *args, *flag]) == 1
        assert capsys.readouterr() == ("", f"configuration error: unrecognized arguments: {' '.join(flag)}\n")
        assert os.listdir(tmp_path) == ["run.ini"]

    @pytest.mark.parametrize(
        "section, key, value", [("training", "seed", -1), ("simulate", "seed", -2), ("training", "val_every", -1)]
    )
    def test_negative_seeds_and_val_every_are_rejected(self, tmp_path, section, key, value):
        errors = config_errors(tmp_path, f"[{section}]\n{key} = {value}\n")
        assert errors == {f"{section} {key} must be a non-negative integer, got {value}"}

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, capsys, command):
        # A real manifest, so train would otherwise reach the parameter initialization.
        data = tmp_path / "data"
        (tmp_path / "sim.ini").write_text(TINY.format(seed=1) + f"\n[output]\ndir = {data}\n")
        assert cli.main(["simulate", "--config", str(tmp_path / "sim.ini")]) == 0
        capsys.readouterr()
        never = tmp_path / "never_created"
        path = tmp_path / "neg.ini"
        text = TINY.format(seed=-2)
        path.write_text(text + f"\n[data]\nmanifest = {data / 'manifest.tsv'}\n[output]\ndir = {never}\n")
        assert cli.main([command, "--config", str(path)]) == 1
        assert stderr_problems(capsys.readouterr().err, path) == [
            "training seed must be a non-negative integer, got -2",
            "simulate seed must be a non-negative integer, got -2",
        ]
        assert not never.exists()

    @pytest.mark.parametrize(
        "rate, crop, window",
        [(16000, 0.0315, 512), (8000, 0.03, 256), (1000, 0.001, 32)],
    )
    def test_crop_must_hold_one_analysis_window(self, tmp_path, rate, crop, window):
        text = f"[model]\nsample_rate = {rate}\n[training]\ncrop_seconds = {{crop}}\n"
        assert config_errors(tmp_path, text.format(crop=crop)) == {
            f"training crop_seconds = {crop:g} is shorter than one analysis window ({window} samples at {rate} Hz)"
        }
        assert load(tmp_path, text.format(crop=window / rate)).training.crop_seconds == window / rate

    @pytest.mark.parametrize("rate", [384001, 10**13])
    def test_sample_rate_is_bounded(self, tmp_path, rate):
        errors = config_errors(tmp_path, f"[model]\nsample_rate = {rate}\n")
        assert errors == {f"sample rate {rate} Hz is above the maximum of 384000 Hz"}
        assert load(tmp_path, "[model]\nsample_rate = 384000\n").model.stft.window_len == 12288

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize(
        "edit, expected",
        [
            (
                ("[model]\n", "[model]\nsample_rate = 10000000000000\n"),
                "sample rate 10000000000000 Hz is above the maximum of 384000 Hz",
            ),
            (
                ("crop_seconds = 0.5", "crop_seconds = 0.01"),
                "training crop_seconds = 0.01 is shorter than one analysis window (512 samples at 16000 Hz)",
            ),
        ],
        ids=["huge-sample-rate", "short-crop"],
    )
    def test_rate_and_crop_faults_exit_1_and_write_nothing(self, tmp_path, capsys, command, edit, expected):
        # A real manifest, so train would otherwise reach the model and the crops.
        data = tmp_path / "data"
        (tmp_path / "sim.ini").write_text(TINY.format(seed=1) + f"\n[output]\ndir = {data}\n")
        assert cli.main(["simulate", "--config", str(tmp_path / "sim.ini")]) == 0
        capsys.readouterr()
        never = tmp_path / "never_created"
        path = tmp_path / "bad.ini"
        text = TINY.format(seed=1).replace(*edit)
        path.write_text(text + f"\n[data]\nmanifest = {data / 'manifest.tsv'}\n[output]\ndir = {never}\n")
        assert cli.main([command, "--config", str(path)]) == 1
        assert stderr_problems(capsys.readouterr().err, path) == [expected]
        assert not never.exists()

    def test_values_are_literal(self, tmp_path, capsys):
        """``%`` is no interpolation character: a directory named with it is used as written."""
        path = tmp_path / "pct.ini"
        path.write_text(TINY.format(seed=1) + "\n[output]\ndir = run_50%_%(x)s\n")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "run_50%_%(x)s" / "manifest.tsv").is_file()


class TestTrainingConfig:
    """A TrainingConfig built in Python is checked like the [training] section of a file."""

    @pytest.mark.parametrize(
        "values, problem",
        [
            ({"lr": -1.0}, "training lr must be a positive number, got -1.0"),
            ({"batch_size": 0}, "training batch_size must be a positive integer, got 0"),
            ({"crop_seconds": 0.0}, "training crop_seconds must be a number in (0, 3600], got 0.0"),
            ({"max_steps": 0}, "training max_steps must be a positive integer, got 0"),
            ({"seed": -1}, "training seed must be a non-negative integer, got -1"),
            ({"val_every": -2}, "training val_every must be a non-negative integer, got -2"),
            ({"recon_weight": -1.0}, "training recon_weight must be a non-negative number, got -1.0"),
            ({"td_mse_reduction": "median"}, "training td_mse_reduction must be sum or mean, got 'median'"),
            ({"crop_seconds": 3600.5}, "training crop_seconds must be a number in (0, 3600], got 3600.5"),
            ({"max_steps": 2.5}, "training max_steps must be a positive integer, got 2.5"),
            ({"batch_size": 2.5}, "training batch_size must be a positive integer, got 2.5"),
            ({"val_every": 1.5}, "training val_every must be a non-negative integer, got 1.5"),
            ({"seed": True}, "training seed must be a non-negative integer, got True"),
            ({"lr": "0.1"}, "training lr must be a positive number, got '0.1'"),
            ({"recon_weight": None}, "training recon_weight must be a non-negative number, got None"),
            ({"lr": math.inf}, "training lr must be a positive number, got inf"),
            ({"recon_weight": math.inf}, "training recon_weight must be a non-negative number, got inf"),
        ],
        ids=[
            "lr", "batch_size", "crop_seconds-zero", "max_steps", "seed", "val_every", "recon_weight",
            "td_mse_reduction", "crop_seconds-past-an-hour", "max_steps-float", "batch_size-float",
            "val_every-float", "seed-bool", "lr-str", "recon_weight-none", "lr-inf", "recon_weight-inf",
        ],
    )
    def test_each_bad_value_raises(self, values, problem):
        with pytest.raises(ConfigError) as info:
            TrainingConfig(**values)
        assert str(info.value) == problem

    def test_every_problem_on_one_line(self):
        with pytest.raises(ConfigError) as info:
            TrainingConfig(lr=0.0, max_steps=-1, recon_weight=-0.5)
        assert str(info.value).split(" | ") == [
            "training lr must be a positive number, got 0.0",
            "training max_steps must be a positive integer, got -1",
            "training recon_weight must be a non-negative number, got -0.5",
        ]

    @pytest.mark.parametrize(
        "name, problem",
        [
            ("lr", "training lr must be a positive number, got nan"),
            ("crop_seconds", "training crop_seconds must be a number in (0, 3600], got nan"),
            ("recon_weight", "training recon_weight must be a non-negative number, got nan"),
        ],
        ids=["lr", "crop_seconds", "recon_weight"],
    )
    def test_nan_raises(self, name, problem):
        with pytest.raises(ConfigError) as info:
            TrainingConfig(**{name: float("nan")})
        assert str(info.value) == problem


    @pytest.mark.parametrize("name", ["lr", "crop_seconds", "recon_weight"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_file_and_python_give_one_message(self, tmp_path, name, value):
        with pytest.raises(ConfigError) as info:
            TrainingConfig(**{name: value})
        assert config_errors(tmp_path, f"[training]\n{name} = {value}\n") == {str(info.value)}


class TestSimulateConfig:
    """A SimulateConfig built in Python is checked like the [simulate] section of a file."""

    @pytest.mark.parametrize(
        "values, problem",
        [
            ({"seed": -1}, "simulate seed must be a non-negative integer, got -1"),
            ({"count": -1}, "simulate count must be a non-negative integer, got -1"),
            ({"holdout_count": -1}, "simulate holdout_count must be a non-negative integer, got -1"),
            ({"duration_seconds": 0.1}, "simulate duration_seconds must be a number in [0.2, 3600], got 0.1"),
            ({"duration_seconds": float("nan")}, "simulate duration_seconds must be a number in [0.2, 3600], got nan"),
            ({"duration_seconds": 3600.5}, "simulate duration_seconds must be a number in [0.2, 3600], got 3600.5"),
            ({"perturb_prob": 1.5}, "simulate perturb_prob must be a number in [0, 1], got 1.5"),
            ({"perturb_prob": float("nan")}, "simulate perturb_prob must be a number in [0, 1], got nan"),
            ({"count": 2.5}, "simulate count must be a non-negative integer, got 2.5"),
            ({"holdout_count": False}, "simulate holdout_count must be a non-negative integer, got False"),
            ({"seed": 1.0}, "simulate seed must be a non-negative integer, got 1.0"),
            ({"rir_paths": ["a.wav"]}, "simulate rir_paths must be a tuple of str, got ['a.wav']"),
            ({"rir_paths": ("a.wav", 1)}, "simulate rir_paths must be a tuple of str, got ('a.wav', 1)"),
            ({"perturb_prob": None}, "simulate perturb_prob must be a number in [0, 1], got None"),
            ({"duration_seconds": "1"}, "simulate duration_seconds must be a number in [0.2, 3600], got '1'"),
        ],
        ids=[
            "seed", "count", "holdout_count", "duration-short", "duration-nan", "duration-past-an-hour",
            "perturb_prob", "perturb_prob-nan", "count-float", "holdout_count-bool", "seed-float",
            "rir_paths-list", "rir_paths-not-str", "perturb_prob-none", "duration_seconds-str",
        ],
    )
    def test_each_bad_value_raises(self, values, problem):
        with pytest.raises(ConfigError) as info:
            SimulateConfig(**values)
        assert str(info.value) == problem

    def test_every_problem_on_one_line(self):
        with pytest.raises(ConfigError) as info:
            SimulateConfig(count=-5, perturb_prob=7)
        assert str(info.value).split(" | ") == [
            "simulate count must be a non-negative integer, got -5",
            "simulate perturb_prob must be a number in [0, 1], got 7",
        ]



class TestFrozenSections:
    @pytest.mark.parametrize(
        "section, name, value",
        [
            (ModelConfig(), "sample_rate", 8000),
            (ModelConfig(), "stft", StftConfig(8000)),
            (StftConfig(16000), "window_len", 256),
            (QuantizerConfig(10), "pad", 2),
            (TrainingConfig(), "max_steps", 0),
            (SimulateConfig(), "count", -5),
        ],
        ids=["model", "model-stft", "stft", "quantizer", "training", "simulate"],
    )
    def test_assignment_raises(self, section, name, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(section, name, value)
        assert getattr(section, name) != value

    def test_replace_derives_and_checks_again(self):
        model = dataclasses.replace(ModelConfig(), sample_rate=8000)
        assert model.stft == StftConfig(8000) and model.stft.window_len == 256
        with pytest.raises(ConfigError, match="training max_steps must be a positive integer"):
            dataclasses.replace(TrainingConfig(), max_steps=0)
        with pytest.raises(ConfigError, match="simulate count must be a non-negative integer"):
            dataclasses.replace(SimulateConfig(), count=-5)

    def test_simulate_rir_paths_cannot_be_edited_in_place(self, tmp_path):
        sim = load(tmp_path, "[simulate]\nrir_paths = a.wav, b.wav\n").simulate
        assert type(sim.rir_paths) is tuple
        with pytest.raises(AttributeError):
            sim.rir_paths.append("c.wav")
        assert len(sim.rir_paths) == 2

    def test_simulate_section_hashes(self, tmp_path):
        sim = load(tmp_path, "[simulate]\nrir_paths = a.wav\n").simulate
        assert hash(sim) == hash(dataclasses.replace(sim))
        assert hash(SimulateConfig()) == hash(SimulateConfig())

    def test_run_config_out_dir_stays_settable(self, tmp_path):
        run = load(tmp_path, "")
        run.out_dir = str(tmp_path / "elsewhere")
        assert run.out_dir == str(tmp_path / "elsewhere")


class TestOverrides:
    def write(self, tmp_path, name, seed, out, extra=""):
        path = tmp_path / name
        path.write_text(TINY.format(seed=seed) + extra + f"\n[output]\ndir = {out}\n")
        return str(path)

    def test_simulate_seed_and_out(self, tmp_path, capsys):
        """``--out`` moves the output and keeps the config's seed."""
        config_dir, flag_dir, ref_dir = tmp_path / "cfg", tmp_path / "flag", tmp_path / "ref"
        config = self.write(tmp_path, "a.ini", 8, config_dir)
        assert cli.main(["simulate", "--config", config, "--out", str(flag_dir)]) == 0
        assert cli.main(["simulate", "--config", self.write(tmp_path, "b.ini", 8, ref_dir)]) == 0
        capsys.readouterr()
        assert not config_dir.exists()
        assert sorted(os.listdir(flag_dir / "wavs")) == sorted(os.listdir(ref_dir / "wavs"))
        for name in os.listdir(flag_dir / "wavs"):
            assert digest(flag_dir / "wavs" / name) == digest(ref_dir / "wavs" / name)
        assert digest(flag_dir / "manifest.tsv") == digest(ref_dir / "manifest.tsv")

    def test_train_seed_and_out(self, tmp_path, capsys):
        """``--out`` moves the checkpoints and keeps the config's seed."""
        data = tmp_path / "data"
        assert cli.main(["simulate", "--config", self.write(tmp_path, "sim.ini", 5, data)]) == 0
        extra = f"\n[data]\nmanifest = {data / 'manifest.tsv'}\n"
        config_dir, flag_dir = tmp_path / "cfg", tmp_path / "flag"
        config = self.write(tmp_path, "a.ini", 8, config_dir, extra)
        assert cli.main(["train", "--config", config, "--out", str(flag_dir)]) == 0
        assert not config_dir.exists()
        seeded = {}
        for seed in (3, 8):
            out = tmp_path / f"seed{seed}"
            assert cli.main(["train", "--config", self.write(tmp_path, f"s{seed}.ini", seed, out, extra)]) == 0
            seeded[seed] = digest(out / "final.ckpt")
        capsys.readouterr()
        assert digest(flag_dir / "final.ckpt") == seeded[8] != seeded[3]
