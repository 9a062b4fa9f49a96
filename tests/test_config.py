"""Run-config parsing: defaults, types, path resolution, errors and CLI overrides."""

import dataclasses
import hashlib
import os

import pytest

from speechq import cli
from speechq.config import MAX_SECONDS, MAX_SNR_DB, ConfigError, RunConfig

DEFAULTS = {
    "model": {
        "sample_rate": 16000,
        "bottleneck_channels": 256,
        "conv_channels": 512,
        "kernel_size": 3,
        "blocks_per_repeat": 8,
        "repeats": 4,
        "n_classes": 100,
        "dtype": "float32",
    },
    "quantizer": {"n_classes": 100, "pad": 0},
    "training": {
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "batch_size": 4,
        "crop_seconds": 1.0,
        "max_steps": 1000,
        "seed": 0,
        "recon_weight": 1.0,
        "label_kind": "one-hot",
        "td_mse_reduction": "sum",
        "val_every": 0,
    },
    "simulate": {
        "count": 20,
        "holdout_count": 0,
        "duration_seconds": 1.0,
        "seed": 0,
        "snr_lo": -12.0,
        "snr_hi": 30.0,
        "perturb_prob": 0.0,
        "rir_paths": [],
    },
}

# One non-default value per key, as written in the file and as parsed.
EVERY_KEY = """
[model]
sample_rate = 8000
bottleneck_channels = 16
conv_channels = 32
kernel_size = 5
blocks_per_repeat = 3
repeats = 2
n_classes = 24
dtype = float64

[quantizer]
n_classes = 20

[training]
lr = 5e-4
beta1 = 0.8
beta2 = 0.99
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
snr_lo = -5
snr_hi = 10.5
perturb_prob = 0.25
rir_paths = a.wav
"""

EVERY_KEY_PARSED = {
    "model": {
        "sample_rate": 8000,
        "bottleneck_channels": 16,
        "conv_channels": 32,
        "kernel_size": 5,
        "blocks_per_repeat": 3,
        "repeats": 2,
        "n_classes": 24,
        "dtype": "float64",
    },
    "quantizer": {"n_classes": 20, "pad": 2},
    "training": {
        "lr": 5e-4,
        "beta1": 0.8,
        "beta2": 0.99,
        "batch_size": 6,
        "crop_seconds": 2.0,
        "max_steps": 50,
        "seed": 9,
        "recon_weight": 0.5,
        "label_kind": "soft",
        "td_mse_reduction": "mean",
        "val_every": 5,
    },
    "simulate": {
        "count": 7,
        "holdout_count": 2,
        "duration_seconds": 1.5,
        "seed": 4,
        "snr_lo": -5.0,
        "snr_hi": 10.5,
        "perturb_prob": 0.25,
        "rir_paths": ["a.wav"],
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
            "simulate": EVERY_KEY_PARSED["simulate"] | {"rir_paths": [os.path.join(str(tmp_path), "a.wav")]}
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
        assert paths == [os.path.join(str(tmp_path), p) for p in expected]

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
kernel_size = 4
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
snr_lo = 10
snr_hi = 0
colour = red

[extra]
a = 1
""",
                {
                    "unknown section [extra]",
                    "unknown key 'bogus' in section [data]",
                    "unknown key 'colour' in section [simulate]",
                    "[training] batch_size = '2.5' is not a valid int",
                    "unknown key 'pad' in section [quantizer]",
                    "model n_classes = 7 must equal quantizer classes + padding = 10",
                    "[model] sample_rate = 'fast' is not a valid int",
                    "kernel size must be odd for same-length padding",
                    "training lr must be positive, got -1.0",
                    "adam betas must lie in (0, 1)",
                    "recon_weight must be non-negative",
                    "td_mse_reduction must be sum or mean, got 'median'",
                    "simulate counts must be non-negative",
                    "simulate duration_seconds must be at least 0.2",
                    "perturb_prob must lie in [0, 1]",
                    "snr_hi must be >= snr_lo",
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
                    "label_kind must be one-hot or soft, got 'hard'",
                    "need at least one class",
                    "dtype must be float32 or float64",
                    "training crop_seconds must be positive, got 0.0",
                    "training max_steps must be positive, got -3",
                    "adam betas must lie in (0, 1)",
                },
            ),
            (
                "[quantizer]\nn_classes = ten\n[model]\nkernel_size = 4\n",
                {"[quantizer] n_classes = 'ten' is not a valid int", "kernel size must be odd for same-length padding"},
            ),
        ],
        ids=["every-section", "fallback-quantizer", "quantizer-parse"],
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
        assert err.startswith("configuration error: ") and "max_steps must be positive" in err
        assert not never.exists()

    @pytest.mark.parametrize("value", ["3600.5", "1e308"])
    @pytest.mark.parametrize("section, key", [("training", "crop_seconds"), ("simulate", "duration_seconds")])
    def test_seconds_keys_are_bounded(self, tmp_path, section, key, value):
        errors = config_errors(tmp_path, TINY.format(seed=1).replace(f"{key} = 0.5", f"{key} = {value}"))
        assert errors == {f"{section} {key} must be at most 3600, got {float(value):g}"}

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
        assert stderr_problems(err, path) == [f"{section} {key} must be at most 3600, got 1e+308"]
        assert not never.exists()

    @pytest.mark.parametrize("value", ["300.5", "-300.5", "1e308", "-1e308"])
    def test_snr_keys_are_bounded(self, tmp_path, value):
        errors = config_errors(tmp_path, f"[simulate]\nsnr_lo = {value}\nsnr_hi = {value}\n")
        assert errors == {
            f"simulate {key} must lie in [-300, 300] dB, got {float(value):g}" for key in ("snr_lo", "snr_hi")
        }

    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    def test_huge_snr_exits_1_and_writes_nothing(self, tmp_path, capsys, value):
        never = tmp_path / "never_created"
        text = TINY.format(seed=1) + f"snr_lo = {value}\nsnr_hi = {value}\n\n[output]\ndir = {never}\n"
        path = tmp_path / "loud.ini"
        path.write_text(text)
        assert cli.main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert stderr_problems(err, path) == [
            f"simulate {key} must lie in [-300, 300] dB, got {float(value):g}" for key in ("snr_lo", "snr_hi")
        ]
        assert not never.exists()

    @pytest.mark.parametrize("value", ["-300", "300"])
    def test_300_db_is_allowed(self, tmp_path, capsys, value):
        text = TINY.format(seed=1) + f"snr_lo = {value}\nsnr_hi = {value}\n\n[output]\ndir = {tmp_path / 'out'}\n"
        assert abs(load(tmp_path, text, name="edge.ini").simulate.snr_lo) == MAX_SNR_DB == 300
        assert cli.main(["simulate", "--config", str(tmp_path / "edge.ini")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "norm", "batch"),
            ("training", "rank_loss", "true"),
            ("training", "rank_weight", "1.0"),
            ("quantizer", "pad", "0"),
        ],
        ids=["norm", "rank_loss", "rank_weight", "pad"],
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
        "section, key, value", [("training", "seed", -1), ("simulate", "seed", -2), ("training", "val_every", -1)]
    )
    def test_negative_seeds_and_val_every_are_rejected(self, tmp_path, section, key, value):
        errors = config_errors(tmp_path, f"[{section}]\n{key} = {value}\n")
        assert errors == {f"{section} {key} must be non-negative, got {value}"}

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("use_flag", [True, False], ids=["flag", "config"])
    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, capsys, command, use_flag):
        # A real manifest, so train would otherwise reach the parameter initialization.
        data = tmp_path / "data"
        (tmp_path / "sim.ini").write_text(TINY.format(seed=1) + f"\n[output]\ndir = {data}\n")
        assert cli.main(["simulate", "--config", str(tmp_path / "sim.ini")]) == 0
        capsys.readouterr()
        never = tmp_path / "never_created"
        path = tmp_path / "neg.ini"
        text = TINY.format(seed=1 if use_flag else -2)
        path.write_text(text + f"\n[data]\nmanifest = {data / 'manifest.tsv'}\n[output]\ndir = {never}\n")
        argv = [command, "--config", str(path)] + (["--seed", "-2"] if use_flag else [])
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        if use_flag:
            assert err == "configuration error: --seed must be non-negative, got -2\n"
        else:
            assert stderr_problems(err, path) == [
                "training seed must be non-negative, got -2",
                "simulate seed must be non-negative, got -2",
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


class TestOverrides:
    def write(self, tmp_path, name, seed, out, extra=""):
        path = tmp_path / name
        path.write_text(TINY.format(seed=seed) + extra + f"\n[output]\ndir = {out}\n")
        return str(path)

    def test_simulate_seed_and_out(self, tmp_path, capsys):
        config_dir, flag_dir, ref_dir = tmp_path / "cfg", tmp_path / "flag", tmp_path / "ref"
        config = self.write(tmp_path, "a.ini", 7, config_dir)
        assert cli.main(["simulate", "--config", config, "--seed", "8", "--out", str(flag_dir)]) == 0
        assert cli.main(["simulate", "--config", self.write(tmp_path, "b.ini", 8, ref_dir)]) == 0
        capsys.readouterr()
        assert not config_dir.exists()
        assert sorted(os.listdir(flag_dir / "wavs")) == sorted(os.listdir(ref_dir / "wavs"))
        for name in os.listdir(flag_dir / "wavs"):
            assert digest(flag_dir / "wavs" / name) == digest(ref_dir / "wavs" / name)
        assert digest(flag_dir / "manifest.tsv") == digest(ref_dir / "manifest.tsv")

    def test_train_seed_and_out(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["simulate", "--config", self.write(tmp_path, "sim.ini", 5, data)]) == 0
        extra = f"\n[data]\nmanifest = {data / 'manifest.tsv'}\n"
        config_dir, flag_dir = tmp_path / "cfg", tmp_path / "flag"
        config = self.write(tmp_path, "a.ini", 3, config_dir, extra)
        assert cli.main(["train", "--config", config, "--seed", "8", "--out", str(flag_dir)]) == 0
        assert not config_dir.exists()
        seeded = {}
        for seed in (3, 8):
            out = tmp_path / f"seed{seed}"
            assert cli.main(["train", "--config", self.write(tmp_path, f"s{seed}.ini", seed, out, extra)]) == 0
            seeded[seed] = digest(out / "final.ckpt")
        capsys.readouterr()
        assert digest(flag_dir / "final.ckpt") == seeded[8] != seeded[3]
