import contextlib
import errno
import hashlib
import io
import os
import pathlib
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechq import cli
from speechq import data as dt
from speechq import labels as lb
from speechq import model as mdl
from speechq import train as tr
from speechq.signal import load_wav


TINY_MODEL = """
[model]
sample_rate = 16000
bottleneck_channels = 8
conv_channels = 16
blocks_per_repeat = 2
repeats = 1

[quantizer]
n_classes = 10

[training]
lr = 2e-3
batch_size = 4
crop_seconds = 0.5
max_steps = {steps}
seed = 3
label_kind = one-hot
"""

SIMULATE = """
[simulate]
count = {count}
holdout_count = {holdout}
duration_seconds = 0.5
seed = {seed}

[output]
dir = {out}
"""


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def simulate_dataset(tmp_path, count=6, holdout=0, seed=5, subdir="data"):
    out = tmp_path / subdir
    config = write_config(
        tmp_path,
        TINY_MODEL.format(steps=10) + SIMULATE.format(count=count, holdout=holdout, seed=seed, out=out),
        name=f"sim_{subdir}.ini",
    )
    assert cli.main(["simulate", "--config", config]) == 0
    return out


class TestSimulate:
    def test_deterministic_reruns(self, tmp_path, capsys):
        out_a = simulate_dataset(tmp_path, subdir="a", seed=7)
        out_b = simulate_dataset(tmp_path, subdir="b", seed=7)
        capsys.readouterr()
        assert file_digest(out_a / "manifest.tsv") == file_digest(out_b / "manifest.tsv")
        for name in sorted(os.listdir(out_a / "wavs")):
            assert file_digest(out_a / "wavs" / name) == file_digest(out_b / "wavs" / name)

    def test_seed_key_sets_the_dataset(self, tmp_path, capsys):
        out_a = simulate_dataset(tmp_path, count=3, subdir="a", seed=7)
        out_b = simulate_dataset(tmp_path, count=3, subdir="b", seed=8)
        capsys.readouterr()
        assert file_digest(out_a / "manifest.tsv") != file_digest(out_b / "manifest.tsv")

    def test_entry_count_and_label_range(self, tmp_path, capsys):
        out = simulate_dataset(tmp_path, count=8, seed=9)
        capsys.readouterr()
        lines = (out / "manifest.tsv").read_text().splitlines()
        assert len(lines) == 9  # header + 8 records
        labels = [float(line.split("\t")[2]) for line in lines[1:]]
        assert all(1.0 <= lab <= 4.5 for lab in labels)

    def test_snrs_stay_in_requested_band(self, tmp_path, capsys):
        # SNR measured back from the written degraded/clean pairs.
        out = simulate_dataset(tmp_path, count=8, seed=11)
        capsys.readouterr()
        entries = dt.load_manifest(out / "manifest.tsv")
        for entry in entries:
            noise = entry.degraded.samples - entry.clean.samples
            snr = 10 * np.log10(np.mean(entry.clean.samples**2) / np.mean(noise**2))
            assert -12.01 <= snr <= 30.01

    def test_holdout_split_written(self, tmp_path, capsys):
        out = simulate_dataset(tmp_path, count=4, holdout=2, seed=13)
        capsys.readouterr()
        train_lines = (out / "manifest.tsv").read_text().splitlines()[1:]
        hold_lines = (out / "manifest_holdout.tsv").read_text().splitlines()[1:]
        assert len(train_lines) == 4 and len(hold_lines) == 2
        assert not set(train_lines) & set(hold_lines)

    def test_rir_and_perturbation_options(self, tmp_path, capsys):
        from speechq.signal import Waveform, save_wav

        rir = np.zeros(64)
        rir[0], rir[40] = 1.0, 0.4  # direct path plus one reflection
        rir_path = tmp_path / "rir.wav"
        save_wav(rir_path, Waveform(rir, 16000))
        out = tmp_path / "rirdata"
        sim_section = SIMULATE.format(count=3, holdout=0, seed=31, out=out).replace(
            "seed = 31", f"seed = 31\nrir_paths = {rir_path}\nperturb_prob = 1.0"
        )
        config = write_config(tmp_path, TINY_MODEL.format(steps=5) + sim_section, name="rir.ini")
        assert cli.main(["simulate", "--config", config]) == 0
        capsys.readouterr()
        entries = dt.load_manifest(out / "manifest.tsv")
        assert len(entries) == 3
        assert all(1.0 <= e.label <= 4.5 for e in entries)

    def test_relative_rir_path_resolves_against_config_dir(self, tmp_path, monkeypatch, capsys):
        from speechq.signal import Waveform, save_wav

        cfgdir = tmp_path / "cfgdir"
        cfgdir.mkdir()
        save_wav(cfgdir / "ir.wav", Waveform(np.array([1.0, 0.0, 0.3]), 16000))
        sim_section = SIMULATE.format(count=2, holdout=0, seed=33, out="rirout").replace(
            "seed = 33", "seed = 33\nrir_paths = ir.wav"
        )
        write_config(cfgdir, TINY_MODEL.format(steps=5) + sim_section, name="rir.ini")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", "cfgdir/rir.ini"]) == 0
        capsys.readouterr()
        assert len(dt.load_manifest(cfgdir / "rirout" / "manifest.tsv")) == 2

    def test_missing_rir_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "rirout"
        sim_section = SIMULATE.format(count=2, holdout=0, seed=35, out=out).replace(
            "seed = 35", "seed = 35\nrir_paths = missing.wav"
        )
        config = write_config(tmp_path, TINY_MODEL.format(steps=5) + sim_section, name="rir.ini")
        assert cli.main(["simulate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "missing.wav" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "taps, rate, expected",
        [
            ([1.0, 0.3], 8000, "impulse response is at 8000 Hz, not [model] sample_rate 16000 Hz"),
            ([0.0] * 19999 + [1.0], 16000, "no nonzero tap in the first 8000 samples"),
            ([0.0] * 64, 16000, "no nonzero tap in the first 8000 samples"),
        ],
        ids=["other-rate", "late-onset", "all-zero"],
    )
    def test_unusable_rir_exits_2_and_writes_nothing(self, tmp_path, capsys, taps, rate, expected):
        from speechq.signal import Waveform, save_wav

        rir_path = tmp_path / "ir.wav"
        save_wav(rir_path, Waveform(np.array(taps), rate))
        out = tmp_path / "rirout"
        sim_section = SIMULATE.format(count=2, holdout=0, seed=35, out=out).replace(
            "seed = 35", f"seed = 35\nrir_paths = {rir_path}"
        )
        config = write_config(tmp_path, TINY_MODEL.format(steps=5) + sim_section, name="rir.ini")
        assert cli.main(["simulate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {rir_path}: ") and expected in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    def test_used_directory_exits_2_and_changes_nothing(self, tmp_path, capsys):
        # A second set in the first's directory would leave its holdout manifest
        # naming rewritten WAVs with the old labels.
        out = simulate_dataset(tmp_path, count=4, holdout=2, seed=13)
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        config = write_config(tmp_path, TINY_MODEL.format(steps=5) + SIMULATE.format(count=6, holdout=0, seed=5, out=out))
        capsys.readouterr()
        assert cli.main(["simulate", "--config", config]) == 2
        assert capsys.readouterr().err == f"data error: {out} holds a simulated data set; simulate elsewhere\n"
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    def test_low_sample_rate_keeps_the_fundamental(self, tmp_path, capsys):
        # At 400 Hz every tone-complex fundamental (90-280 Hz) lies above 0.45 x rate.
        out = tmp_path / "low"
        text = TINY_MODEL.format(steps=5).replace("sample_rate = 16000", "sample_rate = 400")
        config = write_config(tmp_path, text + SIMULATE.format(count=6, holdout=0, seed=3, out=out))
        assert cli.main(["simulate", "--config", config]) == 0
        assert capsys.readouterr().err == ""
        entries = dt.load_manifest(out / "manifest.tsv", sample_rate=400)
        assert len(entries) == 6 and all(np.any(e.clean.samples) for e in entries)


class TestTrain:
    def test_smoke_and_checkpoints(self, tmp_path, capsys):
        data_dir = simulate_dataset(tmp_path, count=4, seed=15)
        run_dir = tmp_path / "run"
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=12)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
        )
        assert cli.main(["train", "--config", config]) == 0
        captured = capsys.readouterr()
        assert "final total loss" in captured.out
        assert (run_dir / "final.ckpt").exists()
        assert (run_dir / "best.ckpt").exists()
        log_lines = (run_dir / "train_log.txt").read_text().splitlines()
        assert len(log_lines) == 12
        assert log_lines[0].startswith("step=1 td_mse=")

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator settings are glibc-only")
    def test_repeated_train_reuses_freed_pages(self, tmp_path, capsys):
        # The perfbench train-small model: backward frees each step's graph,
        # and main keeps the freed pages, so a second command faults almost none.
        data_dir = tmp_path / "data"
        small = (
            "[model]\nbottleneck_channels = 32\nconv_channels = 64\nblocks_per_repeat = 4\n"
            "repeats = 1\nn_classes = 20\n[quantizer]\nn_classes = 20\n"
            "[training]\nbatch_size = 8\ncrop_seconds = 0.5\nmax_steps = 10\nval_every = 5\n"
            f"[simulate]\ncount = 16\nduration_seconds = 0.5\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n"
        )
        config = write_config(tmp_path, small)
        assert cli.main(["simulate", "--config", config, "--out", str(data_dir)]) == 0
        assert cli.main(["train", "--config", config, "--out", str(tmp_path / "first")]) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(["train", "--config", config, "--out", str(tmp_path / "second")]) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        capsys.readouterr()
        assert faults < 1000, faults

    def test_resume_is_bitwise_identical(self, tmp_path, capsys):
        data_dir = simulate_dataset(tmp_path, count=4, seed=17)
        manifest = data_dir / "manifest.tsv"

        full_dir = tmp_path / "full"
        config_full = write_config(
            tmp_path,
            TINY_MODEL.format(steps=14)
            + f"\n[data]\nmanifest = {manifest}\n[output]\ndir = {full_dir}\n",
            name="full.ini",
        )
        assert cli.main(["train", "--config", config_full]) == 0

        half_dir = tmp_path / "half"
        config_half = write_config(
            tmp_path,
            TINY_MODEL.format(steps=7)
            + f"\n[data]\nmanifest = {manifest}\n[output]\ndir = {half_dir}\n",
            name="half.ini",
        )
        assert cli.main(["train", "--config", config_half]) == 0

        resumed_dir = tmp_path / "resumed"
        config_resume = write_config(
            tmp_path,
            TINY_MODEL.format(steps=14)
            + f"\n[data]\nmanifest = {manifest}\n[output]\ndir = {resumed_dir}\n",
            name="resume.ini",
        )
        assert (
            cli.main(
                [
                    "train",
                    "--config",
                    config_resume,
                    "--checkpoint",
                    str(half_dir / "final.ckpt"),
                ]
            )
            == 0
        )
        capsys.readouterr()

        from speechq.diffcore import load_checkpoint

        full_params, _ = load_checkpoint(full_dir / "final.ckpt")
        resumed_params, _ = load_checkpoint(resumed_dir / "final.ckpt")
        assert full_params.keys() == resumed_params.keys()
        for name in full_params:
            np.testing.assert_array_equal(full_params[name], resumed_params[name])

    def test_fresh_run_into_a_used_directory_exits_2_before_writing(self, tmp_path, capsys):
        data_dir = simulate_dataset(tmp_path, count=4, seed=15)
        run_dir = tmp_path / "run"
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=4)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
        )
        assert cli.main(["train", "--config", config]) == 0
        capsys.readouterr()
        before = {name: file_digest(run_dir / name) for name in sorted(os.listdir(run_dir))}
        assert cli.main(["train", "--config", config]) == 2
        assert capsys.readouterr() == (
            "",
            f"data error: {run_dir} holds a checkpoint; resume it with --checkpoint or train elsewhere\n",
        )
        assert {name: file_digest(run_dir / name) for name in sorted(os.listdir(run_dir))} == before
        (run_dir / "final.ckpt").unlink()  # best.ckpt alone marks the directory as used too
        assert cli.main(["train", "--config", config]) == 2

    def test_resume_into_another_runs_directory_exits_2_before_writing(self, tmp_path, capsys):
        # Resuming run A into run B's directory would append A's steps to B's log
        # and leave B's best.ckpt next to a final.ckpt of A's.
        data_dir = simulate_dataset(tmp_path, count=4, seed=15)
        manifest = f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n"
        config_a = write_config(tmp_path, TINY_MODEL.format(steps=4) + manifest, name="a.ini")
        config_b = write_config(
            tmp_path, TINY_MODEL.format(steps=6).replace("seed = 3", "seed = 4") + manifest, name="b.ini"
        )
        a_dir, b_dir = tmp_path / "A", tmp_path / "B"
        assert cli.main(["train", "--config", config_a, "--out", str(a_dir)]) == 0
        assert cli.main(["train", "--config", config_b, "--out", str(b_dir)]) == 0
        capsys.readouterr()
        before = {name: file_digest(b_dir / name) for name in sorted(os.listdir(b_dir))}
        resume = ["train", "--config", config_b, "--checkpoint", str(a_dir / "final.ckpt"), "--out", str(b_dir)]
        assert cli.main(resume) == 2
        assert capsys.readouterr() == (
            "",
            f"data error: {b_dir} holds a checkpoint; resume it with --checkpoint or train elsewhere\n",
        )
        assert {name: file_digest(b_dir / name) for name in sorted(os.listdir(b_dir))} == before

    def test_fresh_run_starts_a_new_log(self, tmp_path, capsys):
        # A run killed before its first validation leaves a log and no checkpoint.
        data_dir = simulate_dataset(tmp_path, count=4, seed=15)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "train_log.txt").write_text("step=1 td_mse=1.0 emd2=1.0 total=2.0 time=t\nstep=2 td_")
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=4)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
        )
        assert cli.main(["train", "--config", config]) == 0
        log_lines = (run_dir / "train_log.txt").read_text().splitlines()
        assert [line.split()[0] for line in log_lines] == ["step=1", "step=2", "step=3", "step=4"]
        assert "td_mse=1.000000" not in log_lines[0]

    def test_soft_labels_with_zero_pad_rejected_before_side_effects(self, tmp_path, capsys):
        run_dir = tmp_path / "never_created"
        config = write_config(
            tmp_path,
            f"""
[model]
bottleneck_channels = 8
conv_channels = 16
blocks_per_repeat = 2
repeats = 1

[quantizer]
n_classes = 10
pad = 0

[training]
max_steps = 5
label_kind = soft

[output]
dir = {run_dir}
""",
            name="bad.ini",
        )
        assert cli.main(["train", "--config", config]) == 1
        captured = capsys.readouterr()
        # The padding follows label_kind; pad is not a key.
        assert captured.err == (
            f"configuration error: {config}: invalid configuration: unknown key 'pad' in section [quantizer]\n"
        )
        assert not run_dir.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path, TINY_MODEL.format(steps=5) + "\n[training]\nbogus_key = 1\n", name="dup.ini"
        )
        assert cli.main(["train", "--config", config]) == 1
        capsys.readouterr()

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=5)
            + f"\n[data]\nmanifest = {tmp_path / 'missing.tsv'}\n[output]\ndir = {tmp_path / 'r'}\n",
        )
        assert cli.main(["train", "--config", config]) == 2
        capsys.readouterr()

    def test_soft_label_training_smoke(self, tmp_path, capsys):
        data_dir = simulate_dataset(tmp_path, count=4, seed=25)
        run_dir = tmp_path / "soft_run"
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=6)
            .replace("label_kind = one-hot", "label_kind = soft")
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
            name="soft.ini",
        )
        assert cli.main(["train", "--config", config]) == 0
        capsys.readouterr()
        from speechq.train import load_run_checkpoint

        cfg, quant, _params, _opt, _step = load_run_checkpoint(run_dir / "final.ckpt")
        assert quant.pad == 2
        assert cfg.n_classes == 14  # 10 classes + 2 pads per side

    def test_divergence_reports_numerical_failure(self, tmp_path, capsys):
        data_dir = simulate_dataset(tmp_path, count=2, seed=23)
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=30).replace("lr = 2e-3", "lr = 1e12")
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'div'}\n",
            name="diverge.ini",
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli.main(["train", "--config", config]) == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ck")
    data_dir = simulate_dataset(tmp_path, count=4, seed=19)
    run_dir = tmp_path / "run"
    config = write_config(
        tmp_path,
        TINY_MODEL.format(steps=8)
        + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
    )
    assert cli.main(["train", "--config", config]) == 0
    return run_dir / "final.ckpt", data_dir


class TestPredict:
    def test_scores_per_file(self, trained_checkpoint, tmp_path, capsys):
        ckpt, data_dir = trained_checkpoint
        wav = next((data_dir / "wavs").glob("*degraded.wav"))
        assert cli.main(["predict", "--checkpoint", str(ckpt), str(wav), str(wav)]) == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(out_lines) == 2
        first = out_lines[0].split("\t")
        assert first[0] == str(wav)
        assert -0.5 <= float(first[1]) <= 4.5  # expectation decode
        assert -0.5 <= float(first[2]) <= 4.5  # max decode
        assert out_lines[0] == out_lines[1]  # same file, same scores

    def test_fresh_head_scores_two(self, tmp_path, capsys):
        # zero-initialized quality head decodes to the range center
        from speechq.labels import QuantizerConfig
        from speechq.model import ModelConfig, init_params

        cfg = ModelConfig(
            bottleneck_channels=8, conv_channels=16, blocks_per_repeat=2, repeats=1, n_classes=10
        )
        params = init_params(cfg, seed=21)
        ckpt = tmp_path / "fresh.ckpt"
        tr.save_run_checkpoint(ckpt, cfg, QuantizerConfig(10), params)
        wav_path = tmp_path / "tone.wav"
        from speechq.signal import save_wav

        save_wav(wav_path, dt.synth_clean("tone-complex", 0.5, seed=1))
        assert cli.main(["predict", "--checkpoint", str(ckpt), str(wav_path)]) == 0
        line = capsys.readouterr().out.strip().split("\t")
        assert float(line[1]) == pytest.approx(2.0, abs=1e-9)

    def test_distribution_flag(self, trained_checkpoint, capsys):
        ckpt, data_dir = trained_checkpoint
        wav = next((data_dir / "wavs").glob("*degraded.wav"))
        assert cli.main(["predict", "--checkpoint", str(ckpt), "--dist", str(wav)]) == 0
        line = capsys.readouterr().out.strip().split("\t")
        probs = np.array([float(p) for p in line[3].split(",")])
        assert probs.size == 10
        assert abs(probs.sum() - 1.0) < 1e-5
        # The expectation score comes first, then the argmax score.
        cfg, quant, params, _, _ = tr.load_run_checkpoint(ckpt)
        dist = mdl.forward(load_wav(wav), cfg, params)
        assert line[1:3] == [f"{lb.decode_expect(dist, quant):.6f}", f"{lb.decode_max(dist, quant):.6f}"]

    def test_stereo_wav_warns_in_one_line(self, trained_checkpoint, tmp_path, capsys):
        from scipy.io import wavfile

        ckpt, _ = trained_checkpoint
        stereo = tmp_path / "stereo.wav"
        samples = 0.3 * np.sin(np.arange(8000) * 0.05)
        wavfile.write(stereo, 16000, np.stack([samples, -samples], axis=1).astype(np.float32))
        assert cli.main(["predict", "--checkpoint", str(ckpt), str(stereo)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: {stereo}: 2 channels, keeping the first\n"
        assert len(captured.out.splitlines()) == 1

    @pytest.mark.parametrize(
        "older_keys",
        [{"norm": "batch"}, {"kernel_size": 3}, {"norm": "batch", "kernel_size": 3}],
        ids=["norm", "kernel_size", "both"],
    )
    def test_header_with_batch_norm_key_gives_the_same_results(self, trained_checkpoint, tmp_path, capsys, older_keys):
        # Checkpoints written while the normalization or the kernel size was a
        # [model] setting carry "norm": "batch" or "kernel_size": 3 in their header.
        from speechq import diffcore as dc

        ckpt, data_dir = trained_checkpoint
        arrays, header = dc.load_checkpoint(ckpt)
        assert not older_keys.keys() & header["model"].keys()
        header["model"].update(older_keys)
        older = tmp_path / "older.ckpt"
        dc.save_checkpoint(older, arrays, header)
        cfg, quant, params, opt_arrays, step = tr.load_run_checkpoint(ckpt)
        old_cfg, old_quant, old_params, old_opt_arrays, old_step = tr.load_run_checkpoint(older)
        assert (old_cfg, old_quant, old_step) == (cfg, quant, step)
        for name, t in params.items():
            assert old_params[name].values.tobytes() == t.values.tobytes(), name
        assert old_opt_arrays.keys() == opt_arrays.keys()

        wavs = sorted(str(p) for p in (data_dir / "wavs").glob("*degraded.wav"))
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=10) + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n",
        )
        run_dir = tmp_path / "resumed"
        outputs = {}
        for name, path in (("new", ckpt), ("old", older)):
            assert cli.main(["predict", "--checkpoint", str(path), "--dist", *wavs]) == 0
            assert cli.main(["eval", "--checkpoint", str(path), "--manifest", str(data_dir / "manifest.tsv")]) == 0
            assert cli.main(["train", "--config", config, "--out", str(run_dir), "--checkpoint", str(path)]) == 0
            outputs[name] = (capsys.readouterr(), file_digest(run_dir / "final.ckpt"))
            shutil.rmtree(run_dir)
        assert outputs["old"] == outputs["new"]
        assert outputs["old"][0].err == ""

    def test_rate_mismatch_is_data_error(self, trained_checkpoint, tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        from speechq.signal import Waveform, save_wav

        bad = tmp_path / "8k.wav"
        save_wav(bad, Waveform(np.sin(np.arange(4000) * 0.3) * 0.5, 8000))
        assert cli.main(["predict", "--checkpoint", str(ckpt), str(bad)]) == 2
        assert "sample rate" in capsys.readouterr().err


class TestEval:
    def test_reports_both_decoders(self, trained_checkpoint, capsys):
        ckpt, data_dir = trained_checkpoint
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(data_dir / "manifest.tsv")])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[0].startswith("decoder=expect ")
        assert lines[1].startswith("decoder=max ")
        for line in lines:
            for key in ("mse=", "lcc=", "srcc=", "n=4"):
                assert key in line

    def test_single_entry_reports_undefined_correlations(self, trained_checkpoint, tmp_path, capsys):
        ckpt, data_dir = trained_checkpoint
        manifest = (data_dir / "manifest.tsv").read_text().splitlines()
        single = tmp_path / "one.tsv"
        single.write_text(manifest[0] + "\n" + manifest[1] + "\n")
        # paths in the manifest are relative to its directory
        import shutil

        shutil.copytree(data_dir / "wavs", tmp_path / "wavs")
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(single)]) == 0
        out = capsys.readouterr().out
        assert "lcc=undefined" in out and "srcc=undefined" in out and "n=1" in out

    def test_empty_manifest_warns_in_one_line(self, trained_checkpoint, tmp_path, capsys):
        ckpt, _ = trained_checkpoint
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(empty)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"data error: {empty}: manifest has no records"]


class TestBadInputs:
    """Bad files map to exit code 2 with one stderr line and no traceback."""

    @pytest.fixture
    def fresh_checkpoint(self, tmp_path):
        from speechq.labels import QuantizerConfig
        from speechq.model import ModelConfig, init_params

        cfg = ModelConfig(
            bottleneck_channels=8, conv_channels=16, blocks_per_repeat=2, repeats=1, n_classes=10
        )
        ckpt = tmp_path / "fresh.ckpt"
        tr.save_run_checkpoint(ckpt, cfg, QuantizerConfig(10), init_params(cfg, seed=2))
        return ckpt

    @pytest.fixture
    def wav(self, tmp_path):
        from speechq.signal import save_wav

        path = tmp_path / "tone.wav"
        save_wav(path, dt.synth_clean("tone-complex", 0.5, seed=1))
        return path

    @staticmethod
    def assert_data_error(argv, capsys, expected):
        assert cli.main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data error: ") and expected in err
        assert "Traceback" not in err

    def test_short_wav_predict(self, fresh_checkpoint, tmp_path, capsys):
        from speechq.signal import Waveform, save_wav

        short = tmp_path / "short.wav"
        save_wav(short, Waveform(np.full(100, 0.1), 16000))
        self.assert_data_error(
            ["predict", "--checkpoint", fresh_checkpoint, short], capsys, "shorter than one window"
        )

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_out_of_memory_exits_2_in_one_line(self, fresh_checkpoint, wav, tmp_path, capsys, monkeypatch, command):
        # A stand-in for an input too long to score; nothing is allocated.
        def scoring_too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.29 GiB for an array with shape (1, 257, 1200001)")

        monkeypatch.setattr(mdl, "forward", scoring_too_large)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"degraded_path\tlabel\n{wav}\t2.0\n")
        argv = {"predict": [wav], "eval": ["--manifest", manifest]}[command]
        self.assert_data_error(
            [command, "--checkpoint", fresh_checkpoint, *argv],
            capsys,
            "data error: out of memory: Unable to allocate 2.29 GiB",
        )

    def test_short_wav_eval(self, fresh_checkpoint, tmp_path, capsys):
        from speechq.signal import Waveform, save_wav

        save_wav(tmp_path / "short.wav", Waveform(np.full(100, 0.1), 16000))
        manifest = tmp_path / "short.tsv"
        manifest.write_text("degraded_path\tlabel\nshort.wav\t2.0\n")
        self.assert_data_error(
            ["eval", "--checkpoint", fresh_checkpoint, "--manifest", manifest],
            capsys,
            f"{manifest}: invalid manifest: line 2: degraded audio of 100 samples is shorter than one analysis window",
        )

    def test_short_wav_train(self, tmp_path, capsys):
        from speechq.signal import Waveform, save_wav

        save_wav(tmp_path / "short.wav", Waveform(np.full(100, 0.1), 16000))
        manifest = tmp_path / "short.tsv"
        manifest.write_text("degraded_path\tlabel\nshort.wav\t2.0\n")
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=2) + f"\n[data]\nmanifest = {manifest}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        self.assert_data_error(["train", "--config", config], capsys, "shorter than one analysis window")

    def test_short_clean_reference_exits_2_before_any_output(self, tmp_path, capsys):
        from speechq.signal import Waveform, save_wav

        save_wav(tmp_path / "deg.wav", dt.synth_clean("chirp", 0.5, seed=1))
        save_wav(tmp_path / "cln.wav", Waveform(dt.synth_clean("chirp", 0.5, seed=1).samples[:6000], 16000))
        manifest = tmp_path / "m.tsv"
        manifest.write_text("degraded_path\tclean_path\tlabel\ndeg.wav\tcln.wav\t2.0\n")
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=2) + f"\n[data]\nmanifest = {manifest}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        assert cli.main(["train", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"data error: {manifest}: invalid manifest: line 2: clean reference has 6000 samples,"
            " fewer than the degraded 8000\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("fault", ["short-entry", "no-records"])
    def test_bad_val_manifest_exits_2_before_any_output(self, tmp_path, capsys, fault):
        from speechq.signal import Waveform, save_wav

        data_dir = simulate_dataset(tmp_path, count=2, seed=31)
        val = tmp_path / "val.tsv"
        if fault == "short-entry":
            save_wav(tmp_path / "short.wav", Waveform(np.full(300, 0.1), 16000))
            val.write_text("degraded_path\tlabel\nshort.wav\t2.0\n")
            expected = (
                f"{val}: invalid manifest: line 2: degraded audio of 300 samples is shorter than one analysis"
                " window (512)"
            )
        else:
            val.write_text("degraded_path\tlabel\n")
            expected = f"{val}: manifest has no records"
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=3).replace("seed = 3\n", "seed = 3\nval_every = 1\n")
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\nval_manifest = {val}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        capsys.readouterr()
        assert cli.main(["train", "--config", config]) == 2
        assert capsys.readouterr() == ("", f"data error: {expected}\n")
        assert not (tmp_path / "run").exists()

    def test_failed_checkpoint_write_names_its_path(self, tmp_path, capsys, monkeypatch):
        from speechq import diffcore as dc

        def too_large(fh, blob, arrays):
            fh.write(blob)
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        data_dir = simulate_dataset(tmp_path, count=2, seed=31)
        run_dir = tmp_path / "run"
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=2)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
        )
        capsys.readouterr()
        monkeypatch.setattr(dc, "_write_checkpoint", too_large)
        expected = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{run_dir / 'best.ckpt'}'"
        self.assert_data_error(["train", "--config", config], capsys, expected)
        assert os.listdir(run_dir) == ["train_log.txt"]

    def test_binary_manifest(self, fresh_checkpoint, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(bytes(range(256)))
        self.assert_data_error(
            ["eval", "--checkpoint", fresh_checkpoint, "--manifest", manifest],
            capsys,
            f"{manifest}: not a UTF-8 text manifest",
        )

    def test_simulate_out_below_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "x.ini"
        blocker.write_text("")
        config = write_config(
            tmp_path, TINY_MODEL.format(steps=2) + SIMULATE.format(count=2, holdout=0, seed=1, out=tmp_path / "out")
        )
        self.assert_data_error(["simulate", "--config", config, "--out", blocker / "sub"], capsys, "Not a directory")
        assert blocker.read_text() == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", ["truncate", "nan"])
    def test_wav_changed_after_load_exits_2(self, tmp_path, capsys, monkeypatch, edit):
        from scipy.io import wavfile

        data_dir = simulate_dataset(tmp_path, count=2, seed=29)
        wavs = sorted((data_dir / "wavs").glob("*_degraded.wav"))
        load_manifest = dt.load_manifest

        def load_then_edit(*args, **kwargs):
            entries = load_manifest(*args, **kwargs)
            for path in wavs:
                if edit == "truncate":
                    path.write_bytes(path.read_bytes()[:-400])
                else:
                    rate, samples = wavfile.read(path)
                    samples[100] = np.nan
                    wavfile.write(path, rate, samples)
            return entries

        monkeypatch.setattr(dt, "load_manifest", load_then_edit)
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=3)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        expected = "changed since it was loaded" if edit == "truncate" else "non-finite samples in frames 0:8000"
        self.assert_data_error(["train", "--config", config], capsys, expected)

    @pytest.mark.parametrize("keep", [0.3, 0.999])
    def test_truncated_checkpoint(self, fresh_checkpoint, wav, tmp_path, capsys, keep):
        full = fresh_checkpoint.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(full[: int(len(full) * keep)])
        self.assert_data_error(["predict", "--checkpoint", cut, wav], capsys, "truncated checkpoint")

    def test_wav_as_checkpoint(self, wav, capsys):
        self.assert_data_error(["predict", "--checkpoint", wav, wav], capsys, "not a checkpoint file")

    def test_directory_as_checkpoint(self, wav, tmp_path, capsys):
        self.assert_data_error(["predict", "--checkpoint", tmp_path, wav], capsys, "is a directory")

    def test_header_with_more_tensors_than_the_file_holds(self, fresh_checkpoint, wav, tmp_path, capsys):
        # Only as much of the header model's layout is built as the file could
        # match; the whole of it would not fit in memory here.
        from speechq import diffcore as dc

        arrays, header = dc.load_checkpoint(fresh_checkpoint)
        header["model"]["repeats"] = 100_000_000
        huge = tmp_path / "huge.ckpt"
        dc.save_checkpoint(huge, arrays, header)
        self.assert_data_error(
            ["predict", "--checkpoint", huge, wav],
            capsys,
            "missing block1.0.pw1.w; missing block1.0.pw1.b; missing block1.0.act1.slope; ...",
        )

    @pytest.mark.parametrize(
        "header, expected",
        [
            ({"step": 3}, "has no model, quantizer"),
            ({"model": {}, "quantizer": {"n_classes": 10}}, "has no step"),
            ({"model": {"conv_channels": 0}, "quantizer": {"n_classes": 10}, "step": 0}, "model conv_channels must be a positive integer, got 0"),
            ({"model": {"colour": 1}, "quantizer": {"n_classes": 10}, "step": 0}, "unexpected keyword"),
            ({"model": {"stft": 1}, "quantizer": {"n_classes": 10}, "step": 0}, "invalid run settings"),
            ({"model": {}, "quantizer": {"n_classes": 0}, "step": 0}, "quantizer n_classes must be a positive integer, got 0"),
            ({"model": {}, "quantizer": {"n_classes": 10}, "step": "last"}, "step must be a non-negative integer"),
            ({"model": {}, "quantizer": {"n_classes": 10}, "step": float("inf")}, "got inf"),
            ({"model": {}, "quantizer": {"n_classes": 10}, "step": -4}, "got -4"),
            (
                {"model": {"blocks_per_repeat": 2.0}, "quantizer": {"n_classes": 10}, "step": 0},
                "model blocks_per_repeat must be a positive integer, got 2.0",
            ),
            ({"model": {"repeats": True}, "quantizer": {"n_classes": 10}, "step": 0}, "model repeats must be a positive integer, got True"),
            (
                {"model": {"n_classes": 10}, "quantizer": {"n_classes": 9}, "step": 0},
                "quantizer has 9 classes but the model has 10",
            ),
            ({"model": {}, "quantizer": {"n_classes": 100}, "step": 0}, "arrays do not match the model: missing entry.w"),
            (
                {"model": {"n_classes": 15}, "quantizer": {"n_classes": 10, "pad": 2.5}, "step": 0},
                "quantizer pad must be 0 or 2, got 2.5",
            ),
            ({"model": {"n_classes": 1}, "quantizer": {"n_classes": True}, "step": 0}, "quantizer n_classes must be a positive integer, got True"),
            (
                {"model": {"norm": "global_layer"}, "quantizer": {"n_classes": 100}, "step": 0},
                "norm 'global_layer' is not supported, only 'batch'",
            ),
            (
                {"model": {"kernel_size": 5}, "quantizer": {"n_classes": 100}, "step": 0},
                "kernel_size 5 is not supported, only 3",
            ),
            (
                {
                    "model": {"repeats": 0, "conv_channels": 0, "dtype": "float16"},
                    "quantizer": {"n_classes": 100},
                    "step": 0,
                },
                "model conv_channels must be a positive integer, got 0 | model repeats must be a positive integer, got 0"
                " | model dtype must be float32 or float64, got 'float16'",
            ),
            (
                {"model": {"sample_rate": 10**13}, "quantizer": {"n_classes": 100}, "step": 0},
                "sample rate 10000000000000 Hz is above the maximum of 384000 Hz",
            ),
            (
                {"model": {}, "quantizer": {"n_classes": 100}, "step": 0, "best_total": "0.5"},
                "best_total must be a finite number, got '0.5'",
            ),
            (
                {"model": {}, "quantizer": {"n_classes": 100}, "step": 0, "best_total": float("nan")},
                "best_total must be a finite number, got nan",
            ),
        ],
        ids=[
            "no-model",
            "no-step",
            "bad-model-value",
            "unknown-model-key",
            "bad-stft",
            "bad-quantizer",
            "bad-step",
            "infinite-step",
            "negative-step",
            "float-model-size",
            "bool-model-size",
            "class-count-mismatch",
            "foreign-arrays",
            "float-quantizer-pad",
            "bool-quantizer-classes",
            "global-layer-norm",
            "wider-kernel",
            "several-bad-model-fields",
            "huge-sample-rate",
            "text-best-total",
            "nan-best-total",
        ],
    )
    def test_checkpoint_without_valid_run_settings(self, wav, tmp_path, capsys, header, expected):
        from speechq import diffcore as dc

        ckpt = tmp_path / "foreign.ckpt"
        dc.save_checkpoint(ckpt, {"w": np.zeros(3, dtype=np.float32)}, header)
        self.assert_data_error(["predict", "--checkpoint", ckpt, wav], capsys, expected)


    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda arrays: arrays.pop("block0.1.dw.kernel"), "missing block0.1.dw.kernel"),
            (
                lambda arrays: arrays.update({"quality.w": np.zeros((10, 9), np.float32)}),
                "quality.w has shape (10, 9), expected (10, 8)",
            ),
            (
                lambda arrays: arrays.update({"entry.w": arrays["entry.w"].astype(np.float64)}),
                "entry.w has dtype float64, expected float32",
            ),
        ],
        ids=["missing-array", "wrong-shape", "wrong-dtype"],
    )
    def test_checkpoint_arrays_not_matching_model(self, fresh_checkpoint, wav, tmp_path, capsys, edit, expected):
        from speechq import diffcore as dc

        arrays, header = dc.load_checkpoint(fresh_checkpoint)
        edit(arrays)
        ckpt = tmp_path / "edited.ckpt"
        dc.save_checkpoint(ckpt, arrays, header)
        self.assert_data_error(["predict", "--checkpoint", ckpt, wav], capsys, expected)


    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda arrays: arrays.pop("opt.v.entry.w"), "missing opt.v.entry.w"),
            (
                lambda arrays: arrays.update({"opt.m.entry.w": np.zeros((3, 3), np.float32)}),
                "opt.m.entry.w has shape (3, 3), expected (8, ",
            ),
            (
                lambda arrays: arrays.update({"opt.m.entry.w": arrays["opt.m.entry.w"].astype(np.float64)}),
                "opt.m.entry.w has dtype float64, expected float32",
            ),
            (lambda arrays: arrays.update({"opt.m.bogus": np.zeros(3, np.float32)}), "unexpected opt.m.bogus"),
        ],
        ids=["missing-moment", "wrong-shape-moment", "wrong-dtype-moment", "unknown-moment"],
    )
    def test_optimizer_state_not_matching_model(
        self, trained_checkpoint, wav, tmp_path, capsys, command, edit, expected
    ):
        from speechq import diffcore as dc

        ckpt, data_dir = trained_checkpoint
        arrays, header = dc.load_checkpoint(ckpt)
        edit(arrays)
        edited = tmp_path / "edited.ckpt"
        dc.save_checkpoint(edited, arrays, header)
        if command == "predict":
            argv = ["predict", "--checkpoint", edited, wav]
        else:
            config = write_config(
                tmp_path,
                TINY_MODEL.format(steps=10)
                + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'run'}\n",
            )
            argv = ["train", "--config", config, "--checkpoint", edited]
        self.assert_data_error(argv, capsys, expected)
        assert not (tmp_path / "run" / "final.ckpt").exists()

    def test_resume_under_another_configuration(self, trained_checkpoint, tmp_path, capsys):
        ckpt, data_dir = trained_checkpoint
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=10).replace("conv_channels = 16", "conv_channels = 32")
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        self.assert_data_error(
            ["train", "--config", config, "--checkpoint", ckpt],
            capsys,
            "[model] conv_channels is 16 in the checkpoint but 32 in the configuration",
        )

    @pytest.mark.parametrize("steps", [8, 5], ids=["equal", "past"])
    def test_resume_at_or_past_max_steps(self, trained_checkpoint, tmp_path, capsys, steps):
        # The checkpoint is at step 8; there is no step left to train.
        ckpt, data_dir = trained_checkpoint
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=steps)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        self.assert_data_error(
            ["train", "--config", config, "--checkpoint", ckpt],
            capsys,
            f"checkpoint is at step 8, not before [training] max_steps {steps}",
        )
        assert not (tmp_path / "run").exists()

    def test_resume_under_another_label_kind(self, trained_checkpoint, tmp_path, capsys):
        # Soft labels add two padding classes, so the model's class count differs too.
        ckpt, data_dir = trained_checkpoint
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=10).replace("label_kind = one-hot", "label_kind = soft")
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'run'}\n",
        )
        self.assert_data_error(
            ["train", "--config", config, "--checkpoint", ckpt],
            capsys,
            "[training] label_kind is 'one-hot' in the checkpoint but 'soft' in the configuration",
        )
        assert not (tmp_path / "run" / "final.ckpt").exists()

    def test_resume_of_an_infinite_best_total_exits_2_before_writing(self, trained_checkpoint, tmp_path, capsys):
        # A best of -inf would never be beaten, so best.ckpt would never be rewritten.
        from speechq import diffcore as dc

        ckpt, data_dir = trained_checkpoint
        run_dir = tmp_path / "run"
        shutil.copytree(ckpt.parent, run_dir)
        arrays, header = dc.load_checkpoint(run_dir / "final.ckpt")
        dc.save_checkpoint(run_dir / "final.ckpt", arrays, {**header, "best_total": float("-inf")})
        with open(run_dir / "final.ckpt", "rb") as fh:
            assert b'"best_total": -Infinity' in fh.read(4096)
        config = write_config(
            tmp_path,
            TINY_MODEL.format(steps=10)
            + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {run_dir}\n",
        )
        before = {name: file_digest(run_dir / name) for name in sorted(os.listdir(run_dir))}
        self.assert_data_error(
            ["train", "--config", config, "--checkpoint", run_dir / "final.ckpt"],
            capsys,
            "best_total must be a finite number, got -inf",
        )
        assert {name: file_digest(run_dir / name) for name in sorted(os.listdir(run_dir))} == before

    @pytest.mark.parametrize(
        "samples, rate, expected",
        [
            (np.array([0.1, np.nan]), 16000, "waveform contains non-finite samples"),
            (np.array([np.inf, 0.1]), 16000, "waveform contains non-finite samples"),
            (np.zeros(2), 0, "sample rate must be positive"),
        ],
        ids=["nan", "inf", "zero-rate"],
    )
    def test_wav_that_is_no_waveform(self, fresh_checkpoint, tmp_path, capsys, samples, rate, expected):
        from scipy.io import wavfile

        path = tmp_path / "odd.wav"
        wavfile.write(path, rate, np.tile(samples, 400).astype(np.float32))
        self.assert_data_error(["predict", "--checkpoint", fresh_checkpoint, path], capsys, f"{path}: {expected}")


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A fresh tiny checkpoint and one 0.1 s WAV per encoding for the header fuzz."""
    from scipy.io import wavfile

    from speechq.labels import QuantizerConfig
    from speechq.model import ModelConfig, init_params
    from speechq.signal import Waveform, save_wav

    tmp_path = tmp_path_factory.mktemp("fuzz")
    cfg = ModelConfig(bottleneck_channels=8, conv_channels=16, blocks_per_repeat=2, repeats=1, n_classes=10)
    ckpt = tmp_path / "fresh.ckpt"
    tr.save_run_checkpoint(ckpt, cfg, QuantizerConfig(10), init_params(cfg, seed=2))
    wave = Waveform(0.3 * np.sin(np.arange(1600) * 0.05), 16000)
    save_wav(tmp_path / "base.wav", wave)
    bases = [(tmp_path / "base.wav").read_bytes()]
    wavfile.write(tmp_path / "base.wav", 16000, np.round(wave.samples * 32768).astype(np.int16))
    bases.append((tmp_path / "base.wav").read_bytes())
    return ckpt, bases, tmp_path / "fuzz.wav"


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_predict_on_mutated_wav_headers(fuzz_inputs, data):
    """A damaged header scores the file (exit 0) or ends in one data error line (exit 2)."""
    ckpt, bases, path = fuzz_inputs
    blob = bytearray(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, 59))] = data.draw(st.integers(0, 255))
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob)))] if data.draw(st.booleans()) else blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["predict", "--checkpoint", str(ckpt), str(path)])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and len(out.getvalue().splitlines()) == 1
    else:
        assert code == 2
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("data error: ")


# The CI train-small run with a manifest that does not exist, so no mutation
# of it can start training.
FUZZ_CONFIG = """\
[model]
bottleneck_channels = 32
conv_channels = 64
blocks_per_repeat = 4
repeats = 1
n_classes = 20
[quantizer]
n_classes = 20
[training]
batch_size = 8
crop_seconds = 0.5
max_steps = 20
seed = 1
[simulate]
count = 64
duration_seconds = 0.5
seed = 1
[data]
manifest = missing.tsv
[output]
dir = run
"""
FUZZ_TOKENS = ("%", "%(x)s", "=", "[", "]", "#", "-1", "nan", "1e400", "9" * 25, "1" * 5000, "\n")


def mutate_text(text, tokens, data):
    """``text`` with one to four insertions of a token or deletions of up to eight characters."""
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:at] + data.draw(st.sampled_from(tokens)) + text[at:]
        else:
            text = text[:at] + text[at + data.draw(st.integers(1, 8)) :]
    return text


def main_outcome(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_documented_outcome(code, err):
    """Success (warnings allowed), or one stderr line of the exit code's kind; never a traceback."""
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (code, err)
    lines = err.splitlines()
    if code == 0:
        assert all(line.startswith("warning: ") for line in lines), err
    else:
        prefix = {1: "configuration error: ", 2: "data error: ", 3: "numerical failure: "}[code]
        assert len(lines) == 1 and lines[0].startswith(prefix), err


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_train_on_mutated_config_text(data):
    """A damaged config ends in one configuration error line (exit 1) or, once it
    parses, in the missing manifest's data error line (exit 2), and writes nothing."""
    text = mutate_text(FUZZ_CONFIG, FUZZ_TOKENS, data)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "small.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = main_outcome(["train", "--config", path])
        assert os.listdir(work) == ["small.ini"]
    assert code in (1, 2) and out == "", (code, err)
    assert_documented_outcome(code, err)


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A tiny simulated dataset, a one-step run's final.ckpt (with Adam's moments)
    and one of its WAVs, for the manifest and checkpoint fuzz."""
    tmp_path = tmp_path_factory.mktemp("fuzz_run")
    data_dir = simulate_dataset(tmp_path, count=3, seed=41)
    config = write_config(
        tmp_path,
        TINY_MODEL.format(steps=1)
        + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n[output]\ndir = {tmp_path / 'run'}\n",
    )
    assert main_outcome(["train", "--config", config])[0] == 0
    return tmp_path / "run" / "final.ckpt", data_dir, data_dir / "wavs" / "entry_00000_degraded.wav"


MANIFEST_TOKENS = (
    "\t", ",", "\n", " ", "nan", "inf", "-1", "1e400", "9" * 25, "wavs/", "../", "/", "\x00", "\u00e9",
    "label", "clean_path", "degraded_path",
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_eval_and_train_on_mutated_manifest_text(fuzz_run, data):
    """A damaged manifest is scored or trained on (exit 0), or ends in one error line and writes nothing."""
    ckpt, data_dir, _wav = fuzz_run
    manifest = data_dir / "fuzz.tsv"
    manifest.write_text(mutate_text((data_dir / "manifest.tsv").read_text(), MANIFEST_TOKENS, data), encoding="utf-8")
    command = data.draw(st.sampled_from(["eval", "train"]))
    with tempfile.TemporaryDirectory() as work:
        if command == "eval":
            argv = ["eval", "--checkpoint", ckpt, "--manifest", manifest]
        else:
            text = TINY_MODEL.format(steps=1) + f"\n[data]\nmanifest = {manifest}\n[output]\ndir = {work}/run\n"
            argv = ["train", "--config", write_config(pathlib.Path(work), text)]
        code, _out, err = main_outcome(argv)
        written = os.listdir(work)
    assert_documented_outcome(code, err)
    if code != 0:
        assert written in ([], ["run.ini"]), written


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_predict_on_mutated_checkpoint_bytes(fuzz_run, data):
    """A checkpoint with changed or cut bytes scores the file, or ends in one error line."""
    ckpt, _data_dir, wav = fuzz_run
    blob = bytearray(ckpt.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        # Mostly in the JSON header and the first array records, where a byte changes the layout.
        at = data.draw(st.one_of(st.integers(0, 700), st.integers(0, len(blob) - 1)))
        blob[at] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzz.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        code, out, err = main_outcome(["predict", "--checkpoint", path, wav])
        assert os.listdir(work) == ["fuzz.ckpt"]
    assert_documented_outcome(code, err)
    assert len(out.splitlines()) == (code == 0)


# JSON values for a header entry. Integers stay small, as a model size is a
# loop count, but for one huge value, which must fail before any such loop.
HEADER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.just(10**8),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_predict_on_mutated_checkpoint_header(fuzz_run, data):
    """A header with changed, removed or added values scores the file, or ends in one error line."""
    from speechq import diffcore as dc

    ckpt, _data_dir, wav = fuzz_run
    arrays, header = dc.load_checkpoint(ckpt)
    for _ in range(data.draw(st.integers(1, 3))):
        target = header
        key = data.draw(st.sampled_from(sorted(header) + ["bogus"]))
        if isinstance(header.get(key), dict) and data.draw(st.booleans()):
            target = header[key]
            key = data.draw(st.sampled_from(sorted(target) + ["norm", "bogus"]))
        if data.draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = data.draw(HEADER_VALUES)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzz.ckpt")
        dc.save_checkpoint(path, arrays, header)
        code, out, err = main_outcome(["predict", "--checkpoint", path, wav])
        assert os.listdir(work) == ["fuzz.ckpt"]
    assert_documented_outcome(code, err)
    assert len(out.splitlines()) == (code == 0)


# Runs in a fresh interpreter where every scipy import fails.
SCIPY_BLOCKED_PIPELINE = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


sys.meta_path.insert(0, BlockScipy())
import speechq.cli as cli

print("after import", scipy_modules())
config, out = sys.argv[1:]
ckpt, data = out + "/run/final.ckpt", out + "/data"
codes = [
    cli.main(["simulate", "--config", config, "--out", data]),
    cli.main(["train", "--config", config, "--out", out + "/run"]),
    cli.main(["predict", "--checkpoint", ckpt, data + "/wavs/entry_00000_degraded.wav"]),
    cli.main(["eval", "--checkpoint", ckpt, "--manifest", data + "/manifest.tsv"]),
]
print("exit codes", codes)
print("at exit", scipy_modules())
"""


def test_commands_run_without_scipy(tmp_path):
    config = write_config(
        tmp_path,
        TINY_MODEL.format(steps=2)
        + SIMULATE.format(count=4, holdout=0, seed=3, out=tmp_path / "data")
        + f"\n[data]\nmanifest = {tmp_path / 'data' / 'manifest.tsv'}\n",
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_PIPELINE, config, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "after import []" in proc.stdout
    assert "exit codes [0, 0, 0, 0]" in proc.stdout, proc.stdout + proc.stderr
    assert "at exit []" in proc.stdout


class TestUsageErrors:
    def test_unknown_command_is_config_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["train"]) == 1
        capsys.readouterr()

    def test_nonexistent_config(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path / "nope.ini")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["binary", "directory", "no-section"])
    def test_unreadable_config_is_one_line_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.ini"
        if kind == "binary":
            path.write_bytes(bytes(range(256)))
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_text("lr = 1\n\n[training]\n")
        assert cli.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: cannot ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("train", "training", "crop_seconds", "nan"),
            ("train", "training", "crop_seconds", "inf"),
            ("train", "training", "recon_weight", "nan"),
            ("simulate", "simulate", "duration_seconds", "inf"),
            ("simulate", "simulate", "perturb_prob", "nan"),
        ],
    )
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, command, section, key, value):
        data_dir = simulate_dataset(tmp_path, count=2, seed=19)
        out = tmp_path / "never_created"
        text = TINY_MODEL.format(steps=2) + SIMULATE.format(count=2, holdout=0, seed=1, out=out)
        text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        config = write_config(tmp_path, text + f"\n[data]\nmanifest = {data_dir / 'manifest.tsv'}\n", name="nf.ini")
        capsys.readouterr()
        assert cli.main([command, "--config", config]) == 1
        err = capsys.readouterr().err
        rule = {
            "crop_seconds": "a number in (0, 3600]",
            "recon_weight": "a non-negative number",
            "duration_seconds": "a number in [0.2, 3600]",
            "perturb_prob": "a number in [0, 1]",
        }[key]
        assert err == f"configuration error: {config}: invalid configuration: {section} {key} must be {rule}, got {value}\n"
        assert not out.exists()
