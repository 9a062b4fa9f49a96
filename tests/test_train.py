"""The training objective: the step and validation both assemble it through
losses.joint_loss, and must give what the separate assemblies gave before."""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.io import wavfile

from speechq import data as dt
from speechq import diffcore as dc
from speechq import labels as lb
from speechq import losses
from speechq import model as mdl
from speechq import signal as sig
from speechq import train as tr
from speechq.config import ConfigError, RunConfig, SimulateConfig, TrainingConfig
from speechq.signal import load_wav, save_wav

CLEAN_PATTERNS = {"all": [True, True, True], "none": [False, False, False], "mixed": [True, False, True]}


def tiny_run(recon_weight=1.0, reduction="sum", soft=False):
    pad = 2 if soft else 0
    return RunConfig(
        model=mdl.ModelConfig(
            bottleneck_channels=8, conv_channels=16, blocks_per_repeat=2, repeats=1, n_classes=10 + 2 * pad
        ),
        quantizer=lb.QuantizerConfig(10, pad=pad),
        training=TrainingConfig(
            batch_size=3,
            recon_weight=recon_weight,
            td_mse_reduction=reduction,
        ),
        simulate=SimulateConfig(),
    )


def make_entries(with_clean):
    entries = []
    for i, has_clean in enumerate(with_clean):
        seconds = 0.25 + 0.05 * i  # distinct lengths
        clean = dt.synth_clean(dt.SYNTH_KINDS[i % 3], seconds, seed=i)
        degraded, clean_ref = dt.mix_at_snr(clean, dt.synth_noise(seconds, seed=10 + i), 3.0 + 4.0 * i)
        entries.append(dt.DatasetEntry(degraded, clean_ref if has_clean else None, 1.0 + 0.9 * i))
    return entries


def trained_like(cfg, seed=3):
    """Params with a random quality head and running statistics."""
    params = mdl.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, t in params.items():
        if name.startswith("quality.") or name.endswith(".run_mean"):
            t.values[...] = rng.standard_normal(t.values.shape) * 0.3
        elif name.endswith(".run_var"):
            t.values[...] = rng.uniform(0.5, 2.0, t.values.shape)
    return params


def old_validation_total(run, params, val_entries, quant):
    """In-test copy of the validation formula before it used losses.joint_loss."""
    total = 0.0
    targets = lb.targets([e.label for e in val_entries], quant)
    for entry, row in zip(val_entries, targets):
        out = mdl.forward_graph(
            entry.degraded.samples[None, :], run.model, mdl.freeze(run.model, params), training=False,
            compute_reconstruction=run.training.recon_weight > 0 and entry.clean is not None,
        )
        value = float(losses.emd2(out.distribution, dc.constant(row[None, :])).values)
        if out.reconstruction is not None:
            n_out = out.reconstruction.values.shape[1]
            clean_t = dc.constant(entry.clean.samples[None, :n_out].astype(run.model.np_dtype))
            rec = losses.td_mse(out.reconstruction, clean_t, reduction=run.training.td_mse_reduction)
            value += run.training.recon_weight * float(rec.values)
        total += value
    return total / len(val_entries)


def step_losses(run, params, degraded, clean, has_clean, target_rows, want_recon):
    """The training step's objective call, as (td_mse term, emd2 term, total)."""
    total, recon, emd = tr._objective(
        run, params, degraded, clean if want_recon else None, target_rows, training=True, weights=has_clean
    )
    return recon, emd, total


def old_step_losses(run, params, degraded, clean, has_clean, target_rows, want_recon):
    """In-test copy of the step's loss assembly before it used losses.joint_loss."""
    tcfg = run.training
    out = mdl.forward_graph(degraded, run.model, params, training=True, compute_reconstruction=want_recon)
    emd = losses.emd2(out.distribution, dc.constant(target_rows))
    recon = None
    total = emd
    if want_recon:
        n_out = out.reconstruction.values.shape[1]
        clean_t = dc.constant(clean[:, :n_out].astype(run.model.np_dtype))
        recon = losses.td_mse(out.reconstruction, clean_t, weights=has_clean, reduction=tcfg.td_mse_reduction)
        total = dc.add(dc.scale(recon, tcfg.recon_weight), emd)
    return recon, emd, total


class TestValidationTotal:
    @pytest.mark.parametrize("clean", sorted(CLEAN_PATTERNS))
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    @pytest.mark.parametrize("recon_weight", [0.0, 0.5, 1.0])
    def test_matches_old_formula(self, recon_weight, reduction, clean):
        run = tiny_run(recon_weight, reduction)
        params = trained_like(run.model)
        entries = make_entries(CLEAN_PATTERNS[clean])
        got = tr._validation_total(run, params, entries, run.quantizer, use_recon=recon_weight > 0)
        want = old_validation_total(run, params, entries, run.quantizer)
        if recon_weight in (0.0, 1.0):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-6)

    def test_records_no_graph(self):
        run = tiny_run()
        params = trained_like(run.model)
        before = {name: t.values.copy() for name, t in params.items()}
        tr._validation_total(run, params, make_entries([True, False]), run.quantizer, use_recon=True)
        assert all(t.grad is None for t in params.values())
        for name, t in params.items():
            np.testing.assert_array_equal(t.values, before[name])

    def test_quality_only_run_scores_validation_without_reconstruction(self, tmp_path, monkeypatch):
        # Training entries without clean references train emd2 alone, so the
        # validation entries' clean references must not add the td_mse of mask
        # heads that Adam never updates.
        scores = []

        def spy(*args, **kwargs):
            scores.append(validation_total(*args, **kwargs))
            return scores[-1]

        validation_total = tr._validation_total
        monkeypatch.setattr(tr, "_validation_total", spy)
        run = tiny_run()
        run.training = dataclasses.replace(run.training, crop_seconds=0.2, max_steps=4, val_every=1)
        val = make_entries([True, True, True])
        runs = []
        for name, val_entries in (("clean", val), ("stripped", [dataclasses.replace(e, clean=None) for e in val])):
            scores.clear()
            run.out_dir = str(tmp_path / name)
            result = tr.run_training(run, make_entries([False] * 4), val_entries=val_entries)
            runs.append((list(scores), dc.load_checkpoint(result.best_checkpoint)))
        (got_scores, (arrays, header)), (want_scores, (want_arrays, want_header)) = runs
        assert got_scores == want_scores
        assert header == want_header
        for name in want_arrays:
            np.testing.assert_array_equal(arrays[name], want_arrays[name], err_msg=name)


class TestStepLosses:
    @staticmethod
    def batch(run, with_clean):
        entries = make_entries(with_clean)
        crop = min(len(e.degraded) for e in entries)
        rng = np.random.default_rng(5)
        _idx, degraded, clean, has_clean = tr._batch_crops(entries, crop, rng, len(entries))
        targets = lb.targets([e.label for e in entries], run.quantizer)[_idx]
        return degraded, clean, has_clean, targets

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("want_recon", [False, True])
    @pytest.mark.parametrize("clean", sorted(CLEAN_PATTERNS))
    def test_matches_old_assembly(self, clean, want_recon, soft):
        run = tiny_run(recon_weight=0.7, reduction="mean", soft=soft)
        degraded, clean_rows, has_clean, targets = self.batch(run, CLEAN_PATTERNS[clean])
        results = []
        for losses_of in (step_losses, old_step_losses):
            params = mdl.init_params(run.model, seed=4)
            recon, emd, total = losses_of(run, params, degraded, clean_rows, has_clean, targets, want_recon)
            dc.backward(total)
            results.append((recon, emd, total, params))
        (recon, emd, total, params), (old_recon, old_emd, old_total, old_params) = results
        assert (recon is None) == (old_recon is None) == (not want_recon)
        if recon is not None:
            assert recon.values == old_recon.values
        assert emd.values == old_emd.values and total.values == old_total.values
        for name, t in params.items():
            assert (t.grad is None) == (old_params[name].grad is None), name
            if t.grad is not None:
                np.testing.assert_array_equal(t.grad, old_params[name].grad, err_msg=name)
            np.testing.assert_array_equal(t.values, old_params[name].values, err_msg=name)

    def test_batch_without_clean_rows_gives_mask_heads_zero_gradients(self):
        run = tiny_run()
        degraded, clean_rows, has_clean, targets = self.batch(run, CLEAN_PATTERNS["none"])
        params = mdl.init_params(run.model, seed=4)
        recon, _emd, total = step_losses(run, params, degraded, clean_rows, has_clean, targets, want_recon=True)
        assert float(recon.values) == 0.0
        dc.backward(total)
        for name in ("mask_real.w", "mask_real.b", "mask_imag.w", "mask_imag.b"):
            assert params[name].grad is not None
            assert not np.any(params[name].grad)


class TestStreamedEntries:
    """Entries that read their crops from disk train exactly as in-memory ones."""

    @staticmethod
    def manifest_and_memory(tmp_path):
        lines = ["degraded_path\tclean_path\tlabel"]
        for i, entry in enumerate(make_entries(CLEAN_PATTERNS["mixed"])):
            if i == 1:  # one 16-bit PCM file, which the reader rescales
                pcm = np.round(entry.degraded.samples * 32767).astype(np.int16)
                wavfile.write(tmp_path / f"deg{i}.wav", entry.degraded.sample_rate, pcm)
            else:
                save_wav(tmp_path / f"deg{i}.wav", entry.degraded)
            clean = ""
            if entry.clean is not None:
                clean = f"cln{i}.wav"
                save_wav(tmp_path / clean, entry.clean)
            lines.append(f"deg{i}.wav\t{clean}\t{entry.label}")
        (tmp_path / "m.tsv").write_text("\n".join(lines) + "\n")
        streamed = dt.load_manifest(tmp_path / "m.tsv")
        in_memory = []
        for i, entry in enumerate(streamed):
            clean = load_wav(tmp_path / f"cln{i}.wav") if entry.clean is not None else None
            in_memory.append(dt.DatasetEntry(load_wav(tmp_path / f"deg{i}.wav"), clean, entry.label))
        return streamed, in_memory

    def test_batch_crops_are_bit_equal(self, tmp_path):
        streamed, in_memory = self.manifest_and_memory(tmp_path)
        crop = min(len(e.degraded) for e in streamed) - 500
        for seed in range(5):
            got = tr._batch_crops(streamed, crop, np.random.default_rng(seed), 4)
            want = tr._batch_crops(in_memory, crop, np.random.default_rng(seed), 4)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_training_is_bit_equal(self, tmp_path):
        streamed, in_memory = self.manifest_and_memory(tmp_path)
        run = tiny_run(recon_weight=0.5, reduction="mean")
        run.training = dataclasses.replace(run.training, crop_seconds=0.2, max_steps=4, val_every=2)
        finals = []
        for name, entries in (("streamed", streamed), ("memory", in_memory)):
            run.out_dir = str(tmp_path / name)
            result = tr.run_training(run, entries, val_entries=entries[:2])
            finals.append((result.history, dc.load_checkpoint(result.final_checkpoint)[0]))
        (history, arrays), (want_history, want_arrays) = finals
        assert history == want_history
        assert arrays.keys() == want_arrays.keys()
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], want_arrays[name], err_msg=name)


def test_crop_shorter_than_a_window_fails_before_any_output(tmp_path):
    # crop_seconds changed after parsing: 160 samples, under the 512-sample window.
    run = tiny_run()
    run.training = dataclasses.replace(run.training, crop_seconds=0.01)
    run.out_dir = str(tmp_path / "run")
    entries = [dt.DatasetEntry(dt.synth_clean("chirp", 0.25, seed=i), None, 2.0) for i in range(2)]
    assert len(entries[0].degraded) == 4000
    with pytest.raises(sig.WavFormatError, match="shorter than one window"):
        tr.run_training(run, entries)
    assert not os.path.exists(run.out_dir)


def test_infinite_lr_fails_before_any_output(tmp_path):
    # lr = inf set in Python breaks the [training] rule, as in a file, before training starts.
    run = tiny_run()
    run.out_dir = str(tmp_path / "run")
    with pytest.raises(ConfigError, match=r"^training lr must be a positive number, got inf$"):
        run.training = dataclasses.replace(run.training, crop_seconds=0.2, max_steps=2, lr=math.inf)
        tr.run_training(run, make_entries([True] * 3))
    assert not os.path.exists(run.out_dir)


@pytest.mark.parametrize("which", ["training", "validation"])
def test_entry_at_another_rate_fails_before_any_output(tmp_path, which):
    run = tiny_run()
    run.training = dataclasses.replace(run.training, crop_seconds=0.2, max_steps=2)
    run.out_dir = str(tmp_path / "run")
    entries = make_entries([True] * 3)
    slow = [dt.DatasetEntry(sig.Waveform(e.degraded.samples, 8000), None, e.label) for e in entries]
    train, val = (slow, entries) if which == "training" else (entries, slow)
    with pytest.raises(ValueError, match=rf"^{which} entry rate 8000 != model rate 16000$"):
        tr.run_training(run, train, val)
    assert not os.path.exists(run.out_dir)


def test_model_and_quantizer_class_counts_that_differ_fail_before_any_output(tmp_path):
    # A RunConfig built in Python, which the INI rule does not see.
    run = tiny_run()
    run.model = dataclasses.replace(run.model, n_classes=100)
    run.quantizer = lb.QuantizerConfig(20)
    run.training = dataclasses.replace(run.training, crop_seconds=0.2, max_steps=2)
    run.out_dir = str(tmp_path / "run")
    with pytest.raises(ConfigError, match=r"^model n_classes = 100 must equal quantizer classes \+ padding = 20$"):
        tr.run_training(run, make_entries([True] * 3))
    assert not os.path.exists(run.out_dir)


def test_resumed_optimizer_adopts_the_loaded_moments(tmp_path, monkeypatch):
    # A bound below the entry and mask-head weights (2,056 elements) leaves
    # them ungrouped at this model size.
    monkeypatch.setattr(dc, "ADAM_GROUP_MAX", 2**11)
    run = tiny_run()
    params = mdl.init_params(run.model, seed=1)
    optimizer = dc.Adam(params)
    for t in optimizer.params.values():
        t.grad = np.ones_like(t.values)
    optimizer.step()
    tr.save_run_checkpoint(tmp_path / "c.ckpt", run.model, run.quantizer, params, optimizer, step=1)
    _cfg, _quant, loaded, opt_arrays, step = tr.load_run_checkpoint(tmp_path / "c.ckpt")
    resumed = dc.Adam(loaded)
    resumed.load_state(opt_arrays, step)
    assert resumed.t == 1 and resumed.m.keys() == optimizer.m.keys()
    ungrouped = [name for name, t in resumed.params.items() if t.values.size > dc.ADAM_GROUP_MAX]
    assert ungrouped and len(ungrouped) < len(resumed.params)
    for name in ungrouped:  # grouped moments are copied into Adam's shared buffer
        assert np.shares_memory(resumed.m[name], opt_arrays[f"opt.m.{name}"]), name
        assert np.shares_memory(resumed.v[name], opt_arrays[f"opt.v.{name}"]), name
    for name in resumed.params:
        np.testing.assert_array_equal(resumed.m[name], optimizer.m[name])
        np.testing.assert_array_equal(resumed.v[name], optimizer.v[name])


class TestKilledRun:
    """A run killed between two steps resumes from its final.ckpt, in the same
    directory, to the checkpoints and log of the uninterrupted run."""

    @staticmethod
    def setup():
        # Validation scores 1423, 1493, 3718 and 5849 at steps 3, 6, 9 and 12:
        # best.ckpt stays at step 3, so a resume that forgot the best score
        # would overwrite it at step 9.
        run = tiny_run()
        run.training = dataclasses.replace(run.training, crop_seconds=0.2, max_steps=12, val_every=3, lr=1e-2)
        entries = make_entries([True, False, True, True])
        return run, entries, entries[:2]

    @staticmethod
    def outputs(out_dir):
        """Both checkpoints' (array bytes, header) and the log without its time= fields."""
        ckpts = {}
        for name in ("final.ckpt", "best.ckpt"):
            arrays, header = dc.load_checkpoint(os.path.join(out_dir, name))
            ckpts[name] = ({k: (a.dtype, a.shape, a.tobytes()) for k, a in arrays.items()}, header)
        with open(os.path.join(out_dir, "train_log.txt"), encoding="utf-8") as fh:
            log = [line.rpartition(" time=")[0] for line in fh]
        return ckpts, log

    @staticmethod
    def kill_at(monkeypatch, step, train):
        """Run ``train`` with Adam's ``step``-th update raising KeyboardInterrupt."""
        adam_step, calls = dc.Adam.step, iter(range(1, step + 1))

        def crash(self):
            if next(calls) == step:
                raise KeyboardInterrupt
            adam_step(self)

        with monkeypatch.context() as patch:
            patch.setattr(dc.Adam, "step", crash)
            with pytest.raises(KeyboardInterrupt):
                train()

    @pytest.mark.parametrize("kill_step", [7, 8], ids=["after-validation", "between-validations"])
    def test_resume_from_final_matches_the_uninterrupted_run(self, tmp_path, monkeypatch, kill_step):
        run, entries, val = self.setup()
        run.out_dir = str(tmp_path / "whole")
        tr.run_training(run, entries, val_entries=val)
        want = self.outputs(run.out_dir)
        assert want[0]["best.ckpt"][1]["step"] == 3

        run.out_dir = str(tmp_path / "killed")
        self.kill_at(monkeypatch, kill_step, lambda: tr.run_training(run, entries, val_entries=val))
        assert dc.load_checkpoint(tmp_path / "killed" / "final.ckpt")[1]["step"] == 6
        tr.run_training(run, entries, val_entries=val, resume_from=str(tmp_path / "killed" / "final.ckpt"))
        assert self.outputs(run.out_dir) == want

    def test_resume_into_another_directory_selects_its_own_best(self, tmp_path, monkeypatch):
        # That directory has no best.ckpt to keep, so the run writes one of its own steps.
        run, entries, val = self.setup()
        run.out_dir = str(tmp_path / "killed")
        self.kill_at(monkeypatch, 7, lambda: tr.run_training(run, entries, val_entries=val))
        run.out_dir = str(tmp_path / "elsewhere")
        result = tr.run_training(run, entries, val_entries=val, resume_from=str(tmp_path / "killed" / "final.ckpt"))
        assert dc.load_checkpoint(result.best_checkpoint)[1]["step"] == 9

    def test_fresh_run_after_a_kill_before_the_first_validation(self, tmp_path, monkeypatch):
        run, entries, val = self.setup()
        run.out_dir = str(tmp_path / "whole")
        tr.run_training(run, entries, val_entries=val)
        want = self.outputs(run.out_dir)

        run.out_dir = str(tmp_path / "killed")
        self.kill_at(monkeypatch, 3, lambda: tr.run_training(run, entries, val_entries=val))
        assert os.listdir(run.out_dir) == ["train_log.txt"]
        tr.run_training(run, entries, val_entries=val)
        assert self.outputs(run.out_dir) == want


def test_truncated_log_keeps_complete_lines_up_to_the_step(tmp_path):
    log = tmp_path / "train_log.txt"
    lines = [f"step={s} td_mse=0.1 emd2=0.2 total=0.3 time=t\n" for s in range(1, 5)]
    log.write_text("".join(lines) + "step=5 td_m")
    tr._truncate_log(log, 3)
    assert log.read_text() == "".join(lines[:3])
    log.write_text(lines[0] + "step=2 td_mse")  # an incomplete line goes, whatever its step
    tr._truncate_log(log, 2)
    assert log.read_text() == lines[0]
    tr._truncate_log(tmp_path / "absent.txt", 2)
    assert not (tmp_path / "absent.txt").exists()


def test_checkpoint_header_carries_the_best_validation_score(tmp_path):
    run = tiny_run()
    params = mdl.init_params(run.model, seed=1)
    tr.save_run_checkpoint(tmp_path / "plain.ckpt", run.model, run.quantizer, params)
    tr.save_run_checkpoint(tmp_path / "best.ckpt", run.model, run.quantizer, params, step=4, best_total=0.1 + 0.2)
    assert dc.load_checkpoint(tmp_path / "plain.ckpt")[1].keys() == {"model", "quantizer", "step", "format_version"}
    assert tr._read_run_checkpoint(tmp_path / "plain.ckpt")[5] == np.inf
    assert tr._read_run_checkpoint(tmp_path / "best.ckpt")[5] == 0.1 + 0.2
    assert len(tr.load_run_checkpoint(tmp_path / "best.ckpt")) == 5
