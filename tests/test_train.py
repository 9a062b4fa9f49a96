"""The training objective: the step and validation both assemble it through
losses.joint_loss, and must give what the separate assemblies gave before."""

import numpy as np
import pytest
from scipy.io import wavfile

from speechq import data as dt
from speechq import diffcore as dc
from speechq import labels as lb
from speechq import losses
from speechq import model as mdl
from speechq import train as tr
from speechq.config import RunConfig, SimulateConfig, TrainingConfig
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
            label_kind="soft" if soft else "one-hot",
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
            entry.degraded.samples[None, :], run.model, params, training=False,
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
        got = tr._validation_total(run, params, entries, run.quantizer)
        want = old_validation_total(run, params, entries, run.quantizer)
        if recon_weight in (0.0, 1.0):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-6)

    def test_records_no_graph(self):
        run = tiny_run()
        params = trained_like(run.model)
        before = {name: t.values.copy() for name, t in params.items()}
        tr._validation_total(run, params, make_entries([True, False]), run.quantizer)
        assert all(t.grad is None for t in params.values())
        for name, t in params.items():
            np.testing.assert_array_equal(t.values, before[name])


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
        run.training.crop_seconds = 0.2
        run.training.max_steps = 4
        run.training.val_every = 2
        finals = []
        for name, entries in (("streamed", streamed), ("memory", in_memory)):
            result = tr.run_training(run, entries, val_entries=entries[:2], out_dir=str(tmp_path / name))
            finals.append((result.history, dc.load_checkpoint(result.final_checkpoint)[0]))
        (history, arrays), (want_history, want_arrays) = finals
        assert history == want_history
        assert arrays.keys() == want_arrays.keys()
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], want_arrays[name], err_msg=name)


def test_resumed_optimizer_adopts_the_loaded_moments(tmp_path):
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
    for name in resumed.params:
        assert np.shares_memory(resumed.m[name], opt_arrays[f"opt.m.{name}"]), name
        assert np.shares_memory(resumed.v[name], opt_arrays[f"opt.v.{name}"]), name
        np.testing.assert_array_equal(resumed.m[name], optimizer.m[name])
        np.testing.assert_array_equal(resumed.v[name], optimizer.v[name])
