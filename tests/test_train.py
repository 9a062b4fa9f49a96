"""The training objective: the step and validation both assemble it through
losses.joint_loss, and must give what the separate assemblies gave before."""

import numpy as np
import pytest

from speechq import data as dt
from speechq import diffcore as dc
from speechq import labels as lb
from speechq import losses
from speechq import model as mdl
from speechq import train as tr
from speechq.config import RunConfig, SimulateConfig, TrainingConfig

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
    targets = tr.build_targets(val_entries, quant, run.training.label_kind)
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
    )[1]
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
        targets = tr.build_targets(entries, run.quantizer, run.training.label_kind)[_idx]
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
