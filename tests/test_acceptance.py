"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The two training criteria dominate the runtime
(several minutes together on a laptop CPU).
"""

import math
import time

import numpy as np
import pytest

from speechq import data as dt
from speechq import diffcore as dc
from speechq import labels as lb
from speechq import losses
from speechq import metrics
from speechq import model as mdl
from speechq import signal as sig
from speechq import train as tr
from speechq.config import RunConfig, SimulateConfig, TrainingConfig


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'pass' if ok else 'FAIL'} - {name} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _nudged(rng, shape, keep_away=0.05):
    x = rng.standard_normal(shape)
    x = x + np.sign(x) * keep_away  # keep PReLU-style kinks out of FD reach
    return x


def _primitive_cases(rng):
    """One gradient-check case per diffcore primitive, shapes randomized."""
    b = int(rng.integers(1, 4))
    c = int(rng.integers(2, 6))
    t = int(rng.integers(4, 12))
    cc = int(rng.integers(2, 6))
    dilation = int(rng.integers(1, 5))
    stft_cfg = sig.StftConfig(500)
    run_mean, run_var = dc.Tensor(np.zeros(c)), dc.Tensor(np.ones(c))
    spec = rng.standard_normal((b, 9, 5)) + 1j * rng.standard_normal((b, 9, 5))
    cases = {
        "conv1d_pointwise": (
            lambda x, w, bias: dc.conv1d_pointwise(x, w, bias),
            [rng.standard_normal((b, c, t)), rng.standard_normal((cc, c)), rng.standard_normal(cc)],
        ),
        "conv1d_depthwise_dilated": (
            lambda x, k, bias: dc.conv1d_depthwise_dilated(x, k, bias, dilation=dilation),
            [rng.standard_normal((b, c, t)), rng.standard_normal((c, 3)), rng.standard_normal(c)],
        ),
        "prelu": (
            lambda x, s: dc.prelu(x, s),
            [_nudged(rng, (b, c, t)), rng.uniform(0.1, 0.5, c)],
        ),
        "batch_norm_train": (
            lambda x, g, bet: dc.batch_norm(x, g, bet, run_mean, run_var, training=True),
            [rng.standard_normal((b, c, t)), rng.uniform(0.5, 1.5, c), rng.standard_normal(c)],
        ),
        "batch_norm_eval": (
            lambda x, g, bet: dc.batch_norm(x, g, bet, run_mean, run_var, training=False),
            [rng.standard_normal((b, c, t)), rng.uniform(0.5, 1.5, c), rng.standard_normal(c)],
        ),
        "softmax": (lambda x: dc.softmax(x, axis=-1), [rng.standard_normal((b, t))]),
        "mean_over_frames": (lambda x: dc.mean(x, axis=2), [rng.standard_normal((b, c, t))]),
        "sum": (lambda x: dc.sum(x, axis=-1), [rng.standard_normal((b, t))]),
        "add": (lambda x, y: dc.add(x, y), [rng.standard_normal((c, t)), rng.standard_normal((c, t))]),
        "mul": (lambda x, y: dc.mul(x, y), [rng.standard_normal((c, t)), rng.standard_normal((c, t))]),
        "cumsum": (lambda x: dc.cumsum(x), [rng.standard_normal((b, t))]),
        "cast": (lambda x: dc.cast(x, np.float64), [rng.standard_normal(t)]),
        "scale": (lambda x: dc.scale(x, -1.7), [rng.standard_normal(t)]),
        "istft_synthesis": (
            lambda mr, mi: dc.istft_synthesis(mr, mi, spec, stft_cfg),
            [rng.standard_normal((b, 9, 5)) for _ in range(2)],
        ),
    }
    return cases


def test_gradient_suite():
    started = time.time()
    worst = {}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, (fn, arrays) in _primitive_cases(rng).items():
            tensors = [dc.parameter(a) for a in arrays]
            err = dc.gradient_check(fn, tensors, step=1e-5)
            worst[name] = max(worst.get(name, 0.0), err)

    # End-to-end joint loss on the tiny configuration. Seeds put every
    # PReLU pre-activation away from its kink with both branches populated.
    cfg = mdl.ModelConfig(
        bottleneck_channels=8,
        conv_channels=16,
        blocks_per_repeat=2,
        repeats=1,
        n_classes=10,
        dtype="float64",
    )
    params = mdl.init_params(cfg, seed=13)
    rng = np.random.default_rng(7)
    wave = rng.standard_normal(3200) * 0.1  # 0.2 s at 16 kHz
    clean = rng.standard_normal(3200) * 0.1
    target = lb.targets([1.25], lb.QuantizerConfig(10))  # class 4 of 10: (1.0, 1.5]

    def joint_fn(*_):
        out = mdl.forward_graph(wave[None, :], cfg, params, training=True)
        n = out.reconstruction.values.shape[1]
        return losses.joint_loss(
            out.reconstruction, dc.constant(clean[None, :n]), out.distribution, dc.constant(target)
        )[0]

    trainable = [t for t in params.values() if t.requires_grad]
    worst["end_to_end_joint_loss"] = dc.gradient_check(joint_fn, trainable, step=1e-5)

    elapsed = time.time() - started
    max_err = max(worst.values())
    ok = max_err < 1e-4 and elapsed < 120.0
    detail = f"max rel err {max_err:.2e} over {len(worst)} checks, {elapsed:.0f}s"
    if not ok:
        detail += "; worst: " + ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items(), key=lambda kv: -kv[1])[:3])
    report("gradient suite (primitives + end-to-end joint loss)", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: STFT roundtrip


def test_stft_roundtrip():
    started = time.time()
    cfg = sig.StftConfig(16000)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        wave = sig.Waveform(rng.standard_normal(16000), 16000)
        back = sig.istft(sig.stft(wave, cfg), cfg)
        interior = slice(cfg.window_len, len(back) - cfg.window_len)
        ref = wave.samples[: len(back)]
        err = np.linalg.norm(back.samples[interior] - ref[interior]) / np.linalg.norm(ref[interior])
        worst = max(worst, err)
    elapsed = time.time() - started
    ok = worst < 1e-6 and elapsed < 10.0
    report("stft roundtrip (50 seeds)", ok, f"worst interior rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: EMD^2 oracle


def test_emd_oracle():
    started = time.time()
    exact = True
    for n in range(1, 21):
        quant = lb.QuantizerConfig(n)
        rows = lb.targets(quant.midpoints(), quant)  # row i - 1: class i's one-hot target
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                value = float(losses.emd2(rows[i - 1], rows[j - 1]).values)
                exact = exact and (value == abs(i - j))
    rng = np.random.default_rng(0)
    self_dist = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 40))))
        self_dist = max(self_dist, float(losses.emd2(p, p).values))
    elapsed = time.time() - started
    ok = exact and self_dist <= 1e-12 and elapsed < 5.0
    report(
        "emd2 oracle (one-hot pairs exact, self-distance zero)",
        ok,
        f"pairs exact={exact}, max self-distance {self_dist:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: decoder identities


def test_decoder_identities():
    uniform_ok = True
    for n in (4, 100, 500):
        quant = lb.QuantizerConfig(n)
        score = lb.decode_expect(np.full(n, 1.0 / n), quant)
        uniform_ok = uniform_ok and abs(score - 2.0) <= 1e-9

    quant = lb.QuantizerConfig(100)
    rng = np.random.default_rng(4)
    half_step = quant.step / 2
    consistency_worst = 0.0
    for s in rng.uniform(-0.5, 4.5, size=10_000):
        decoded = lb.decode_max(lb.targets([s], quant)[0], quant)
        consistency_worst = max(consistency_worst, abs(decoded - s))

    shift_ok = True
    for _ in range(20):
        logits = rng.standard_normal(100)
        for shift in (7.3, -41.0):
            p0 = np.exp(logits - logits.max())
            p0 /= p0.sum()
            shifted = logits + shift
            p1 = np.exp(shifted - shifted.max())
            p1 /= p1.sum()
            shift_ok = shift_ok and abs(lb.decode_expect(p0, quant) - lb.decode_expect(p1, quant)) <= 1e-9
            shift_ok = shift_ok and abs(lb.decode_max(p0, quant) - lb.decode_max(p1, quant)) <= 1e-9

    ok = uniform_ok and consistency_worst <= half_step + 1e-12 and shift_ok
    report(
        "decoder identities (uniform center, quantize/decode, shift invariance)",
        ok,
        f"uniform={uniform_ok}, worst |decode-s| {consistency_worst:.4f} vs step/2 {half_step}, shift={shift_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 5: soft labels


def test_soft_labels():
    quant = lb.QuantizerConfig(100, pad=2)
    kernel = [0.1, 0.2, 0.4, 0.2, 0.1]
    ok = True
    rows = lb.targets(quant.midpoints()[quant.pad : quant.pad + quant.n_classes], quant)  # row nu - 1: class nu
    for nu in range(1, 101):
        p = rows[nu - 1]
        ok = ok and math.fsum(p) == 1.0
        center = (nu - 1) + quant.pad
        support = np.nonzero(p)[0]
        ok = ok and list(support) == list(range(center - 2, center + 3))
        ok = ok and np.array_equal(p[support], kernel)
    report(
        "soft labels (exact unit mass, fixed five-point kernel, boundaries)",
        ok,
        f"all 100 classes checked incl. boundary classes, pad={quant.pad}",
    )


# ---------------------------------------------------------------------------
# criterion 8 (cheap, run before the training criteria): metrics oracle


def test_metrics_oracle():
    def pearson_oracle(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)) ** 0.5
        return num / den

    def rank_oracle(values):
        return np.array(
            [
                sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2.0
                for v in values
            ]
        )

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        worst = max(worst, abs(metrics.lcc(a, b) - pearson_oracle(a, b)))
        worst = max(
            worst, abs(metrics.srcc(a, b) - pearson_oracle(rank_oracle(a), rank_oracle(b)))
        )

    import itertools

    ties_ok = True
    for n in range(2, 7):
        for values in itertools.product((0.0, 1.0, 2.0), repeat=n):
            ties_ok = ties_ok and np.allclose(metrics.rankdata(values), rank_oracle(values), atol=0)

    ok = worst <= 1e-12 and ties_ok
    report(
        "metrics oracle (lcc/srcc definitional, tie handling exhaustive n<=6)",
        ok,
        f"worst correlation deviation {worst:.1e}, ties exact={ties_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 9: perturbation contract


def test_perturbation_contract():
    rng = np.random.default_rng(9)
    spec = rng.standard_normal((257, 600)) + 1j * rng.standard_normal((257, 600))
    out = dt.perturb_bins(spec, seed=17)
    boosted = np.isclose(np.abs(out), 2.0 * np.abs(spec))
    attenuated = np.isclose(np.abs(out), 0.25 * np.abs(spec))
    frac_boost = boosted.sum() / spec.size
    frac_atten = attenuated.sum() / spec.size

    wave = sig.Waveform(rng.standard_normal(8000) * 0.3, 16000)
    cfg = sig.StftConfig(16000)
    unit = dt.perturb_spectrogram(wave, boost_gain=1.0, atten_gain=1.0, seed=17)
    roundtrip = sig.istft(sig.stft(wave, cfg), cfg)
    unit_ok = np.array_equal(unit.samples, roundtrip.samples)

    ok = abs(frac_boost - 0.30) <= 0.01 and abs(frac_atten - 0.50) <= 0.01 and unit_ok
    report(
        "perturbation contract (bin fractions on 257x600, unit-gain roundtrip)",
        ok,
        f"boost {frac_boost:.3f}, atten {frac_atten:.3f}, unit-gain identity={unit_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 6: overfit run


def _overfit_entries():
    entries = []
    for i, snr in enumerate(np.linspace(-12.0, 30.0, 8)):
        clean = dt.synth_clean(dt.SYNTH_KINDS[i % 3], 0.5, seed=100 + i)
        noise = dt.synth_noise(0.5, seed=200 + i)
        degraded, clean_ref = dt.mix_at_snr(clean, noise, float(snr))
        label = dt.proxy_label(clean_ref, degraded)
        entries.append(dt.DatasetEntry(degraded, clean_ref, label))
    return entries


def _small_run(seed, max_steps, lr, recon_weight, td_reduction="sum", val_every=0):
    return RunConfig(
        model=mdl.ModelConfig(
            bottleneck_channels=32,
            conv_channels=64,
            blocks_per_repeat=4,
            repeats=1,
            n_classes=20,
        ),
        quantizer=lb.QuantizerConfig(20, pad=0),
        training=TrainingConfig(
            lr=lr,
            batch_size=8,
            crop_seconds=0.5,
            max_steps=max_steps,
            seed=seed,
            recon_weight=recon_weight,
            td_mse_reduction=td_reduction,
            val_every=val_every,
        ),
        simulate=SimulateConfig(),
    )


def test_overfit_run(tmp_path):
    started = time.time()
    entries = _overfit_entries()
    labels_span = (min(e.label for e in entries), max(e.label for e in entries))
    assert labels_span == (1.0, 4.5)

    run = _small_run(seed=11, max_steps=500, lr=2e-3, recon_weight=1.0)
    run.out_dir = str(tmp_path)
    result = tr.run_training(run, entries)
    step10 = result.history[9][3]
    final = result.history[-1][3]
    ratio = final / step10

    cfg, quant, params, _, _ = tr.load_run_checkpoint(result.final_checkpoint)
    ev = tr.evaluate_entries(cfg, quant, params, entries)
    mae = float(np.mean(np.abs(ev["scores"]["expect"] - ev["scores"]["truth"])))
    srcc_value = ev["expect"].srcc
    elapsed = time.time() - started

    ok = ratio <= 0.10 and mae < 0.25 and srcc_value > 0.9 and elapsed < 300.0
    report(
        "overfit run (8 utterances, 500 steps)",
        ok,
        f"loss ratio {ratio:.3f} (<=0.10), MAE {mae:.3f} (<0.25), SRCC {srcc_value:.3f} (>0.9), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: joint-vs-quality-only direction check


def _simulated_entries(count, seed_base):
    entries = []
    for i in range(count):
        rng = np.random.default_rng([seed_base, i])
        kind = dt.SYNTH_KINDS[int(rng.integers(0, len(dt.SYNTH_KINDS)))]
        clean = dt.synth_clean(kind, 0.5, seed=int(rng.integers(1 << 31)))
        noise = dt.synth_noise(0.5, seed=int(rng.integers(1 << 31)))
        snr = float(rng.uniform(-12.0, 30.0))
        degraded, clean_ref = dt.mix_at_snr(clean, noise, snr)
        entries.append(dt.DatasetEntry(degraded, clean_ref, dt.proxy_label(clean_ref, degraded)))
    return entries


@pytest.mark.slow
def test_joint_beats_quality_only_direction(tmp_path):
    started = time.time()
    outcomes = []
    for seed in (101, 102, 103, 104, 105):
        train_entries = _simulated_entries(64, seed)
        holdout = _simulated_entries(16, seed + 5000)
        held_mse = {}
        for weight in (1.0, 0.0):
            run = _small_run(
                seed=seed,
                max_steps=1600,
                lr=1e-3,
                recon_weight=weight,
                td_reduction="mean",
                val_every=100,
            )
            run.out_dir = str(tmp_path / f"s{seed}_w{int(weight)}")
            result = tr.run_training(run, train_entries)
            cfg, quant, params, _, _ = tr.load_run_checkpoint(result.best_checkpoint)
            held_mse[weight] = tr.evaluate_entries(cfg, quant, params, holdout)["expect"].mse
        outcomes.append((seed, held_mse[1.0], held_mse[0.0]))

    wins = sum(1 for _, joint, quality_only in outcomes if joint <= quality_only)
    elapsed = time.time() - started
    ok = wins >= 3 and elapsed < 1800.0
    detail = (
        f"wins {wins}/5 (need >=3), "
        + "; ".join(f"seed {s}: {j:.3f} vs {q:.3f}" for s, j, q in outcomes)
        + f", {elapsed:.0f}s"
    )
    report("joint-vs-quality-only direction (held-out MSE)", ok, detail)
