"""Pins the scoring blocks, whose batch norms model.freeze folds into the
convolutions next to them, to the unfolded computation.

The reference is the block as it runs in training, with each norm at its
running statistics (Ioffe & Szegedy 2015, section 3.1):
``gamma * (x - run_mean) / sqrt(run_var + eps) + beta``, in numpy, between
the PReLUs and the convs. Folding changes the rounding, so float64 must
match to 1e-12 of the reference's largest magnitude and float32 to the
scoring tolerance.
"""

import numpy as np
import pytest

from speechq import diffcore as dc
from speechq import labels as lb
from speechq import model as mdl
from speechq.signal import Waveform

# Largest |difference| of a float32 score, as a class probability and as a decoded score.
FLOAT32_DIST_TOL = 1e-6
FLOAT32_SCORE_TOL = 1e-5


def unfolded_block(x, cfg, params, repeat, block, training):
    """A scoring residual block with both batch norms run as norms."""
    assert not training
    p = f"block{repeat}.{block}."

    def norm(u, name):
        gamma, beta, mean, var = (params[p + name + "." + k].values[None, :, None] for k in mdl._NORM_TENSORS)
        xhat = (u.values - mean) / np.sqrt(var + dc.NORM_EPS)
        return dc.constant((gamma * xhat + beta).astype(u.values.dtype, copy=False))

    u = dc.conv1d_pointwise(x, params[p + "pw1.w"], params[p + "pw1.b"])
    u = norm(dc.prelu(u, params[p + "act1.slope"]), "norm1")
    u = dc.conv1d_depthwise_dilated(u, params[p + "dw.kernel"], params[p + "dw.b"], cfg.dilations[block])
    u = norm(dc.prelu(u, params[p + "act2.slope"]), "norm2")
    u = dc.conv1d_pointwise(u, params[p + "pw2.w"], params[p + "pw2.b"])
    return dc.add(x, u)


def unfolded_forward(wave, cfg, params, monkeypatch):
    """forward's distribution, computed through unfolded blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(mdl, "conv_block", unfolded_block)
        constants = {name: dc.constant(t.values) for name, t in params.items()}
        out = mdl.forward_graph(wave.samples[None, :], cfg, constants, compute_reconstruction=False)
    return out.distribution.values[0]


def trained_like(cfg, seed):
    """Params with norm statistics and affine terms a trained model could hold:
    negative and zero gammas, non-zero running means, slopes in [-0.2, 1.3] and
    a seeded quality head."""
    params = mdl.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, t in params.items():
        v = t.values
        if name.startswith("quality."):
            v[...] = rng.uniform(-1.0, 1.0, v.shape) / np.sqrt(cfg.bottleneck_channels)
        elif name.endswith(".gamma"):
            v[...] = rng.uniform(-1.5, 1.5, v.shape)
            v[::5] = 0.0
        elif name.endswith((".beta", ".run_mean")):
            v[...] = rng.standard_normal(v.shape) * 0.5
        elif name.endswith(".run_var"):
            v[...] = rng.uniform(0.2, 3.0, v.shape)
        elif name.endswith(".slope"):
            v[...] = rng.uniform(-0.2, 1.3, v.shape)
    return params


def assert_close_to(actual, expected, rtol):
    assert actual.dtype == expected.dtype
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rtol * np.max(np.abs(expected)))


def wave(seconds, seed):
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(round(seconds * 16000)) * 0.1, 16000)


# Every dilation 1..128.
DILATION_CFG = mdl.ModelConfig(
    bottleneck_channels=4, conv_channels=10, blocks_per_repeat=8, repeats=1, n_classes=6, dtype="float64"
)


class TestFoldedBlock:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("block", range(8))
    def test_matches_unfolded_at_every_edge_regime(self, block, batch):
        d = DILATION_CFG.dilations[block]
        params = trained_like(DILATION_CFG, seed=block)
        frozen = mdl.freeze(DILATION_CFG, params)
        constants = {name: dc.constant(t.values) for name, t in params.items()}
        rng = np.random.default_rng(100 + block)
        # T < d (both taps pad every frame), d <= T < 2d (some frames lose both), T >= 2d.
        frame_counts = [t for t in (d - 1, d, 2 * d - 1, 2 * d, 2 * d + 5) if t >= 1]
        for t in frame_counts:
            x = dc.constant(rng.standard_normal((batch, 4, t)))
            got = mdl.conv_block(x, DILATION_CFG, frozen, 0, block, training=False).values
            want = unfolded_block(x, DILATION_CFG, constants, 0, block, training=False).values
            assert_close_to(got, want, 1e-12)

    def test_forward_matches_unfolded_in_float64(self, monkeypatch):
        params = trained_like(DILATION_CFG, seed=20)
        frozen = mdl.freeze(DILATION_CFG, params)
        # 10 frames, where most dilations exceed T, and up.
        for n_samples in (512 + 9 * 256, 8000, 24000):
            w = wave(n_samples / 16000, seed=n_samples)
            got = mdl.forward(w, DILATION_CFG, frozen)
            assert_close_to(got, unfolded_forward(w, DILATION_CFG, params, monkeypatch), 1e-12)

    def test_paper_model_in_float32_within_the_scoring_tolerance(self, monkeypatch):
        cfg = mdl.ModelConfig()
        quant = lb.QuantizerConfig(cfg.n_classes)
        params = trained_like(cfg, seed=21)
        frozen = mdl.freeze(cfg, params)
        for seconds in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
            w = wave(seconds, seed=int(seconds * 10))
            got = mdl.forward(w, cfg, frozen)
            want = unfolded_forward(w, cfg, params, monkeypatch)
            assert got.dtype == want.dtype == np.float64
            assert np.max(np.abs(got - want)) <= FLOAT32_DIST_TOL
            for decode in (lb.decode_expect, lb.decode_max):
                assert abs(decode(got, quant) - decode(want, quant)) <= FLOAT32_SCORE_TOL


class TestFreeze:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_shares_weights_and_changes_no_parameter(self, dtype):
        cfg = mdl.ModelConfig(
            bottleneck_channels=8, conv_channels=16, blocks_per_repeat=2, repeats=2, n_classes=10, dtype=dtype
        )
        params = trained_like(cfg, seed=22)
        before = {name: t.values.copy() for name, t in params.items()}
        frozen = mdl.freeze(cfg, params)
        mdl.forward(wave(0.5, seed=23), cfg, frozen)
        shared = [n for n in params if n.endswith(("pw1.w", "pw2.w")) or n.partition(".")[0] in mdl.MASK_HEADS]
        shared += ["quality.w", "quality.b"]
        for name in shared:
            assert np.shares_memory(frozen[name].values, params[name].values), name
        for name, t in params.items():
            assert t.grad is None
            np.testing.assert_array_equal(t.values, before[name], err_msg=name)
        assert all(not t.requires_grad and t.values.dtype == cfg.np_dtype for t in frozen.values())
