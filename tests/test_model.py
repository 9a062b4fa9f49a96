import numpy as np
import pytest

from speechq import diffcore as dc
from speechq import labels as lb
from speechq import losses
from speechq import model as mdl
from speechq.signal import Waveform


def tiny_cfg(**overrides):
    defaults = dict(
        bottleneck_channels=8,
        conv_channels=16,
        blocks_per_repeat=2,
        repeats=1,
        n_classes=10,
        dtype="float64",
    )
    defaults.update(overrides)
    return mdl.ModelConfig(**defaults)


def make_wave(seconds=1.0, seed=0, rate=16000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(int(seconds * rate)) * 0.1, rate)


class TestConvBlock:
    def test_zero_weights_give_residual_identity(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=0)
        for name, t in params.items():
            if name.startswith("block0.0."):
                t.values[...] = 0.0
        rng = np.random.default_rng(1)
        x = dc.constant(rng.standard_normal((2, 8, 13)))
        out = mdl.conv_block(x, cfg, params, repeat=0, block=0, training=False)
        np.testing.assert_array_equal(out.values, x.values)

    def test_same_length_for_every_dilation(self):
        cfg = mdl.ModelConfig(
            bottleneck_channels=4,
            conv_channels=6,
            blocks_per_repeat=8,
            repeats=1,
            n_classes=10,
            dtype="float64",
        )
        params = mdl.init_params(cfg, seed=2)
        rng = np.random.default_rng(3)
        x = dc.constant(rng.standard_normal((1, 4, 300)))
        for block in range(8):
            out = mdl.conv_block(x, cfg, params, repeat=0, block=block, training=False)
            assert out.values.shape == x.values.shape
        assert cfg.dilations == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_receptive_field_of_full_stack(self):
        # Oracle: propagate an impulse through a linearized stack (identity
        # pointwise convs, all-ones depthwise kernels, unit PReLU slopes,
        # frozen identity norms) and measure the support of the response.
        cfg = mdl.ModelConfig(
            bottleneck_channels=1,
            conv_channels=1,
            blocks_per_repeat=8,
            repeats=4,
            n_classes=2,
            dtype="float64",
        )
        params = mdl.init_params(cfg, seed=4)
        for name, t in params.items():
            if ".pw" in name and name.endswith(".w"):
                t.values[...] = 1.0
            elif ".dw.kernel" in name:
                t.values[...] = 1.0
            elif ".slope" in name:
                t.values[...] = 1.0
            elif name.endswith(".b") or ".beta" in name:
                t.values[...] = 0.0
        t_frames = 2100
        x = np.zeros((1, 1, t_frames))
        x[0, 0, t_frames // 2] = 1.0
        h = dc.constant(x)
        for r in range(cfg.repeats):
            for b in range(cfg.blocks_per_repeat):
                h = mdl.conv_block(h, cfg, params, r, b, training=False)
        support = np.nonzero(h.values[0, 0])[0]
        width = support[-1] - support[0] + 1
        assert width == 2041
        assert cfg.receptive_field == 2041


def graph(wave, cfg, params):
    """Eval-mode graph output for one utterance, reconstruction included."""
    return mdl.forward_graph(wave.samples[None, :], cfg, params)


class TestForward:
    def test_shapes_and_distribution(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=5)
        wave = make_wave(1.0, seed=6)
        out = graph(wave, cfg, params)
        assert out.logits.values[0].shape == (10, 61)
        assert out.reconstruction.values.shape == (1, 60 * 256 + 512)
        dist = mdl.forward(wave, cfg, params)
        assert dist.shape == (10,)
        assert np.all(dist >= 0)
        assert abs(dist.sum() - 1.0) < 1e-9

    def test_distribution_valid_across_inputs(self):
        cfg = tiny_cfg(dtype="float32")
        params = mdl.init_params(cfg, seed=7)
        for seed in range(5):
            dist = mdl.forward(make_wave(0.5, seed=seed), cfg, params)
            assert np.all(dist >= 0)
            assert abs(dist.sum() - 1.0) < 1e-9

    def test_identity_mask_reproduces_roundtrip(self):
        from speechq.signal import istft, stft

        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=8)
        # Force real mask = 1 and imaginary mask = 0 through the head biases.
        params["mask_real.w"].values[...] = 0.0
        params["mask_real.b"].values[...] = 1.0
        params["mask_imag.w"].values[...] = 0.0
        params["mask_imag.b"].values[...] = 0.0
        w = make_wave(0.5, seed=9)
        out = graph(w, cfg, params)
        expected = istft(stft(w, cfg.stft), cfg.stft)
        np.testing.assert_allclose(out.reconstruction.values[0], expected.samples, atol=1e-9)

    def test_eval_forward_bitwise_deterministic(self):
        cfg = tiny_cfg(dtype="float32")
        params = mdl.init_params(cfg, seed=10)
        w = make_wave(0.4, seed=11)
        np.testing.assert_array_equal(mdl.forward(w, cfg, params), mdl.forward(w, cfg, params))
        a, b = graph(w, cfg, params), graph(w, cfg, params)
        np.testing.assert_array_equal(a.distribution.values, b.distribution.values)
        np.testing.assert_array_equal(a.reconstruction.values, b.reconstruction.values)
        np.testing.assert_array_equal(a.logits.values, b.logits.values)

    def test_too_short_input(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=12)
        with pytest.raises(ValueError, match="shorter than one window"):
            mdl.forward(Waveform(np.zeros(100) + 0.01, 16000), cfg, params)

    def test_rate_mismatch(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=13)
        with pytest.raises(ValueError, match="does not match model rate"):
            mdl.forward(Waveform(np.zeros(8000) + 0.01, 8000), cfg, params)


class TestScoringForward:
    """forward is forward_graph's eval-mode distribution, without a graph."""

    @staticmethod
    def trained_like(cfg, seed):
        # Random quality head and running statistics, so every layer matters.
        params = mdl.init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for name, t in params.items():
            if name.startswith("quality.") or name.endswith(".run_mean"):
                t.values[...] = rng.standard_normal(t.values.shape) * 0.3
            elif name.endswith(".run_var"):
                t.values[...] = rng.uniform(0.5, 2.0, t.values.shape)
        return params

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_equals_graph_distribution(self, dtype):
        cfg = tiny_cfg(dtype=dtype)
        params = self.trained_like(cfg, seed=30)
        assert all(t.requires_grad for name, t in params.items() if not mdl.is_buffer(name))
        for n_samples in (512, 768, 1000, 3200, 8123):  # one window and up
            wave = make_wave(n_samples / 16000, seed=n_samples)
            expected = graph(wave, cfg, params).distribution.values[0]
            np.testing.assert_array_equal(mdl.forward(wave, cfg, params), expected)

    def test_records_no_graph_and_leaves_params_alone(self, monkeypatch):
        cfg = tiny_cfg(dtype="float32")
        params = self.trained_like(cfg, seed=31)
        before = {name: t.values.copy() for name, t in params.items()}
        outputs = []
        real = mdl.forward_graph

        def spy(*args, **kwargs):
            outputs.append(real(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(mdl, "forward_graph", spy)
        mdl.forward(make_wave(0.5, seed=32), cfg, params)
        (out,) = outputs
        assert out.reconstruction is None
        assert not out.distribution.requires_grad and out.distribution._node is None
        assert all(t.grad is None for t in params.values())
        for name, t in params.items():
            np.testing.assert_array_equal(t.values, before[name])


class TestParamLayout:
    @pytest.mark.parametrize("overrides", [{}, {"blocks_per_repeat": 3, "repeats": 2}])
    def test_matches_init_params(self, overrides):
        cfg = tiny_cfg(**overrides)
        layout = dict(mdl.param_layout(cfg))
        params = mdl.init_params(cfg, seed=1)
        assert list(layout) == list(params)
        for name, (shape, _init) in layout.items():
            assert params[name].values.shape == shape
            assert params[name].requires_grad != mdl.is_buffer(name)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_init_draws_unchanged(self, dtype):
        # In-test copy of the init order before the layout existed: the same
        # seed must give the same values bit for bit.
        cfg = tiny_cfg(dtype=dtype, blocks_per_repeat=3, repeats=2)
        rng = np.random.default_rng(9)
        dt = cfg.np_dtype
        f, cb, cc, k = cfg.stft.n_bins, cfg.bottleneck_channels, cfg.conv_channels, mdl.KERNEL_SIZE

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape).astype(dt)

        expected = {"entry.w": uniform((cb, f), f), "entry.b": uniform((cb,), f)}
        for r in range(cfg.repeats):
            for x in range(cfg.blocks_per_repeat):
                p = f"block{r}.{x}."
                expected[p + "pw1.w"] = uniform((cc, cb), cb)
                expected[p + "pw1.b"] = uniform((cc,), cb)
                expected[p + "act1.slope"] = np.full(cc, 0.25, dtype=dt)
                expected[p + "norm1.gamma"] = np.ones(cc, dtype=dt)
                expected[p + "norm1.beta"] = np.zeros(cc, dtype=dt)
                expected[p + "norm1.run_mean"] = np.zeros(cc, dtype=dt)
                expected[p + "norm1.run_var"] = np.ones(cc, dtype=dt)
                expected[p + "dw.kernel"] = uniform((cc, k), k)
                expected[p + "dw.b"] = uniform((cc,), k)
                expected[p + "act2.slope"] = np.full(cc, 0.25, dtype=dt)
                expected[p + "norm2.gamma"] = np.ones(cc, dtype=dt)
                expected[p + "norm2.beta"] = np.zeros(cc, dtype=dt)
                expected[p + "norm2.run_mean"] = np.zeros(cc, dtype=dt)
                expected[p + "norm2.run_var"] = np.ones(cc, dtype=dt)
                expected[p + "pw2.w"] = uniform((cb, cc), cc)
                expected[p + "pw2.b"] = uniform((cb,), cc)
        for head in ("mask_real", "mask_imag"):
            expected[head + ".w"] = uniform((f, cb), cb)
            expected[head + ".b"] = uniform((f,), cb)
        expected["quality.w"] = np.zeros((cfg.n_classes, cb), dtype=dt)
        expected["quality.b"] = np.zeros(cfg.n_classes, dtype=dt)

        params = mdl.init_params(cfg, seed=9)
        assert list(params) == list(expected)
        for name, values in expected.items():
            assert params[name].values.dtype == values.dtype
            np.testing.assert_array_equal(params[name].values, values)


class TestPredictQuality:
    def test_fresh_model_scores_center_of_range(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=14)  # zero-initialized quality head
        quant = lb.QuantizerConfig(10)
        score = lb.decode_expect(mdl.forward(make_wave(0.5, seed=15), cfg, params), quant)
        assert score == pytest.approx(2.0, abs=1e-9)

    def test_decoder_invariance_to_logit_shift(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=16)
        rng = np.random.default_rng(17)
        params["quality.w"].values[...] = rng.standard_normal(params["quality.w"].values.shape)
        params["quality.b"].values[...] = rng.standard_normal(10)
        quant = lb.QuantizerConfig(10)
        w = make_wave(0.5, seed=18)
        base = mdl.forward(w, cfg, params)
        base_e, base_m = lb.decode_expect(base, quant), lb.decode_max(base, quant)
        params["quality.b"].values[...] += 7.3  # shifts every pooled logit by 7.3
        shifted = mdl.forward(w, cfg, params)
        assert lb.decode_expect(shifted, quant) == pytest.approx(base_e, abs=1e-9)
        assert lb.decode_max(shifted, quant) == pytest.approx(base_m, abs=1e-9)

    def test_quantizer_model_mismatch(self, tmp_path):
        # The class-count check runs where a model meets its quantizer: on load.
        from speechq import train as tr

        cfg = tiny_cfg()
        ckpt = tmp_path / "mismatch.ckpt"
        tr.save_run_checkpoint(ckpt, cfg, lb.QuantizerConfig(99), mdl.init_params(cfg, seed=19))
        with pytest.raises(dc.CheckpointError, match="quantizer has 99 classes but the model has 10"):
            tr.load_run_checkpoint(ckpt)


class TestVariableLength:
    def test_quality_branch_defined_for_single_frame(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=21)
        w = make_wave(512 / 16000, seed=22)  # exactly one window
        out = graph(w, cfg, params)
        assert out.logits.values.shape[2] == 1
        assert abs(mdl.forward(w, cfg, params).sum() - 1.0) < 1e-9

    def test_doubling_periodic_input_only_moves_edge_frames(self):
        cfg = tiny_cfg(blocks_per_repeat=3)  # receptive field 1 + 2*(1+2+4) = 15 frames
        params = mdl.init_params(cfg, seed=23)
        rng = np.random.default_rng(24)
        chunk = rng.standard_normal(cfg.stft.hop_len) * 0.1
        w1 = Waveform(np.tile(chunk, 60), 16000)
        w2 = Waveform(np.tile(chunk, 120), 16000)
        out1, out2 = graph(w1, cfg, params), graph(w2, cfg, params)
        logits1, logits2 = out1.logits.values[0], out2.logits.values[0]
        pooled1, pooled2 = logits1.mean(axis=1), logits2.mean(axis=1)
        t1, t2 = logits1.shape[1], logits2.shape[1]
        margin = cfg.receptive_field // 2
        np.testing.assert_allclose(
            logits1[:, margin : t1 - margin],
            logits2[:, margin : t1 - margin],
            atol=1e-10,
        )
        spread = max(
            np.max(np.abs(logits1 - pooled1[:, None])),
            np.max(np.abs(logits2 - pooled2[:, None])),
        )
        edge_fraction = 2 * margin / t1 + 2 * margin / t2
        assert np.max(np.abs(pooled1 - pooled2)) <= edge_fraction * spread + 1e-9


class TestEndToEndGradient:
    def test_tiny_joint_loss_gradient(self):
        # Seeds chosen so every PReLU pre-activation sits well away from
        # its kink and every channel straddles both branches; otherwise a
        # bias can have an exactly-zero gradient (batch norm absorbs the
        # shift) and the relative-error floor amplifies pure FD noise.
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, seed=13)
        rng = np.random.default_rng(7)
        wave = rng.standard_normal(3200) * 0.1  # 0.2 s
        clean = rng.standard_normal(3200) * 0.1
        quant = lb.QuantizerConfig(10)
        target = lb.targets([1.25], quant)  # class 4 of 10: (1.0, 1.5]

        def loss_fn(*_):
            out = mdl.forward_graph(wave[None, :], cfg, params, training=True)
            n = out.reconstruction.values.shape[1]
            return losses.joint_loss(
                out.reconstruction, dc.constant(clean[None, :n]), out.distribution, dc.constant(target)
            )[0]

        trainable = [t for t in params.values() if t.requires_grad]
        # Keep the module test quick: check a stratified subset of tensors.
        # The acceptance suite sweeps every parameter.
        subset = trainable[::5]
        err = dc.gradient_check(loss_fn, subset, step=1e-5)
        assert err < 1e-4
