import struct

import numpy as np
import pytest

from speechq import diffcore as dc
from speechq.signal import StftConfig


def randn(rng, *shape):
    return rng.standard_normal(shape)


class TestForwardExamples:
    def test_prelu_positive_branch(self):
        x = dc.constant(np.array([[[2.0]]]))
        slope = dc.constant(np.array([0.25]))
        assert dc.prelu(x, slope).values[0, 0, 0] == 2.0

    def test_prelu_negative_branch(self):
        x = dc.constant(np.array([[[-2.0]]]))
        slope = dc.constant(np.array([0.25]))
        assert dc.prelu(x, slope).values[0, 0, 0] == -0.5

    def test_depthwise_impulse_matches_direct_convolution_oracle(self):
        # Oracle: explicit convolution sum over kernel taps at dilated offsets.
        rng = np.random.default_rng(0)
        c, t, dilation = 3, 21, 4
        kernel = randn(rng, c, 3)
        x = np.zeros((1, c, t))
        x[0, :, 10] = 1.0

        pad = dilation
        xpad = np.zeros((c, t + 2 * pad))
        xpad[:, pad : pad + t] = x[0]
        oracle = np.zeros((c, t))
        for ch in range(c):
            for out_pos in range(t):
                acc = 0.0
                for j in range(3):
                    acc += kernel[ch, j] * xpad[ch, out_pos + j * dilation]
                oracle[ch, out_pos] = acc

        out = dc.conv1d_depthwise_dilated(
            dc.constant(x), dc.constant(kernel), dc.constant(np.zeros(c)), dilation
        )
        np.testing.assert_allclose(out.values[0], oracle, atol=1e-14)
        # kernel taps land at dilation-spaced offsets around the impulse
        nz = np.nonzero(out.values[0, 0])[0]
        np.testing.assert_array_equal(nz[np.abs(out.values[0, 0, nz]) > 0], [6, 10, 14])

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(1)
        p = dc.softmax(dc.constant(randn(rng, 4, 9)), axis=-1)
        assert np.all(p.values > 0)
        np.testing.assert_allclose(p.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dc.conv1d_pointwise(dc.constant(np.zeros((1, 3, 4))), dc.constant(np.zeros((2, 5))), dc.constant(np.zeros(2)))

    def test_non_finite_raises(self):
        with pytest.raises(FloatingPointError):
            dc.log(dc.constant(np.array([0.0])))


class TestBackwardExamples:
    def test_sum_gradient_is_ones(self):
        x = dc.parameter(np.random.default_rng(2).standard_normal((3, 4)))
        dc.backward(dc.sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_mse_scalar_gradient(self):
        x = dc.parameter(np.array(3.0))
        loss = dc.mse_reduction(x, dc.constant(np.array(0.0)))
        dc.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_backward_requires_scalar(self):
        x = dc.parameter(np.zeros(3))
        with pytest.raises(ValueError, match="scalar"):
            dc.backward(dc.mul(x, x))

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            dc.backward(dc.sum(dc.constant(np.zeros(3))))

    def test_grad_accumulates_over_reuse(self):
        x = dc.parameter(np.array(2.0))
        loss = dc.add(dc.mul(x, x), dc.scale(x, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        dc.backward(loss)
        assert x.grad == pytest.approx(7.0)


class TestGradientChecks:
    """Spot checks; the exhaustive 20-seed sweep lives in the acceptance suite."""

    def test_softmax(self):
        x = dc.parameter(np.random.default_rng(3).standard_normal(10))
        assert dc.gradient_check(lambda x: dc.softmax(x, axis=-1), [x]) < 1e-6

    def test_batch_norm_train(self):
        rng = np.random.default_rng(4)
        x = dc.parameter(randn(rng, 4, 8, 16))
        gamma = dc.parameter(rng.uniform(0.5, 1.5, 8))
        beta = dc.parameter(randn(rng, 8))
        rm, rv = dc.Tensor(np.zeros(8)), dc.Tensor(np.ones(8))
        err = dc.gradient_check(
            lambda x, g, b: dc.batch_norm(x, g, b, rm, rv, training=True), [x, gamma, beta]
        )
        assert err < 1e-5

    def test_complex_mask_apply(self):
        rng = np.random.default_rng(5)
        tensors = [dc.parameter(randn(rng, 2, 5, 4)) for _ in range(4)]
        err = dc.gradient_check(lambda *a: dc.complex_mask_apply(*a), tensors)
        assert err < 1e-6

    def test_istft_synthesis(self):
        rng = np.random.default_rng(6)
        cfg = StftConfig(window_len=16, hop_len=8, sample_rate=1000)
        spec = dc.parameter(randn(rng, 2, 2, 9, 5))
        err = dc.gradient_check(lambda s: dc.istft_synthesis(s, cfg), [spec])
        assert err < 1e-6


class TestBatchNormEval:
    def test_eval_is_deterministic_affine(self):
        rng = np.random.default_rng(7)
        x = dc.constant(randn(rng, 2, 4, 6))
        gamma = dc.constant(rng.uniform(0.5, 2.0, 4))
        beta = dc.constant(randn(rng, 4))
        rm = dc.Tensor(randn(rng, 4))
        rv = dc.Tensor(rng.uniform(0.5, 2.0, 4))
        a = dc.batch_norm(x, gamma, beta, rm, rv, training=False).values
        b = dc.batch_norm(x, gamma, beta, rm, rv, training=False).values
        np.testing.assert_array_equal(a, b)
        expected = gamma.values[None, :, None] * (
            x.values - rm.values[None, :, None]
        ) / np.sqrt(rv.values[None, :, None] + 1e-5) + beta.values[None, :, None]
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_train_mode_updates_running_stats(self):
        rng = np.random.default_rng(8)
        x = dc.constant(randn(rng, 3, 2, 5) + 4.0)
        rm, rv = dc.Tensor(np.zeros(2)), dc.Tensor(np.ones(2))
        dc.batch_norm(x, dc.constant(np.ones(2)), dc.constant(np.zeros(2)), rm, rv, training=True)
        assert np.all(rm.values > 0)  # moved toward the batch mean of ~4


class TestDeterminism:
    def test_forward_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        x = dc.constant(randn(rng, 2, 3, 32))
        w = dc.constant(randn(rng, 5, 3))
        b = dc.constant(randn(rng, 5))
        a = dc.softmax(dc.conv1d_pointwise(x, w, b), axis=1).values
        c = dc.softmax(dc.conv1d_pointwise(x, w, b), axis=1).values
        np.testing.assert_array_equal(a, c)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = dc.parameter(np.array([1.0, -2.0]))
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_first_step_closed_form(self):
        p = dc.parameter(np.array(5.0))
        opt = dc.Adam({"p": p}, lr=0.1)
        p.grad = np.array(1.0)
        opt.step()
        # bias-corrected mhat/sqrt(vhat) = 1 on step one
        assert p.values == pytest.approx(5.0 - 0.1, abs=1e-6)
        assert p.grad is None
        assert opt.t == 1

    def test_quadratic_bowl_convergence(self):
        # The optimizer is its own oracle on a convex problem.
        w = dc.parameter(np.array(0.0))
        opt = dc.Adam({"w": w}, lr=0.05)
        for _ in range(500):
            loss = dc.mse_reduction(w, dc.constant(np.array(3.0)))
            dc.backward(loss)
            opt.step()
        assert abs(float(w.values) - 3.0) < 1e-2

    def test_missing_grad_rejected(self):
        p = dc.parameter(np.zeros(3))
        opt = dc.Adam({"p": p})
        with pytest.raises(ValueError, match="missing gradients"):
            opt.step()


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        arrays = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "b.kernel": rng.standard_normal((2, 3, 5)),
            "scalar": np.array(2.5, dtype=np.float32),
        }
        header = {"model": {"n_classes": 10}, "step": 7}
        path = tmp_path / "model.ckpt"
        dc.save_checkpoint(path, arrays, header)
        loaded, loaded_header = dc.load_checkpoint(path)
        assert loaded_header["step"] == 7
        assert loaded_header["model"] == {"n_classes": 10}
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            np.testing.assert_array_equal(loaded[name], arr)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a checkpoint"):
            dc.load_checkpoint(path)

    def test_format_v1_layout_is_pinned(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        dc.save_checkpoint(path, {"w": np.array([1.5, -2.0], dtype=np.float32)}, {"step": 3})
        blob = b'{"format_version": 1, "step": 3}'
        expected = (
            b"SQCK"
            + struct.pack("<IQ", 1, len(blob))
            + blob
            + struct.pack("<IH", 1, 1)
            + b"w"
            + struct.pack("<BBQQ", 0, 1, 2, 8)
            + np.array([1.5, -2.0], dtype="<f4").tobytes()
        )
        assert path.read_bytes() == expected

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "full.ckpt"
        dc.save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2, np.float32)}, {"step": 1})
        full = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(full)):
            cut.write_bytes(full[:n])
            with pytest.raises(dc.CheckpointError):
                dc.load_checkpoint(cut)

    def test_unknown_version_and_size_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        dc.save_checkpoint(path, {"w": np.zeros(4)}, {})
        full = path.read_bytes()
        bad_version = tmp_path / "v9.ckpt"
        bad_version.write_bytes(full[:4] + struct.pack("<I", 9) + full[8:])
        with pytest.raises(dc.CheckpointError, match="version 9"):
            dc.load_checkpoint(bad_version)
        # The byte-count field sits right before the 32 data bytes.
        wrong_size = tmp_path / "size.ckpt"
        wrong_size.write_bytes(full[:-40] + struct.pack("<Q", 24) + full[-32:])
        with pytest.raises(dc.CheckpointError, match="needs 32"):
            dc.load_checkpoint(wrong_size)
