import os
import struct
import weakref

import numpy as np
import pytest

from speechq import diffcore as dc
from speechq import losses
from speechq import model as mdl
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
        # The product overflows to inf, which _make's finiteness check reports.
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            dc.mul(dc.constant(np.array([1e300])), dc.constant(np.array([1e300])))


class TestBackwardExamples:
    def test_sum_gradient_is_ones(self):
        x = dc.parameter(np.random.default_rng(2).standard_normal((3, 4)))
        dc.backward(dc.sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_mse_scalar_gradient(self):
        x = dc.parameter(np.array(3.0))
        d = dc.sub(x, dc.constant(np.array(0.0)))
        loss = dc.sum(dc.mul(d, d))
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


def record_op_outputs(monkeypatch):
    """Weak references to the values of every op output made from now on.

    Graph nodes hold no values, so the outputs are caught where ``_make``
    builds them.
    """
    refs = []
    make = dc._make

    def spy(values, parents, vjp):
        out = make(values, parents, vjp)
        refs.append(weakref.ref(out.values))
        return out

    monkeypatch.setattr(dc, "_make", spy)
    return refs


def retaining_backward(loss):
    """In-test copy of the walk before backward freed the graph."""
    root = loss._node
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if isinstance(p, dc._Node) and id(p) not in seen)
    root.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is not None and parent is not None:
                parent.grad = g if parent.grad is None else parent.grad + g


class TestGraphRelease:
    """backward frees the graph as it walks it; only leaves keep gradients."""

    CFG = mdl.ModelConfig(bottleneck_channels=8, conv_channels=16, blocks_per_repeat=2, repeats=1, n_classes=10)

    def step(self):
        """A tiny joint-objective training step up to its loss: (params, graph output, total)."""
        params = mdl.init_params(self.CFG, seed=1)
        rng = np.random.default_rng(2)
        wave = 0.1 * rng.standard_normal((2, 4000))
        out = mdl.forward_graph(wave, self.CFG, params, training=True)
        clean = dc.constant((0.5 * wave[:, : out.reconstruction.shape[1]]).astype(np.float32))
        target = dc.constant(np.eye(10)[[2, 7]])
        total, _recon, _emd = losses.joint_loss(out.reconstruction, clean, out.distribution, target)
        return params, out, total

    def test_intermediates_die_with_the_callers_outputs(self, monkeypatch):
        refs = record_op_outputs(monkeypatch)
        params, out, total = self.step()
        # Tensor has __slots__ and no weakref slot; its values array stands in.
        inner = [ref for ref in refs if ref() is not total.values]
        assert len(inner) > 30
        dc.backward(total)
        del out
        assert [ref for ref in inner if ref() is not None] == []
        assert total._node._parents == ()

    def test_outputs_no_vjp_reads_die_before_backward(self, monkeypatch):
        # The caller holds only the loss and the params. PReLU outputs (the
        # norms' VJPs read xhat and sigma), pw2 outputs (the residual add reads
        # shapes) and the mask heads (the spectrogram is constant) are then
        # gone; pw1 outputs, which the PReLU VJP reads, are not.
        prelu_refs, pointwise_refs = [], []
        prelu, pointwise = dc.prelu, dc.conv1d_pointwise

        def prelu_spy(x, slope):
            out = prelu(x, slope)
            prelu_refs.append(weakref.ref(out.values))
            return out

        def pointwise_spy(x, w, b):
            out = pointwise(x, w, b)
            pointwise_refs.append((id(w), weakref.ref(out.values)))
            return out

        monkeypatch.setattr(dc, "prelu", prelu_spy)
        monkeypatch.setattr(dc, "conv1d_pointwise", pointwise_spy)
        params, out, total = self.step()
        del out
        names = {id(t): name for name, t in params.items()}
        by_layer = [(names[wid], ref) for wid, ref in pointwise_refs]
        dead = prelu_refs + [ref for name, ref in by_layer if name.endswith("pw2.w") or name.startswith("mask_")]
        read = [ref for name, ref in by_layer if name.endswith("pw1.w")]
        assert (len(dead), len(read)) == (4 + 2 + 2, 2)
        assert [ref for ref in dead if ref() is not None] == []
        assert all(ref() is not None for ref in read)

        monkeypatch.undo()
        ref_params, _ref_out, ref_total = self.step()
        dc.backward(total)
        retaining_backward(ref_total)
        assert all(ref() is None for ref in read)
        for name, t in params.items():
            if t.requires_grad:
                np.testing.assert_array_equal(t.grad, ref_params[name].grad, err_msg=name)

    def test_norm_outputs_die_before_backward(self, monkeypatch):
        # The depthwise conv and pw2 read their batch-norm inputs for the
        # weight gradients, but keep the norm's recipe, not its output.
        norm_refs = []
        batch_norm = dc.batch_norm

        def batch_norm_spy(*args, **kwargs):
            out = batch_norm(*args, **kwargs)
            np.testing.assert_array_equal(out._recompute(), out.values)
            norm_refs.append(weakref.ref(out.values))
            return out

        monkeypatch.setattr(dc, "batch_norm", batch_norm_spy)
        params, out, total = self.step()
        del out
        assert len(norm_refs) == 2 * 2
        assert [ref for ref in norm_refs if ref() is not None] == []

        # The reference keeps every input's values, as before the recipes.
        monkeypatch.setattr(dc, "batch_norm", batch_norm)
        monkeypatch.setattr(dc, "_keep", lambda t: lambda v=t.values: v)
        ref_params, _ref_out, ref_total = self.step()
        dc.backward(total)
        retaining_backward(ref_total)
        for name, t in params.items():
            if t.requires_grad:
                np.testing.assert_array_equal(t.grad, ref_params[name].grad, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_reads_the_norm_output_it_was_given(self, dtype):
        # The weight gradient reads exactly the norm's forward output, also
        # after an in-place update of gamma and beta such as Adam's step.
        rng = np.random.default_rng(13)
        gamma = dc.parameter(rng.uniform(0.5, 1.5, 3).astype(dtype))
        beta = dc.parameter(randn(rng, 3).astype(dtype))
        rm, rv = dc.Tensor(np.zeros(3)), dc.Tensor(np.ones(3))
        x = dc.constant(randn(rng, 2, 3, 50).astype(dtype))
        y = dc.batch_norm(x, gamma, beta, rm, rv, training=True)
        expected = y.values.copy()
        gamma.values += 1.0
        beta.values -= 1.0
        w = dc.parameter(randn(rng, 4, 3).astype(dtype))
        dc.backward(dc.sum(dc.conv1d_pointwise(y, w, dc.constant(np.zeros(4, dtype)))))
        ones = np.ones((2, 4, 50), dtype)
        np.testing.assert_array_equal(w.grad, np.tensordot(ones, expected, axes=([0, 2], [0, 2])))

    def test_leaves_keep_bit_identical_gradients(self):
        params, _out, total = self.step()
        ref_params, _ref_out, ref_total = self.step()
        before = float(total.values)
        dc.backward(total)
        retaining_backward(ref_total)
        assert float(total.values) == before == float(ref_total.values)
        for name, t in params.items():
            if not t.requires_grad:
                continue
            assert t.grad is not None, name
            np.testing.assert_array_equal(t.grad, ref_params[name].grad, err_msg=name)
        assert total.grad is None

    def test_second_backward_raises_and_changes_nothing(self):
        params, out, total = self.step()
        dc.backward(total)
        grads = {name: t.grad for name, t in params.items()}
        with pytest.raises(ValueError, match="already released"):
            dc.backward(total)
        # A new loss that reaches into the released graph is refused too.
        with pytest.raises(ValueError, match="already released"):
            dc.backward(dc.add(dc.sum(params["quality.b"]), dc.sum(out.distribution)))
        assert all(t.grad is grads[name] for name, t in params.items())


class TestGradientChecks:
    """Spot checks; the exhaustive 20-seed sweep lives in the acceptance suite."""

    def test_softmax(self):
        x = dc.parameter(np.random.default_rng(3).standard_normal(10))
        assert dc.gradient_check(lambda x: dc.softmax(x, axis=-1), [x]) < 1e-6

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: dc.mean(x, axis=-1, keepdims=True),
            lambda x: dc.mean(x),
            lambda x: dc.sum(x),
        ],
        ids=["mean-keepdims", "mean-all", "sum-all"],
    )
    def test_reductions(self, fn):
        x = dc.parameter(np.random.default_rng(14).standard_normal((3, 7)))
        assert dc.gradient_check(fn, [x]) < 1e-6

    @pytest.mark.parametrize("op", [dc.add, dc.mul, dc.sub], ids=["add", "mul", "sub"])
    @pytest.mark.parametrize("b_shape", [(3, 1), (7,), ()], ids=["column", "row", "scalar"])
    def test_broadcasting_binary_ops(self, op, b_shape):
        # As in td_mse's (B, L) - (B, 1); both sides' gradients sum back to their shapes.
        rng = np.random.default_rng(15)
        a, b = dc.parameter(randn(rng, 3, 7)), dc.parameter(randn(rng, *b_shape))
        assert dc.gradient_check(op, [a, b]) < 1e-6
        assert dc.gradient_check(lambda b, a: op(a, b), [b, a]) < 1e-6

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

    @pytest.mark.parametrize(
        "conv, weight_shape",
        [(lambda u, k, b: dc.conv1d_depthwise_dilated(u, k, b, 2), (3, 3)), (dc.conv1d_pointwise, (4, 3))],
        ids=["depthwise", "pointwise"],
    )
    def test_batch_norm_train_into_conv(self, conv, weight_shape):
        # The conv reads the norm's output through the norm's recipe for its
        # weight gradient.
        rng = np.random.default_rng(11)
        x = dc.parameter(randn(rng, 2, 3, 9))
        gamma = dc.parameter(rng.uniform(0.5, 1.5, 3))
        beta = dc.parameter(randn(rng, 3))
        w, b = dc.parameter(randn(rng, *weight_shape)), dc.parameter(randn(rng, weight_shape[0]))
        rm, rv = dc.Tensor(np.zeros(3)), dc.Tensor(np.ones(3))

        def fn(x, g, be, w, b):
            return conv(dc.batch_norm(x, g, be, rm, rv, training=True), w, b)

        assert dc.gradient_check(fn, [x, gamma, beta, w, b]) < 1e-5

    def test_istft_synthesis(self):
        rng = np.random.default_rng(6)
        cfg = StftConfig(500)
        spec = randn(rng, 2, 9, 5) + 1j * randn(rng, 2, 9, 5)
        masks = [dc.parameter(randn(rng, 2, 9, 5)) for _ in range(2)]
        err = dc.gradient_check(lambda mr, mi: dc.istft_synthesis(mr, mi, spec, cfg), masks)
        assert err < 1e-6

    @pytest.mark.parametrize(
        "mask_shape, spec_shape",
        [((2, 9, 5), (2, 9, 4)), ((2, 8, 5), (2, 8, 5)), ((9, 5), (9, 5))],
        ids=["spec-frames", "bins", "unbatched"],
    )
    def test_istft_synthesis_rejects_mismatched_shapes(self, mask_shape, spec_shape):
        mask = dc.parameter(np.ones(mask_shape))
        with pytest.raises(ValueError, match="masks and spectrogram"):
            dc.istft_synthesis(mask, mask, np.ones(spec_shape, dtype=complex), StftConfig(500))


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
            d = dc.sub(w, dc.constant(np.array(3.0)))
            loss = dc.sum(dc.mul(d, d))
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

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        dc.save_checkpoint(path, {"w": np.ones(3)}, {"step": 1})
        old = path.read_bytes()
        # The int32 array is refused after the float arrays before it were written.
        bad = {"w": np.zeros(4), "b": np.ones(2, np.float32), "ids": np.arange(3, dtype=np.int32)}
        with pytest.raises(ValueError, match="float32/float64"):
            dc.save_checkpoint(path, bad, {"step": 2})
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.ckpt"]

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
