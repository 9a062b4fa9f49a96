"""Pins the rewritten kernels to plain references.

The references are the einsum contraction and the per-frame loops that
the BLAS pointwise conv and the overlap-add replace, and the select-,
padding- and temporary-based forms of PReLU, the norm, the depthwise
conv and Adam. Adam's grouped update is pinned to the per-tensor kernel,
and the batched STFT to a stack of single-signal transforms. Kernels that
keep every operation and reduction order must match their reference
exactly; the GEMMs sum in another order, so they match einsum to a
dtype-dependent tolerance.
"""

import numpy as np
import pytest

from speechq import diffcore as dc
from speechq import signal as sig

FRAME_COUNTS = (1, 2, 7, 63)


def assert_close(actual, expected, dtype):
    assert actual.dtype == expected.dtype == dtype
    if dtype == np.float64:
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)
    else:
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-5 * scale)


def pointwise_case(rng, batch, dtype, contiguous=True):
    cin, cout, t = 6, 5, 11
    if contiguous:
        x = rng.standard_normal((batch, cin, t))
    else:
        x = rng.standard_normal((batch, t, cin)).transpose(0, 2, 1)
    w = rng.standard_normal((cout, cin))
    b = rng.standard_normal(cout)
    return x.astype(dtype, copy=False), w.astype(dtype), b.astype(dtype)


class TestConv1dPointwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "batch, contiguous", [(1, True), (4, True), (3, False)], ids=["B1", "B4", "B3-strided"]
    )
    def test_matches_einsum(self, dtype, batch, contiguous):
        rng = np.random.default_rng(batch)
        x, w, b = pointwise_case(rng, batch, dtype, contiguous)
        assert x.flags.c_contiguous == contiguous
        xt, wt, bt = dc.parameter(x), dc.parameter(w), dc.parameter(b)
        out = dc.conv1d_pointwise(xt, wt, bt)
        assert_close(out.values, np.einsum("oc,bct->bot", w, x) + b[None, :, None], dtype)

        g = rng.standard_normal(out.shape).astype(dtype)
        gx, gw, gb = out._vjp(g)
        assert_close(gx, np.einsum("oc,bot->bct", w, g), dtype)
        assert_close(gw, np.einsum("bot,bct->oc", g, x), dtype)
        assert_close(gb, np.sum(g, axis=(0, 2)), dtype)


# Per-frame loops the overlap-add helpers replaced, kept as the reference.


def loop_window_sumsquare(cfg, n_frames):
    wss = np.zeros((n_frames - 1) * cfg.hop_len + cfg.window_len)
    for t in range(n_frames):
        wss[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len] += cfg.window**2
    return np.maximum(wss, 1e-12)


def loop_synthesize(spec, cfg):
    spec = np.array(spec)
    spec[0] = spec[0].real
    spec[-1] = spec[-1].real
    frames = np.fft.irfft(spec, n=cfg.window_len, axis=0)
    frames = frames * cfg.window[:, None].astype(frames.dtype)
    out = np.zeros((spec.shape[1] - 1) * cfg.hop_len + cfg.window_len, dtype=frames.dtype)
    for t in range(spec.shape[1]):
        out[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len] += frames[:, t]
    return out / loop_window_sumsquare(cfg, spec.shape[1]).astype(frames.dtype)


def loop_synthesize_adjoint(grad_out, n_frames, cfg):
    g = grad_out / loop_window_sumsquare(cfg, n_frames).astype(grad_out.dtype)
    frames_g = np.empty((cfg.window_len, n_frames), dtype=g.dtype)
    for t in range(n_frames):
        frames_g[:, t] = g[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len]
    frames_g *= cfg.window[:, None].astype(g.dtype)
    spec_g = np.fft.rfft(frames_g, n=cfg.window_len, axis=0)
    scale = np.full(cfg.n_bins, 2.0 / cfg.window_len)
    scale[0] = scale[-1] = 1.0 / cfg.window_len
    return spec_g * scale[:, None].astype(g.dtype)


@pytest.fixture(scope="module")
def cfg():
    return sig.StftConfig(16000)


def random_spec(rng, cfg, n_frames, cdtype, lead=()):
    shape = (*lead, cfg.n_bins, n_frames)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(cdtype)


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


class TestOverlapAdd:
    @pytest.mark.parametrize("n_frames", FRAME_COUNTS)
    def test_window_sumsquare_matches_loop(self, cfg, n_frames):
        assert_identical(sig._window_sumsquare(cfg, n_frames), loop_window_sumsquare(cfg, n_frames))

    @pytest.mark.parametrize("cdtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("n_frames", FRAME_COUNTS)
    def test_synthesize_matches_loop(self, cfg, cdtype, n_frames):
        spec = random_spec(np.random.default_rng(n_frames), cfg, n_frames, cdtype)
        assert_identical(sig._synthesize(spec, cfg), loop_synthesize(spec, cfg))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_frames", FRAME_COUNTS)
    def test_synthesize_adjoint_matches_loop(self, cfg, dtype, n_frames):
        rng = np.random.default_rng(100 + n_frames)
        g = rng.standard_normal((n_frames - 1) * cfg.hop_len + cfg.window_len).astype(dtype)
        assert_identical(
            sig._synthesize_adjoint(g, n_frames, cfg), loop_synthesize_adjoint(g, n_frames, cfg)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_istft_synthesis_matches_per_row_loops(self, cfg, dtype):
        rng = np.random.default_rng(7)
        n_frames = 7
        cdtype = np.complex64 if dtype == np.float32 else np.complex128
        # The model's spectrogram is complex128 at either training precision.
        spec = random_spec(rng, cfg, n_frames, np.complex128, lead=(3,))
        mr, mi = (rng.standard_normal(spec.shape).astype(dtype) for _ in range(2))
        out = dc.istft_synthesis(dc.parameter(mr), dc.parameter(mi), spec, cfg)
        yr, yi = spec.real.astype(dtype), spec.imag.astype(dtype)
        for b in range(3):
            masked = (mr[b] * yr[b] - mi[b] * yi[b]) + 1j * (mr[b] * yi[b] + mi[b] * yr[b])
            assert_identical(out.values[b], loop_synthesize(masked.astype(cdtype), cfg))

        g = rng.standard_normal(out.shape).astype(dtype)
        gmr, gmi = out._vjp(g)
        for grad in (gmr, gmi):
            assert grad.dtype == dtype
            assert grad.shape == spec.shape
            # Reductions over these gradients sum in memory order, so their
            # layout is part of the bit-exact contract with the per-row code.
            assert grad.flags.c_contiguous
        for b in range(3):
            ref = loop_synthesize_adjoint(g[b], n_frames, cfg)
            assert np.array_equal(gmr[b], ref.real * yr[b] + ref.imag * yi[b])
            assert np.array_equal(gmi[b], -ref.real * yi[b] + ref.imag * yr[b])


# Copies of the select-, padding- and temporary-based kernels that prelu,
# the norms, the depthwise conv and Adam replaced. The rewrites keep every
# operation and reduction order, so they must match these bit for bit.


def ref_prelu(x, a, g):
    pos = x > 0
    a = a[None, :, None]
    v = np.where(pos, x, a * x)
    gx = np.where(pos, g, a * g)
    gs = np.sum(np.where(pos, 0.0, g * x), axis=(0, 2))
    return v, gx, gs


def ref_batch_norm(x, gamma, beta, run_mean, run_var, g, momentum=0.99, eps=1e-5):
    """Returns (value, gx, ggamma, gbeta) and updates the running buffers in place."""
    mu = np.mean(x, axis=(0, 2))
    var = np.var(x, axis=(0, 2))
    run_mean[...] = momentum * run_mean + (1.0 - momentum) * mu
    run_var[...] = momentum * run_var + (1.0 - momentum) * var
    sigma = np.sqrt(var + eps)
    xhat = (x - mu[None, :, None]) / sigma[None, :, None]
    m = x.shape[0] * x.shape[2]
    gg = g * gamma[None, :, None]
    mean_g = np.sum(gg, axis=(0, 2), keepdims=True) / m
    mean_gx = np.sum(gg * xhat, axis=(0, 2), keepdims=True) / m
    gx = (gg - mean_g - xhat * mean_gx) / sigma[None, :, None]
    v = gamma[None, :, None] * xhat + beta[None, :, None]
    return v.astype(x.dtype, copy=False), gx, np.sum(g * xhat, axis=(0, 2)), np.sum(g, axis=(0, 2))


def ref_depthwise(x, kernel, bias, dilation, g):
    batch, c, t = x.shape
    k = kernel.shape[1]
    pad = dilation * (k - 1) // 2
    xpad = np.zeros((batch, c, t + 2 * pad), dtype=x.dtype)
    xpad[:, :, pad : pad + t] = x
    v = np.zeros((batch, c, t), dtype=x.dtype)
    for j in range(k):
        v += kernel[None, :, j : j + 1] * xpad[:, :, j * dilation : j * dilation + t]
    v += bias[None, :, None]
    gpad = np.zeros_like(xpad)
    for j in range(k):
        gpad[:, :, j * dilation : j * dilation + t] += kernel[None, :, j : j + 1] * g
    gk = np.empty_like(kernel)
    for j in range(k):
        gk[:, j] = np.sum(g * xpad[:, :, j * dilation : j * dilation + t], axis=(0, 2))
    return v, gpad[:, :, pad : pad + t], gk, np.sum(g, axis=(0, 2))


def ref_adam_step(values, m, v, g, t, lr=1e-3, beta1=dc.ADAM_BETA1, beta2=dc.ADAM_BETA2, eps=dc.ADAM_EPS):
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * (g * g)
    mhat = m / bc1
    vhat = v / bc2
    values[...] = values - lr * mhat / (np.sqrt(vhat) + eps)


def assert_all_identical(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert_identical(np.asarray(a), np.asarray(e))


DTYPES = [np.float32, np.float64]


def norm_inputs(rng, dtype, shape=(4, 6, 13)):
    x = (3.0 * rng.standard_normal(shape) + 1.5).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, shape[1]).astype(dtype)
    beta = rng.standard_normal(shape[1]).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    return x, gamma, beta, g


class TestElementwiseKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_prelu_matches_select(self, dtype):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 8, 17)).astype(dtype)
        x[0, 0, :3] = 0.0  # the kink belongs to the slope branch
        a = rng.uniform(-0.5, 1.5, 8).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        out = dc.prelu(dc.parameter(x), dc.parameter(a))
        assert_all_identical((out.values, *out._vjp(g)), ref_prelu(x, a, g))

    @pytest.mark.parametrize("dtype", DTYPES, ids=["train-float32", "train-float64"])
    def test_batch_norm_matches_reference(self, dtype):
        rng = np.random.default_rng(12)
        x, gamma, beta, g = norm_inputs(rng, dtype)
        run_mean = rng.standard_normal(6).astype(dtype)
        run_var = rng.uniform(0.5, 2.0, 6).astype(dtype)
        ref_mean, ref_var = run_mean.copy(), run_var.copy()
        rm, rv = dc.Tensor(run_mean), dc.Tensor(run_var)
        out = dc.batch_norm(dc.parameter(x), dc.parameter(gamma), dc.parameter(beta), rm, rv)
        expected = ref_batch_norm(x, gamma, beta, ref_mean, ref_var, g)
        assert_all_identical((out.values, *out._vjp(g)), expected)
        assert_all_identical((rm.values, rv.values), (ref_mean, ref_var))


class TestDepthwiseKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("t", [1, 7, 61, 250])
    def test_matches_padded_reference(self, dtype, k, t):
        # Dilations up to 128 put whole taps in the padding for the shorter
        # inputs (64 and 128 at T = 61, as in the paper-scale trunk).
        rng = np.random.default_rng(t * 10 + k)
        for dilation in [2**i for i in range(8)]:
            x = rng.standard_normal((2, 5, t)).astype(dtype)
            kernel = rng.standard_normal((5, k)).astype(dtype)
            bias = rng.standard_normal(5).astype(dtype)
            g = rng.standard_normal(x.shape).astype(dtype)
            out = dc.conv1d_depthwise_dilated(
                dc.parameter(x), dc.parameter(kernel), dc.parameter(bias), dilation
            )
            assert_all_identical((out.values, *out._vjp(g)), ref_depthwise(x, kernel, bias, dilation, g))


class TestAdamKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_steps_match_reference(self, dtype):
        rng = np.random.default_rng(14)
        shapes = {"w": (7, 5), "b": (7,), "s": (), "t": ()}
        params = {n: dc.parameter(rng.standard_normal(s).astype(dtype)) for n, s in shapes.items()}
        opt = dc.Adam(params, lr=3e-3)
        ref = {n: (params[n].values.copy(), np.zeros(s, dtype), np.zeros(s, dtype)) for n, s in shapes.items()}
        for step in range(1, 6):
            grads = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
            for name, p in params.items():
                p.grad = grads[name].copy()
                ref_adam_step(*ref[name], grads[name], step, lr=3e-3)
            given = {n: p.grad for n, p in params.items()}
            opt.step()
            for name, p in params.items():
                assert p.grad is None
                assert np.array_equal(given[name], grads[name])  # gradients are not modified
                assert_all_identical((p.values, opt.m[name], opt.v[name]), ref[name])


# Sizes on both sides of Adam's grouping bound, a scalar included: 256 x 256
# is exactly ADAM_GROUP_MAX elements, 257 x 256 one row more.
ADAM_SHAPES = {"big": (257, 256), "edge": (256, 256), "w": (7, 5), "b": (7,), "s": ()}


def adam_params(rng, dtypes):
    return {
        name: dc.parameter(rng.standard_normal(shape).astype(dtype))
        for (name, shape), dtype in zip(ADAM_SHAPES.items(), dtypes)
    }


class TestGroupedAdam:
    @pytest.mark.parametrize(
        "dtypes", [[np.float32] * 5, [np.float64] * 5, [np.float32, np.float64] * 2 + [np.float32]],
        ids=["float32", "float64", "mixed"],
    )
    def test_matches_the_per_tensor_kernel_across_a_resume(self, dtypes, tmp_path):
        rng = np.random.default_rng(15)
        params = adam_params(rng, dtypes)
        assert dc.ADAM_GROUP_MAX == 256 * 256
        opt = dc.Adam(params, lr=3e-3)
        assert list(opt._singles) == ["big"]
        ref = {n: (p.values.copy(), np.zeros_like(p.values), np.zeros_like(p.values)) for n, p in params.items()}
        for step in range(1, 6):
            if step == 3:  # save after step 2 and resume with a new optimizer
                dc.save_checkpoint(tmp_path / "adam.ckpt", opt.state_arrays(), {})
                opt = dc.Adam(params, lr=3e-3)
                opt.load_state(dc.load_checkpoint(tmp_path / "adam.ckpt")[0], 2)
            for name, p in params.items():
                grad = rng.standard_normal(p.values.shape).astype(p.values.dtype)
                p.grad = grad.copy()
                ref_adam_step(*ref[name], grad, step, lr=3e-3)
            opt.step()
            for name, p in params.items():
                assert p.grad is None
                assert_all_identical((p.values, opt.m[name], opt.v[name]), ref[name])

    @pytest.mark.parametrize("bad", ["w", "big"])
    def test_non_finite_gradient_names_the_parameter_and_changes_nothing(self, bad):
        rng = np.random.default_rng(16)
        params = adam_params(rng, [np.float32] * 5)
        opt = dc.Adam(params)
        for p in params.values():
            p.grad = np.ones_like(p.values)
        opt.step()
        before = {n: (p.values.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in params.items()}
        for p in params.values():
            p.grad = np.ones_like(p.values)
        params[bad].grad[1, 2] = np.nan
        with pytest.raises(FloatingPointError, match=f"non-finite gradient for parameter '{bad}'"):
            opt.step()
        assert opt.t == 1
        for name, p in params.items():
            assert_all_identical((p.values, opt.m[name], opt.v[name]), before[name])


class TestBatchedStft:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("length", [512, 1000, 8037])
    def test_matches_the_per_row_stack(self, batch, length):
        # 1000 and 8037 samples leave a tail shorter than one hop (256).
        cfg = sig.StftConfig(16000)
        rows = np.random.default_rng(length + batch).standard_normal((batch, length))
        got = sig.stft(rows, cfg)
        want = np.stack([sig.stft(sig.Waveform(row, 16000), cfg) for row in rows])
        assert_identical(got, want)
        # The same memory layout; the stride of a length-1 axis is never used.
        assert [s for s, n in zip(got.strides, got.shape) if n > 1] == [
            s for s, n in zip(want.strides, want.shape) if n > 1
        ]

    def test_single_waveform_is_the_rfft_of_its_frames(self):
        cfg = sig.StftConfig(8000)
        x = np.random.default_rng(3).standard_normal(1000)
        frames = np.stack([x[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len] for t in range(6)])
        want = np.fft.rfft(frames * cfg.window, axis=1).T
        assert_identical(sig.stft(sig.Waveform(x, 8000), cfg), want)
