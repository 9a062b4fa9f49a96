"""Pins the BLAS pointwise conv and the loop-free overlap-add to plain references.

The references are the einsum contraction and the per-frame loops that
the kernels replace. The overlap-add adds the same two terms per sample
as the loops, so it must match them exactly; the GEMMs sum in another
order, so they match einsum to a dtype-dependent tolerance.
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
    wss = np.zeros(cfg.output_len(n_frames))
    for t in range(n_frames):
        wss[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len] += cfg.window**2
    return np.maximum(wss, 1e-12)


def loop_synthesize(spec, cfg):
    spec = np.array(spec)
    spec[0] = spec[0].real
    spec[-1] = spec[-1].real
    frames = np.fft.irfft(spec, n=cfg.fft_len, axis=0)
    frames = frames * cfg.window[:, None].astype(frames.dtype)
    out = np.zeros(cfg.output_len(spec.shape[1]), dtype=frames.dtype)
    for t in range(spec.shape[1]):
        out[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len] += frames[:, t]
    return out / loop_window_sumsquare(cfg, spec.shape[1]).astype(frames.dtype)


def loop_synthesize_adjoint(grad_out, n_frames, cfg):
    g = grad_out / loop_window_sumsquare(cfg, n_frames).astype(grad_out.dtype)
    frames_g = np.empty((cfg.window_len, n_frames), dtype=g.dtype)
    for t in range(n_frames):
        frames_g[:, t] = g[t * cfg.hop_len : t * cfg.hop_len + cfg.window_len]
    frames_g *= cfg.window[:, None].astype(g.dtype)
    spec_g = np.fft.rfft(frames_g, n=cfg.fft_len, axis=0)
    scale = np.full(cfg.n_bins, 2.0 / cfg.fft_len)
    scale[0] = scale[-1] = 1.0 / cfg.fft_len
    return spec_g * scale[:, None].astype(g.dtype)


@pytest.fixture(scope="module")
def cfg():
    return sig.StftConfig.for_sample_rate(16000)


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
        g = rng.standard_normal(cfg.output_len(n_frames)).astype(dtype)
        assert_identical(
            sig._synthesize_adjoint(g, n_frames, cfg), loop_synthesize_adjoint(g, n_frames, cfg)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_istft_synthesis_matches_per_row_loops(self, cfg, dtype):
        rng = np.random.default_rng(7)
        n_frames = 7
        cdtype = np.complex64 if dtype == np.float32 else np.complex128
        spec = random_spec(rng, cfg, n_frames, cdtype, lead=(3,))
        stack = dc.parameter(np.stack([spec.real, spec.imag]).astype(dtype))
        out = dc.istft_synthesis(stack, cfg)
        for b in range(3):
            assert_identical(out.values[b], loop_synthesize(spec[b], cfg))

        g = rng.standard_normal(out.shape).astype(dtype)
        (grad,) = out._vjp(g)
        assert grad.dtype == dtype
        # Reductions over this gradient sum in memory order, so its layout
        # is part of the bit-exact contract with the per-row code.
        assert grad.flags.c_contiguous
        for b in range(3):
            ref = loop_synthesize_adjoint(g[b], n_frames, cfg)
            assert np.array_equal(grad[0, b], ref.real)
            assert np.array_equal(grad[1, b], ref.imag)
