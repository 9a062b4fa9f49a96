"""Audio I/O and STFT analysis/synthesis.

The analysis and synthesis transforms share a square-root Hann window at
50% overlap. That pair satisfies the constant-overlap-add condition
exactly (sin^2 + cos^2 = 1), so overlap-add resynthesis inverts the
analysis transform on the fully overlapped interior of the signal.
Frames start at multiples of the hop; tail samples shorter than one
window are dropped.

Because the hop is exactly half the window, every output sample of the
overlap-add lies in exactly two frames (one at the edges). Synthesis
therefore views the output as (T + 1) blocks of one hop and adds the
first and second frame halves into it with two shifted, loop-free adds;
its adjoint gathers all frames with one fancy index. The synthesis
helpers take any leading batch axes.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

__all__ = [
    "Waveform",
    "StftConfig",
    "WavFormatError",
    "load_wav",
    "save_wav",
    "stft",
    "istft",
    "lps",
]

LPS_FLOOR = 1e-12


class WavFormatError(ValueError):
    """Raised for audio this package cannot ingest: unreadable WAV files and
    signals shorter than one analysis window."""


@dataclass
class Waveform:
    """Mono audio signal with its sample rate.

    Samples are stored as float64 with a nominal range of [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def sqrt_hann(n: int) -> np.ndarray:
    """Square-root of the periodic Hann window, i.e. sin(pi k / n)."""
    return np.sin(np.pi * np.arange(n) / n)


@dataclass
class StftConfig:
    """Framing parameters for the analysis/synthesis pair.

    The hop must be exactly half the window and the FFT length equals the
    window length. The default window is square-root Hann, used for both
    analysis and synthesis.
    """

    window_len: int
    hop_len: int
    fft_len: int = 0
    sample_rate: int = 16000
    window: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.fft_len == 0:
            self.fft_len = self.window_len
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise ValueError(f"window_len must be a positive even number, got {self.window_len}")
        if self.hop_len * 2 != self.window_len:
            raise ValueError(
                f"hop_len must be exactly window_len / 2, got hop={self.hop_len} window={self.window_len}"
            )
        if self.fft_len != self.window_len:
            raise ValueError("fft_len must equal window_len")
        if self.window is None:
            self.window = sqrt_hann(self.window_len)
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.window.shape != (self.window_len,):
            raise ValueError("window length does not match window_len")
        # Constant-overlap-add check for the analysis*synthesis product at
        # 50% overlap: w^2[k] + w^2[k + hop] must be 1 on the interior.
        cola = self.window[: self.hop_len] ** 2 + self.window[self.hop_len :] ** 2
        if np.max(np.abs(cola - 1.0)) > 1e-9:
            raise ValueError("window does not satisfy constant overlap-add at 50% overlap")

    @classmethod
    def for_sample_rate(cls, sample_rate: int, window_ms: float = 32.0, hop_ms: float = 16.0) -> "StftConfig":
        """Build the standard configuration (32 ms window, 16 ms hop)."""
        win = int(round(sample_rate * window_ms / 1000.0))
        win += win % 2  # keep the 2:1 window/hop ratio exact
        if abs(hop_ms * 2 - window_ms) > 1e-9:
            raise ValueError("hop must be half the window")
        return cls(window_len=win, hop_len=win // 2, sample_rate=int(sample_rate))

    @property
    def n_bins(self) -> int:
        return self.fft_len // 2 + 1

    def num_frames(self, n_samples: int) -> int:
        if n_samples < self.window_len:
            raise WavFormatError(
                f"signal of {n_samples} samples is shorter than one window ({self.window_len})"
            )
        return (n_samples - self.window_len) // self.hop_len + 1

    def output_len(self, n_frames: int) -> int:
        return (n_frames - 1) * self.hop_len + self.window_len


def load_wav(path) -> Waveform:
    """Read a mono RIFF WAV file into a Waveform.

    Accepts 16-bit PCM (rescaled by 1/32768) or 32-bit float samples.
    Multi-channel files keep the first channel and emit a warning.

    Raises:
        FileNotFoundError: the file does not exist.
        WavFormatError: unreadable header or unsupported sample encoding.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such audio file: {path}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy chunk warnings; errors still raise
            rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise WavFormatError(f"{path}: malformed or unreadable WAV: {exc}") from exc
    if data.ndim == 2:
        warnings.warn(f"{path}: {data.shape[1]} channels, keeping the first", stacklevel=2)
        data = data[:, 0]
    if data.size == 0:
        raise WavFormatError(f"{path}: WAV file contains no samples")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: unsupported sample encoding {data.dtype}; expected 16-bit PCM or 32-bit float"
        )
    return Waveform(samples, int(rate))


def save_wav(path, wave: Waveform, encoding: str = "float32") -> None:
    """Write a Waveform as mono RIFF WAV (32-bit float or 16-bit PCM)."""
    if encoding == "float32":
        wavfile.write(os.fspath(path), wave.sample_rate, wave.samples.astype("<f4"))
    elif encoding == "pcm16":
        clipped = np.clip(wave.samples, -1.0, 32767.0 / 32768.0)
        wavfile.write(os.fspath(path), wave.sample_rate, np.round(clipped * 32768.0).astype("<i2"))
    else:
        raise ValueError(f"unknown encoding {encoding!r}")


def _frame_signal(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Slice (..., L) signals into overlapping frames, shape (..., T, window_len)."""
    n_frames = cfg.num_frames(x.shape[-1])
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop_len * np.arange(n_frames)[:, None]
    return x[..., idx]


def stft(wave: Waveform, cfg: StftConfig) -> np.ndarray:
    """Short-time Fourier transform, returned as an (F, T) complex matrix.

    Bin (f, t) is the DFT of the windowed frame starting at t * hop_len.
    """
    frames = _frame_signal(wave.samples, cfg) * cfg.window[None, :]
    return np.fft.rfft(frames, n=cfg.fft_len, axis=1).T


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Overlap-add (..., T, 2 * hop) frames at 50% overlap into (..., (T + 1) * hop).

    Output block r is the first half of frame r plus the second half of
    frame r - 1, so two shifted half-frame adds replace a per-frame loop.
    """
    *lead, n_frames, _ = frames.shape
    out = np.zeros((*lead, n_frames + 1, hop), dtype=frames.dtype)
    out[..., :-1, :] += frames[..., :hop]
    out[..., 1:, :] += frames[..., hop:]
    return out.reshape(*lead, (n_frames + 1) * hop)


def _synthesize(spec: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Windowed overlap-add synthesis of (..., F, T) complex spectra into (..., L).

    The imaginary parts of the DC and Nyquist bins cannot contribute to a
    real signal and are discarded explicitly.
    """
    spec = np.array(spec)
    spec[..., 0, :] = spec[..., 0, :].real
    spec[..., -1, :] = spec[..., -1, :].real
    frames = np.fft.irfft(np.swapaxes(spec, -1, -2), n=cfg.fft_len, axis=-1)  # (..., T, window_len)
    frames *= cfg.window.astype(frames.dtype)
    out = _overlap_add(frames, cfg.hop_len)
    return out / _window_sumsquare(cfg, spec.shape[-1]).astype(frames.dtype)


def _synthesize_adjoint(grad_out: np.ndarray, n_frames: int, cfg: StftConfig) -> np.ndarray:
    """Adjoint of _synthesize: maps (..., L) waveform gradients to (..., F, T) complex ones.

    The returned complex matrix packs d/d(real) + 1j * d/d(imag); the DC and
    Nyquist rows carry zero imaginary gradient, matching the forward pass.
    """
    g = grad_out / _window_sumsquare(cfg, n_frames).astype(grad_out.dtype)
    frames_g = _frame_signal(g, cfg)  # (..., T, window_len)
    frames_g *= cfg.window.astype(g.dtype)
    spec_g = np.fft.rfft(frames_g, n=cfg.fft_len, axis=-1)
    scale = np.full(cfg.n_bins, 2.0 / cfg.fft_len)
    scale[0] = 1.0 / cfg.fft_len
    scale[-1] = 1.0 / cfg.fft_len
    return np.swapaxes(spec_g * scale.astype(g.dtype), -1, -2)


def _window_sumsquare(cfg: StftConfig, n_frames: int) -> np.ndarray:
    """Overlap-added squared synthesis window, floored away from zero."""
    w2 = np.broadcast_to(cfg.window**2, (n_frames, cfg.window_len))
    return np.maximum(_overlap_add(w2, cfg.hop_len), 1e-12)


def istft(spec: np.ndarray, cfg: StftConfig) -> Waveform:
    """Inverse STFT by normalized overlap-add.

    Output length is (T - 1) * hop_len + window_len. Reconstruction is
    exact on the interior for spectra produced by :func:`stft`.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[0] != cfg.n_bins:
        raise ValueError(
            f"spectrogram shape {spec.shape} does not match config (expected {cfg.n_bins} bins)"
        )
    return Waveform(_synthesize(spec.astype(np.complex128), cfg), cfg.sample_rate)


def lps(spec: np.ndarray) -> np.ndarray:
    """Log power spectrum ln(|Y|^2), floored at 1e-12 to stay finite."""
    spec = np.asarray(spec)
    if not np.all(np.isfinite(spec)):
        raise ValueError("spectrogram contains non-finite entries")
    power = spec.real**2 + spec.imag**2
    return np.log(np.maximum(power, LPS_FLOOR))
