"""Audio I/O and STFT analysis/synthesis.

WAV files are read and written by a small RIFF codec on ``struct`` and
numpy. It reads little-endian RIFF files whose samples are 16-bit PCM or
32-bit IEEE float, named either by their own format tag or by the
subformat GUID of a WAVE_FORMAT_EXTENSIBLE header; RF64, big-endian RIFX
and every other sample encoding are rejected. It writes mono files of
either encoding, byte for byte as ``scipy.io.wavfile.write`` does.

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
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

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


# Format tags of the two sample encodings load_wav reads, the tag that defers
# to a subformat GUID, and the fixed tail of such a GUID (RFC 2361).
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


class _UnsupportedWav(ValueError):
    """A readable WAV file in a container or sample encoding load_wav does not take."""


def _read_wav(buf: bytes):
    """Decode a RIFF/WAVE byte string into (sample rate, samples).

    The chunk walk is scipy.io.wavfile.read's: it stops at the RIFF-declared
    size, needs ``fmt `` before ``data``, skips other chunks with their pad
    byte and, in a truncated data chunk, keeps the whole frames. Samples are
    ``<i2`` or ``<f4``, shaped (frames, channels) for more than one channel.

    Raises:
        _UnsupportedWav: RIFX/RF64, or samples other than 16-bit PCM and 32-bit float.
        ValueError: anything malformed.
    """
    if buf[:4] in (b"RIFX", b"RF64"):
        raise _UnsupportedWav(f"{buf[:4].decode()} container")
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    end = int.from_bytes(buf[4:8], "little") + 8
    pos, fmt, data = 12, None, None
    while pos < end:
        chunk_id, size_field = buf[pos : pos + 4], buf[pos + 4 : pos + 8]
        if len(chunk_id) < 4 or (not size_field and chunk_id not in (b"fmt ", b"data")):
            if data is not None:  # a clipped tail after the samples is ignored
                break
            raise ValueError("unexpected end of file")
        if len(size_field) < 4:
            raise ValueError(f"truncated {chunk_id!r} chunk header")
        size = int.from_bytes(size_field, "little")
        body, used = pos + 8, 0
        if chunk_id == b"fmt ":
            fields = buf[body : body + 16]
            if size < 16 or len(fields) < 16:
                raise ValueError("fmt chunk shorter than 16 bytes")
            tag, channels, rate, byte_rate, block_align, bits = struct.unpack("<HHIIHH", fields)
            used = 16
            if tag == _WAVE_EXTENSIBLE and size >= 18:
                ext = buf[body + 16 : body + 40]
                if len(ext) < 2 or int.from_bytes(ext[:2], "little") < 22:
                    raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk without a subformat")
                used = 40
                if ext[8:24].endswith(_GUID_TAIL):
                    tag = int.from_bytes(ext[8:12], "little")
            if tag not in (_WAVE_PCM, _WAVE_FLOAT):
                raise ValueError(f"unknown wave format tag {tag:#06x}")
            if tag == _WAVE_PCM and byte_rate != rate * block_align:
                raise ValueError(
                    f"nAvgBytesPerSec {byte_rate} is not nSamplesPerSec {rate} * nBlockAlign {block_align}"
                )
            fmt = (tag, channels, rate, block_align, bits)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            tag, channels, rate, block_align, bits = fmt
            if channels == 0 or block_align < channels:
                raise ValueError(f"block align {block_align} cannot hold {channels} channels")
            width = block_align // channels
            if tag == _WAVE_PCM and width == 2 and (bits == 0 or 8 < bits <= 64):
                dtype = "<i2"
            elif tag == _WAVE_FLOAT and width == 4 and bits in (32, 64):
                dtype = "<f4"
            else:
                kind = "PCM" if tag == _WAVE_PCM else "float"
                raise _UnsupportedWav(f"sample encoding {bits}-bit {kind} in {width}-byte containers")
            frames = min(size, len(buf) - body) // (width * channels)
            data = np.frombuffer(buf, dtype, frames * channels, body)
            if channels > 1:
                data = data.reshape(frames, channels)
        # An EXTENSIBLE fmt chunk is read to its end even where the declared
        # size is shorter, as scipy does, and the walk resumes after it.
        pos = body + max(size, used) + size % 2
    if data is None:
        raise ValueError("no data chunk")
    return fmt[2], data


def _write_wav(path, rate: int, data: np.ndarray) -> None:
    """Write mono ``<i2`` or ``<f4`` samples as the bytes scipy.io.wavfile.write gives.

    PCM gets a 16-byte ``fmt `` chunk; float gets an 18-byte one (with a zero
    cbSize) and a ``fact`` chunk holding the sample count.
    """
    width = data.dtype.itemsize
    is_float = data.dtype.kind == "f"
    fmt = struct.pack("<HHIIHH", _WAVE_FLOAT if is_float else _WAVE_PCM, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if is_float:
        fmt += b"\x00\x00"
        fact = b"fact" + struct.pack("<II", 4, data.size)
    head = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(head) + data.nbytes) + head)
        fh.write(data.tobytes())


def load_wav(path) -> Waveform:
    """Read a mono RIFF WAV file into a Waveform.

    Accepts little-endian RIFF files holding 16-bit PCM (rescaled by
    1/32768) or 32-bit IEEE float samples, given either by their own format
    tag or by a WAVE_FORMAT_EXTENSIBLE subformat. RF64 and big-endian RIFX
    files, and every other sample encoding, are rejected. Multi-channel
    files keep the first channel and emit a warning.

    Raises:
        FileNotFoundError: the file does not exist.
        WavFormatError: unreadable or malformed file, unsupported container
            or sample encoding, or samples that do not form a Waveform
            (non-finite values, a zero sample rate).
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such audio file: {path}")
    try:
        with open(path, "rb") as fh:
            rate, data = _read_wav(fh.read())
    except FileNotFoundError:
        raise
    except _UnsupportedWav as exc:
        raise WavFormatError(
            f"{path}: unsupported {exc}; expected 16-bit PCM or 32-bit float in little-endian RIFF"
        ) from exc
    except (OSError, ValueError) as exc:
        raise WavFormatError(f"{path}: malformed or unreadable WAV: {exc}") from exc
    if data.ndim == 2:
        warnings.warn(f"{path}: {data.shape[1]} channels, keeping the first", stacklevel=2)
        data = data[:, 0]
    if data.size == 0:
        raise WavFormatError(f"{path}: WAV file contains no samples")
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    try:
        return Waveform(samples, rate)
    except ValueError as exc:
        raise WavFormatError(f"{path}: {exc}") from exc


def save_wav(path, wave: Waveform, encoding: str = "float32") -> None:
    """Write a Waveform as mono RIFF WAV (32-bit float or 16-bit PCM)."""
    if encoding == "float32":
        _write_wav(os.fspath(path), wave.sample_rate, wave.samples.astype("<f4"))
    elif encoding == "pcm16":
        clipped = np.clip(wave.samples, -1.0, 32767.0 / 32768.0)
        _write_wav(os.fspath(path), wave.sample_rate, np.round(clipped * 32768.0).astype("<i2"))
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
