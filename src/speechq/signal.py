"""Audio I/O and STFT analysis/synthesis.

WAV files are read and written by a small RIFF codec on ``struct`` and
numpy. It reads little-endian RIFF files whose samples are 16-bit PCM or
32-bit IEEE float, named either by their own format tag or by the
subformat GUID of a WAVE_FORMAT_EXTENSIBLE header; RF64, big-endian RIFX
and every other sample encoding are rejected. It writes mono 32-bit float
files, byte for byte as ``scipy.io.wavfile.write`` does.
:class:`WavReader` validates a file as :func:`load_wav` does but keeps only
where its samples are; each :meth:`WavReader.read` then decodes one frame
range from disk, through the same code as ``load_wav``.

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
    "WavReader",
    "load_wav",
    "save_wav",
    "stft",
    "istft",
    "lps",
]

LPS_FLOOR = 1e-12

# The highest common PCM sample rate. A higher rate is a bad header or
# setting, and would make the 32 ms analysis window a huge allocation.
MAX_SAMPLE_RATE = 384000


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

    def read(self, start: int, n: int) -> np.ndarray:
        """Samples ``start`` to ``start + n``, as a view."""
        return self.samples[start : start + n]


def sqrt_hann(n: int) -> np.ndarray:
    """Square-root of the periodic Hann window, i.e. sin(pi k / n)."""
    return np.sin(np.pi * np.arange(n) / n)


@dataclass
class StftConfig:
    """Framing of the analysis/synthesis pair: a square-root Hann window of
    ``window_len`` samples, hop ``window_len // 2`` and FFT length ``window_len``."""

    window_len: int
    sample_rate: int = 16000
    window: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise ValueError(f"window_len must be a positive even number, got {self.window_len}")
        self.window = sqrt_hann(self.window_len)

    @classmethod
    def for_sample_rate(cls, sample_rate: int) -> "StftConfig":
        """Build the standard configuration (32 ms window, 16 ms hop); a rate
        above MAX_SAMPLE_RATE is a ValueError."""
        if sample_rate > MAX_SAMPLE_RATE:
            raise ValueError(f"sample rate {sample_rate} Hz is above the maximum of {MAX_SAMPLE_RATE} Hz")
        win = int(round(sample_rate * 32.0 / 1000.0))
        win += win % 2  # keep the 2:1 window/hop ratio exact
        return cls(window_len=win, sample_rate=int(sample_rate))

    @property
    def hop_len(self) -> int:
        return self.window_len // 2

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

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


@dataclass(frozen=True)
class _DataLayout:
    """Where a WAV file keeps its samples: the data chunk's byte offset, its
    whole-frame count, the channel count and the sample dtype (``<i2`` or ``<f4``)."""

    offset: int
    frames: int
    channels: int
    dtype: str

    @property
    def frame_bytes(self) -> int:
        return self.channels * np.dtype(self.dtype).itemsize

    def decode(self, raw) -> np.ndarray:
        """Float64 samples of the first channel of the whole frames in the buffer
        ``raw``; 16-bit PCM is scaled by 1/32768."""
        samples = np.frombuffer(raw, self.dtype).reshape(-1, self.channels)[:, 0].astype(np.float64)
        if self.dtype == "<i2":
            samples /= 32768.0
        return samples


def _read_wav(buf: bytes):
    """Walk a RIFF/WAVE byte string's chunks; return (sample rate, data layout).

    The chunk walk is scipy.io.wavfile.read's: it stops at the RIFF-declared
    size, needs ``fmt `` before ``data``, skips other chunks with their pad
    byte and, in a truncated data chunk, keeps the whole frames. Samples are
    ``<i2`` or ``<f4``, interleaved over the channels.

    Raises:
        _UnsupportedWav: RIFX/RF64, or samples other than 16-bit PCM and 32-bit float.
        ValueError: anything malformed.
    """
    if buf[:4] in (b"RIFX", b"RF64"):
        raise _UnsupportedWav(f"{buf[:4].decode()} container")
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    end = int.from_bytes(buf[4:8], "little") + 8
    pos, fmt, layout = 12, None, None
    while pos < end:
        chunk_id, size_field = buf[pos : pos + 4], buf[pos + 4 : pos + 8]
        if len(chunk_id) < 4 or (not size_field and chunk_id not in (b"fmt ", b"data")):
            if layout is not None:  # a clipped tail after the samples is ignored
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
            layout = _DataLayout(body, frames, channels, dtype)
        # An EXTENSIBLE fmt chunk is read to its end even where the declared
        # size is shorter, as scipy does, and the walk resumes after it.
        pos = body + max(size, used) + size % 2
    if layout is None:
        raise ValueError("no data chunk")
    return fmt[2], layout


def _load(path) -> tuple[Waveform, _DataLayout, int]:
    """Read and decode a whole WAV file: (waveform, data layout, file size in bytes)."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such audio file: {path}")
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
        rate, layout = _read_wav(buf)
    except FileNotFoundError:
        raise
    except _UnsupportedWav as exc:
        raise WavFormatError(
            f"{path}: unsupported {exc}; expected 16-bit PCM or 32-bit float in little-endian RIFF"
        ) from exc
    except (OSError, ValueError) as exc:
        raise WavFormatError(f"{path}: malformed or unreadable WAV: {exc}") from exc
    if layout.channels > 1:
        warnings.warn(f"{path}: {layout.channels} channels, keeping the first", stacklevel=3)
    if layout.frames == 0:
        raise WavFormatError(f"{path}: WAV file contains no samples")
    samples = layout.decode(memoryview(buf)[layout.offset : layout.offset + layout.frames * layout.frame_bytes])
    try:
        return Waveform(samples, rate), layout, len(buf)
    except ValueError as exc:
        raise WavFormatError(f"{path}: {exc}") from exc


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
    return _load(path)[0]


class WavReader:
    """A WAV file on disk whose samples are decoded on demand.

    Construction reads and validates the whole file as :func:`load_wav`
    does, with the same errors and the same multi-channel warning, then
    keeps only the path, the sample rate, the file size and the data
    chunk's layout (offset, frame count, channels, sample encoding). Each
    :meth:`read` opens the file, seeks to its frames and reads them with
    ``readinto``: no descriptor stays open between reads and no mapped page
    counts toward the resident set. The file must not change afterwards.
    """

    __slots__ = ("path", "sample_rate", "_layout", "_size")

    def __init__(self, path):
        wave, self._layout, self._size = _load(path)
        self.path = os.fspath(path)
        self.sample_rate = wave.sample_rate

    def __len__(self) -> int:
        return self._layout.frames

    @property
    def samples(self) -> np.ndarray:
        """Every sample, decoded from disk on each access."""
        return self.read(0, len(self))

    def read(self, start: int, n: int) -> np.ndarray:
        """Samples ``start`` to ``start + n``, bit-equal to ``load_wav(path).samples[start:start + n]``.

        Raises:
            ValueError: the range lies outside the file's frames.
            WavFormatError: the file changed since it was loaded: it has
                another size, cannot be read, reads short, or the range holds
                non-finite samples.
        """
        layout = self._layout
        if start < 0 or n < 0 or start + n > layout.frames:
            raise ValueError(f"{self.path}: samples {start}:{start + n} outside its {layout.frames} frames")
        raw = np.empty(n * layout.channels, layout.dtype)
        try:
            # Unbuffered: one read into ``raw``, with no buffer object to set up.
            with open(self.path, "rb", buffering=0) as fh:
                size = os.fstat(fh.fileno()).st_size
                if size != self._size:
                    raise WavFormatError(f"{self.path}: changed since it was loaded, {self._size} -> {size} bytes")
                fh.seek(layout.offset + start * layout.frame_bytes)
                got = fh.readinto(raw)
        except OSError as exc:
            raise WavFormatError(f"{self.path}: cannot read samples: {exc}") from exc
        if got != raw.nbytes:
            raise WavFormatError(f"{self.path}: short read, {got} of {raw.nbytes} bytes from frame {start}")
        samples = layout.decode(raw)
        if not np.all(np.isfinite(samples)):
            raise WavFormatError(
                f"{self.path}: non-finite samples in frames {start}:{start + n}; it changed since it was loaded"
            )
        return samples


def save_wav(path, wave: Waveform) -> None:
    """Write a Waveform as a mono 32-bit float RIFF WAV, byte for byte as
    scipy.io.wavfile.write does: an 18-byte ``fmt `` chunk (with a zero
    cbSize) and a ``fact`` chunk holding the sample count."""
    data = wave.samples.astype("<f4")
    rate = wave.sample_rate
    fmt = struct.pack("<HHIIHHH", _WAVE_FLOAT, 1, rate, rate * 4, 4, 32, 0)
    fact = b"fact" + struct.pack("<II", 4, data.size)
    head = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(head) + data.nbytes) + head)
        fh.write(data.tobytes())


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
    return np.fft.rfft(frames, n=cfg.window_len, axis=1).T


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
    frames = np.fft.irfft(np.swapaxes(spec, -1, -2), n=cfg.window_len, axis=-1)  # (..., T, window_len)
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
    spec_g = np.fft.rfft(frames_g, n=cfg.window_len, axis=-1)
    scale = np.full(cfg.n_bins, 2.0 / cfg.window_len)
    scale[[0, -1]] = 1.0 / cfg.window_len
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
