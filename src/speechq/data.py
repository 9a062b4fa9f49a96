"""Desk-scale dataset construction.

Clean material is synthesized (tone complexes, filtered noise bursts,
chirps), degraded by SNR-controlled noise mixing and optional impulse
response convolution, and labeled either from an external manifest or by
a monotone SNR-to-score proxy that stands in for a perceptual metric.
Every generator is deterministic under its seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .labels import SCORE_HI, SCORE_LO
# load_wav stays importable from this module: perfbench's tracer wraps speechq.data.load_wav.
from .signal import StftConfig, Waveform, WavReader, istft, load_wav, stft  # noqa: F401

__all__ = [
    "DatasetEntry",
    "ManifestError",
    "mix_at_snr",
    "convolve_rir",
    "perturb_bins",
    "perturb_spectrogram",
    "proxy_label",
    "load_manifest",
    "save_manifest",
    "synth_clean",
    "synth_noise",
]

SYNTH_KINDS = ("tone-complex", "filtered-noise-burst", "chirp")

# Proxy label map anchors: -12 dB SNR -> 1.0, +30 dB -> 4.5, clamped.
PROXY_SNR_LO = -12.0
PROXY_SNR_SPAN = 42.0
PROXY_SCORE_LO = 1.0
PROXY_SCORE_HI = 4.5


class ManifestError(ValueError):
    """Raised for unreadable or invalid dataset manifests."""


@dataclass
class DatasetEntry:
    """One training/evaluation item: degraded input, optional clean target, label.

    The audio is either in memory (a :class:`Waveform`) or on disk (a
    :class:`WavReader`, as :func:`load_manifest` builds it, which holds a
    file's path and sample layout but no samples). Both give ``sample_rate``,
    ``len()``, ``samples`` and ``read(start, n)``, so training crops either
    kind through one call. The degraded signal holds one analysis window. A
    clean reference has the degraded rate and at least its length, so every
    crop of the degraded signal has a reference.
    """

    degraded: Waveform | WavReader
    clean: Waveform | WavReader | None
    label: float

    def __post_init__(self):
        if not (SCORE_LO <= self.label <= SCORE_HI):
            raise ValueError(f"label {self.label} outside [{SCORE_LO}, {SCORE_HI}]")
        window = StftConfig.for_sample_rate(self.degraded.sample_rate).window_len
        if len(self.degraded) < window:
            raise ValueError(
                f"degraded audio of {len(self.degraded)} samples is shorter than one analysis window ({window})"
            )
        if self.clean is not None:
            if self.clean.sample_rate != self.degraded.sample_rate:
                raise ValueError("clean/degraded sample rates differ")
            if len(self.clean) < len(self.degraded):
                raise ValueError(
                    f"clean reference has {len(self.clean)} samples, fewer than the degraded {len(self.degraded)}"
                )


def _power(x: np.ndarray) -> float:
    return float(np.mean(x**2))


def _fit_length(noise: np.ndarray, n: int) -> np.ndarray:
    if noise.size >= n:
        return noise[:n]
    reps = int(np.ceil(n / noise.size))
    return np.tile(noise, reps)[:n]


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> tuple[Waveform, Waveform]:
    """Mix noise into a clean signal at an exact SNR.

    The noise is looped or trimmed to the clean length and scaled so the
    clean-to-noise power ratio equals ``snr_db``. If the mixture peak
    exceeds 0.99 both the mixture and the clean reference are rescaled by
    the same factor, so reconstruction targets stay aligned and the
    realized SNR is untouched.

    Returns:
        (mixture, clean_reference) at the shared output gain.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError(
            f"sample rates differ: clean {clean.sample_rate}, noise {noise.sample_rate}"
        )
    c = clean.samples
    n = _fit_length(noise.samples, c.size)
    p_clean, p_noise = _power(c), _power(n)
    if p_clean == 0.0:
        raise ValueError("clean signal is silent; SNR undefined")
    if p_noise == 0.0:
        raise ValueError("noise signal is silent; SNR undefined")
    gain = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    mix = c + gain * n
    peak = float(np.max(np.abs(mix)))
    norm = 0.99 / peak if peak > 0.99 else 1.0
    return (
        Waveform(mix * norm, clean.sample_rate),
        Waveform(c * norm, clean.sample_rate),
    )


def convolve_rir(clean: Waveform, rir: Waveform) -> Waveform:
    """Full linear convolution with an impulse response, truncated to the clean length."""
    if clean.sample_rate != rir.sample_rate:
        raise ValueError(
            f"sample rates differ: clean {clean.sample_rate}, rir {rir.sample_rate}"
        )
    out = np.convolve(clean.samples, rir.samples)[: clean.samples.size]
    return Waveform(out, clean.sample_rate)


def perturb_bins(
    spec: np.ndarray,
    boost_frac: float = 0.30,
    atten_frac: float = 0.50,
    boost_gain: float = 2.0,
    atten_gain: float = 0.25,
    seed: int = 0,
) -> np.ndarray:
    """Scale disjoint random bin sets of a complex spectrogram.

    Positive real gains change magnitudes and keep phases. The boosted
    and attenuated sets are disjoint by construction (drawn from one
    permutation of all bins). Deterministic under ``seed``.
    """
    if boost_frac < 0 or atten_frac < 0 or boost_frac + atten_frac > 1.0:
        raise ValueError(
            f"invalid bin fractions: boost {boost_frac}, attenuate {atten_frac}"
        )
    out = np.array(spec, order="C")  # reshape(-1) must be a view, not a copy
    flat = out.reshape(-1)
    total = flat.size
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    n_boost = int(round(boost_frac * total))
    n_atten = int(round(atten_frac * total))
    flat[order[:n_boost]] *= boost_gain
    flat[order[n_boost : n_boost + n_atten]] *= atten_gain
    return out


def perturb_spectrogram(
    wave: Waveform,
    boost_frac: float = 0.30,
    atten_frac: float = 0.50,
    boost_gain: float = 2.0,
    atten_gain: float = 0.25,
    seed: int = 0,
    cfg: StftConfig | None = None,
) -> Waveform:
    """Analysis, random bin boost/attenuation, resynthesis.

    With unit gains the output is exactly the analysis/synthesis
    roundtrip of the input.
    """
    if cfg is None:
        cfg = StftConfig.for_sample_rate(wave.sample_rate)
    spec = perturb_bins(
        stft(wave, cfg),
        boost_frac=boost_frac,
        atten_frac=atten_frac,
        boost_gain=boost_gain,
        atten_gain=atten_gain,
        seed=seed,
    )
    return istft(spec, cfg)


def proxy_label(clean: Waveform, degraded: Waveform) -> float:
    """Monotone SNR-derived stand-in for an externally computed quality score.

    The SNR of the degradation (clean vs degraded-minus-clean) is mapped
    affinely from [-12 dB, +30 dB] onto [1.0, 4.5] and clamped. An exact
    copy of the clean signal scores 4.5.
    """
    if clean.sample_rate != degraded.sample_rate:
        raise ValueError("sample rates differ")
    if clean.samples.size != degraded.samples.size:
        raise ValueError(
            f"lengths differ: clean {clean.samples.size}, degraded {degraded.samples.size}"
        )
    p_clean = _power(clean.samples)
    if p_clean == 0.0:
        raise ValueError("clean signal is silent; proxy label undefined")
    p_err = _power(degraded.samples - clean.samples)
    if p_err == 0.0:
        return PROXY_SCORE_HI
    snr = 10.0 * np.log10(p_clean / p_err)
    score = PROXY_SCORE_LO + 3.5 * (snr - PROXY_SNR_LO) / PROXY_SNR_SPAN
    return float(np.clip(score, PROXY_SCORE_LO, PROXY_SCORE_HI))


# ---------------------------------------------------------------------------
# manifests


def load_manifest(path, sample_rate: int | None = None) -> list[DatasetEntry]:
    """Read a line-delimited dataset manifest and validate its audio.

    Format: a header line naming the columns ``degraded_path``,
    ``clean_path`` (optional, empty values allowed) and ``label``,
    tab- or comma-separated. Paths resolve relative to the manifest.
    A manifest without records raises ManifestError, and so do malformed
    records: all are reported together, on one line separated by `` | ``,
    with their line numbers, among them a clean reference shorter than its
    degraded file and a degraded file shorter than one analysis window.

    Every WAV is read and decoded completely here, then dropped: an entry
    keeps a :class:`WavReader` per file (path, rate, size and sample layout),
    and its samples are read from disk when used. So memory does not grow
    with the dataset, and the files must not change while the entries are
    in use.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not a UTF-8 text manifest: {exc}") from exc
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ManifestError(f"{path}: manifest has no records")
    sep = "\t" if "\t" in lines[0] else ","
    header = [h.strip() for h in lines[0].split(sep)]
    required = {"degraded_path", "label"}
    allowed = required | {"clean_path"}
    if not required.issubset(header) or not set(header).issubset(allowed):
        raise ManifestError(
            f"{path}: header must name degraded_path, optional clean_path, label; got {header}"
        )
    col = {name: header.index(name) for name in header}
    base = os.path.dirname(os.path.abspath(path))
    entries: list[DatasetEntry] = []
    problems: list[str] = []
    if len(lines) == 1:
        raise ManifestError(f"{path}: manifest has no records")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != len(header):
            problems.append(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
            continue
        try:
            label = float(fields[col["label"]])
        except ValueError:
            problems.append(f"line {lineno}: label {fields[col['label']]!r} is not a number")
            continue
        degraded_path = os.path.join(base, fields[col["degraded_path"]])
        clean_path = ""
        if "clean_path" in col:
            clean_path = fields[col["clean_path"]]
        try:
            degraded = WavReader(degraded_path)
            clean = WavReader(os.path.join(base, clean_path)) if clean_path else None
        except (OSError, ValueError) as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        if sample_rate is not None and degraded.sample_rate != sample_rate:
            problems.append(
                f"line {lineno}: sample rate {degraded.sample_rate} != configured {sample_rate}"
            )
            continue
        try:
            entries.append(DatasetEntry(degraded, clean, label))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ManifestError(f"{path}: invalid manifest: " + " | ".join(problems))
    return entries


def save_manifest(path, records: list[tuple[str, str, float]]) -> None:
    """Write tab-separated (degraded_path, clean_path, label) records with a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("degraded_path\tclean_path\tlabel\n")
        for degraded_path, clean_path, label in records:
            fh.write(f"{degraded_path}\t{clean_path}\t{label:.6f}\n")


# ---------------------------------------------------------------------------
# synthetic material


def _syllabic_envelope(n: int, sample_rate: int, rng) -> np.ndarray:
    """Slow amplitude modulation so synthetic signals are not stationary."""
    t = np.arange(n) / sample_rate
    rate = rng.uniform(2.0, 5.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    shape = rng.uniform(0.8, 2.0)
    env = (0.5 - 0.5 * np.cos(2.0 * np.pi * rate * t + phase)) ** shape
    return 0.2 + 0.8 * env


def synth_clean(kind: str, duration: float, seed: int, sample_rate: int = 16000) -> Waveform:
    """Deterministic synthetic clean signal with a speech-like envelope.

    ``kind`` is one of tone-complex, filtered-noise-burst, chirp. Peak
    amplitude is normalized to 0.9.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {SYNTH_KINDS}")
    if duration < 0.2:
        raise ValueError("duration must be at least 0.2 s")
    # str hash is process-randomized; the tuple index keeps seeding stable.
    rng = np.random.default_rng([SYNTH_KINDS.index(kind), seed])
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    if kind == "tone-complex":
        f0 = rng.uniform(90.0, 280.0)
        n_harm = int(min(12, 0.45 * sample_rate / f0))
        decay = rng.uniform(0.5, 1.5)
        x = np.zeros(n)
        for k in range(1, n_harm + 1):
            amp = k ** (-decay) * rng.uniform(0.7, 1.3)
            x += amp * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
    elif kind == "chirp":
        f0 = rng.uniform(100.0, 500.0)
        f1 = rng.uniform(1000.0, 4000.0)
        phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2.0 * duration))
        x = np.sin(phase + rng.uniform(0.0, 2.0 * np.pi))
    else:  # filtered-noise-burst
        white = rng.standard_normal(n)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        center = rng.uniform(300.0, 3000.0)
        width = rng.uniform(200.0, 1000.0)
        spectrum *= np.exp(-(((freqs - center) / width) ** 2))
        x = np.fft.irfft(spectrum, n)
    x *= _syllabic_envelope(n, sample_rate, rng)
    peak = float(np.max(np.abs(x)))
    if peak > 0.0:
        x *= 0.9 / peak
    return Waveform(x, sample_rate)


def synth_noise(duration: float, seed: int, sample_rate: int = 16000) -> Waveform:
    """Deterministic colored-noise source for SNR mixing."""
    rng = np.random.default_rng([0x5015E, seed])
    n = int(round(duration * sample_rate))
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    tilt = rng.uniform(0.0, 1.0)
    shaping = 1.0 / np.maximum(freqs, 1.0) ** tilt
    center = rng.uniform(200.0, 6000.0)
    width = rng.uniform(500.0, 3000.0)
    shaping *= 0.3 + np.exp(-(((freqs - center) / width) ** 2))
    x = np.fft.irfft(spectrum * shaping, n)
    peak = float(np.max(np.abs(x)))
    if peak > 0.0:
        x *= 0.9 / peak
    return Waveform(x, sample_rate)
