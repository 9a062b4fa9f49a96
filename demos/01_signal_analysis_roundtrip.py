"""Analysis/synthesis walkthrough: STFT, log power spectrum, exact roundtrip.

Run: python demos/01_signal_analysis_roundtrip.py
"""

import numpy as np

from speechq.signal import StftConfig, Waveform, istft, lps, stft
from speechq.data import synth_clean

cfg = StftConfig(16000)
print(f"frame configuration: window {cfg.window_len} samples, hop {cfg.hop_len}, {cfg.n_bins} bins")

wave = synth_clean("tone-complex", duration=1.0, seed=4)
spec = stft(wave, cfg)
print(f"1 s tone complex -> spectrogram {spec.shape} (bins x frames)")

features = lps(spec)
print(f"log power spectrum range: [{features.min():.1f}, {features.max():.1f}]")

back = istft(spec, cfg)
interior = slice(cfg.window_len, len(back) - cfg.window_len)
ref = wave.samples[: len(back)]
err = np.linalg.norm(back.samples[interior] - ref[interior]) / np.linalg.norm(ref[interior])
print(f"istft(stft(x)) interior relative error: {err:.2e}")
print("the sqrt-Hann pair satisfies constant overlap-add, so the roundtrip is exact")

# Linearity: the analysis transform commutes with mixing.
other = synth_clean("chirp", duration=1.0, seed=5)
mixed = Waveform(0.6 * wave.samples + 0.4 * other.samples, 16000)
lhs = stft(mixed, cfg)
rhs = 0.6 * stft(wave, cfg) + 0.4 * stft(other, cfg)
print(f"linearity check, max deviation: {np.max(np.abs(lhs - rhs)):.2e}")
