"""speechq: non-intrusive speech quality estimation.

A numpy implementation of a dilated-convolution quality estimator
trained jointly on waveform reconstruction and an earth-mover's-distance
loss over ordered score classes, plus the synthetic data pipeline and
evaluation metrics needed to exercise it end to end at desk scale.
"""

from .data import (
    DatasetEntry,
    ManifestError,
    convolve_rir,
    load_manifest,
    mix_at_snr,
    perturb_spectrogram,
    proxy_label,
    synth_clean,
    synth_noise,
)
from .labels import QuantizerConfig, decode_expect, decode_max, one_hot, quantize, soft_label
from .losses import emd2, joint_loss, td_mse
from .metrics import EvalReport, evaluate_scores, lcc, mse_metric, srcc
from .model import ModelConfig, forward, forward_graph, init_params
from .signal import StftConfig, Waveform, WavFormatError, istft, load_wav, lps, save_wav, stft

__version__ = "0.1.0"

__all__ = [
    "DatasetEntry",
    "EvalReport",
    "ManifestError",
    "ModelConfig",
    "QuantizerConfig",
    "StftConfig",
    "WavFormatError",
    "Waveform",
    "convolve_rir",
    "decode_expect",
    "decode_max",
    "emd2",
    "evaluate_scores",
    "forward",
    "forward_graph",
    "init_params",
    "istft",
    "joint_loss",
    "lcc",
    "load_manifest",
    "load_wav",
    "lps",
    "mix_at_snr",
    "mse_metric",
    "one_hot",
    "perturb_spectrogram",
    "proxy_label",
    "quantize",
    "save_wav",
    "soft_label",
    "srcc",
    "stft",
    "synth_clean",
    "synth_noise",
    "td_mse",
]
