"""End to end at desk scale: synthesize a labeled dataset, train the joint
model for a few hundred steps, and score it with both decoders.

Takes roughly half a minute on a laptop CPU.

Run: python demos/04_train_and_evaluate.py
"""

import tempfile

import numpy as np

from speechq import data as dt
from speechq import train as tr
from speechq.config import RunConfig, SimulateConfig, TrainingConfig
from speechq.labels import QuantizerConfig
from speechq.model import ModelConfig

# Eight synthetic utterances whose proxy labels sweep the score range.
entries = []
for i, snr in enumerate(np.linspace(-12.0, 30.0, 8)):
    clean = dt.synth_clean(dt.SYNTH_KINDS[i % 3], duration=0.5, seed=100 + i)
    noise = dt.synth_noise(duration=0.5, seed=200 + i)
    degraded, clean_ref = dt.mix_at_snr(clean, noise, float(snr))
    label = dt.proxy_label(clean_ref, degraded)
    entries.append(dt.DatasetEntry(degraded, clean_ref, label))
print("labels:", [round(e.label, 2) for e in entries])

run = RunConfig(
    model=ModelConfig(
        bottleneck_channels=32, conv_channels=64, blocks_per_repeat=4, repeats=1, n_classes=20
    ),
    quantizer=QuantizerConfig(n_classes=20),
    training=TrainingConfig(lr=2e-3, batch_size=8, crop_seconds=0.5, max_steps=500, seed=11),
    simulate=SimulateConfig(),
)

with tempfile.TemporaryDirectory() as out_dir:
    run.out_dir = out_dir
    result = tr.run_training(run, entries, log_stream=print)
    step10, final = result.history[9][3], result.history[-1][3]
    print(f"joint loss: step 10 = {step10:.1f}, final = {final:.2f} ({final / step10:.1%})")

    cfg, quant, params, _, _ = tr.load_run_checkpoint(result.final_checkpoint)
    reports = tr.evaluate_entries(cfg, quant, params, entries)
    print("expectation decoder:", reports["expect"].to_record())
    print("max-likelihood decoder:", reports["max"].to_record())
    pred = np.round(reports["scores"]["expect"], 2)
    truth = np.round(reports["scores"]["truth"], 2)
    for p, t in zip(pred, truth):
        print(f"  predicted {p:4.2f}  true {t:4.2f}")
