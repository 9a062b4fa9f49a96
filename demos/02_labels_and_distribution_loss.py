"""Score quantization, soft labels, and why the CDF loss respects class order.

Two wrong predictions can have identical cross-entropy against a one-hot
target while one of them is clearly closer on the ordered score axis.
The squared-CDF loss tells them apart.

Run: python demos/02_labels_and_distribution_loss.py
"""

import numpy as np

from speechq.labels import QuantizerConfig, decode_expect, decode_max, quantize, targets
from speechq.losses import emd2

quant = QuantizerConfig(n_classes=100)
print(f"{quant.n_classes} classes of width {quant.step} over [-0.5, 4.5]")

score = 3.07
nu = quantize(score, quant)
decoded = decode_max(targets([score], quant)[0], quant)
print(f"score {score} -> class {nu} -> decoded midpoint {decoded}")

# Ordered-class sensitivity: predictions at growing class distance.
# One-hot target rows at every class midpoint: row nu - 1 is class nu.
one_hot = targets(quant.midpoints(), quant)
target = one_hot[50 - 1]
for predicted_class in (51, 55, 70):
    pred = one_hot[predicted_class - 1]
    eps = 1e-12
    xent = -np.sum(target * np.log(pred + eps))
    cdf_loss = float(emd2(pred, target).values)
    print(
        f"prediction at class {predicted_class}: cross-entropy {xent:.1f} (blind), "
        f"squared-CDF distance {cdf_loss:.0f} (= |i - j|)"
    )

# Soft labels spread one-hot mass over neighbors; pad classes absorb the
# kernel at the range boundaries.
soft_quant = QuantizerConfig(n_classes=100, pad=2)
p = targets([-0.5], soft_quant)[0]  # the lowest score, in class 1
print(f"soft label at the bottom class: first five masses {p[:5]}, total {p.sum():.1f}")

uniform = np.full(100, 0.01)
print(f"uniform distribution decodes to {decode_expect(uniform, quant):.1f} (range center)")
