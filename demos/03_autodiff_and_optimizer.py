"""The differentiation substrate: hand-coded gradients checked against
finite differences, and the Adam loop on a toy problem.

Run: python demos/03_autodiff_and_optimizer.py
"""

import numpy as np

from speechq import diffcore as dc

rng = np.random.default_rng(0)

# Every op carries an analytic vector-Jacobian product. gradient_check
# compares it against central finite differences coordinate by coordinate.
x = dc.parameter(rng.standard_normal((2, 4, 8)))
gamma = dc.parameter(rng.uniform(0.5, 1.5, 4))
beta = dc.parameter(rng.standard_normal(4))
run_mean, run_var = dc.Tensor(np.zeros(4)), dc.Tensor(np.ones(4))
err = dc.gradient_check(
    lambda x, g, b: dc.batch_norm(x, g, b, run_mean, run_var, training=True), [x, gamma, beta]
)
print(f"batch norm (train mode) max relative gradient error: {err:.2e}")

w = dc.parameter(rng.standard_normal((3, 4)))
bias = dc.parameter(rng.standard_normal(3))
err = dc.gradient_check(lambda x, w, b: dc.conv1d_pointwise(x, w, b), [x, w, bias])
print(f"pointwise conv max relative gradient error: {err:.2e}")

# Adam on a quadratic bowl: the optimizer is its own oracle here.
weight = dc.parameter(np.array(0.0))
opt = dc.Adam({"w": weight}, lr=0.05)
for step in range(500):
    d = dc.sub(weight, dc.constant(np.array(3.0)))
    loss = dc.sum(dc.mul(d, d))
    dc.backward(loss)
    opt.step()
print(f"after 500 Adam steps on (w - 3)^2: w = {float(weight.values):.4f}")

# Checkpoints store raw little-endian bytes; reload is bit-exact.
import tempfile

with tempfile.NamedTemporaryFile(suffix=".ckpt") as fh:
    dc.save_checkpoint(fh.name, {"w": weight.values}, {"demo": True})
    arrays, header = dc.load_checkpoint(fh.name)
    print(f"checkpoint roundtrip exact: {np.array_equal(arrays['w'], weight.values)}")
