"""Verify the analytic derivatives against finite differences.

Two things are checked over randomized models, batches, and criterion
settings:

  * the criterion gradient with respect to every weight, computed as one
    weighted backward pass, against central differences of the composed
    objective, evaluated on stacks of probe vectors (one forward pass per
    block of coordinates);
  * the exact lam-derivative of the adaptive loss against a Richardson-
    extrapolated, extended-precision central difference.

The same sweep runs as `convexlab gradcheck` from the command line.
"""

import numpy as np

from convexlab import CriterionParams, nrae, run_gradcheck, sample_weights
from convexlab.data import SampleBatch
from convexlab.gradcheck import fd_gradient
from convexlab.network import batch_losses, forward, init_model, unflatten, weighted_backward

# a single configuration, spelled out
model = init_model([4, 12, 3], "tanh", "softmax-ce", seed=0)
rng = np.random.default_rng(0)
batch = SampleBatch(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8))
params = CriterionParams(lam=10.0)

losses = batch_losses(forward(model, batch.inputs).outputs, batch.targets, "softmax-ce")
analytic = weighted_backward(model, batch, sample_weights(losses, params))


def objective(stack):
    # a (K, n) stack of parameter vectors in, K criterion values out
    m = unflatten(model, stack)
    c = batch_losses(forward(m, batch.inputs).outputs, batch.targets, "softmax-ce")
    return nrae(c, params)


numeric = fd_gradient(objective, model.theta, h=1e-6)
err = np.abs(analytic - numeric).max() / np.abs(analytic).max()
print(f"single config (4-12-3 net, lam=10): {model.param_count} parameters, "
      f"max relative error {err:.2e}\n")

# the full randomized sweep, one line per regime
for lam, p in ((1e-3, 1), (1.0, 1), (10.0, 1), (100.0, 2)):
    s = run_gradcheck(num_cases=24, lambdas=(lam,), ps=(p,), seed=0)
    print(f"lam={lam:<6g} p={p}: weight err {s.max_weight_rel_err:.2e}, "
          f"lam err {s.max_lambda_rel_err:.2e} over {s.num_cases} configs "
          f"({s.elapsed_s:.1f}s)")

print("\nfull sweep at the acceptance settings:")
s = run_gradcheck(num_cases=120, seed=0)
print(f"  weight gradients: {s.max_weight_rel_err:.2e} (tolerance 1e-5)")
print(f"  lam derivatives:  {s.max_lambda_rel_err:.2e} (tolerance 1e-6)")
print(f"  -> {'PASS' if s.ok else 'FAIL'} in {s.elapsed_s:.1f}s")
