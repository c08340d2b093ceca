"""Tour of the convexified loss criteria.

The whole package revolves around one transformation of a batch of
nonnegative per-sample losses c_1..c_m:

    rae(c)  = mean_i exp(lam**p * c_i)        raw exponential tilt
    nrae(c) = (1/lam**p) * log rae(c)         its stable log-domain form

Small lam recovers the plain mean loss, large lam approaches the worst
per-sample loss, and everything in between interpolates.  This script walks
those regimes numerically.
"""

import numpy as np

from convexlab import (
    CriterionParams,
    evaluate_criterion,
    nrae,
    sample_weights,
)

c = np.array([0.05, 0.30, 0.80, 2.50])
print(f"per-sample losses: {c.tolist()}")
print(f"mean = {c.mean():.4f}, max = {c.max():.4f}\n")

# 1. the lam sweep: nrae slides from the mean to the max
print(f"{'lam':>10} {'nrae':>10} {'weights (softmax over lam**p * c)':>42}")
for lam in (1e-4, 0.1, 1.0, 3.0, 10.0, 100.0, 1e6):
    params = CriterionParams(lam=lam)
    w = sample_weights(c, params)
    print(f"{lam:10.4g} {nrae(c, params):10.5f}   {np.array_str(w, precision=4, suppress_small=True)}")
print("-> lam -> 0 gives the plain mean; lam -> inf singles out the worst sample\n")

# 2. the raw criterion and why the log form exists
params = CriterionParams(lam=1.0)
print(f"rae  at lam=1: {evaluate_criterion(c, 'rae', params).criterion_value:.5f}")
print(f"nrae at lam=1: {nrae(c, params):.5f} (= log of the former)")
print(f"rae  at lam=500: {evaluate_criterion(c, 'rae', CriterionParams(lam=500.0)).criterion_value} "
      "(exp(1250) is past float range)")
print(f"nrae at lam=500: {nrae(c, CriterionParams(lam=500.0)):.5f} (log-sum-exp, no overflow)")
print(f"nrae at lam=4e8: {nrae(c, CriterionParams(lam=4e8)):.5f} (still finite)\n")

# 3. the adaptive criterion: nrae plus a penalty that resists lam -> 0,
#    and the exact derivative used to learn lam by gradient descent
#    -- both read off the one report training steps with
report = evaluate_criterion(c, "anrat", CriterionParams(lam=5.0, a=0.1, q=1))
print(f"adaptive loss at lam=5, a=0.1: {report.criterion_value:.5f}")
print(f"its exact lam-derivative:      {report.lambda_grad:+.5f}")
h = 1e-6
fd = (evaluate_criterion(c, "anrat", CriterionParams(lam=5.0 + h, a=0.1)).criterion_value -
      evaluate_criterion(c, "anrat", CriterionParams(lam=5.0 - h, a=0.1)).criterion_value) / (2 * h)
print(f"finite-difference check:       {fd:+.5f}\n")

# 4. the coarse diagnostic gradient can disagree in sign with the exact one
#    when a single sample dominates -- which is why training never uses it
outlier = np.array([0.01] * 9 + [5.0])
pr = CriterionParams(lam=50.0)
print(f"one dominant outlier, lam=50:")
print(f"  exact lam-gradient (loss term): {evaluate_criterion(outlier, 'anrat', pr).lambda_grad:+.6f}")
coarse = (pr.p / pr.lam) * (outlier.mean() - nrae(outlier, pr))  # (p/lam) * (mean(c) - nrae)
print(f"  coarse diagnostic:              {coarse:+.6f}")
