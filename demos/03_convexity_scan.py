"""Measure whether the convexity region grows with the index lam.

At each sampled point in weight space one finite-difference pass gives the
Hessians of the plain mean loss and of the exponential criterion at every
lam; each is divided by its largest entry, eigendecomposed with LAPACK and
tested for positive semidefiniteness.  psd_fraction is the share of points
whose Hessian is PSD.  Two problems:

  * a 1-3-1 tanh regressor on a scaled sine, where the plain squared error
    is nowhere convex over the sampled box; the tilted criterion is nowhere
    convex there either, at any lam swept (a negative result: the region
    does not grow on this problem);
  * logistic regression, convex to begin with, where the region is the
    whole box at every lam and containment of the base criterion's PSD set
    is non-vacuous.

CLI equivalent: `convexlab scan --net 1,3,1 --lambdas 1,2,4,8 --points 200`.
"""

import numpy as np

from convexlab import SampleBatch, scan_convexity, synthetic_regression
from convexlab.network import init_model

# scaled sine: larger targets mean larger per-sample losses, so the tilt
# lam * c is strong already at small lam
base = synthetic_regression("sine", 20, 0.0, seed=0)
dataset = SampleBatch(base.inputs, 6.0 * base.targets)
template = init_model([1, 3, 1], "tanh", "identity-squared", seed=0)

scan = scan_convexity(template, dataset, [1, 2, 4, 8], num_points=60, box_radius=1.0, seed=0)
print("1-3-1 tanh on scaled sine, 60 points, box radius 1.0")
print(f"{'lam':>6} {'psd_fraction':>14} {'past EXP_CAP (shifted)':>24}")
for lam, frac, shifted in zip(scan.lambdas, scan.psd_fraction, scan.used_nrae.sum(axis=1)):
    print(f"{lam:6g} {frac:14.3f} {int(shifted):24d}")
print(f"base-criterion PSD points: {int(scan.ce_psd.sum())} of 60")
print(f"containment violations per lam: {[int(v) for v in scan.comparison_violations()]}\n")

# the least-negative eigenvalues, point by point:
idx = np.argsort(scan.min_eigs[-1])[::-1][:5]
print("five points closest to the PSD region at lam=8:")
for j in idx:
    trail = " ".join(f"{scan.min_eigs[i, j]:+9.2e}" for i in range(len(scan.lambdas)))
    print(f"  point {j:3d}: min eig per lam  {trail}")

print("\nlogistic regression (convex base loss): every point PSD at every lam")
x = np.linspace(-2, 2, 20)
log_template = init_model([1, 1], "tanh", "sigmoid-binary-ce", seed=0)
log_dataset = SampleBatch(x[:, None], (x > 0).astype(np.int64))
log_scan = scan_convexity(log_template, log_dataset, [1, 2, 4, 8], num_points=40,
                          box_radius=2.0, seed=0)
for lam, frac in zip(log_scan.lambdas, log_scan.psd_fraction):
    print(f"  lam={lam:g}: psd_fraction={frac:.3f}")
print(f"  containment violations: {[int(v) for v in log_scan.comparison_violations()]}")
