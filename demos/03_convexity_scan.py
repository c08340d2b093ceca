"""Measure whether the convexity region grows with the index lam.

At each sampled point in weight space one finite-difference pass gives the
Hessians of the plain mean loss and of the exponential criterion at every
lam, the latter in closed form from the per-sample gradients and the
criterion's softmax weights (divided by lam * rae, which keeps the sign of
every eigenvalue); each is eigendecomposed with LAPACK and tested for
positive semidefiniteness.  psd_fraction is the share of points
whose Hessian is PSD.  Both problems come from `scan_problem`, as the CLI's
do:

  * a 1-3-1 tanh regressor on a scaled sine, where the plain squared error
    is nowhere convex over the sampled box; the tilted criterion is nowhere
    convex there either, at any lam swept (a negative result: the region
    does not grow on this problem);
  * the `logistic` preset, convex to begin with, where the region is the
    whole box at every lam and containment of the base criterion's PSD set
    is non-vacuous.

CLI equivalents: `convexlab scan --net 1,3,1 --lambdas 1,2,4,8 --points 200`
and `convexlab scan --preset logistic`.
"""

import numpy as np

from convexlab import scan_convexity, scan_problem

# scaled sine: larger targets mean larger per-sample losses, so the tilt
# lam * c is strong already at small lam
template, dataset = scan_problem((1, 3, 1))

scan = scan_convexity(template, dataset, [1, 2, 4, 8], num_points=60, box_radius=1.0, seed=0)
print("1-3-1 tanh on scaled sine, 60 points, box radius 1.0")
print(f"{'lam':>6} {'psd_fraction':>14} {'raw value past EXP_CAP':>24}")
for lam, frac, past in zip(scan.lambdas, scan.psd_fraction, scan.used_nrae.sum(axis=1)):
    print(f"{lam:6g} {frac:14.3f} {int(past):24d}")
print(f"base-criterion PSD points: {int(scan.ce_psd.sum())} of 60")
print(f"containment violations per lam: {[int(v) for v in scan.comparison_violations()]}\n")

# distance from the PSD region in units of each verdict's tolerance: the
# Gauss-Newton term lam * sum_i w_i g_i g_i^T grows with lam and with the
# gradients, so raw eigenvalues do not compare across points and lams
closeness = scan.min_eigs / scan.psd_tol
idx = np.argsort(closeness[-1])[::-1][:5]
print("five points closest to the PSD region at lam=8 (min eig / PSD tolerance):")
for j in idx:
    trail = " ".join(f"{closeness[i, j]:+9.2e}" for i in range(len(scan.lambdas)))
    print(f"  point {j:3d}: per lam  {trail}")

print("\nlogistic preset (convex base loss): every point PSD at every lam")
log_template, log_dataset = scan_problem((1, 1), preset="logistic")
log_scan = scan_convexity(log_template, log_dataset, [1, 2, 4, 8], num_points=40,
                          box_radius=2.0, seed=0)
for lam, frac in zip(log_scan.lambdas, log_scan.psd_fraction):
    print(f"  lam={lam:g}: psd_fraction={frac:.3f}")
print(f"  containment violations: {[int(v) for v in log_scan.comparison_violations()]}")
