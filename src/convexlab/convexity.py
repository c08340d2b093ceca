"""Empirical convexity-region measurement for tiny models: Hessians from
central differences of the network's exact gradient, a LAPACK eigensolve,
and lam-sweep scans of the positive-semidefinite fraction over sampled
points in weight space.

The Hessian of the raw criterion rae(c) = mean(exp(s * c)), s = lam**p,
factors exactly as

    s * rae * (s * sum_i w_i g_i g_i^T + sum_i w_i H_i),   w = softmax(s * c),

with g_i and H_i the gradient and Hessian of the per-sample loss c_i.  The
scan takes the bracket, which has the same PSD verdict: its entries are
bounded by s * max|g_i|^2 + max|H_i|, and nothing past the softmax is
exponentiated.  The g_i are exact: the rows of one `weighted_backward` call
on the identity's rows.  Each sum_i w_i H_i is the symmetrised central
difference (gradcheck's `fd_gradient`) of theta -> sum_i w_i g_i(theta),
the backward pass on the centre's weight rows: 2n backward probes a point,
where FD of loss values took 2n**2 + 1.  A non-finite loss, gradient or
Hessian stops the scan.  The PSD slack comes from the FD part
sum_i w_i H_i and the eigensolver only, never from the Gauss-Newton term,
which is PSD by construction.

The backward pass differentiates the unclamped loss, so a point where a
cross-entropy loss sits at the PROB_EPS clamp ceiling (where the loss
itself is flat) is refused, not measured.  `fd_hessian`, FD of loss values,
stays importable here as the independent oracle of the scan's curvature.

Scans are restricted to smooth activations (tanh, sigmoid): relu kinks sit
on measure-zero sets that finite differences straddle.  Each point's
Hessians (base criterion and every lam) come from one pass of probes,
independent of the other points; the scan assembles results
single-threaded.  It takes any lam that `CriterionParams` takes;
`scan_problem` builds its problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criteria import EXP_CAP, CriterionParams, NumericDomainError, sample_weights
from .data import SampleBatch, synthetic_regression
# fd_hessian is unused here, and importable from here as the oracle of the scan's curvature
from .gradcheck import DEFAULT_FD_STEP, fd_gradient, fd_hessian  # noqa: F401
from .network import (
    MAX_CLAMPED_LOSS,
    MlpModel,
    _param_count,
    batch_losses,
    forward,
    init_model,
    output_mode_for,
    unflatten,
    weighted_backward,
)
from .seeds import rng_for

MAX_SCAN_PARAMS = 60
SMOOTH_ACTIVATIONS = ("tanh", "sigmoid")
SCAN_PRESETS = ("", "logistic")
# the scan problem's sine sample count and target amplitude: larger targets
# mean larger per-sample losses, so the tilt is strong already at small lam
SCAN_SAMPLES = 20
TARGET_SCALE = 6.0
# identity rows per backward call for the per-sample gradients: the call's
# delta is then (SAMPLE_BLOCK, m, d), not (m, m, d)
SAMPLE_BLOCK = 64


def psd_tolerance(hessian):
    """Eigenvalue slack of a finite-difference Hessian, 1e-6 * (1 + max|H_ii|):
    a float for one (n, n) matrix, an array for a (K, n, n) stack.  The scan
    takes it of the FD part only: of the whole bracket it would grow with the
    Gauss-Newton term like lam**p, and call every point PSD at a large lam."""
    h = np.asarray(hessian)
    return 1e-6 * (1.0 + np.abs(np.diagonal(h, axis1=-2, axis2=-1)).max(axis=-1))


@dataclass
class RegionScan:
    """Results of one lam-sweep over a fixed point set.  min_eigs and psd
    are (num_lambdas, num_points); the base-criterion (plain mean loss)
    results for the same points sit in ce_min_eigs / ce_psd.  min_eigs are
    the eigenvalues of Hessian(rae) / (lam**p * rae): the same sign, hence
    the same verdict, as the raw criterion's.

    used_nrae[i, j] is a report only, read by no computation: true where the
    raw criterion's value at lam_i would pass EXP_CAP at point j
    (lam_i**p * max(c) > EXP_CAP).  Its Hessian is finite there all the same.

    psd_tol and ce_psd_tol hold the slack each verdict used (see
    `scan_convexity`): psd is min_eigs >= -psd_tol.  min_eigs / psd_tol is
    therefore a scale-free distance from the PSD region, comparable across
    points and lams where the raw eigenvalues are not.
    """

    lambdas: tuple
    points: np.ndarray
    min_eigs: np.ndarray
    psd: np.ndarray
    psd_fraction: np.ndarray
    ce_min_eigs: np.ndarray
    ce_psd: np.ndarray
    used_nrae: np.ndarray
    psd_tol: np.ndarray
    ce_psd_tol: np.ndarray

    def comparison_violations(self) -> np.ndarray:
        """Per-lam count of points that are PSD under the base criterion but
        not under the convexified one.  Reported, never silently dropped."""
        return np.array([int(np.sum(self.ce_psd & ~self.psd[i])) for i in range(len(self.lambdas))])


def scan_problem(net, activation: str = "tanh", samples: int = SCAN_SAMPLES,
                 target_scale: float = TARGET_SCALE, noise_sd: float = 0.0, seed: int = 0,
                 preset: str = "") -> tuple:
    """(model template, dataset) of a scan.  By default: `samples` sine
    targets (`synthetic_regression`) times `target_scale`, on the `net`
    layer sizes with `activation`.  The `logistic` preset ignores `net`,
    `activation` and `target_scale`: a 1-1 tanh net on `samples` inputs
    drawn uniformly from [-2, 2], labelled by their sign.  The output mode
    follows from the targets (`output_mode_for`)."""
    if preset not in SCAN_PRESETS:
        raise ValueError(f"preset must be one of {SCAN_PRESETS}, got {preset!r}")
    if preset == "logistic":
        x = rng_for(seed, "scan-data").uniform(-2.0, 2.0, size=samples)
        dataset = SampleBatch(x[:, None], (x > 0).astype(np.int64))
        net, activation = (1, 1), "tanh"
    else:
        base = synthetic_regression("sine", samples, noise_sd, seed)
        dataset = SampleBatch(base.inputs, target_scale * base.targets)
        # an oversized net is named before the targets' width is checked
        n = _param_count(net)
        if n > MAX_SCAN_PARAMS:
            raise ValueError(f"{n} parameters exceeds the scan guard of {MAX_SCAN_PARAMS}")
    return init_model(net, activation, output_mode_for(dataset, net[-1]), seed), dataset


def scan_convexity(model_template: MlpModel, dataset, lambdas, num_points: int,
                   box_radius: float, seed: int, p: int = 1,
                   h: float = DEFAULT_FD_STEP) -> RegionScan:
    """Sample parameter vectors uniformly from [-box_radius, box_radius]^n
    and record, for every lam, the minimum Hessian eigenvalue of the raw
    exponential criterion mean(exp(lam**p * c)) divided by lam**p * rae,
    plus the plain mean-loss Hessian for the same points.

    At each point one forward pass gives the losses c and the weights W
    (row 0 uniform for the base criterion, row k the criteria's softmax
    `sample_weights` at lam_k), fixed at the centre.  One backward pass on
    the identity's rows (SAMPLE_BLOCK rows a call) gives the exact
    per-sample gradients g_i.  `fd_gradient` of theta -> `weighted_backward`
    (theta, W), symmetrised, gives every sum_i w_ki H_i from 2n backward
    probes; `h` is its absolute central-difference step (it is no longer
    scaled by 1 + |x_i|, as `fd_hessian`'s is).  The Gauss-Newton term
    s_k * sum_i w_ki g_i g_i^T (s_0 = 0) completes each Hessian.  Its
    verdict is PSD when its smallest eigenvalue is >=
    -(psd_tolerance(sum_i w_ki H_i) + n * eps * max|eig|).

    lams must be strictly ascending, each one (with p) a valid
    `CriterionParams`, and box_radius positive with 2 * box_radius finite.
    NumericDomainError, naming the point, where a loss, gradient or Hessian
    is not finite, or where a cross-entropy loss sits at the clamp ceiling
    MAX_CLAMPED_LOSS: the loss is flat there, and its exact gradient is not.
    """
    n = model_template.param_count
    if n > MAX_SCAN_PARAMS:
        raise ValueError(f"{n} parameters exceeds the scan guard of {MAX_SCAN_PARAMS}")
    if model_template.activation not in SMOOTH_ACTIVATIONS:
        raise ValueError(f"scan requires a smooth activation, got {model_template.activation!r}")
    lam_list = [float(v) for v in lambdas]
    if not lam_list or any(b <= a for a, b in zip(lam_list, lam_list[1:])):
        raise ValueError(f"lambdas must be non-empty and strictly ascending, got {lam_list}")
    params = [CriterionParams(lam, p) for lam in lam_list]
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    if not (np.isfinite(2.0 * float(box_radius)) and box_radius > 0):
        raise ValueError(f"box_radius must be positive and finite, as must 2 * box_radius, "
                         f"got {box_radius}")

    points = rng_for(seed, "scan").uniform(-box_radius, box_radius, size=(num_points, n))
    # rows: the base criterion (s = 0, uniform weights), then one per lam
    scales = np.array([0.0] + [pr.scale for pr in params])
    min_eigs = np.empty((len(scales), num_points))
    tols = np.empty((len(scales), num_points))
    used_nrae = np.empty((len(lam_list), num_points), dtype=bool)

    m = dataset.size
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        for j, x in enumerate(points):
            try:
                at_x = unflatten(model_template, x)
                cache = forward(at_x, dataset.inputs)
                c0 = batch_losses(cache.outputs, dataset.targets, model_template.output_mode)
                if model_template.output_mode != "identity-squared" and c0.max() >= MAX_CLAMPED_LOSS:
                    raise NumericDomainError(
                        f"a loss sits at the clamp ceiling {MAX_CLAMPED_LOSS:.6g}, where the exact "
                        "gradient is the unclamped loss's and the loss itself is flat")
                weights = np.array([np.full(m, 1.0 / m)] + [sample_weights(c0, pr) for pr in params])
                # per-sample gradients g_i: the identity's rows, SAMPLE_BLOCK at a time
                grads = np.concatenate([
                    weighted_backward(at_x, dataset, np.eye(min(SAMPLE_BLOCK, m - lo), m, lo), cache)
                    for lo in range(0, m, SAMPLE_BLOCK)])

                def weighted_grads(stack):  # a fresh probe stack, wrapped without a copy
                    return np.stack([weighted_backward(replace(model_template, theta=v), dataset,
                                                       weights).ravel() for v in stack])

                jac = fd_gradient(weighted_grads, x, h).reshape(len(weights), n, n)
                hess = 0.5 * (jac + jac.swapaxes(-1, -2))
                fd_tol = psd_tolerance(hess)  # before the Gauss-Newton term is added
                hess += np.einsum("km,mi,mj->kij", scales[:, None] * weights, grads, grads)
                if not np.all(np.isfinite(hess)):  # eigvalsh would read NaN as a verdict
                    raise NumericDomainError("non-finite Hessian")
            except (NumericDomainError, FloatingPointError) as e:
                raise NumericDomainError(f"point {j}, box_radius {box_radius}, lambdas {lam_list}: {e}")
            eigs = np.linalg.eigvalsh(hess)
            min_eigs[:, j] = eigs[:, 0]
            tols[:, j] = fd_tol + n * np.finfo(float).eps * np.abs(eigs[:, [0, -1]]).max(axis=1)
            used_nrae[:, j] = scales[1:] * c0.max() > EXP_CAP
    psd = min_eigs >= -tols

    return RegionScan(
        lambdas=tuple(lam_list),
        points=points,
        min_eigs=min_eigs[1:],
        psd=psd[1:],
        psd_fraction=psd[1:].mean(axis=1),
        ce_min_eigs=min_eigs[0],
        ce_psd=psd[0],
        used_nrae=used_nrae,
        psd_tol=tols[1:],
        ce_psd_tol=tols[0],
    )


def write_scan_csvs(scan: RegionScan, detail_path, summary_path) -> None:
    """Detail CSV `lambda,point_index,min_eig,psd` and summary CSV
    `lambda,psd_fraction`, LF line endings."""
    with open(detail_path, "w", newline="\n") as fh:
        fh.write("lambda,point_index,min_eig,psd\n")
        for i, lam in enumerate(scan.lambdas):
            for j in range(scan.points.shape[0]):
                flag = "true" if scan.psd[i, j] else "false"
                fh.write(f"{float(lam)!r},{j},{float(scan.min_eigs[i, j])!r},{flag}\n")
    with open(summary_path, "w", newline="\n") as fh:
        fh.write("lambda,psd_fraction\n")
        for i, lam in enumerate(scan.lambdas):
            fh.write(f"{float(lam)!r},{float(scan.psd_fraction[i])!r}\n")
