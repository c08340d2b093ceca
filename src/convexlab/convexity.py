"""Empirical convexity-region measurement for tiny models: central
finite-difference Hessians over the flat parameter vector, a max-abs-rescaled
LAPACK eigensolve, and lam-sweep scans of the positive-semidefinite fraction
over sampled points in weight space.

Scans are restricted to smooth activations (tanh, sigmoid): relu kinks sit
on measure-zero sets that finite differences straddle.  Each point's
Hessians (base criterion and every lam) come from one FD pass, independent
of the other points; the scan assembles results single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import EXP_CAP, NumericDomainError
from .network import MlpModel, batch_losses, forward, unflatten
from .seeds import rng_for

MAX_HESSIAN_DIM = 200
MAX_SCAN_PARAMS = 60
DEFAULT_FD_STEP = 1e-4
SMOOTH_ACTIVATIONS = ("tanh", "sigmoid")


def psd_tolerance(hessian):
    """Eigenvalue slack scaled by the Hessian's diagonal magnitude (raw
    eigenvalues grow with lam**p, so a fixed tolerance would be meaningless).
    A float for one (n, n) matrix, an array for a (K, n, n) stack."""
    h = np.asarray(hessian)
    return 1e-6 * (1.0 + np.abs(np.diagonal(h, axis1=-2, axis2=-1)).max(axis=-1))


def min_eigenvalues(hessians):
    """Smallest eigenvalue of each symmetric matrix in a (..., n, n) stack.

    Each matrix is divided by its max-abs entry before the LAPACK eigensolve
    and the result scaled back, so entries near the float64 limit (a raw
    criterion's Hessian carries exp(lam**p * c), up to exp(EXP_CAP) = 1.4e217)
    cannot overflow inside the solver.  An all-zero matrix gives 0.
    """
    h = np.asarray(hessians, dtype=float)
    scale = np.abs(h).max(axis=(-2, -1))
    scale = np.where(scale > 0.0, scale, 1.0)
    return np.linalg.eigvalsh(h / scale[..., None, None])[..., 0] * scale


@dataclass
class RegionScan:
    """Results of one lam-sweep over a fixed point set.  min_eigs and psd
    are (num_lambdas, num_points); the base-criterion (plain mean loss)
    results for the same points sit in ce_min_eigs / ce_psd.

    used_nrae[i, j] is true where the raw criterion at lam_i would pass
    EXP_CAP at point j (lam_i**p * max(c) > EXP_CAP), so the Hessian was
    taken of exp(-shift) times the raw criterion: the same PSD verdict and
    eigenvalues scaled by that positive constant.
    """

    lambdas: tuple
    points: np.ndarray
    min_eigs: np.ndarray
    psd: np.ndarray
    psd_fraction: np.ndarray
    ce_min_eigs: np.ndarray
    ce_psd: np.ndarray
    used_nrae: np.ndarray

    def comparison_violations(self) -> np.ndarray:
        """Per-lam count of points that are PSD under the base criterion but
        not under the convexified one.  Reported, never silently dropped."""
        return np.array([int(np.sum(self.ce_psd & ~self.psd[i])) for i in range(len(self.lambdas))])


def _probe(objective, x):
    val = np.asarray(objective(x), dtype=float)
    if not np.all(np.isfinite(val)):
        raise NumericDomainError(f"objective returned {val} at probe point {x!r}")
    return val


def fd_hessian(objective, point, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central second differences of an objective, symmetrized.

    The objective returns a scalar, giving an (n, n) Hessian, or a vector of
    K values, giving the (K, n, n) stack of their Hessians from one pass of
    probes.  Per-coordinate steps h_i = h * (1 + |x_i|) balance curvature
    against round-off.  Any non-finite objective value aborts with the probe
    point.
    """
    x = np.asarray(point, dtype=float)
    n = x.size
    if n > MAX_HESSIAN_DIM:
        raise ValueError(f"{n} parameters exceeds the desk-scale guard of {MAX_HESSIAN_DIM}")
    if h <= 0:
        raise ValueError("h must be positive")
    steps = h * (1.0 + np.abs(x))
    f0 = _probe(objective, x)
    hess = np.empty(f0.shape + (n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        fpp = _probe(objective, x + 2.0 * ei)
        fmm = _probe(objective, x - 2.0 * ei)
        hess[..., i, i] = (fpp - 2.0 * f0 + fmm) / (4.0 * steps[i] ** 2)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            fpq = _probe(objective, x + ei + ej)
            fpm = _probe(objective, x + ei - ej)
            fmp = _probe(objective, x - ei + ej)
            fmq = _probe(objective, x - ei - ej)
            hess[..., i, j] = hess[..., j, i] = (fpq - fpm - fmp + fmq) / (4.0 * steps[i] * steps[j])
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _losses_at(template: MlpModel, dataset, vec) -> np.ndarray:
    model = unflatten(template, vec)
    cache = forward(model, dataset.inputs)
    return batch_losses(cache.outputs, dataset.targets, template.output_mode)


def scan_convexity(model_template: MlpModel, dataset, lambdas, num_points: int,
                   box_radius: float, seed: int, p: int = 1,
                   h: float = DEFAULT_FD_STEP) -> RegionScan:
    """Sample parameter vectors uniformly from [-box_radius, box_radius]^n
    and record, for every lam, the minimum Hessian eigenvalue of the raw
    exponential criterion mean(exp(lam**p * c)) plus the plain mean-loss
    Hessian for the same points.

    One FD pass per point yields every Hessian: each probe computes the
    per-sample losses c once and returns [mean(c), mean(exp(s_k*c - shift_k))
    for each lam_k], with s_k = lam_k**p and shift_k = max(0, s_k*max(c) -
    EXP_CAP) fixed at the point's centre.  Dividing by exp(shift_k) leaves
    the PSD verdict unchanged and keeps every probe finite; where shift_k is
    0 the Hessian is exactly the raw criterion's.
    """
    n = model_template.param_count
    if n > MAX_SCAN_PARAMS:
        raise ValueError(f"{n} parameters exceeds the scan guard of {MAX_SCAN_PARAMS}")
    if model_template.activation not in SMOOTH_ACTIVATIONS:
        raise ValueError(f"scan requires a smooth activation, got {model_template.activation!r}")
    lam_list = [float(v) for v in lambdas]
    if not lam_list:
        raise ValueError("lambdas must be non-empty")
    if any(b <= a for a, b in zip(lam_list, lam_list[1:])):
        raise ValueError(f"lambdas must be strictly ascending, got {lam_list}")
    if lam_list[0] < 1.0:
        raise ValueError(f"lambdas must all be >= 1, got {lam_list}")
    if num_points < 1:
        raise ValueError("num_points must be >= 1")

    points = rng_for(seed, "scan").uniform(-box_radius, box_radius, size=(num_points, n))
    scales = np.array([lam ** p for lam in lam_list])
    # rows: the base criterion, then one per lam
    min_eigs = np.empty((len(lam_list) + 1, num_points))
    psd = np.zeros((len(lam_list) + 1, num_points), dtype=bool)
    used_nrae = np.zeros((len(lam_list), num_points), dtype=bool)

    for j, x in enumerate(points):
        shifts = np.maximum(0.0, scales * float(_losses_at(model_template, dataset, x).max()) - EXP_CAP)

        def objective(vec, _shifts=shifts[:, None]):
            c = _losses_at(model_template, dataset, vec)
            tilted = np.mean(np.exp(scales[:, None] * c - _shifts), axis=1)
            return np.concatenate(([np.mean(c)], tilted))

        hess = fd_hessian(objective, x, h)
        min_eigs[:, j] = min_eigenvalues(hess)
        psd[:, j] = min_eigs[:, j] >= -psd_tolerance(hess)
        used_nrae[:, j] = shifts > 0.0

    return RegionScan(
        lambdas=tuple(lam_list),
        points=points,
        min_eigs=min_eigs[1:],
        psd=psd[1:],
        psd_fraction=psd[1:].mean(axis=1),
        ce_min_eigs=min_eigs[0],
        ce_psd=psd[0],
        used_nrae=used_nrae,
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
