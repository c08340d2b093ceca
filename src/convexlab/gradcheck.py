"""Finite-difference oracles, and two suites verifying the analytic
derivatives against them over randomized (model, batch, criterion)
configurations.  The convexity scan takes its Hessians as `fd_gradient` of
the exact weighted gradient; `fd_hessian`, second differences of loss
values, stays as the independent oracle of that curvature.

  * weight gradient: the weighted backward pass sum_i w_i grad(c_i), on
    the (2, m) stack of the anrat and uniform weight rows the scan's
    stacked path takes, against central differences of the composed
    objective criterion(losses(W)) over every flat parameter;
  * lam derivative: `evaluate_criterion(losses, "anrat", params).lambda_grad`,
    the very call `sgd_step` makes, against central differences of the
    adaptive loss in lam.

The lam objective is evaluated in extended precision with the constant
mean loss dropped, since near the minimax regime the two terms of the
derivative almost cancel.  Its central difference D(h), at relative step
h * lam, is Richardson-extrapolated to (4 D(h/2) - D(h)) / 3 at h =
LAMBDA_FD_STEP.  Against an 80-digit reference over 576 sweep cases that is
at most 3.5e-8 off, where one quotient is 1.7e-4 off at h = 1e-3
(truncation) and 7.3e-6 off at h = 1e-6 (round-off).

The weight-gradient oracle `fd_gradient` takes a stacked objective: a
function from a (K, n) stack of parameter vectors to its K values, or to a
(K, C) array of C criteria per vector.  It probes FD_BLOCK coordinates per
call, and `check_case` reads the nrae and the mean-loss criteria off the
same loss matrix, so a case with n parameters costs ceil(n / FD_BLOCK)
stacked forward passes for both oracles together instead of 4n single
ones, and each stack holds at most 2 * FD_BLOCK vectors.  `forward`,
`batch_losses` and `nrae` all accept such stacks, and the value for each
row equals, bit for bit, the value of that vector on its own.  Each probe
stack is built fresh for one call, so `check_case` wraps it in a stacked
model as it is, without the private copy `unflatten` would make.

A sweep passes when its worst errors are below the fixed bounds TOL_WEIGHTS
and TOL_LAMBDA; no caller chooses others.  A NaN error fails the sweep: it
counts as worse than any number.  `rel_error` gives NaN for two values below
REL_ERROR_FLOOR, which no quotient resolves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .criteria import CriterionParams, NumericDomainError, evaluate_criterion, nrae
from .data import SampleBatch
from .network import batch_losses, forward, init_model, weighted_backward
from .seeds import rng_for

DEFAULT_LAMBDAS = (1e-3, 1.0, 10.0, 100.0)
DEFAULT_PS = (1, 2)
DEFAULT_CASES = 120
# the largest relative errors that pass: weight gradients, lam derivative
TOL_WEIGHTS = 1e-5
TOL_LAMBDA = 1e-6
# Coordinates probed per objective call in fd_gradient: a call evaluates a
# (2 * FD_BLOCK, n) stack, which bounds the memory of the probe stack and of
# the stacked forward pass behind it.
FD_BLOCK = 64
FD_STEP = 1e-6  # weight-gradient oracle's step
DEFAULT_FD_STEP = 1e-4  # fd_hessian's base step, and the scan's step on the gradient
MAX_HESSIAN_DIM = 200  # fd_hessian's guard on the parameter count
LAMBDA_FD_STEP = 1e-3  # lam oracle's coarse step, relative to lam
REL_ERROR_FLOOR = 1e-12  # the smallest derivative a comparison resolves
# output mode -> output dim choices, in the order a sweep cycles through them
OUTPUT_DIMS = {"softmax-ce": (2, 3), "sigmoid-binary-ce": (1,), "identity-squared": (1, 2)}


@dataclass
class GradCheckCase:
    layer_dims: tuple
    activation: str
    output_mode: str
    lam: float
    p: int
    a: float
    q: int
    batch_size: int
    seed: int

    def describe(self) -> str:
        return (f"dims={list(self.layer_dims)} act={self.activation} mode={self.output_mode} "
                f"lam={self.lam:g} p={self.p} a={self.a:g} q={self.q} "
                f"m={self.batch_size} seed={self.seed}")


@dataclass
class GradCheckSummary:
    num_cases: int
    max_weight_rel_err: float
    max_lambda_rel_err: float
    worst_weight_case: GradCheckCase
    worst_lambda_case: GradCheckCase
    elapsed_s: float = 0.0
    # the fixed pass bounds, for callers that report them (class attributes, not fields)
    tol_weights = TOL_WEIGHTS
    tol_lambda = TOL_LAMBDA

    @property
    def ok(self) -> bool:
        return self.max_weight_rel_err < TOL_WEIGHTS and self.max_lambda_rel_err < TOL_LAMBDA


def _check_point(x, h: float) -> np.ndarray:
    """x as a float array: a non-empty 1-D vector, with h positive and finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"x must be a non-empty flat parameter vector, got shape {x.shape}")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h}")
    return x


def _probe(objective, x) -> np.ndarray:
    """The objective at x, a point or a (K, n) stack; a non-finite value aborts, naming its probe."""
    val = np.asarray(objective(x), dtype=float)
    if not np.isfinite(val).all():  # the method: np.all's wrapper costs as much again
        if x.ndim == 2 and val.ndim and len(val) == len(x):  # the first bad row of a stack
            k = int(np.argmin(np.isfinite(val.reshape(len(val), -1)).all(axis=1)))
            val, x = val[k], x[k]
        raise NumericDomainError(f"objective returned {val.tolist()} at probe point {x.tolist()}")
    return val


def fd_gradient(objective, x, h: float = FD_STEP) -> np.ndarray:
    """Central difference quotient per coordinate of a stacked objective.

    `objective` maps a (K, n) stack of parameter vectors to its K values,
    giving the (n,) gradient, or to a (K, C) array of C criteria per vector,
    giving the (C, n) stack of their gradients from one pass of probes.
    The probes x + h*e_i and x - h*e_i go in blocks of at most FD_BLOCK
    coordinates, one call per block on a (2 * block, n) stack: the plus
    probes of the block in coordinate order, then the minus probes.
    """
    x = _check_point(x, h)
    grad = None
    for lo in range(0, x.size, FD_BLOCK):
        coords = np.arange(lo, min(lo + FD_BLOCK, x.size))
        k = coords.size
        probes = np.repeat(x[None, :], 2 * k, axis=0)
        probes[np.arange(k), coords] += h
        probes[np.arange(k, 2 * k), coords] -= h
        values = _probe(objective, probes)
        if grad is None and values.ndim in (1, 2):
            grad = np.empty(values.shape[1:] + x.shape)
        if grad is None or values.shape != (2 * k,) + grad.shape[:-1]:
            raise ValueError(f"stacked objective returned shape {values.shape} for {2 * k} probes")
        grad[..., coords] = ((values[:k] - values[k:]) / (2.0 * h)).T
    return grad


def fd_hessian(objective, point, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central second differences of an objective, symmetrized.

    The objective returns a scalar, giving an (n, n) Hessian, or a vector of
    K values, giving the (K, n, n) stack of their Hessians from one pass of
    probes.  Per-coordinate steps h_i = h * (1 + |x_i|) balance curvature
    against round-off.
    """
    x = _check_point(point, h)
    if (n := x.size) > MAX_HESSIAN_DIM:
        raise ValueError(f"{n} parameters exceeds the desk-scale guard of {MAX_HESSIAN_DIM}")
    e = np.diag(h * (1.0 + np.abs(x)))  # e[i]: the step along coordinate i
    f0 = _probe(objective, x)
    hess = np.empty(f0.shape + (n, n))
    for i, ei in enumerate(e):
        fpp = _probe(objective, x + 2.0 * ei)
        fmm = _probe(objective, x - 2.0 * ei)
        hess[..., i, i] = (fpp - 2.0 * f0 + fmm) / (4.0 * e[i, i] ** 2)
        for j in range(i + 1, n):
            fpq = _probe(objective, x + ei + e[j])
            fpm = _probe(objective, x + ei - e[j])
            fmp = _probe(objective, x - ei + e[j])
            fmq = _probe(objective, x - ei - e[j])
            hess[..., i, j] = hess[..., j, i] = (fpq - fpm - fmp + fmq) / (4.0 * e[i, i] * e[j, j])
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _anrat_minus_mean_longdouble(d, lam, params: CriterionParams):
    # adaptive loss less mean(c), from the longdouble d = c - mean(c) and
    # through criteria.nrae's log1p form: the quotient below differences
    # values ~1e5 times smaller than the full loss, keeping round-off small
    s = lam ** int(params.p)
    z = s * d
    zmax = z.max()
    if zmax <= 50.0:
        corr = np.log1p(np.expm1(z).sum() / z.size)
    else:
        corr = zmax + np.log(np.exp(z - zmax).sum() / z.size)
    return corr / s + np.longdouble(params.a) * lam ** (-int(params.q))


def fd_lambda_gradient(c, params: CriterionParams) -> float:
    """Richardson-extrapolated central difference of the adaptive loss in
    lam (see the module docstring); the step is relative to lam, since the
    penalty's high derivatives scale like lam**(-q-3)."""
    d = np.asarray(c, dtype=np.longdouble)
    d = d - d.mean()
    lam = np.longdouble(params.lam)
    hl = np.longdouble(LAMBDA_FD_STEP) * lam
    f = [_anrat_minus_mean_longdouble(d, lam + k * hl / 2, params) for k in (-2, -1, 1, 2)]
    coarse, fine = (f[3] - f[0]) / (2 * hl), (f[2] - f[1]) / hl
    return float((4 * fine - coarse) / 3)


def rel_error(approx, exact) -> float:
    """max|approx - exact| / max(|approx|, |exact|), or NaN (a failure) when
    both are below REL_ERROR_FLOOR: a floored ratio would pass any such pair."""
    a = np.atleast_1d(np.asarray(approx, dtype=float))
    e = np.atleast_1d(np.asarray(exact, dtype=float))
    scale = max(float(np.abs(a).max()), float(np.abs(e).max()))
    return float(np.abs(a - e).max()) / scale if scale >= REL_ERROR_FLOOR else float("nan")


def _random_case(rng, lam, p, output_mode, seed) -> GradCheckCase:
    d0 = int(rng.integers(2, 9))
    hidden = [int(rng.integers(2, 17)) for _ in range(int(rng.integers(1, 3)))]
    dims = tuple([d0] + hidden + [int(rng.choice(OUTPUT_DIMS[output_mode]))])
    return GradCheckCase(
        layer_dims=dims,
        activation=str(rng.choice(["tanh", "sigmoid"])),
        output_mode=output_mode,
        lam=float(lam),
        p=int(p),
        a=float(rng.choice([0.0, 0.1, 1.0])),
        q=int(rng.choice([1, 2])),
        batch_size=int(rng.integers(5, 11)),
        seed=seed,
    )


def _case_batch(case: GradCheckCase, rng) -> SampleBatch:
    x = rng.normal(size=(case.batch_size, case.layer_dims[0]))
    out_dim = case.layer_dims[-1]
    if case.output_mode != "identity-squared":
        y = rng.integers(0, max(out_dim, 2), size=case.batch_size)
    else:
        y = rng.normal(size=(case.batch_size, out_dim)) if out_dim > 1 else rng.normal(size=case.batch_size)
    return SampleBatch(x, y)


def _case_problem(case: GradCheckCase) -> tuple:
    """(model, batch, criterion params) of one configuration."""
    model = init_model(case.layer_dims, case.activation, case.output_mode, case.seed)
    batch = _case_batch(case, rng_for(case.seed, "gradcheck-batch"))
    params = CriterionParams(lam=case.lam, p=case.p, a=case.a, q=case.q)
    return model, batch, params


def check_case(case: GradCheckCase) -> tuple:
    """(weight rel err, lam rel err) for one configuration."""
    model, batch, params = _case_problem(case)

    def criteria_at(stack):
        # nrae and the plain mean loss of each probe, from one loss matrix;
        # the stack is a fresh probe block, wrapped without a copy
        m = replace(model, theta=stack)
        c = batch_losses(forward(m, batch.inputs).outputs, batch.targets, m.output_mode)
        return np.stack([nrae(c, params), np.mean(c, axis=-1)], axis=-1)

    cache = forward(model, batch.inputs)
    losses = batch_losses(cache.outputs, batch.targets, model.output_mode)
    numeric, numeric_ce = fd_gradient(criteria_at, model.theta)

    # the criterion gradient, with the weights and lam derivative of the
    # trainer's own criterion call, and the plain mean-loss gradient (uniform
    # weights): one backward pass on the (2, m) stack of their weight rows,
    # the stacked path the convexity scan takes
    report = evaluate_criterion(losses, "anrat", params)
    uniform = np.full(batch.size, 1.0 / batch.size)
    analytic, analytic_ce = weighted_backward(model, batch, np.stack([report.sample_weights, uniform]), cache)
    weight_err = max(rel_error(numeric, analytic), rel_error(numeric_ce, analytic_ce))

    lam_err = rel_error(fd_lambda_gradient(losses, params), report.lambda_grad)
    return weight_err, lam_err


def _cases(num_cases: int, lambdas, ps, seed: int):
    """The configurations of a sweep, cycling through every (lam, p, output
    mode) cell."""
    rng = rng_for(seed, "gradcheck")
    cells = [(lam, p, mode) for lam in lambdas for p in ps for mode in OUTPUT_DIMS]
    for k in range(num_cases):
        lam, p, mode = cells[k % len(cells)]
        case = _random_case(rng, lam, p, mode, seed=1000 + k)
        # the flagship size from the acceptance sweep appears explicitly
        if k == 0:
            case = GradCheckCase((8, 16, 8, 3), "tanh", "softmax-ce",
                                 lam, p, 0.1, 1, 8, seed=1000)
        yield case


def _is_worse(err: float, worst: float) -> bool:
    # NaN is worse than every number, and a recorded NaN stays the worst
    return worst == worst and not err <= worst


def run_gradcheck(num_cases: int = DEFAULT_CASES, lambdas=DEFAULT_LAMBDAS, ps=DEFAULT_PS,
                  seed: int = 0) -> GradCheckSummary:
    """Sweep num_cases configurations cycling through every (lam, p, output
    mode) cell, tracking the worst relative error of each suite; the first
    NaN error, if any, is the worst.  The sweep passes when both are below
    TOL_WEIGHTS and TOL_LAMBDA.  A sweep that would check nothing is refused."""
    if num_cases < 1 or not len(lambdas) or not len(ps):
        raise ValueError(f"gradcheck needs at least one case, lam and p, got num_cases={num_cases} "
                         f"lambdas={tuple(lambdas)} ps={tuple(ps)}")
    t0 = time.perf_counter()
    worst_w = (-1.0, None)
    worst_l = (-1.0, None)
    for case in _cases(num_cases, lambdas, ps, seed):
        w_err, l_err = check_case(case)
        if _is_worse(w_err, worst_w[0]):
            worst_w = (w_err, case)
        if _is_worse(l_err, worst_l[0]):
            worst_l = (l_err, case)
    return GradCheckSummary(
        num_cases=num_cases,
        max_weight_rel_err=worst_w[0],
        max_lambda_rel_err=worst_l[0],
        worst_weight_case=worst_w[1],
        worst_lambda_case=worst_l[1],
        elapsed_s=time.perf_counter() - t0,
    )
