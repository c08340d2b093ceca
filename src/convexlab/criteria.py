"""Risk-averting loss criteria and their exact first-order derivatives.

Everything here is a pure function of a vector of nonnegative per-sample
losses ``c`` (cross-entropy or squared error, the criteria do not care)
and a parameter bundle (lam, p, a, q).  The convexified criteria are

    rae(c)   = mean_i exp(lam**p * c_i)                  (unbounded, inf past float range)
    nrae(c)  = (1/lam**p) * log rae(c)                   (log-sum-exp form, stable)
    anrat(c) = nrae(c) + a * lam**(-q)                   (penalty resists lam -> 0)

`evaluate_criterion` is the one evaluation path of every kind: it checks
the losses once and returns the value, the gradient weights and (anrat)
the lam derivative together.  RAE has no cap there: past float range its
value is inf, which the trainer reports as divergence.

The gradient of nrae with respect to the weights factors through the
per-sample losses as sum_i w_i * grad(c_i), where w_i is a softmax over
lam**p * c_i; the network module consumes those factors in a single
weighted backward pass.  `nrae` (also on a stack of loss vectors) and
`sample_weights` evaluate one of them alone, for the finite-difference
oracles and the convexity scan.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Training-state floor for lam.  The pure functions below accept any lam that
# CriterionParams takes (the small-lam limit is itself a tested property);
# the trainer clamps its lam state to this floor after every update.
LAMBDA_MIN = 1e-3

# Feasibility cap for the raw exponential criterion: exp(500) ~ 7e216 leaves
# headroom for the batch sum inside double range.  The scheduled strategy
# switches to rae below it, and the convexity scan reports the points past it.
EXP_CAP = 500.0

# Softmax weights below the smallest normal double are flushed to 0: the
# weighted backward pass slows several-fold on subnormal products.
TINY_WEIGHT = float(np.finfo(float).tiny)


class NumericDomainError(ArithmeticError):
    """An input or probe produced a non-finite value."""


@dataclass(frozen=True)
class CriterionParams:
    """Scalar state of the convexified criteria: lam applied as lam**p,
    plus the penalty weight a and penalty index q of the adaptive loss.
    The one owner of lam's powers, stored when built: `scale` = lam**p, and
    `lam_neg_q`, `lam_neg_q1` = lam**(-q), lam**(-q-1).  NumericDomainError
    unless lam**p is a normal double and lam**(-q-1) finite (q = 1: lam > ~7.5e-155)."""

    lam: float
    p: int = 1
    a: float = 0.0
    q: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be an integer >= 1, got {self.p}")
        if int(self.q) != self.q or self.q < 1:
            raise ValueError(f"q must be an integer >= 1, got {self.q}")
        if not (np.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"a must be >= 0, got {self.a}")
        try:  # lam**p, then the penalty's lam**(-q) and its derivative's lam**(-q-1)
            powers = tuple(float(self.lam) ** k for k in (int(self.p), -int(self.q), -int(self.q) - 1))
        except OverflowError:
            powers = (np.inf,) * 3
        if not sys.float_info.min <= powers[0] < np.inf:
            raise NumericDomainError(f"lam={self.lam} (p={self.p}, q={self.q}) puts lam**p or "
                                     "lam**(-q-1) out of double range")
        self.__dict__.update(zip(("scale", "lam_neg_q", "lam_neg_q1"), powers))


@dataclass
class LossReport:
    """One criterion evaluation on a batch: the criterion value, the plain
    mean of the per-sample losses, the softmax sample weights that form the
    weight gradient, and (adaptive criterion only) the lam derivative.
    max_loss is the largest per-sample loss, kept for feasibility checks."""

    criterion_value: float
    ce_value: float
    sample_weights: np.ndarray
    lambda_grad: float | None = None
    max_loss: float = 0.0


def _check_losses(losses, stacked: bool = False) -> np.ndarray:
    """The losses as a float array: a non-empty vector, or with `stacked`
    also a (K, m) stack of them; every entry of every row is checked."""
    c = np.asarray(losses, dtype=float)
    if c.ndim not in ((1, 2) if stacked else (1,)) or c.size < 1:
        shape = "a non-empty 1-D vector or (K, m) stack" if stacked else "a non-empty 1-D vector"
        raise ValueError(f"losses must be {shape}, got shape {c.shape}")
    if not (c.min() >= 0.0 and c.max() < np.inf):
        # two reductions clear the usual case; the masks only name the rows
        if not np.all(np.isfinite(c)):
            raise NumericDomainError(f"losses contain non-finite entries{_rows_where(~np.isfinite(c))}")
        raise ValueError(f"per-sample losses must be nonnegative{_rows_where(c < 0)}")
    return c


def _rows_where(bad) -> str:
    return f" (rows {np.flatnonzero(bad.any(axis=1)).tolist()})" if bad.ndim == 2 else ""


def _nrae_rows(rows, s: float) -> np.ndarray:
    # sum / m is how np.mean divides, so these are its bits
    m = rows.shape[1]
    cbar = rows.sum(axis=1) / m
    z = s * (rows - cbar[:, None])
    zmax = z.max(axis=1)
    small = zmax <= 50.0
    if small.all():  # the usual stack: every row on the expm1 side, no split
        return cbar + np.log1p(np.expm1(z).sum(axis=1) / m) / s
    corr = np.empty_like(cbar)
    corr[small] = np.log1p(np.expm1(z[small]).sum(axis=1) / m)
    big = ~small
    corr[big] = zmax[big] + np.log(np.exp(z[big] - zmax[big, None]).sum(axis=1) / m)
    return cbar + corr / s


def _softmax_weights(c, s: float) -> np.ndarray:
    z = s * c
    z = z - z.max()
    e = np.exp(z)
    w = e / e.sum()
    w[w < TINY_WEIGHT] = 0.0
    return w


def _grad_lambda(c, params: CriterionParams, w, nrae_value: float) -> float:
    """Exact derivative of the adaptive loss with respect to lam,

        (p/lam) * (sum_i w_i c_i - nrae) - a*q*lam**(-q-1),

    from the softmax weights w and nrae of c, which are read on the
    log-sum-exp side only.  The first term is the gap between the
    exponentially weighted mean loss and the criterion, hence >= 0."""
    lam, p, a, q = float(params.lam), int(params.p), float(params.a), int(params.q)
    s = params.scale
    d = c - c.mean()
    if s * float(d.max()) <= 50.0:
        # Both terms of the gap are ~mean(c) while the gap itself is
        # ~s*var(c)/2, so at small s their difference loses every digit it
        # has.  In d = c - mean(c) and u = expm1(s*d), with w_i = (1 + u_i) /
        # (m*(1 + mean(u))), the gap is a sum of terms of its own size.
        u = np.expm1(s * d)
        ubar = float(u.mean())
        gap = (float(np.dot(u - ubar, d)) / (c.size * (1.0 + ubar))
               + float(d.mean()) - float(np.log1p(ubar)) / s)
    else:
        gap = float(np.dot(w, c)) - nrae_value
    return (p / lam) * gap - a * q * params.lam_neg_q1


def nrae(losses, params: CriterionParams) -> float | np.ndarray:
    """(1/lam**p) * log rae, computed as a log-sum-exp so it is finite for
    arbitrarily large lam**p * c_i.  Bounded between mean(c) and max(c).

    Evaluated relative to the mean loss: nrae = mean(c) + corr/s with
    corr = log mean(exp(s*(c - mean))).  For small exponents corr is taken
    through expm1/log1p, otherwise the 1/s factor would amplify the
    cancellation in log(1 - eps) and poison finite-difference oracles.

    A vector gives a float; a (K, m) stack of loss vectors gives an array of
    K values, each equal bit for bit to nrae of its row.  A stack whose rows
    all take the expm1 form, the usual case, is evaluated whole; only a
    stack with rows on both sides is split by regime.
    """
    c = _check_losses(losses, stacked=True)
    value = _nrae_rows(c.reshape(-1, c.shape[-1]), params.scale)
    return float(value[0]) if c.ndim == 1 else value


def sample_weights(losses, params: CriterionParams) -> np.ndarray:
    """Softmax over lam**p * c_i: the per-sample factors whose weighted sum
    of loss gradients is the full criterion gradient with respect to W.
    A weight below the smallest normal double is returned as exactly 0."""
    return _softmax_weights(_check_losses(losses), params.scale)


def evaluate_criterion(losses, kind: str, params: CriterionParams) -> LossReport:
    """Evaluate one criterion kind ('ce' | 'rae' | 'nrae' | 'anrat') on a
    loss vector, bundling the value, the plain CE mean, the gradient
    weights, and (anrat) the lam derivative.

    One pass: the losses are checked once, and the softmax weights and nrae
    are computed once and shared by the anrat value and lam derivative.
    The 'rae' kind reports the raw mean(exp(lam**p * c_i)) with no cap,
    inf past float range, and the weights of 'nrae' (its gradient is
    lam**p * rae times theirs).
    """
    c = _check_losses(losses)
    ce = float(c.mean())
    cmax = float(c.max())
    if kind == "ce":
        return LossReport(ce, ce, np.full(c.size, 1.0 / c.size), max_loss=cmax)
    if kind not in ("rae", "nrae", "anrat"):
        raise ValueError(f"unknown criterion kind {kind!r}")
    s = params.scale
    w = _softmax_weights(c, s)
    if kind == "rae":
        with np.errstate(over="ignore"):  # inf past float range: divergence to the trainer
            return LossReport(float(np.mean(np.exp(s * c))), ce, w, max_loss=cmax)
    value = float(_nrae_rows(c[None, :], s)[0])
    if kind == "nrae":
        return LossReport(value, ce, w, max_loss=cmax)
    penalty = params.a * params.lam_neg_q
    return LossReport(value + penalty, ce, w,
                      lambda_grad=_grad_lambda(c, params, w, value), max_loss=cmax)
