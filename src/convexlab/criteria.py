"""Risk-averting loss criteria and their exact first-order derivatives.

Everything here is a pure function of a vector of nonnegative per-sample
losses ``c`` (cross-entropy or squared error, the criteria do not care)
and a parameter bundle (lam, p, a, q).  The criteria are one exponential
tilt of c at s = lam**p (the tilted empirical risk of TERM, tilt s):

    nrae(c)  = (1/s) * log mean_i exp(s * c_i)       (between mean(c) and max(c))
    rae(c)   = exp(s * nrae(c))                      (inf past double range)
    anrat(c) = nrae(c) + a * lam**(-q)               (penalty resists lam -> 0)

Its sample weights w = softmax(s * c) factor the weight gradient of nrae as
sum_i w_i * grad(c_i), one weighted backward pass in the network module,
and anrat's lam derivative is (p/lam) * (w.c - nrae) - a*q*lam**(-q-1).

`_Tilt` evaluates the tilt of each row of a (K, m) loss stack and chooses
once per row how to shift the exponent.  If the spread s*(max(c) - mean(c))
is at most EXPM1_LIMIT, by the mean, through u = expm1(s*(c - mean(c))) and
log1p, which keep the digits of nrae - mean(c) and of the gap w.c - nrae at
small s.  Otherwise by the max: e = exp(s*(c - max(c))) is in [0, 1] at any
finite s (past double range the product is -inf and e = 0, its limit).  The
weights are e / sum(e) in both regimes, so all of it is finite at every lam
that `CriterionParams` accepts, but rae past double range.

`evaluate_criterion` is the one evaluation path of every kind: it checks
the losses once and reads the value, the weights and (anrat) the lam
derivative off one tilt.  `nrae` (also on a stack) and `sample_weights`
read one of them alone, for the finite-difference oracles and the scan.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Feasibility cap for the raw exponential criterion: exp(500) ~ 7e216 leaves
# headroom for the batch sum inside double range.  The scheduled strategy
# switches to rae below it, and the convexity scan reports the points past it.
EXP_CAP = 500.0

# The tilt's regime boundary on the spread s*(max(c) - mean(c)): at or below
# it the exponent is shifted by the mean and taken through expm1/log1p.
EXPM1_LIMIT = 50.0

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


class _part:
    """A `_Tilt` part, built on its first read and then stored on the tilt:
    `functools.cached_property` without the lock it takes before Python 3.12,
    which cost a few microseconds a tilt."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, tilt, owner=None):
        value = tilt.__dict__[self.name] = self.build(tilt)
        return value


class _Tilt:
    """The tilt at s of each row c of a (K, m) loss stack, with its regime
    (`small`: on the expm1 side) decided once per row.  `value` holds each
    row's nrae; `weights` and, for one row, `gap` read the same exponents.
    Each part is built on first read, so a reader pays for what it reads:
    the weights for e, the value for u on expm1 rows and e on the others."""

    def __init__(self, rows: np.ndarray, s: float):
        self.rows, self.s, self.m = rows, s, rows.shape[1]

    @_part
    def cbar(self) -> np.ndarray:
        return self.rows.sum(axis=1) / self.m  # sum / m is how np.mean divides, so these are its bits

    @_part
    def cmax(self) -> np.ndarray:
        return self.rows.max(axis=1)

    @_part
    def small(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # a spread past double range is not small
            return self.s * (self.cmax - self.cbar) <= EXPM1_LIMIT

    @_part
    def e(self) -> np.ndarray:
        # e = 0 is the limit of an exponent past double range, or below it
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.s * (self.rows - self.cmax[:, None]))

    @_part
    def d(self) -> np.ndarray:
        return self.rows - self.cbar[:, None]

    @_part
    def u(self) -> np.ndarray:
        # s*d <= EXPM1_LIMIT on the expm1 rows; u overflows only on the others,
        # which `value` reads under its own errstate and `gap` never reads
        with np.errstate(under="ignore"):
            return np.expm1(self.s * self.d)

    @_part
    def ubar(self) -> np.ndarray:
        return self.u.sum(axis=1) / self.m

    @_part
    def value(self) -> np.ndarray:
        def by_mean():
            return self.cbar + np.log1p(self.ubar) / self.s

        def by_max():
            return self.cmax + np.log(self.e.sum(axis=1) / self.m) / self.s

        if self.small.all():
            return by_mean()
        if not self.small.any():
            return by_max()
        with np.errstate(over="ignore"):  # by_mean on the rows past the limit
            return np.where(self.small, by_mean(), by_max())

    def weights(self) -> np.ndarray:
        """Each row's softmax weights; one below the smallest normal double is 0."""
        w = self.e / self.e.sum(axis=1, keepdims=True)
        w[w < TINY_WEIGHT] = 0.0
        return w

    def gap(self, w: np.ndarray) -> float:
        """sum_i w_i c_i - nrae of a one-row tilt with weights w: the gap
        between the exponentially weighted mean loss and the criterion, >= 0."""
        if not self.small[0]:
            return float(np.dot(w, self.rows[0])) - float(self.value[0])
        # Both terms of the gap are ~mean(c) while the gap itself is
        # ~s*var(c)/2, so at small s their difference loses every digit it
        # has.  In d = c - mean(c) and u = expm1(s*d), with w_i = (1 + u_i) /
        # (m*(1 + mean(u))), the gap is a sum of terms of its own size.
        u, d, ubar = self.u[0], self.d[0], float(self.ubar[0])
        return (float(np.dot(u - ubar, d)) / (d.size * (1.0 + ubar))
                + float(d.mean()) - float(np.log1p(ubar)) / self.s)


def nrae(losses, params: CriterionParams) -> float | np.ndarray:
    """(1/lam**p) * log rae, finite at any lam**p * c_i and between mean(c)
    and max(c).  Near the mean it is taken through expm1/log1p: 1/s would
    amplify the cancellation in log(1 - eps) and poison FD oracles.

    A vector gives a float; a (K, m) stack of loss vectors gives an array of
    K values, each equal bit for bit to nrae of its row."""
    c = _check_losses(losses, stacked=True)
    value = _Tilt(c.reshape(-1, c.shape[-1]), params.scale).value
    return float(value[0]) if c.ndim == 1 else value


def sample_weights(losses, params: CriterionParams) -> np.ndarray:
    """Softmax over lam**p * c_i: the per-sample factors whose weighted sum
    of loss gradients is the full criterion gradient with respect to W.
    A weight below the smallest normal double is returned as exactly 0."""
    return _Tilt(_check_losses(losses)[None, :], params.scale).weights()[0]


def evaluate_criterion(losses, kind: str, params: CriterionParams) -> LossReport:
    """Evaluate one criterion kind ('ce' | 'rae' | 'nrae' | 'anrat') on a
    loss vector, bundling the value, the plain CE mean, the gradient
    weights, and (anrat) the lam derivative.

    One pass: the losses are checked once and tilted once; the mean, the
    value, the weights and the lam derivative all read that tilt.  The 'rae' kind
    reports exp(lam**p * nrae) = mean(exp(lam**p * c_i)) with no cap, inf
    past double range, and the weights of 'nrae' (its gradient is
    lam**p * rae times theirs).
    """
    c = _check_losses(losses)
    tilt = _Tilt(c[None, :], params.scale)
    ce, cmax = float(tilt.cbar[0]), float(tilt.cmax[0])
    if kind == "ce":
        return LossReport(ce, ce, np.full(c.size, 1.0 / c.size), max_loss=cmax)
    if kind not in ("rae", "nrae", "anrat"):
        raise ValueError(f"unknown criterion kind {kind!r}")
    w = tilt.weights()[0]
    value = float(tilt.value[0])
    if kind == "rae":
        with np.errstate(over="ignore"):  # inf past double range: divergence to the trainer
            return LossReport(float(np.exp(params.scale * value)), ce, w, max_loss=cmax)
    if kind == "nrae":
        return LossReport(value, ce, w, max_loss=cmax)
    lam, p, a, q = float(params.lam), int(params.p), float(params.a), int(params.q)
    lambda_grad = (p / lam) * tilt.gap(w) - a * q * params.lam_neg_q1
    return LossReport(value + a * params.lam_neg_q, ce, w, lambda_grad=lambda_grad, max_loss=cmax)
