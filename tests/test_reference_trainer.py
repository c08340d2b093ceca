"""`train` against an independent reference trainer.

The reference below is written from the documented rules, not from the
trainer's code: a long-double forward pass looped over samples, each
criterion from its formula, weight gradients by central differences of the
criterion a step descends, anrat's lam step from a central difference in
lam, scheduled's decay and switch, and the best epoch by validation loss.
It shares no function with `train` except `epoch_seed`, from which it
rebuilds each epoch's batch order itself; the initial weights are redrawn
from the documented Glorot rule and seed stream.

Both runs must agree within RTOL relative: every EpochRecord field except
wall_ms, the final lam, the best epoch, and the best and final parameters.
The differences come from float64 rounding in `train` and the reference's
finite-difference truncation (fourth-order stencils, long double).
"""

import zlib

import numpy as np
import pytest

from convexlab.convexity import scan_problem
from convexlab.data import synthetic_blobs
from convexlab.seeds import epoch_seed
from convexlab.trainer import TrainConfig, train

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                reason="the reference needs an extended-precision long double")

LD = np.longdouble
RTOL = 1e-10
EPOCHS = 6
FD_STEP = LD("1e-5")  # weights: absolute step
FD_LAMBDA_STEP = LD("1e-4")  # lam: step relative to lam

# documented constants: the loss clamp, anrat's lam floor, the scheduled
# strategy's lam floor and its switch cap
PROB_EPS = LD("1e-12")
LAMBDA_MIN = 1e-3
SCHEDULED_FLOOR = 1.0
EXP_CAP = 500.0


def _glorot(dims, seed):
    """Glorot-uniform weights drawn layer by layer from the (seed, "init")
    stream, zero biases, in the layer-major layout: W row-major, then b."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"init")]))
    parts = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        r = np.sqrt(6.0 / (d_in + d_out))
        parts += [rng.uniform(-r, r, size=(d_out, d_in)).ravel(), np.zeros(d_out)]
    return np.concatenate(parts).astype(LD)


def _order(seed, ep, m):
    """Epoch ep's sample order: a permutation from its (epoch_seed, "shuffle") stream."""
    es = epoch_seed(seed, ep)
    return np.random.default_rng(np.random.SeedSequence([es, zlib.crc32(b"shuffle")])).permutation(m)


def _sigmoid(z):
    return 1 / (1 + np.exp(-z))


class Problem:
    """One dataset on one net, its per-sample losses in long double."""

    def __init__(self, dims, activation, train_set, val_set):
        self.dims, self.activation = dims, activation
        self.binary = train_set.is_classification
        self.sets = (train_set, val_set)  # as `train` takes them
        self.train = (train_set.inputs.astype(LD), train_set.targets.astype(LD))
        self.val = (val_set.inputs.astype(LD), val_set.targets.astype(LD))

    def _output(self, theta, x):
        pos, h = 0, x
        for k, (d_in, d_out) in enumerate(zip(self.dims[:-1], self.dims[1:])):
            w = theta[pos:pos + d_out * d_in].reshape(d_out, d_in)
            b = theta[pos + d_out * d_in:pos + d_out * (d_in + 1)]
            pos += d_out * (d_in + 1)
            z = w @ h + b
            if k < len(self.dims) - 2:
                h = np.tanh(z) if self.activation == "tanh" else _sigmoid(z)
            else:
                h = _sigmoid(z) if self.binary else z
        return h

    def losses(self, theta, rows, part="train"):
        """Per-sample losses of `rows`, one forward pass per sample:
        binary cross-entropy on the clamped probability, or squared error."""
        x, y = getattr(self, part)
        c = np.empty(len(rows), dtype=LD)
        for j, i in enumerate(rows):
            f = self._output(theta, x[i])
            if self.binary:
                p = min(max(f[0], PROB_EPS), 1 - PROB_EPS)
                c[j] = -(y[i] * np.log(p) + (1 - y[i]) * np.log(1 - p))
            else:
                c[j] = np.sum((f - y[i]) ** 2)
        return c

    def evaluate(self, theta):
        """(mean validation loss, error): the misclassification rate at
        p > 0.5 for the binary problem, the mean squared error otherwise."""
        x, y = self.val
        c = self.losses(theta, range(len(y)), "val")
        if not self.binary:
            return np.mean(c), np.mean(c)
        wrong = [(self._output(theta, xi)[0] > 0.5) != (yi == 1) for xi, yi in zip(x, y)]
        return np.mean(c), np.mean(wrong)


def _rae(c, lam, cfg):
    return np.mean(np.exp(LD(lam) ** cfg.p * c))


def _nrae(c, lam, cfg):
    return np.log(_rae(c, lam, cfg)) / LD(lam) ** cfg.p


def _anrat(c, lam, cfg):
    return _nrae(c, lam, cfg) + LD(cfg.a) * LD(lam) ** -cfg.q


def _ce(c, lam, cfg):
    return np.mean(c)


# strategy -> the criterion its steps descend; scheduled logs rae after its
# switch but keeps descending nrae
CRITERIA = {"ce": _ce, "nrae-fixed": _nrae, "scheduled": _nrae, "anrat": _anrat}


def _central(f, x, h):
    """Fourth-order central difference of a scalar function at x."""
    return (8 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12 * h)


def _grad(objective, theta):
    grad = np.empty_like(theta)
    for i, e in enumerate(np.eye(theta.size, dtype=LD)):
        grad[i] = _central(lambda t: objective(theta + t * e), LD(0), FD_STEP)
    return grad


def reference_train(cfg: TrainConfig, problem: Problem):
    """(records as tuples, final lam, best epoch, best theta, final theta)."""
    theta = _glorot(cfg.layer_dims, cfg.seed)
    lam, switched, max_loss = cfg.lambda0, False, LD(0)
    lambda_lr = cfg.lambda_lr if cfg.lambda_lr is not None else cfg.learning_rate
    criterion = CRITERIA[cfg.strategy]
    m = len(problem.train[1])
    records, best = [], (np.inf, -1, None)
    for ep in range(EPOCHS):
        order = _order(cfg.seed, ep, m)
        crit_sum = ce_sum = LD(0)
        for start in range(0, m, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            c = problem.losses(theta, rows)
            value = (_rae if switched else criterion)(c, lam, cfg)
            grad = _grad(lambda t: criterion(problem.losses(t, rows), lam, cfg), theta)
            if cfg.strategy == "anrat":
                # d/dlam at the pre-step point; the step is at most a halving
                # or a doubling, and lam stays at or above its floor
                lam_grad = _central(lambda x: _anrat(c, x, cfg), LD(lam), FD_LAMBDA_STEP * LD(lam))
                stepped = float(lam - lambda_lr * lam_grad)
                lam = max(LAMBDA_MIN, min(max(stepped, 0.5 * lam), 2.0 * lam))
            theta = theta - LD(cfg.learning_rate) * grad
            crit_sum += value * len(rows)
            ce_sum += np.mean(c) * len(rows)
            max_loss = max(max_loss, np.max(c))
        val_ce, val_error = problem.evaluate(theta)
        if cfg.strategy == "scheduled" and not switched:
            # decay toward 1, then switch for good once lam**p times the
            # largest loss any batch can have fits under the cap: the clamp
            # ceiling for cross-entropy, the largest seen for squared error
            lam = max(lam * cfg.rho, SCHEDULED_FLOOR)
            signal = -np.log(PROB_EPS) if problem.binary else max_loss
            switched = bool(LD(lam) ** cfg.p * signal <= EXP_CAP)
        records.append((ep, crit_sum / m, ce_sum / m, val_ce, val_error, lam, switched))
        if val_ce < best[0]:
            best = (val_ce, ep, theta.copy())
    return records, lam, best[1], best[2], theta


def _sine():
    # the scan's scaled-sine problem: 20 samples of 6 sin(x) on a 1-3-1 tanh net
    _, train_set = scan_problem((1, 3, 1), seed=0)
    _, val_set = scan_problem((1, 3, 1), seed=1)
    return Problem((1, 3, 1), "tanh", train_set, val_set)


def _binary():
    # two overlapping blobs on a 2-3-1 sigmoid net with a sigmoid output
    train_set = synthetic_blobs(24, 2, 2, seed=0, separation=1.5)
    val_set = synthetic_blobs(12, 2, 2, seed=1, separation=1.5)
    return Problem((2, 3, 1), "sigmoid", train_set, val_set)


# problem -> (builder, TrainConfig fields, batch sizes: full and uneven).
# lambda0 makes scheduled switch within the run, after its first epoch, and
# lambda_lr moves anrat's lam by up to its halving and doubling clamps.
PROBLEMS = {
    "sine": (_sine, dict(layer_dims=(1, 3, 1), activation="tanh", learning_rate=0.01,
                         lambda_lr=5000.0, lambda0=40.0, rho=0.8, p=1, a=0.1, q=1), (20, 7)),
    "binary": (_binary, dict(layer_dims=(2, 3, 1), activation="sigmoid", learning_rate=0.5,
                             lambda_lr=50.0, lambda0=5.5, rho=0.8, p=2, a=0.5, q=2), (24, 10)),
}
CASES = [(name, strategy, batch_size)
         for name, (_, _, sizes) in PROBLEMS.items()
         for strategy in ("ce", "nrae-fixed", "scheduled", "anrat")
         for batch_size in sizes]


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=LD), np.asarray(b, dtype=LD)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return float(np.max(np.abs(a - b)) / scale) if scale else 0.0


@pytest.fixture(scope="module")
def problems():
    return {name: build() for name, (build, _, _) in PROBLEMS.items()}


@pytest.mark.parametrize("name, strategy, batch_size", CASES,
                         ids=[f"{n}-{s}-batch{b}" for n, s, b in CASES])
def test_train_matches_the_reference(problems, name, strategy, batch_size):
    problem = problems[name]
    cfg = TrainConfig(strategy=strategy, epochs=EPOCHS, batch_size=batch_size, seed=3,
                      **PROBLEMS[name][1])
    report = train(cfg, *problem.sets)
    records, lam, best_epoch, best_theta, final_theta = reference_train(cfg, problem)

    assert len(report.records) == len(records)
    for got, want in zip(report.records, records):
        ep, crit, ce, val_ce, val_error, want_lam, want_switched = want
        assert (got.epoch, got.switched_to_rae) == (ep, want_switched)
        for field, value in (("train_criterion", crit), ("train_ce", ce), ("val_ce", val_ce),
                             ("val_error", val_error), ("lam", want_lam)):
            assert _rel(getattr(got, field), value) <= RTOL, (ep, field)
    assert _rel(report.final_lambda, lam) <= RTOL
    assert report.best_epoch == best_epoch
    assert _rel(report.best_model.theta, best_theta) <= RTOL
    assert _rel(report.final_model.theta, final_theta) <= RTOL
    if strategy == "scheduled":
        switches = [r.switched_to_rae for r in report.records]
        assert 0 < switches.index(True) < EPOCHS - 1, switches
