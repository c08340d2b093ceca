"""Batch SGD over W or (W, lam) with four strategies:

    ce         - plain cross-entropy (or squared-error) baseline
    nrae-fixed - log-domain criterion at a fixed lam
    scheduled  - start at a large lam, decay it by rho each epoch, switch
                 permanently to the raw exponential criterion once
                 lam**p * max(c) fits under EXP_CAP
    anrat      - joint SGD on (W, lam) with the lam**(-q) penalty

plus hold-out evaluation, grid search (`grid_search` trains the list of
(learning rate, penalty weight) points that `grid_configs` builds), and a
fixed stagnancy verdict (STAGNANCY_WINDOW, STAGNANCY_MIN_REL_IMPROVEMENT).
An epoch has one divergence exit, `DivergedError` (batch -1: the evaluation).

`TrainConfig` checks every field by one rule whatever the strategy, and
each strategy reads only its own (rho: scheduled; lambda_lr, a, q: anrat).
`train` starts at lambda0 as given, so its one per-strategy rule is the lam
floor (`LAMBDA_FLOORS`); from the default lambda0, `replace(config,
strategy=s)` is valid for every s.

One training run is a single sequential loop (SGD is order-dependent);
grid-search runs are independent of each other and each owns its model.
Every strategy steps through `sgd_step`; the criterion kind is resolved
once per epoch from `CRITERION_KINDS`, and is 'rae' from the epoch after
the scheduled switch.  anrat then moves lam by `anrat_lambda_step`.

The scheduled switch changes only the logged criterion, not the update:
every step, before and after it, applies the nrae weights with the
unscaled learning rate (see `sgd_step`).

`train` takes the output mode from the training targets (`output_mode_for`
in `network`); `evaluate` refuses data of another input width, or that
implies another mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .criteria import (
    EXP_CAP,
    CriterionParams,
    NumericDomainError,
    evaluate_criterion,
)
from .data import SampleBatch, batches
from .network import (
    MAX_CLAMPED_LOSS,
    MlpModel,
    batch_losses,
    forward,
    init_model,
    output_mode_for,
    validate_net,
    weighted_backward,
)
from .seeds import epoch_seed

# strategy -> criterion kind of its steps; scheduled's turns to 'rae' from
# the epoch after its switch
CRITERION_KINDS = {"ce": "ce", "nrae-fixed": "nrae", "scheduled": "nrae", "anrat": "anrat"}
STRATEGIES = tuple(CRITERION_KINDS)

# the lam floor of each strategy that moves lam; a lambda0 below it is
# refused, and `anrat_lambda_step` clamps anrat's lam state to LAMBDA_MIN
LAMBDA_MIN = 1e-3
LAMBDA_FLOORS = {"scheduled": 1.0, "anrat": LAMBDA_MIN}

# the stagnancy verdict of every run (see detect_stagnancy)
STAGNANCY_WINDOW = 5
STAGNANCY_MIN_REL_IMPROVEMENT = 1e-4

DEFAULT_LR_GRID = (1.0, 0.5, 0.1)
DEFAULT_A_GRID = (1.0, 0.1, 0.001)

METRICS_HEADER = "epoch,train_criterion,train_ce,val_ce,val_error,lambda,switched,wall_ms"
GRID_HEADER = "lr,a,best_val_ce,best_val_error,status"


class DivergedError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, batch_index: int, detail: str = ""):
        self.epoch = epoch
        self.batch_index = batch_index
        msg = f"diverged at epoch {epoch}, batch {batch_index}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class NoViableModelError(RuntimeError):
    """Every grid-search run diverged."""


@dataclass(frozen=True)
class TrainConfig:
    strategy: str
    learning_rate: float
    epochs: int
    batch_size: int
    layer_dims: tuple
    activation: str = "tanh"
    lambda_lr: float | None = None  # None: the learning rate
    lambda0: float = 10.0
    p: int = 1
    a: float = 0.1
    q: int = 1
    rho: float = 0.8
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> "TrainConfig":
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r} (expected one of {STRATEGIES})")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        validate_net(self.layer_dims, self.activation)
        if not (np.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if self.lambda0 < LAMBDA_FLOORS.get(self.strategy, 0.0):
            raise ValueError(f"lambda0 must be >= {LAMBDA_FLOORS[self.strategy]:g}, the lam floor "
                             f"of the {self.strategy} strategy, got {self.lambda0}")
        # p, a and q by the criterion's own rules: refused when the config
        # is built, not at the first batch
        CriterionParams(lam=self.lambda0, p=self.p, a=self.a, q=self.q)
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.lambda_lr is not None and not (np.isfinite(self.lambda_lr) and self.lambda_lr > 0):
            raise ValueError(f"lambda_lr must be positive and finite, got {self.lambda_lr}")
        return self

    @property
    def effective_lambda_lr(self) -> float:
        # lam rides the same SGD step as the weights unless overridden
        return self.lambda_lr if self.lambda_lr is not None else self.learning_rate


@dataclass
class EpochRecord:
    epoch: int
    train_criterion: float
    train_ce: float
    val_ce: float
    val_error: float
    lam: float
    switched_to_rae: bool
    wall_ms: int


@dataclass
class TrainReport:
    records: list
    best_epoch: int
    best_model: MlpModel
    stagnant: bool
    final_model: MlpModel
    final_lambda: float

    @property
    def best_val_ce(self) -> float:
        return self.records[self.best_epoch].val_ce

    @property
    def best_val_error(self) -> float:
        return self.records[self.best_epoch].val_error


def _apply_update(model: MlpModel, grad: np.ndarray, lr: float) -> MlpModel:
    """The model at theta - lr * grad.  The new theta is written into the
    buffer of `grad`, which the caller hands over: a fresh parameter-sized
    array per step costs more than the arithmetic at desk scale."""
    grad *= lr
    return replace(model, theta=np.subtract(model.theta, grad, out=grad))


def sgd_step(model: MlpModel, batch: SampleBatch, kind: str, params: CriterionParams,
             learning_rate: float) -> tuple:
    """One descent step W <- W - lr * sum_i w_i grad(c_i) with the weights
    of criterion `kind` (uniform 1/m for 'ce').

    'rae' reports the raw criterion value but steps with the nrae weights:
    that is the raw-criterion gradient lam**p * RAE * sum_i w_i grad(c_i)
    with the learning rate rescaled by 1/(lam**p * RAE), so the step equals
    the log-domain one in direction and magnitude.
    """
    cache = forward(model, batch.inputs)
    losses = batch_losses(cache.outputs, batch.targets, model.output_mode)
    report = evaluate_criterion(losses, kind, params)
    grad = weighted_backward(model, batch, report.sample_weights, cache)
    return _apply_update(model, grad, learning_rate), report


def anrat_lambda_step(lam: float, lambda_grad: float, lambda_lr: float) -> float:
    """anrat's lam after one step, taken with the lam derivative at the
    same pre-update point as the weight step.

    lam is clamped to LAMBDA_MIN and its step is limited to halving or
    doubling: the penalty a*lam**(-q) is a barrier whose gradient blows up
    like lam**(-q-1) near the floor, and an unclamped explicit step there
    would catapult lam upward by orders of magnitude in one update.  A
    non-finite lambda_grad is NumericDomainError, not a clamped step.
    """
    if not np.isfinite(lambda_grad):
        raise NumericDomainError(f"lam gradient {lambda_grad}")
    new_lam = lam - lambda_lr * lambda_grad
    return max(LAMBDA_MIN, min(max(new_lam, 0.5 * lam), 2.0 * lam))


def scheduled_update(lam: float, switched: bool, max_loss: float, rho: float,
                     p: int = 1) -> tuple:
    """End-of-epoch schedule: decay lam toward the floor of 1, then switch
    permanently to the raw criterion once lam**p * max_loss fits under
    EXP_CAP.  After the switch lam is frozen.  The switch changes the
    logged criterion only; the steps stay those of nrae."""
    if switched:
        return lam, True
    lam = max(lam * rho, LAMBDA_FLOORS["scheduled"])
    return lam, CriterionParams(lam, p).scale * max_loss <= EXP_CAP


def detect_stagnancy(vals) -> bool:
    """True iff the per-epoch validation losses `vals` improved by less than
    STAGNANCY_MIN_REL_IMPROVEMENT (relative) over the last STAGNANCY_WINDOW
    epochs.  Fewer values is insufficient evidence, hence False."""
    if len(vals) < STAGNANCY_WINDOW:
        return False
    first, last = vals[-STAGNANCY_WINDOW], vals[-1]
    return (first - last) / max(abs(first), 1e-300) < STAGNANCY_MIN_REL_IMPROVEMENT


def _check_fits(model: MlpModel, dataset: SampleBatch) -> None:
    """Refuse data of another input width, or whose targets imply another output mode."""
    if dataset.inputs.shape[1] != model.layer_dims[0]:
        raise ValueError(f"the inputs have {dataset.inputs.shape[1]} features, but the model "
                         f"takes {model.layer_dims[0]}")
    mode = output_mode_for(dataset, model.layer_dims[-1])
    if mode != model.output_mode:
        raise ValueError(f"the targets imply output mode {mode}, but the model's is {model.output_mode}")


def evaluate(model: MlpModel, dataset: SampleBatch) -> tuple:
    """(mean per-sample loss, error rate).  Error is the argmax
    misclassification fraction for classifiers and the mean squared error
    for regression.  Refuses data of another width or kind than the model's."""
    _check_fits(model, dataset)
    f = forward(model, dataset.inputs).outputs
    mean_ce = float(batch_losses(f, dataset.targets, model.output_mode).mean())
    if model.output_mode == "identity-squared":
        return mean_ce, mean_ce
    pred = np.argmax(f, axis=1) if f.shape[1] > 1 else f[:, 0] > 0.5
    return mean_ce, float(np.mean(pred != dataset.targets))


def train(config: TrainConfig, train_set: SampleBatch, val_set: SampleBatch) -> TrainReport:
    """Run one strategy end to end in the output mode its training targets
    imply.  Labels the net cannot take, or validation data of another width
    or kind, are refused before the first step; anything non-finite is
    DivergedError."""
    mode = output_mode_for(train_set, config.layer_dims[-1])
    model = init_model(config.layer_dims, config.activation, mode, config.seed)
    _check_fits(model, val_set)
    lam = config.lambda0
    switched = False
    records = []
    best_epoch = -1
    best_val = np.inf
    best_model = model
    max_loss_seen = 0.0
    for ep in range(config.epochs):
        t0 = time.perf_counter()
        kind = "rae" if switched else CRITERION_KINDS[config.strategy]
        crit_sum = ce_sum = 0.0
        # an FP error or a non-finite value in a step or the evaluation (batch -1) diverges
        try:
            with np.errstate(over="raise", invalid="raise"):
                for bi, batch in enumerate(batches(train_set, config.batch_size,
                                                   epoch_seed(config.seed, ep))):
                    params = CriterionParams(lam=lam, p=config.p, a=config.a, q=config.q)
                    model, report = sgd_step(model, batch, kind, params, config.learning_rate)
                    if kind == "anrat":
                        lam = anrat_lambda_step(lam, report.lambda_grad, config.effective_lambda_lr)
                    if not np.isfinite(report.criterion_value):
                        raise NumericDomainError(f"criterion value {report.criterion_value}")
                    m = batch.size
                    crit_sum += report.criterion_value * m
                    ce_sum += report.ce_value * m
                    max_loss_seen = max(max_loss_seen, report.max_loss)
                bi = -1
                val_ce, val_err = evaluate(model, val_set)
                if not (np.isfinite(val_ce) and np.isfinite(val_err)):
                    raise NumericDomainError("non-finite validation loss")
        except (FloatingPointError, NumericDomainError) as exc:
            raise DivergedError(ep, bi, str(exc)) from exc
        if config.strategy == "scheduled":
            # the switch must stay feasible for every FUTURE batch, not just
            # past ones: cross-entropy losses have the clamp ceiling, so the
            # switch keys on it; squared error (unbounded c) on the running max
            switch_signal = max_loss_seen if mode == "identity-squared" else MAX_CLAMPED_LOSS
            lam, switched = scheduled_update(lam, switched, switch_signal, config.rho, config.p)
        records.append(EpochRecord(
            epoch=ep,
            train_criterion=crit_sum / train_set.size,  # batches cover the set once
            train_ce=ce_sum / train_set.size,
            val_ce=val_ce,
            val_error=val_err,
            lam=lam,
            switched_to_rae=switched,
            wall_ms=int(round((time.perf_counter() - t0) * 1000.0)),
        ))
        if val_ce < best_val:
            best_val = val_ce
            best_epoch = ep
            best_model = model

    stagnant = detect_stagnancy([r.val_ce for r in records])
    return TrainReport(records, best_epoch, best_model, stagnant, model, lam)


@dataclass
class GridRow:
    lr: float
    a: float
    best_val_ce: float
    best_val_error: float
    status: str  # ok | diverged


@dataclass
class GridSearchResult:
    rows: list                 # ranked: ok rows by best_val_ce, then diverged
    best_row: GridRow
    best_report: TrainReport


def grid_configs(base_config: TrainConfig, lr_grid=DEFAULT_LR_GRID,
                 a_grid=DEFAULT_A_GRID) -> list:
    """The anrat configuration of every (learning rate, penalty weight)
    point, learning rate outermost.  Each validates itself, so a bad point
    is refused before any point trains."""
    if not lr_grid or not a_grid:
        raise ValueError("grids must be non-empty")
    return [replace(base_config, strategy="anrat", learning_rate=lr, a=a)
            for lr in lr_grid for a in a_grid]


def grid_search(configs, train_set: SampleBatch, val_set: SampleBatch) -> GridSearchResult:
    """Train each configuration (`grid_configs` builds the grid) in order and
    rank by the best validation loss.  Diverged runs are recorded but
    excluded from the ranking; an empty list is refused."""
    if not configs:
        raise ValueError("grid_search needs at least one configuration")
    scored = []
    failed = []
    for cfg in configs:
        lr, a = cfg.learning_rate, cfg.a
        try:
            report = train(cfg, train_set, val_set)
        except DivergedError:
            failed.append(GridRow(lr, a, float("nan"), float("nan"), "diverged"))
            continue
        row = GridRow(lr, a, report.best_val_ce, report.best_val_error, "ok")
        scored.append((row, report))
    if not scored:
        raise NoViableModelError("every grid combination diverged")
    order = sorted(range(len(scored)), key=lambda i: (scored[i][0].best_val_ce, i))
    rows = [scored[i][0] for i in order] + failed
    best_report = scored[order[0]][1]
    return GridSearchResult(rows, rows[0], best_report)


def write_metrics_csv(records, path) -> None:
    """One CSV row per epoch under the frozen header; LF endings, '.'
    decimal separator."""
    with open(path, "w", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            flag = "true" if r.switched_to_rae else "false"
            fh.write(
                f"{r.epoch},{float(r.train_criterion)!r},{float(r.train_ce)!r},{float(r.val_ce)!r},"
                f"{float(r.val_error)!r},{float(r.lam)!r},{flag},{r.wall_ms}\n"
            )


def write_grid_csv(rows, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
        for row in rows:
            fh.write(f"{float(row.lr)!r},{float(row.a)!r},{float(row.best_val_ce)!r},"
                     f"{float(row.best_val_error)!r},{row.status}\n")
