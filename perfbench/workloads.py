"""The three benchmark workloads.

Each workload builds its inputs from the bench seed in `setup`, then runs
numbered blocks of a fixed amount of work.  `block(b)` returns the number
of work items it did, its outputs in a form that compares exactly (floats,
or array bytes), and the payload `check` verifies outside the timed
region.  `verify()` runs once after the timed blocks and returns
(attempted, failed, ok) for a fixed set of operations, so both counts are
the same in every run, whatever the seed and the number of blocks.  In a
traced run `hooks` wraps the layer functions in the namespace of the
module that calls them, and `layer_metrics` reduces the spans to the
per-layer metrics named in `LAYER_METRICS`.

Why these three, and which end-to-end metric each layer metric should move,
is recorded in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

import convexlab.convexity as convexity
import convexlab.gradcheck as gradcheck
import convexlab.trainer as trainer
from convexlab.convexity import fd_hessian, psd_tolerance, scan_convexity
from convexlab.data import SampleBatch, synthetic_blobs, synthetic_regression
from convexlab.gradcheck import run_gradcheck
from convexlab.network import batch_losses, forward, init_model, unflatten
from convexlab.trainer import DivergedError, TrainConfig, train

from tracing import hooks

TIMED = ("calls", "p50_us", "share")


def _timed_metrics(prefix, layers, calls_unit):
    units = {"calls": calls_unit, "p50_us": "us/call", "share": "%"}
    return [(f"{prefix}{layer}.{kind}", units[kind]) for layer in layers for kind in TIMED]


def _timed_values(tracer, prefix, layers, per, wall):
    out = {}
    for layer in layers:
        key = prefix + layer
        out[f"{key}.calls"] = tracer.calls(key) / per
        out[f"{key}.p50_us"] = tracer.p50_us(key)
        out[f"{key}.share"] = 100.0 * tracer.self_s.get(key, 0.0) / wall
    return out


def block_seed(seed, b):
    return seed * 1_000_003 + b


WARMUP_BLOCK = 1_000_002  # a block index no timed run reaches


def _wrap(layer, observe=None):
    return lambda tracer, fn: tracer.wrap(layer, fn, observe)


def _wrap_counting_probes(layer, probe_key):
    """Span around an FD routine whose first argument is the objective;
    every objective evaluation counts as one probe."""
    def factory(tracer, fn):
        inner = tracer.wrap(layer, fn)

        def call(objective, *args, **kwargs):
            def probe(x):
                tracer.count(probe_key)
                return objective(x)
            return inner(probe, *args, **kwargs)
        return call
    return factory


# --------------------------------------------------------------- train-desk

STRATEGIES = (
    ("ce", {}),
    ("anrat", {"lambda0": 10.0}),
    ("scheduled", {"lambda0": 100.0, "rho": 0.8}),
)
DESK_NET = (784, 128, 10)
TRAIN_COUNT, VAL_COUNT, EPOCHS, BATCH = 5000, 1000, 1, 100
TRAIN_LAYERS = (
    "data.gather",
    "network.forward",
    "network.batch_losses",
    "criteria.evaluate_criterion",
    "network.backward",
    "trainer.update",
    "trainer.evaluate",
)
SUBNORMAL = np.finfo(float).tiny


def _observe_weights(tracer, args, report):
    w = report.sample_weights
    tracer.count("criteria.batches")
    tracer.count("criteria.ess_share", 1.0 / (w.size * float(np.dot(w, w))))
    tracer.count("criteria.zero_weight_share", float(np.mean(w == 0.0)))
    tracer.count("criteria.subnormal_weights", float(np.count_nonzero((w > 0.0) & (w < SUBNORMAL))))


def _step_flops(dims, m):
    """Matmul flops of one forward plus weighted backward step (computed)."""
    pairs = list(zip(dims[:-1], dims[1:]))
    fwd = sum(2 * m * a * b for a, b in pairs)
    back_delta = sum(2 * m * a * b for a, b in pairs[1:])
    return 2 * fwd + back_delta


def _record_key(report):
    return tuple(
        (r.epoch, r.train_criterion, r.train_ce, r.val_ce, r.val_error, r.lam, r.switched_to_rae)
        for r in report.records
    ) + (report.final_lambda,)


class TrainDesk:
    """ce, anrat and scheduled back to back on the 784-128-10 desk net."""

    name = "train-desk"
    CALIBRATION = "dense"
    KINDS = 1
    LAYER_METRICS = [
        m
        for s, _ in STRATEGIES
        for m in _timed_metrics(f"train.{s}.", TRAIN_LAYERS, "calls/run") + [
            (f"train.{s}.criteria.ess_share", "%"),
            (f"train.{s}.criteria.zero_weight_share", "%"),
            (f"train.{s}.criteria.subnormal_weights", "1/batch"),
            (f"train.{s}.network.step_flops", "flop/step"),
            (f"train.{s}.trainer.update_bytes", "B/step"),
        ]
    ]

    def setup(self, seed):
        full = synthetic_blobs(TRAIN_COUNT + VAL_COUNT, DESK_NET[-1], DESK_NET[0], seed)
        self.train_set = full.take(np.arange(TRAIN_COUNT))
        self.val_set = full.take(np.arange(TRAIN_COUNT, TRAIN_COUNT + VAL_COUNT))
        self.configs = {
            s: TrainConfig(strategy=s, learning_rate=0.5, epochs=EPOCHS, batch_size=BATCH,
                           layer_dims=DESK_NET, seed=seed, **kw).validate()
            for s, kw in STRATEGIES
        }
        self.rates = {s: [] for s, _ in STRATEGIES}
        self.wall = {s: 0.0 for s, _ in STRATEGIES}
        self.runs = {s: 0 for s, _ in STRATEGIES}
        self.reference = None

    def recording(self):
        return contextlib.nullcontext()

    def block(self, b, tracer=None):
        """Every block is the same work on the same inputs; `b` is unused."""
        outputs = {}
        for s, _ in STRATEGIES:
            if tracer is not None:
                tracer.prefix = f"train.{s}."
            t0 = time.perf_counter()
            try:
                outputs[s] = _record_key(train(self.configs[s], self.train_set, self.val_set))
            except DivergedError as exc:
                outputs[s] = ("diverged", str(exc))
            dt = time.perf_counter() - t0
            self.rates[s].append(EPOCHS * TRAIN_COUNT / dt)
            self.wall[s] += dt
            self.runs[s] += 1
        return len(STRATEGIES) * EPOCHS * TRAIN_COUNT, outputs, outputs

    def warmup(self):
        _, self.reference, _ = self.block(WARMUP_BLOCK)
        self.reset_counts()

    def reset_counts(self):
        for s, _ in STRATEGIES:
            self.rates[s].clear()
            self.wall[s] = 0.0
            self.runs[s] = 0

    def check(self, outputs):
        """Every block trains the same configs on the same data, so its
        outputs must equal the warm-up's bit for bit."""
        return outputs == self.reference

    def verify(self):
        """A DivergedError or a non-finite record in the warm-up's runs (which
        every block reproduces) is a failed run; plain CE must learn."""
        failed = 0
        for s, _ in STRATEGIES:
            out = self.reference[s]
            if out[0] == "diverged" or not all(math.isfinite(v) for rec in out[:-1] for v in rec[1:6]):
                failed += 1
        ce = self.reference["ce"]
        learns = ce[0] == "diverged" or ce[-2][3] < math.log(DESK_NET[-1])
        return len(STRATEGIES), failed, learns

    def hooks(self, tracer):
        return hooks(tracer, trainer, {
            "batches": lambda t, fn: t.wrap_generator("data.gather", fn),
            "forward": _wrap("network.forward"),
            "batch_losses": _wrap("network.batch_losses"),
            "evaluate_criterion": _wrap("criteria.evaluate_criterion", _observe_weights),
            "weighted_backward": _wrap("network.backward"),
            "_apply_update": _wrap("trainer.update"),
            "evaluate": _wrap("trainer.evaluate"),
        })

    def layer_metrics(self, tracer, wall):
        params = sum(a * b + b for a, b in zip(DESK_NET[:-1], DESK_NET[1:]))
        out = {}
        for s, _ in STRATEGIES:
            p = f"train.{s}."
            out.update(_timed_values(tracer, p, TRAIN_LAYERS, self.runs[s], self.wall[s]))
            batches = tracer.counters[p + "criteria.batches"]
            out[p + "criteria.ess_share"] = 100.0 * tracer.counters[p + "criteria.ess_share"] / batches
            out[p + "criteria.zero_weight_share"] = 100.0 * tracer.counters[p + "criteria.zero_weight_share"] / batches
            out[p + "criteria.subnormal_weights"] = tracer.counters[p + "criteria.subnormal_weights"] / batches
            out[p + "network.step_flops"] = float(_step_flops(DESK_NET, BATCH))
            out[p + "trainer.update_bytes"] = float(3 * params * 8)
        return out

    def summary(self, median, items_per_s):
        return [(f"train.{s}.samples_per_s", median(self.rates[s]), "samples/s") for s, _ in STRATEGIES]


# --------------------------------------------------------------- scan-1-3-1

SCAN_NET = (1, 3, 1)
SCAN_LAMBDAS = (1.0, 2.0, 4.0, 8.0)
SCAN_SAMPLES, TARGET_SCALE, BOX_RADIUS, SCAN_H = 20, 6.0, 1.0, 1e-4
# The problem is the CLI's default one (seed 0); the bench seed draws the
# sample points.  Drawing the data too made the cost per point swing by
# 25% between seeds, because the share of Hessians whose eigensolve stops
# at once on the overflowed norm depends on the data.
SCAN_PROBLEM_SEED = 0
POINTS_PER_BLOCK = 5
# The fixed cross-check subsample: the first CHECK_POINTS points of the
# CLI's default scan (seed 0), the same in every run whatever the bench seed.
CHECK_POINTS, CHECK_SEED = 25, 0
SCAN_LAYERS = ("convexity.fd_hessian", "convexity.eigensolve", "network.forward", "network.unflatten")
# A cross-checked verdict counts as wrong only when the reference minimum
# eigenvalue of the max-abs-rescaled Hessian lies farther than this from
# the scan's threshold -psd_tolerance, so eigensolver round-off at the
# threshold is not counted.
VERDICT_MARGIN = 1e-9


class ScanConvexity:
    """`scan --net 1,3,1 --lambdas 1,2,4,8` in blocks of POINTS_PER_BLOCK."""

    name = "scan-1-3-1"
    CALIBRATION = "tiny"
    KINDS = 1
    LAYER_METRICS = _timed_metrics("scan.", SCAN_LAYERS, "calls/point") + [
        ("scan.convexity.probes", "1/point"),
        ("scan.convexity.fallback_share", "%"),
    ]

    def setup(self, seed):
        # the CLI's default scan problem (cli._scan_problem): sine targets x6
        base = synthetic_regression("sine", SCAN_SAMPLES, 0.0, SCAN_PROBLEM_SEED)
        self.dataset = SampleBatch(base.inputs, TARGET_SCALE * base.targets)
        self.template = init_model(SCAN_NET, "tanh", "identity-squared", SCAN_PROBLEM_SEED)
        self.seed = seed
        self.points = 0
        self.fallback = []

    def recording(self):
        return contextlib.nullcontext()

    def _scan(self, num_points, b):
        return scan_convexity(self.template, self.dataset, SCAN_LAMBDAS, num_points, BOX_RADIUS,
                              seed=block_seed(self.seed, b), p=1, h=SCAN_H)

    def warmup(self):
        self._scan(1, WARMUP_BLOCK)

    def reset_counts(self):
        self.points = 0
        self.fallback.clear()

    def block(self, b, tracer=None):
        if tracer is not None:
            tracer.prefix = "scan."
        scan = self._scan(POINTS_PER_BLOCK, b)
        self.points += POINTS_PER_BLOCK
        self.fallback.append(scan.used_nrae)
        key = tuple(a.tobytes() for a in (scan.psd, scan.min_eigs, scan.ce_psd, scan.ce_min_eigs,
                                           scan.used_nrae))
        return POINTS_PER_BLOCK, key, scan

    def _losses(self, vec):
        model = unflatten(self.template, vec)
        return batch_losses(forward(model, self.dataset.inputs).outputs, self.dataset.targets,
                            self.template.output_mode)

    def check(self, scan):
        return bool(np.all(np.isfinite(scan.min_eigs)) and np.all(np.isfinite(scan.ce_min_eigs)))

    def verify(self):
        """Scan the fixed subsample and cross-check its verdict at every
        point and every lam where the raw criterion was feasible:
        numpy.linalg.eigvalsh on the max-abs-rescaled FD Hessian."""
        scan = scan_convexity(self.template, self.dataset, SCAN_LAMBDAS, CHECK_POINTS, BOX_RADIUS,
                              seed=CHECK_SEED, p=1, h=SCAN_H)
        attempted = failed = 0
        for j, x in enumerate(scan.points):
            for i, lam in enumerate(scan.lambdas):
                if scan.used_nrae[i, j]:
                    continue
                hess = fd_hessian(lambda v, s=lam: float(np.mean(np.exp(s * self._losses(v)))), x, SCAN_H)
                scale = float(np.abs(hess).max())
                low = float(np.linalg.eigvalsh(hess / scale)[0])
                tol = psd_tolerance(hess) / scale
                attempted += 1
                if bool(scan.psd[i, j]) != (low >= -tol) and abs(low + tol) > VERDICT_MARGIN:
                    failed += 1
        return attempted, failed, self.check(scan)

    def hooks(self, tracer):
        return hooks(tracer, convexity, {
            "fd_hessian": _wrap_counting_probes("convexity.fd_hessian", "convexity.probes"),
            "jacobi_eigenvalues": _wrap("convexity.eigensolve"),
            "forward": _wrap("network.forward"),
            "unflatten": _wrap("network.unflatten"),
        })

    def layer_metrics(self, tracer, wall):
        out = _timed_values(tracer, "scan.", SCAN_LAYERS, self.points, wall)
        out["scan.convexity.probes"] = tracer.counters["scan.convexity.probes"] / self.points
        out["scan.convexity.fallback_share"] = 100.0 * float(np.mean(self.fallback))
        return out

    def summary(self, median, items_per_s):
        return [("scan.points_per_s", items_per_s, "points/s")]


# ---------------------------------------------------------------- gradcheck

CASES_PER_BLOCK = 24  # one pass over the default 4 lam x 2 p x 3 loss-mode cells
# The cases come from a fixed pool of POOL_PARTS such passes, checked
# against their tolerances once per run, so the failure count is the same
# in every run; the bench seed sets the order in which blocks cycle through
# the passes.  The passes differ in cost, so the throughput takes the
# median per pass (run.py, KINDS).
POOL_PARTS, POOL_SEED = 4, 0
GRADCHECK_LAYERS = (
    "gradcheck.fd_gradient",
    "gradcheck.fd_lambda",
    "network.forward",
    "network.unflatten",
    "network.batch_losses",
    "criteria.nrae",
    "network.backward",
)


class GradCheck:
    """`run_gradcheck` over its default lam/p grid, one pass of
    CASES_PER_BLOCK pool cases a block.  check_case is wrapped for the
    whole run (traced or not) to record each case's errors and size; that
    adds one Python call per ~40 ms case.

    The work item is one gradient coordinate verified: the cases' networks
    are drawn at random with 10 to 400 parameters and the FD cost grows
    with that count, so cases/s swings with the draw while coordinates/s
    tracks the cost of the code.  cases/s is printed alongside."""

    name = "gradcheck"
    CALIBRATION = "tiny"
    KINDS = POOL_PARTS
    LAYER_METRICS = _timed_metrics("gradcheck.", GRADCHECK_LAYERS, "calls/case") + [
        ("gradcheck.gradcheck.probes", "1/case"),
    ]

    def setup(self, seed):
        self.order = [int(k) for k in np.random.default_rng(seed).permutation(POOL_PARTS)]
        self.reference = {}
        self.pool_coordinates = 0
        self.cases = 0
        self.errors = []
        self.coordinates = 0

    @contextlib.contextmanager
    def recording(self):
        original = gradcheck.check_case

        def recorded(case, *args, **kwargs):
            errs = original(case, *args, **kwargs)
            self.errors.append(errs)
            dims = case.layer_dims
            self.coordinates += sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
            return errs
        gradcheck.check_case = recorded
        try:
            yield
        finally:
            gradcheck.check_case = original

    def warmup(self):
        """Run every pass of the pool once; the timed blocks must reproduce them."""
        for b in range(POOL_PARTS):
            items, _, (part, key, summary) = self.block(b)
            self.reference[part] = (key, summary)
            self.pool_coordinates += items
        self.reset_counts()

    def reset_counts(self):
        self.cases = 0

    def block(self, b, tracer=None):
        """Pass `order[b % POOL_PARTS]` of the pool."""
        if tracer is not None:
            tracer.prefix = "gradcheck."
        part = self.order[b % POOL_PARTS]
        self.errors = []
        self.coordinates = 0
        summary = run_gradcheck(num_cases=CASES_PER_BLOCK, seed=block_seed(POOL_SEED, part))
        self.cases += CASES_PER_BLOCK
        key = (tuple(self.errors), summary.max_weight_rel_err, summary.max_lambda_rel_err)
        return self.coordinates, key, (part, key, summary)

    def check(self, payload):
        """A timed block must reproduce its pass's warm-up errors bit for bit."""
        part, key, _ = payload
        return key == self.reference[part][0]

    def verify(self):
        """A pool case over either tolerance is a failed case."""
        attempted = failed = 0
        ok = True
        for (errors, max_w, max_l), summary in self.reference.values():
            bad = sum(1 for w, l in errors if not (w < summary.tol_weights and l < summary.tol_lambda))
            attempted += len(errors)
            failed += bad
            ok = ok and (len(errors) == CASES_PER_BLOCK
                         and all(math.isfinite(w) and math.isfinite(l) for w, l in errors)
                         and max_w == max(w for w, _ in errors) and max_l == max(l for _, l in errors)
                         and summary.ok == (bad == 0))
        return attempted, failed, ok

    def hooks(self, tracer):
        return hooks(tracer, gradcheck, {
            "fd_gradient": _wrap_counting_probes("gradcheck.fd_gradient", "gradcheck.probes"),
            "fd_lambda_gradient": _wrap("gradcheck.fd_lambda"),
            "forward": _wrap("network.forward"),
            "unflatten": _wrap("network.unflatten"),
            "batch_losses": _wrap("network.batch_losses"),
            "nrae": _wrap("criteria.nrae"),
            "weighted_backward": _wrap("network.backward"),
        })

    def layer_metrics(self, tracer, wall):
        out = _timed_values(tracer, "gradcheck.", GRADCHECK_LAYERS, self.cases, wall)
        out["gradcheck.gradcheck.probes"] = tracer.counters["gradcheck.gradcheck.probes"] / self.cases
        return out

    def summary(self, median, items_per_s):
        cases_per_coordinate = POOL_PARTS * CASES_PER_BLOCK / self.pool_coordinates
        return [("gradcheck.coordinates_per_s", items_per_s, "coordinates/s"),
                ("gradcheck.cases_per_s", items_per_s * cases_per_coordinate, "cases/s")]


WORKLOADS = {w.name: w for w in (TrainDesk, ScanConvexity, GradCheck)}
