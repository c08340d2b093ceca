"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria 5, 6, 8a and 9 operate on the official MNIST files and skip with a
clear reason when the dataset is unreachable (offline build environments);
everything else runs self-contained.
"""

import math
import statistics
import time

import numpy as np
import pytest

from convexlab.cli import EXIT_OK, main
from convexlab.criteria import (
    EXP_CAP,
    CriterionParams,
    evaluate_criterion,
    nrae,
    sample_weights,
)
from convexlab.convexity import scan_convexity, scan_problem
from convexlab.data import (
    IdxFormatError,
    SampleBatch,
    load_idx_images,
    load_idx_labels,
    load_mnist,
    split,
    synthetic_regression,
)
from convexlab.gradcheck import run_gradcheck
from convexlab.network import batch_losses, forward, init_model, weighted_backward
from convexlab.trainer import (
    TrainConfig,
    evaluate,
    grid_configs,
    grid_search,
    train,
)

DESK_NET = (784, 128, 10)
DESK_SPLIT = (5000, 1000, 1000)  # train, val and test counts
DESK_EPOCHS = 20
DESK_BATCH = 100
SEEDS = (0, 1, 2)


def report(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk_splits(mnist_dir):
    train_src, test_src = load_mnist(mnist_dir)
    tr, va, te = split(train_src, test_src, *DESK_SPLIT, shuffle_seed=0)
    return tr, va, te


def desk_config(strategy, seed, **kw):
    base = dict(learning_rate=0.5, epochs=DESK_EPOCHS, batch_size=DESK_BATCH,
                layer_dims=DESK_NET, activation="tanh", seed=seed)
    base.update(kw)
    return TrainConfig(strategy=strategy, **base).validate()


def test_criterion_1_gradient_exactness():
    summary = run_gradcheck(num_cases=120, lambdas=(1e-3, 1.0, 10.0, 100.0), ps=(1, 2), seed=0)
    ok = summary.ok and summary.elapsed_s < 60.0
    report(1, ok,
           f"{summary.num_cases} configs, max weight err {summary.max_weight_rel_err:.2e} "
           f"(<1e-5), max lam err {summary.max_lambda_rel_err:.2e} (<1e-6), "
           f"{summary.elapsed_s:.1f}s (<60s)")


def test_criterion_2_nrae_analytic_properties():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(2, 50))
        c = rng.uniform(0.0, 5.0, size=m)
        lam = float(10 ** rng.uniform(-3, 3))
        p = int(rng.integers(1, 3))
        s = lam**p
        v = nrae(c, CriterionParams(lam=lam, p=p))
        if not (c.mean() - 1e-10 <= v <= c.max() + 1e-10):
            violations += 1
        if v < c.max() - math.log(m) / s - 1e-10:
            violations += 1
        lam2 = lam * float(10 ** rng.uniform(0, 2))
        if nrae(c, CriterionParams(lam=lam2, p=p)) < v - 1e-12:
            violations += 1
        if abs(nrae(c, CriterionParams(lam=1e-4)) - c.mean()) > 1e-3 * (1.0 + c.mean()):
            violations += 1
        if abs(nrae(c, CriterionParams(lam=1e6)) - c.max()) > math.log(m) / 1e6 + 1e-9:
            violations += 1
        huge = CriterionParams(lam=1e9 / float(c.max()))
        if not (np.isfinite(nrae(c, huge)) and np.all(np.isfinite(sample_weights(c, huge)))):
            violations += 1
    report(2, violations == 0, f"1000 random loss vectors, {violations} violations (need 0)")


def test_criterion_3_ordering_equivalence():
    rng = np.random.default_rng(3)
    agree = 0
    total = 1000
    for _ in range(total):
        m = int(rng.integers(2, 20))
        c1 = rng.uniform(0, 3, size=m)
        c2 = rng.uniform(0, 3, size=m)
        lam = float(rng.uniform(0.5, EXP_CAP / 3.01))
        pr = CriterionParams(lam=lam)
        r1, r2 = (evaluate_criterion(c, "rae", pr).criterion_value for c in (c1, c2))
        if (r1 < r2) == (nrae(c1, pr) < nrae(c2, pr)):
            agree += 1
    report(3, agree == total, f"{agree}/{total} feasible pairs agree in ordering (need 100%)")


def test_criterion_4_convexity_region_expansion(tmp_path):
    t0 = time.perf_counter()
    rc = main(["scan", "--net", "1,3,1", "--lambdas", "1,2,4,8", "--points", "200",
               "--seed", "0", "--out", str(tmp_path), "--run-name", "c4"])
    assert rc == EXIT_OK
    rows = (tmp_path / "c4.scan_summary.csv").read_text().splitlines()[1:]
    fractions = [float(r.split(",")[1]) for r in rows]
    monotone = all(b >= a - 0.02 for a, b in zip(fractions, fractions[1:]))

    # containment of the base criterion's PSD set, plus a non-vacuous check
    # on a convex problem where every point is base-PSD
    template, ds = scan_problem((1, 3, 1))
    scan = scan_convexity(template, ds, [1, 2, 4, 8], num_points=200, box_radius=1.0, seed=0)
    assert np.allclose(scan.psd_fraction, fractions)
    max_viol = int(scan.comparison_violations().max())

    x = np.linspace(-2, 2, 20)
    logistic = init_model([1, 1], "tanh", "sigmoid-binary-ce", seed=0)
    log_ds = SampleBatch(x[:, None], (x > 0).astype(np.int64))
    log_scan = scan_convexity(logistic, log_ds, [1, 2, 4, 8], num_points=50,
                              box_radius=2.0, seed=0)
    log_viol = int(log_scan.comparison_violations().max())
    assert int(log_scan.ce_psd.sum()) == 50  # base-PSD everywhere: containment is non-vacuous

    elapsed = time.perf_counter() - t0
    ok = monotone and max_viol <= 4 and log_viol <= 1 and elapsed < 300.0
    report(4, ok,
           f"psd fractions {fractions} nondecreasing within 0.02, containment violations "
           f"{max_viol}/200 and {log_viol}/50 (<=2%), {elapsed:.0f}s (<300s)")


@pytest.mark.usefixtures("mnist_dir")
def test_criterion_5_desk_scale_mnist(desk_splits):
    t0 = time.perf_counter()
    tr, va, te = desk_splits

    # hold-out selection of the baseline's learning rate from the same grid
    ce_lr = min(
        ((train(desk_config("ce", 0, learning_rate=lr), tr, va).best_val_ce, lr)
         for lr in (1.0, 0.5, 0.1)),
    )[1]
    ce_errors = []
    for seed in SEEDS:
        rep = train(desk_config("ce", seed, learning_rate=ce_lr), tr, va)
        ce_errors.append(evaluate(rep.best_model, te)[1])
        assert all(np.isfinite(r.train_criterion) for r in rep.records)

    grid = grid_search(grid_configs(desk_config("anrat", 0, lambda0=10.0, p=1, q=1)), tr, va)
    best = grid.best_row
    anrat_errors = []
    for seed in SEEDS:
        rep = train(desk_config("anrat", seed, learning_rate=best.lr, a=best.a,
                                lambda0=10.0, p=1, q=1), tr, va)
        anrat_errors.append(evaluate(rep.best_model, te)[1])
        assert all(np.isfinite(r.train_criterion) for r in rep.records)
        assert all(0.001 <= r.lam <= 100.0 for r in rep.records)  # lam0 * 10 ceiling

    elapsed = time.perf_counter() - t0
    ce_med = statistics.median(ce_errors)
    an_med = statistics.median(anrat_errors)
    ok = ce_med <= 0.15 and an_med <= ce_med + 0.015 and elapsed < 600.0
    report(5, ok,
           f"ce median {ce_med:.4f} (<=0.15, lr={ce_lr:g}), anrat median {an_med:.4f} "
           f"(<= ce+0.015), grid pick lr={best.lr:g} a={best.a:g}, "
           f"no non-finite losses, {elapsed:.0f}s (<600s)")


@pytest.mark.usefixtures("mnist_dir")
def test_criterion_6_scheduled_strategy(desk_splits):
    tr, va, _ = desk_splits
    epochs = 25
    cfg = desk_config("scheduled", 0, lambda0=100.0, rho=0.8, epochs=epochs)
    rep = train(cfg, tr, va)
    switch_epochs = [r.epoch for r in rep.records if r.switched_to_rae]
    switched_in_time = bool(switch_epochs) and switch_epochs[0] < 25
    finite = all(np.isfinite(r.train_criterion) for r in rep.records)

    # gradient direction identity at the switch-epoch lam on a real batch
    lam = rep.records[switch_epochs[0]].lam
    batch = tr.take(np.arange(DESK_BATCH))
    cache = forward(rep.final_model, batch.inputs)
    losses = batch_losses(cache.outputs, batch.targets, "softmax-ce")
    assert lam * losses.max() <= 709.0
    params = CriterionParams(lam=lam)
    g_nrae = weighted_backward(rep.final_model, batch, sample_weights(losses, params))
    raw = (lam / batch.size) * np.exp(lam * losses)
    g_rae = weighted_backward(rep.final_model, batch, raw)
    u = g_rae / np.abs(g_rae).max()
    v = g_nrae / np.abs(g_nrae).max()
    cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    ok = switched_in_time and finite and abs(cos - 1.0) <= 1e-9
    report(6, ok,
           f"switched at epoch {switch_epochs[0] if switch_epochs else 'never'} (<25), "
           f"switch lam {lam:.2f}, gradient cosine 1{cos - 1.0:+.1e} (tol 1e-9), "
           f"post-switch finite: {finite}")


def test_criterion_7_grid_search_protocol():
    full = synthetic_regression("sine", 200, 0.0, seed=7)
    tr, va = full.take(range(140)), full.take(range(140, 200))
    base = TrainConfig(strategy="anrat", learning_rate=0.05, epochs=2, batch_size=20,
                       layer_dims=(1, 6, 1), seed=7)
    r1 = grid_search(grid_configs(base), tr, va)
    r2 = grid_search(grid_configs(base), tr, va)
    nine = len(r1.rows) == 9
    ok_rows = [r for r in r1.rows if r.status == "ok"]
    ranked = all(a.best_val_ce <= b.best_val_ce for a, b in zip(ok_rows, ok_rows[1:]))
    deterministic = [(r.lr, r.a, r.best_val_ce) for r in r1.rows] == \
                    [(r.lr, r.a, r.best_val_ce) for r in r2.rows]
    ok = nine and ranked and deterministic
    report(7, ok, f"{len(r1.rows)} rows (need 9), ranked: {ranked}, deterministic: {deterministic}")


def test_criterion_8a_official_idx_files(mnist_dir):
    import os
    tr_x = load_idx_images(os.path.join(mnist_dir, "train-images-idx3-ubyte"))
    tr_y = load_idx_labels(os.path.join(mnist_dir, "train-labels-idx1-ubyte"))
    te_x = load_idx_images(os.path.join(mnist_dir, "t10k-images-idx3-ubyte"))
    te_y = load_idx_labels(os.path.join(mnist_dir, "t10k-labels-idx1-ubyte"))
    ok = (tr_x.shape == (60000, 28, 28) and tr_y.shape == (60000,)
          and te_x.shape == (10000, 28, 28) and te_y.shape == (10000,)
          and 0.0 <= tr_x.min() and tr_x.max() <= 1.0
          and set(np.unique(tr_y)) <= set(range(10)))
    report("8a", ok, f"train {tr_x.shape[0]}, test {te_x.shape[0]}, pixels in [0,1], labels 0-9")


def test_criterion_8b_corrupted_magic_rejected(tmp_path):
    bad = tmp_path / "corrupt.idx"
    bad.write_bytes(b"\x00\x00\x08\x02" + b"\x00" * 32)
    try:
        load_idx_images(bad)
        ok = False
    except IdxFormatError:
        ok = True
    report("8b", ok, "corrupted-magic fixture rejected with a format error")


@pytest.mark.usefixtures("mnist_dir")
def test_criterion_9_stagnancy(desk_splits):
    tr, va, _ = desk_splits
    # both runs share the budget and the hold-out-selected learning rate
    lr = min(
        ((train(desk_config("ce", 0, learning_rate=v, epochs=10), tr, va).best_val_ce, v)
         for v in (1.0, 0.5, 0.1)),
    )[1]
    nrae_rep = train(desk_config("nrae-fixed", 0, lambda0=1000.0, epochs=10,
                                 learning_rate=lr), tr, va)
    ce_rep = train(desk_config("ce", 0, epochs=10, learning_rate=lr), tr, va)
    ok = nrae_rep.stagnant and not ce_rep.stagnant
    report(9, ok,
           f"nrae(lam=1000) stagnant within 10 epochs: {nrae_rep.stagnant} (need True), "
           f"ce baseline (lr={lr:g}) stagnant: {ce_rep.stagnant} (need False)")
