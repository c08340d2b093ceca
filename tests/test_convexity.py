import os

import numpy as np
import pytest

import convexlab.convexity as convexity
from convexlab.criteria import CriterionParams, NumericDomainError, sample_weights
from convexlab.convexity import (
    fd_hessian,
    psd_tolerance,
    scan_convexity,
    scan_problem,
    write_scan_csvs,
)
from convexlab.data import SampleBatch, synthetic_regression
from convexlab.gradcheck import fd_gradient
from convexlab.network import MAX_CLAMPED_LOSS, batch_losses, forward, init_model, unflatten
from convexlab.seeds import rng_for

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scan_1_3_1_summary.csv")


def scaled_sine_problem(num_samples=20, target_scale=6.0, seed=0):
    return scan_problem((1, 3, 1), samples=num_samples, target_scale=target_scale, seed=seed)


def losses_of(template, ds):
    def losses(vec):
        model = unflatten(template, vec)
        return batch_losses(forward(model, ds.inputs).outputs, ds.targets, model.output_mode)
    return losses


def recorded_scan(monkeypatch, *args, **kwargs):
    """(scan, fd_parts, brackets): per scanned point, in point order, the
    (K+1, n, n) FD part sum_i w_i H_i that psd_tolerance sees, and the whole
    bracket that the eigensolve sees."""
    fd_parts, brackets = [], []
    eigvalsh = np.linalg.eigvalsh

    def tolerance(hess):
        fd_parts.append(np.array(hess))
        return psd_tolerance(hess)

    def eigensolve(hess):
        brackets.append(np.array(hess))
        return eigvalsh(hess)

    with monkeypatch.context() as patch:
        patch.setattr(convexity, "psd_tolerance", tolerance)
        patch.setattr(np.linalg, "eigvalsh", eigensolve)
        scan = scan_convexity(*args, **kwargs)
    return scan, fd_parts, brackets


def fd_of_loss_bracket(template, ds, lambdas, points, p=1, h=1e-4):
    """The scan's brackets with the curvature taken from loss values instead
    of the exact gradient: fd_hessian of W @ c and fd_gradient's per-sample
    g_i, under the scan's own slack rule.  (min eigenvalues, slacks, spectral
    radii), each (K+1, num_points), row 0 the base criterion."""
    losses = losses_of(template, ds)
    params = [CriterionParams(lam, p) for lam in lambdas]
    scales = np.array([0.0] + [pr.scale for pr in params])
    n = template.param_count
    lows, tols, radii = [], [], []
    for x in points:
        c0 = losses(x)
        weights = np.array([np.full(c0.size, 1.0 / c0.size)] + [sample_weights(c0, pr) for pr in params])
        grads = fd_gradient(losses, x)
        hess = fd_hessian(lambda v: weights @ losses(v), x, h)
        fd_tol = psd_tolerance(hess)
        hess += np.einsum("km,mi,mj->kij", scales[:, None] * weights, grads, grads)
        eigs = np.linalg.eigvalsh(hess)
        radius = np.abs(eigs[:, [0, -1]]).max(axis=1)
        lows.append(eigs[:, 0])
        tols.append(fd_tol + n * np.finfo(float).eps * radius)
        radii.append(radius)
    return np.array(lows).T, np.array(tols).T, np.array(radii).T


def logistic_problem(seed=3):
    x = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    y = (x > 0).astype(np.int64)
    return init_model([1, 1], "tanh", "sigmoid-binary-ce", seed=seed), SampleBatch(x[:, None], y)


class TestFdHessian:
    def test_quadratic_constant_hessian(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        A = 0.5 * (A + A.T)
        H = fd_hessian(lambda x: float(x @ A @ x), rng.normal(size=3))
        assert np.abs(H - 2 * A).max() < 1e-4
        # a vector objective gives the stack of its components' Hessians
        stack = fd_hessian(lambda x: np.array([x @ A @ x, -2.0 * (x @ A @ x)]), rng.normal(size=3))
        assert stack.shape == (2, 3, 3)
        assert np.abs(stack - np.array([2 * A, -4 * A])).max() < 1e-4

    def test_linear_zero_hessian(self):
        H = fd_hessian(lambda x: float(np.sum(x)), np.ones(4))
        assert np.abs(H).max() < 1e-6

    def test_rae_hessian_vs_refined_step(self):
        # Richardson refinement (h and h/2) as the independent oracle on a
        # 1-3-1 tanh model; dominant entries agree to 1e-3 relative
        template, ds = scaled_sine_problem()
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.5, 0.5, size=template.param_count)

        def objective(vec):
            model = unflatten(template, vec)
            losses = batch_losses(forward(model, ds.inputs).outputs, ds.targets, model.output_mode)
            return float(np.mean(np.exp(2.0 * losses)))

        h = 1e-4
        H1 = fd_hessian(objective, x, h)
        H2 = fd_hessian(objective, x, h / 2)
        refined = (4.0 * H2 - H1) / 3.0
        scale = np.abs(refined).max()
        dominant = np.abs(refined) >= 1e-3 * scale
        rel = np.abs(H1 - refined)[dominant] / np.abs(refined)[dominant]
        assert rel.max() < 1e-3

    def test_symmetry(self):
        template, ds = scaled_sine_problem()
        x = np.random.default_rng(6).uniform(-1, 1, template.param_count)

        def objective(vec):
            model = unflatten(template, vec)
            losses = batch_losses(forward(model, ds.inputs).outputs, ds.targets, model.output_mode)
            return float(np.mean(losses))

        H = fd_hessian(objective, x)
        assert np.abs(H - H.T).max() < 1e-6 * (1.0 + np.abs(H).max())

    def test_non_finite_objective_reported(self):
        with pytest.raises(NumericDomainError):
            fd_hessian(lambda x: float("inf"), np.zeros(2))

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            fd_hessian(lambda x: 0.0, np.zeros(201))


class TestScan:
    def test_logistic_regression_fully_convex(self):
        template, ds = logistic_problem()
        scan = scan_convexity(template, ds, [1, 2, 4, 8], num_points=30, box_radius=2.0, seed=3)
        assert np.all(scan.psd_fraction == 1.0)
        assert np.all(scan.ce_psd)
        assert np.all(scan.comparison_violations() == 0)

    def test_golden_eight_point_scan(self, tmp_path):
        template, ds = scaled_sine_problem()
        scan = scan_convexity(template, ds, [1, 2, 4, 8], num_points=8, box_radius=1.0, seed=0)
        summary = tmp_path / "summary.csv"
        write_scan_csvs(scan, tmp_path / "detail.csv", summary)
        assert summary.read_text() == open(GOLDEN).read()
        # expansion property at the one-point tolerance of an 8-point scan
        assert np.all(np.diff(scan.psd_fraction) >= -1.0 / 8.0)

    def test_statistical_expansion(self):
        template, ds = scaled_sine_problem()
        scan = scan_convexity(template, ds, [1, 2, 4, 8], num_points=50, box_radius=1.0, seed=1)
        assert np.all(np.diff(scan.psd_fraction) >= -0.02)

    def test_fallback_bookkeeping(self):
        # large targets put the raw criterion's value past EXP_CAP at the
        # top lam; the flag reports it and every Hessian stays finite
        template, ds = scaled_sine_problem(target_scale=10.0)
        scan = scan_convexity(template, ds, [1, 8], num_points=10, box_radius=1.0, seed=2)
        assert scan.used_nrae.sum() > 0
        assert not scan.used_nrae[0].any()
        assert np.all(np.isfinite(scan.min_eigs))

    def test_closed_form_matches_fd_of_exp(self, monkeypatch):
        # where the raw value fits under EXP_CAP, the scan's Hessian is the
        # FD Hessian of mean(exp(s*c)) divided by s*rae: dominant entries
        # agree to FD accuracy
        template, ds = scaled_sine_problem()
        lambdas = [1.0, 2.0, 4.0, 8.0]
        scan, _, stacks = recorded_scan(monkeypatch, template, ds, lambdas, num_points=3,
                                        box_radius=1.0, seed=0)
        assert len(stacks) == 3
        losses = losses_of(template, ds)
        n = template.param_count
        compared = 0
        for j, (x, stack) in enumerate(zip(scan.points, stacks)):
            assert stack.shape == (len(lambdas) + 1, n, n)
            for k, lam in enumerate(lambdas):
                if scan.used_nrae[k, j]:
                    continue
                rae = np.mean(np.exp(lam * losses(x)))
                raw = fd_hessian(lambda v: float(np.mean(np.exp(lam * losses(v)))), x) / (lam * rae)
                dominant = np.abs(raw) >= 1e-3 * np.abs(raw).max()
                np.testing.assert_allclose(stack[k + 1][dominant], raw[dominant], rtol=1e-3)
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("net, preset, lambdas, num_points, seed", [
        ((1, 3, 1), "", [1, 2, 4, 8, 16, 32], 60, 0),
        ((1, 3, 1), "", [1, 2, 4, 8], 8, 0),
        ((1, 3, 1), "", [1, 2, 4, 8], 50, 1),
        ((1, 1), "logistic", [1, 8, 1e3, 1e6], 200, 0),
    ], ids=["default", "golden", "seed-1", "logistic"])
    def test_verdicts_match_the_fd_of_loss_bracket(self, net, preset, lambdas, num_points, seed):
        # the curvature from FD of the exact gradient against FD of the loss:
        # every verdict equal, and every min eigenvalue within 1e-6 of the
        # oracle's relative to the bracket's norm, which bounds the error of
        # any of its eigenvalues (the oracle's own FD error is ~1e-8 absolute)
        template, ds = scan_problem(net, preset=preset)
        scan = scan_convexity(template, ds, lambdas, num_points, box_radius=1.0, seed=seed)
        lows, tols, radii = fd_of_loss_bracket(template, ds, lambdas, scan.points)
        assert np.array_equal(scan.ce_psd, lows[0] >= -tols[0])
        assert np.array_equal(scan.psd, lows[1:] >= -tols[1:])
        got = np.vstack([scan.ce_min_eigs, scan.min_eigs])
        err = np.abs(got - lows)
        assert np.all(err <= 1e-6 * radii)

    def test_large_rank_one_term_leaves_a_negative_direction_non_psd(self, monkeypatch):
        # every per-sample gradient is g = 1e4 e_0 and every curvature row has
        # -1e-3 along e_1, orthogonal to g: the bracket diag(lam * 1e8, -1e-3)
        # is indefinite however large its Gauss-Newton term; a slack that grew
        # with that term (1e-6 * (1 + max|B_ii|) = 1e5 at lam = 1e3) would call
        # it PSD, while the eigensolver's n * eps * |B| is 2.2e-4
        template, ds = scaled_sine_problem()
        n = template.param_count
        g = np.zeros(n)
        g[0] = 1e4
        curvature = np.zeros((n, n))
        curvature[1, 1] = -1e-3

        def weighted_backward(model, batch, weights, cache=None):
            return np.asarray(weights).sum(axis=-1)[..., None] * g

        def fd_gradient(objective, x, h):
            return np.tile(curvature, (len(lambdas) + 1, 1))

        lambdas = [1.0, 1e3]
        monkeypatch.setattr(convexity, "weighted_backward", weighted_backward)
        monkeypatch.setattr(convexity, "fd_gradient", fd_gradient)
        scan = scan_convexity(template, ds, lambdas, num_points=3, box_radius=1.0, seed=0)
        assert not scan.psd.any() and not scan.ce_psd.any()
        np.testing.assert_allclose(scan.min_eigs, -1e-3, rtol=1e-9)
        assert np.all(scan.psd_tol < 1e-3)

    @pytest.mark.parametrize("label", [0, 1])
    def test_clamped_loss_refused(self, label):
        # z = w + b on inputs of 1: past |z| ~ 27.6 on the wrong side the
        # PROB_EPS clamp flattens the loss, which the exact gradient does not
        # see, so the first point with a clamped loss is refused by name
        ds = SampleBatch(np.ones((4, 1)), np.full(4, label, dtype=np.int64))
        template = init_model([1, 1], "sigmoid", "sigmoid-binary-ce", seed=0)
        points = rng_for(1, "scan").uniform(-40.0, 40.0, size=(20, 2))
        clamped = [losses_of(template, ds)(x).max() >= MAX_CLAMPED_LOSS for x in points]
        j = clamped.index(True)
        assert j > 0
        with pytest.raises(NumericDomainError, match=rf"^point {j}, box_radius 40.0, lambdas \[1.0, 8.0\]: "
                                                     r"a loss sits at the clamp ceiling 27\.631"):
            scan_convexity(template, ds, [1.0, 8.0], num_points=20, box_radius=40.0, seed=1)
        scan_convexity(template, ds, [1.0, 8.0], num_points=j, box_radius=40.0, seed=1)

    def test_non_finite_gradient_names_the_point(self, monkeypatch):
        template, ds = scaled_sine_problem()
        backward = convexity.weighted_backward
        calls = []

        def failing_probe(model, batch, weights, cache=None):
            calls.append(cache)
            if cache is None:  # a Hessian probe: the per-sample pass reuses the centre's cache
                raise FloatingPointError("non-finite gradient")
            return backward(model, batch, weights, cache)

        monkeypatch.setattr(convexity, "weighted_backward", failing_probe)
        with pytest.raises(NumericDomainError, match=r"^point 0, box_radius 1.0, lambdas \[1.0, 2.0\]: "
                                                     r"non-finite gradient$"):
            scan_convexity(template, ds, [1, 2], num_points=2, box_radius=1.0, seed=0)
        assert calls[0] is not None and calls[-1] is None

    def test_per_sample_gradients_in_blocks(self, monkeypatch):
        # the identity rows go SAMPLE_BLOCK at a time, so the stacked delta
        # never holds m x m x d entries; the blocks change no bit
        template, ds = scan_problem((1, 3, 1), samples=50)
        full = scan_convexity(template, ds, [1, 4], num_points=3, box_radius=1.0, seed=0)
        backward = convexity.weighted_backward
        rows = []

        def recording(model, batch, weights, cache=None):
            if cache is not None:
                rows.append(np.shape(weights))
            return backward(model, batch, weights, cache)

        monkeypatch.setattr(convexity, "SAMPLE_BLOCK", 16)
        monkeypatch.setattr(convexity, "weighted_backward", recording)
        blocked = scan_convexity(template, ds, [1, 4], num_points=3, box_radius=1.0, seed=0)
        assert rows == [(16, 50), (16, 50), (16, 50), (2, 50)] * 3
        for field in ("min_eigs", "ce_min_eigs", "psd", "ce_psd", "psd_tol", "ce_psd_tol"):
            assert np.array_equal(getattr(blocked, field), getattr(full, field)), field

    def test_exp_overflow_lambda_stays_finite(self):
        # at lam = 100, s*max(c) is past 709, where exp overflows float64:
        # the closed form still gives finite eigenvalues, and the flag is set
        template, ds = scaled_sine_problem()
        scan = scan_convexity(template, ds, [1, 100], num_points=4, box_radius=1.0, seed=0)
        top = np.array([100.0 * losses_of(template, ds)(x).max() for x in scan.points])
        assert np.all(top > np.log(np.finfo(float).max))
        assert np.all(scan.used_nrae[1])
        assert np.all(np.isfinite(scan.min_eigs)) and np.all(np.isfinite(scan.psd_tol))

    def test_verdicts_keep_their_tolerance(self, monkeypatch):
        # each verdict compares the smallest eigenvalue of the closed-form
        # stack with psd_tolerance of its FD part plus the eigensolver's
        # n * eps * max|eig| of the whole stack, flagged points included
        template, ds = scaled_sine_problem(target_scale=10.0)
        scan, fd_parts, stacks = recorded_scan(monkeypatch, template, ds, [1, 8], num_points=4,
                                               box_radius=1.0, seed=2)
        assert scan.used_nrae[1].any()
        assert len(fd_parts) == len(stacks) == 4
        n = template.param_count
        for part, stack in zip(fd_parts, stacks):
            # the Gauss-Newton term, which the slack leaves out, is PSD and
            # zero in the base row
            assert np.array_equal(part[0], stack[0])
            assert np.all(np.linalg.eigvalsh(stack - part)[:, 0] >= -1e-9 * np.abs(stack).max())
        spectra = [np.linalg.eigvalsh(stack) for stack in stacks]
        eig_bounds = [n * np.finfo(float).eps * np.abs(eigs[:, [0, -1]]).max(axis=1) for eigs in spectra]
        tols = np.stack([psd_tolerance(part) + bound for part, bound in zip(fd_parts, eig_bounds)], axis=1)
        lows = np.stack([eigs[:, 0] for eigs in spectra], axis=1)
        assert np.array_equal(scan.ce_psd_tol, tols[0])
        assert np.array_equal(scan.psd_tol, tols[1:])
        assert np.array_equal(scan.ce_min_eigs, lows[0])
        assert np.array_equal(scan.min_eigs, lows[1:])
        assert np.array_equal(scan.psd, scan.min_eigs >= -scan.psd_tol)
        assert np.array_equal(scan.ce_psd, scan.ce_min_eigs >= -scan.ce_psd_tol)

    def test_large_lambda_verdicts_come_from_curvature(self):
        # the Gauss-Newton term grows like lam but is PSD by construction, so
        # it widens no slack: at lam = 1e6 the default problem's negative
        # curvature still reads non-PSD, while the convex logistic preset
        # stays PSD up to lam = 1e10
        template, ds = scan_problem((1, 3, 1))
        scan = scan_convexity(template, ds, [1.0, 1e6], num_points=20, box_radius=1.0, seed=0)
        assert scan.psd_fraction[1] == 0.0
        assert np.all(scan.min_eigs[1] < -scan.psd_tol[1])
        template, ds = scan_problem((1, 1), preset="logistic")
        for radius in (1.0, 2.0):
            scan = scan_convexity(template, ds, [1.0, 8.0, 1e3, 1e6, 1e10], num_points=20,
                                  box_radius=radius, seed=0)
            assert np.all(scan.psd_fraction == 1.0)

    def test_rejects_bad_arguments(self, monkeypatch):
        template, ds = scaled_sine_problem()
        with pytest.raises(ValueError):
            scan_convexity(template, ds, [8, 4], num_points=2, box_radius=1.0, seed=0)
        with pytest.raises(ValueError):
            scan_convexity(template, ds, [1, 2], num_points=0, box_radius=1.0, seed=0)
        relu = init_model([1, 3, 1], "relu", "identity-squared", seed=0)
        with pytest.raises(ValueError):
            scan_convexity(relu, ds, [1, 2], num_points=2, box_radius=1.0, seed=0)
        big = init_model([4, 16, 4], "tanh", "softmax-ce", seed=0)
        with pytest.raises(ValueError):
            scan_convexity(big, ds, [1, 2], num_points=2, box_radius=1.0, seed=0)
        # lam and p by CriterionParams' rule, box_radius by its own, all
        # before the first point is drawn
        draws = []
        monkeypatch.setattr(convexity, "rng_for", lambda *args: draws.append(args))
        for lambdas, p, radius, named in (
                ([0, 1], 1, 1.0, "lam must be positive and finite"),
                ([-1, 1], 1, 1.0, "lam must be positive and finite"),
                ([float("nan"), 1], 1, 1.0, "lam must be positive and finite"),
                ([1, float("inf")], 1, 1.0, "lam must be positive and finite"),
                ([0.5, 1], 0, 1.0, "p must be an integer >= 1"),
                ([1, 2], 1, float("nan"), "box_radius must be positive and finite"),
                ([1, 2], 1, float("inf"), "box_radius must be positive and finite"),
                ([1, 2], 1, -1.0, "box_radius must be positive and finite"),
                ([1, 2], 1, 0.0, "box_radius must be positive and finite"),
                ([1, 2], 1, 1e308, "as must 2 \\* box_radius, got 1e\\+308")):
            with pytest.raises(ValueError, match=named):
                scan_convexity(template, ds, lambdas, num_points=2, box_radius=radius, seed=0, p=p)
        assert draws == []

    def test_tiny_lambda_matches_base_criterion(self):
        # lam -> 0 flattens the softmax weights to uniform and the
        # Gauss-Newton term to 0: the verdicts are the base criterion's
        template, ds = scaled_sine_problem()
        scan = scan_convexity(template, ds, [1e-6], num_points=60, box_radius=1.0, seed=0)
        assert np.array_equal(scan.psd[0], scan.ce_psd)
        np.testing.assert_allclose(scan.min_eigs[0], scan.ce_min_eigs, rtol=1e-4)

    def test_deterministic(self):
        template, ds = scaled_sine_problem()
        s1 = scan_convexity(template, ds, [1, 4], num_points=5, box_radius=1.0, seed=11)
        s2 = scan_convexity(template, ds, [1, 4], num_points=5, box_radius=1.0, seed=11)
        assert np.array_equal(s1.points, s2.points)
        assert np.array_equal(s1.min_eigs, s2.min_eigs)


class TestScanProblem:
    @staticmethod
    def hand_built(net, seed, preset):
        # the problem as the CLI built it by hand before scan_problem
        if preset == "logistic":
            x = rng_for(seed, "scan-data").uniform(-2.0, 2.0, size=20)
            dataset = SampleBatch(x[:, None], (x > 0).astype(np.int64))
            return init_model((1, 1), "tanh", "sigmoid-binary-ce", seed), dataset
        base = synthetic_regression("sine", 20, 0.0, seed)
        dataset = SampleBatch(base.inputs, 6.0 * base.targets)
        return init_model(net, "tanh", "identity-squared", seed), dataset

    @pytest.mark.parametrize("preset", ["", "logistic"])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_the_hand_built_problem(self, preset, seed):
        template, ds = scan_problem((1, 3, 1), seed=seed, preset=preset)
        ref_template, ref_ds = self.hand_built((1, 3, 1), seed, preset)
        assert (template.layer_dims, template.activation, template.output_mode) == \
            (ref_template.layer_dims, ref_template.activation, ref_template.output_mode)
        assert template.theta.tobytes() == ref_template.theta.tobytes()
        for got, ref in ((ds.inputs, ref_ds.inputs), (ds.targets, ref_ds.targets)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_oversized_net_named_before_the_targets(self):
        with pytest.raises(ValueError, match="101770 parameters exceeds the scan guard of 60"):
            scan_problem((784, 128, 10))
        with pytest.raises(ValueError, match="preset must be one of"):
            scan_problem((1, 3, 1), preset="quadratic")


class TestHessianReport:
    """PSD verdicts of FD Hessians through eigvalsh and psd_tolerance."""

    def test_psd_flag_consistent(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + 0.1 * np.eye(4)  # positive definite
        H = fd_hessian(lambda x: float(x @ A @ x), rng.normal(size=4))
        min_eig = np.linalg.eigvalsh(H)[0]
        assert min_eig >= -psd_tolerance(H)
        assert min_eig >= -psd_tolerance(2 * A)

    def test_indefinite_detected(self):
        D = np.diag([1.0, -1.0])
        H = fd_hessian(lambda x: float(x @ D @ x), np.zeros(2))
        min_eig = np.linalg.eigvalsh(H)[0]
        assert not min_eig >= -psd_tolerance(H)
        assert min_eig == pytest.approx(-2.0, abs=1e-4)
