import os

import numpy as np
import pytest

import convexlab.convexity as convexity
from convexlab.criteria import NumericDomainError
from convexlab.convexity import (
    fd_hessian,
    min_eigenvalues,
    psd_tolerance,
    scan_convexity,
    write_scan_csvs,
)
from convexlab.data import SampleBatch, synthetic_regression
from convexlab.network import batch_losses, forward, init_model, unflatten

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scan_1_3_1_summary.csv")


def scaled_sine_problem(num_samples=20, target_scale=6.0, seed=0):
    template = init_model([1, 3, 1], "tanh", "identity-squared", seed=seed)
    base = synthetic_regression("sine", num_samples, 0.0, seed=seed)
    return template, SampleBatch(base.inputs, target_scale * base.targets)


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
        # large targets push the raw criterion past EXP_CAP at the top lam,
        # so those points take the Hessian of the shifted form
        template, ds = scaled_sine_problem(target_scale=10.0)
        scan = scan_convexity(template, ds, [1, 8], num_points=10, box_radius=1.0, seed=2)
        assert scan.used_nrae.sum() > 0
        assert not scan.used_nrae[0].any()
        assert np.all(np.isfinite(scan.min_eigs))

    def test_one_fd_pass_per_point_matches_raw_hessians(self, monkeypatch):
        template, ds = scaled_sine_problem()
        lambdas = [1.0, 2.0, 4.0, 8.0]
        stacks = []

        def recording(objective, point, h):
            hess = fd_hessian(objective, point, h)
            stacks.append((point.copy(), hess))
            return hess

        monkeypatch.setattr(convexity, "fd_hessian", recording)
        scan = scan_convexity(template, ds, lambdas, num_points=3, box_radius=1.0, seed=0)
        assert len(stacks) == 3

        def losses(vec):
            model = unflatten(template, vec)
            return batch_losses(forward(model, ds.inputs).outputs, ds.targets, model.output_mode)

        compared = 0
        for j, (x, stack) in enumerate(stacks):
            assert stack.shape == (len(lambdas) + 1, template.param_count, template.param_count)
            assert np.array_equal(stack[0], fd_hessian(lambda v: float(np.mean(losses(v))), x))
            for k, lam in enumerate(lambdas):
                if scan.used_nrae[k, j]:
                    continue
                raw = fd_hessian(lambda v: float(np.mean(np.exp(lam * losses(v)))), x)
                assert np.array_equal(stack[k + 1], raw)
                compared += 1
            assert np.array_equal(scan.min_eigs[:, j], min_eigenvalues(stack[1:]))
        assert compared > 0

    def test_rejects_bad_arguments(self):
        template, ds = scaled_sine_problem()
        with pytest.raises(ValueError):
            scan_convexity(template, ds, [8, 4], num_points=2, box_radius=1.0, seed=0)
        with pytest.raises(ValueError):
            scan_convexity(template, ds, [0.5, 1], num_points=2, box_radius=1.0, seed=0)
        with pytest.raises(ValueError):
            scan_convexity(template, ds, [1, 2], num_points=0, box_radius=1.0, seed=0)
        relu = init_model([1, 3, 1], "relu", "identity-squared", seed=0)
        with pytest.raises(ValueError):
            scan_convexity(relu, ds, [1, 2], num_points=2, box_radius=1.0, seed=0)
        big = init_model([4, 16, 4], "tanh", "softmax-ce", seed=0)
        with pytest.raises(ValueError):
            scan_convexity(big, ds, [1, 2], num_points=2, box_radius=1.0, seed=0)

    def test_deterministic(self):
        template, ds = scaled_sine_problem()
        s1 = scan_convexity(template, ds, [1, 4], num_points=5, box_radius=1.0, seed=11)
        s2 = scan_convexity(template, ds, [1, 4], num_points=5, box_radius=1.0, seed=11)
        assert np.array_equal(s1.points, s2.points)
        assert np.array_equal(s1.min_eigs, s2.min_eigs)


class TestMinEigenvalues:
    def test_overflow_scale_indefinite(self):
        # a raw-criterion-sized Hessian: its Frobenius norm overflows float64,
        # the diagonal is positive, and the true minimum eigenvalue is
        # 1.4e204 - 1.42e204 = -2e202
        H = np.array([[1.4e204, 1.42e204], [1.42e204, 1.4e204]])
        min_eig = min_eigenvalues(H)
        assert min_eig == pytest.approx(-2e202, rel=1e-9)
        assert not min_eig >= -psd_tolerance(H)

    def test_stack_and_zero_matrix(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(3, 4, 4))
        stack = np.concatenate([A + np.swapaxes(A, 1, 2), np.zeros((1, 4, 4))])
        mins = min_eigenvalues(stack)
        assert mins.shape == (4,)
        assert mins[3] == 0.0
        for k in range(3):
            assert mins[k] == pytest.approx(np.linalg.eigvalsh(stack[k])[0], rel=1e-12)


class TestHessianReport:
    """PSD verdicts of FD Hessians through min_eigenvalues and psd_tolerance."""

    def test_psd_flag_consistent(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + 0.1 * np.eye(4)  # positive definite
        H = fd_hessian(lambda x: float(x @ A @ x), rng.normal(size=4))
        min_eig = min_eigenvalues(H)
        assert min_eig >= -psd_tolerance(H)
        assert min_eig >= -psd_tolerance(2 * A)

    def test_indefinite_detected(self):
        D = np.diag([1.0, -1.0])
        H = fd_hessian(lambda x: float(x @ D @ x), np.zeros(2))
        min_eig = min_eigenvalues(H)
        assert not min_eig >= -psd_tolerance(H)
        assert min_eig == pytest.approx(-2.0, abs=1e-4)
