"""Stacked finite-difference probes: the stacked network, criterion and
fd_gradient paths against their one-vector counterparts, and the one-pass
check_case against the two-pass one, bit for bit; and the exact lam
derivative and its finite-difference oracle against an extended-precision
reference."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

import convexlab.gradcheck as gradcheck
from convexlab.criteria import CriterionParams, NumericDomainError, evaluate_criterion, nrae, sample_weights
import convexlab
import convexlab.convexity as convexity
from convexlab.gradcheck import (
    DEFAULT_LAMBDAS,
    DEFAULT_PS,
    FD_BLOCK,
    _case_problem,
    _cases,
    check_case,
    fd_gradient,
    fd_lambda_gradient,
    rel_error,
    run_gradcheck,
)
from convexlab.network import batch_losses, forward, init_model, unflatten, weighted_backward


def _problem(mode, out_dim, act, dims=(4, 5), m=7, seed=5):
    rng = np.random.default_rng(seed)
    model = init_model(list(dims) + [out_dim], act, mode, seed=seed)
    x = rng.normal(size=(m, dims[0]))
    if mode == "softmax-ce":
        y = rng.integers(0, out_dim, size=m)
    elif mode == "sigmoid-binary-ce":
        y = rng.integers(0, 2, size=m)
    else:
        y = rng.normal(size=(m, out_dim)) if out_dim > 1 else rng.normal(size=m)
    return model, x, y


def _losses(model, vec, x, y):
    mm = unflatten(model, vec)
    return batch_losses(forward(mm, x).outputs, y, mm.output_mode)


MODES = [("softmax-ce", 3, "tanh"), ("sigmoid-binary-ce", 1, "sigmoid"), ("identity-squared", 2, "tanh")]


class TestStackedNetwork:
    @pytest.mark.parametrize("mode,out_dim,act", MODES)
    def test_stacked_losses_match_loop(self, mode, out_dim, act):
        model, x, y = _problem(mode, out_dim, act)
        stack = model.theta + np.random.default_rng(1).normal(scale=0.5, size=(9, model.param_count))
        stacked = _losses(model, stack, x, y)
        assert stacked.shape == (9, x.shape[0])
        assert stacked.flags.c_contiguous
        for k, vec in enumerate(stack):
            assert stacked[k].tobytes() == _losses(model, vec, x, y).tobytes()

    def test_stacked_model_shapes(self):
        model = init_model([3, 4, 2], "tanh", "softmax-ce", seed=0)
        stacked = unflatten(model, np.zeros((5, model.param_count)))
        assert [w.shape for w in stacked.weights] == [(5, 4, 3), (5, 2, 4)]
        assert [b.shape for b in stacked.biases] == [(5, 4), (5, 2)]
        assert stacked.param_count == model.param_count

    def test_bad_stack_shapes(self):
        model = init_model([3, 4, 2], "tanh", "softmax-ce", seed=0)
        with pytest.raises(ValueError):
            unflatten(model, np.zeros((5, model.param_count + 1)))
        with pytest.raises(ValueError):
            unflatten(model, np.zeros((2, 5, model.param_count)))


class TestStackedNrae:
    def test_rows_match_scalar_in_both_branches(self):
        rng = np.random.default_rng(2)
        params = CriterionParams(lam=3.0, p=2)
        # spreads of 0.1 stay on the expm1 branch (s * (max - mean) <= 50),
        # spreads of 40 go through the log-sum-exp
        stack = np.concatenate([rng.uniform(0.0, 0.1, size=(6, 8)), rng.uniform(0.0, 40.0, size=(6, 8))])
        zmax = params.scale * (stack.max(axis=1) - stack.mean(axis=1))
        assert (zmax <= 50.0).sum() == 6 and (zmax > 50.0).sum() == 6
        values = nrae(stack, params)
        assert values.shape == (12,)
        for k, row in enumerate(stack):
            scalar = nrae(row, params)
            assert isinstance(scalar, float)
            assert values[k].tobytes() == np.float64(scalar).tobytes()

    @pytest.mark.parametrize("spread", [0.1, 40.0], ids=["expm1", "log-sum-exp"])
    def test_single_regime_stacks_match_scalar(self, spread):
        # a stack with every row on one side is evaluated whole, unsplit
        params = CriterionParams(lam=3.0, p=2)
        stack = np.random.default_rng(3).uniform(0.0, spread, size=(16, 8))
        zmax = params.scale * (stack.max(axis=1) - stack.mean(axis=1))
        assert np.all(zmax <= 50.0) == (spread == 0.1) and np.all(zmax > 50.0) == (spread == 40.0)
        values = nrae(stack, params)
        for k, row in enumerate(stack):
            assert values[k].tobytes() == np.float64(nrae(row, params)).tobytes()

    def test_bad_row_raises(self):
        params = CriterionParams(lam=1.0)
        stack = np.ones((4, 3))
        bad = stack.copy()
        bad[2, 1] = np.nan
        with pytest.raises(NumericDomainError, match=r"rows \[2\]"):
            nrae(bad, params)
        bad = stack.copy()
        bad[3, 0] = -1.0
        with pytest.raises(ValueError, match=r"rows \[3\]"):
            nrae(bad, params)
        with pytest.raises(ValueError):
            nrae(np.ones((2, 2, 2)), params)
        with pytest.raises(ValueError):
            nrae(np.ones((3, 0)), params)


def _loop_fd_gradient(objective, x, h):
    """The per-coordinate oracle: two one-vector objective calls per coordinate."""
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (objective(x + step) - objective(x - step)) / (2.0 * h)
    return grad


class TestFdGradient:
    def _objectives(self):
        # 10-12-6 with 3 outputs: 216 parameters, so three full blocks and a partial one
        model, x, y = _problem("softmax-ce", 3, "tanh", dims=(10, 12, 6), m=6, seed=8)
        params = CriterionParams(lam=10.0, p=1)
        objectives = {
            "nrae": lambda v: nrae(_losses(model, v, x, y), params),
            "mean": lambda v: np.mean(_losses(model, v, x, y), axis=-1),
        }
        objectives["both"] = lambda v: np.stack([objectives["nrae"](v), objectives["mean"](v)], axis=-1)
        return model, objectives

    def test_matches_per_coordinate_loop(self):
        model, objectives = self._objectives()
        x0 = model.theta
        assert x0.size > 3 * FD_BLOCK and x0.size % FD_BLOCK
        for name in ("nrae", "mean"):
            stacked = fd_gradient(objectives[name], x0, h=1e-6)
            assert stacked.tobytes() == _loop_fd_gradient(objectives[name], x0, 1e-6).tobytes()

    def test_vector_objective_rows_match_separate_calls(self):
        model, objectives = self._objectives()
        x0 = model.theta
        both = fd_gradient(objectives["both"], x0, h=1e-6)
        assert both.shape == (2, x0.size)
        for j, name in enumerate(("nrae", "mean")):
            assert both[j].tobytes() == fd_gradient(objectives[name], x0, h=1e-6).tobytes()

    def test_one_call_per_block_of_at_most_two_fd_block_rows(self):
        model, objectives = self._objectives()
        x0 = model.theta
        for name in ("mean", "both"):
            rows = []

            def counting(v):
                rows.append(v.shape[0])
                return objectives[name](v)

            fd_gradient(counting, x0)
            assert len(rows) == math.ceil(x0.size / FD_BLOCK)
            assert max(rows) <= 2 * FD_BLOCK
            assert sum(rows) == 2 * x0.size

    def test_objective_must_return_one_value_per_probe(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda v: float(np.sum(v)), np.zeros(3))
        with pytest.raises(ValueError):
            fd_gradient(lambda v: np.zeros((v.shape[0] + 1, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            fd_gradient(lambda v: np.zeros((v.shape[0], 2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            fd_gradient(lambda v: np.zeros(v.shape[0]), np.zeros(0))

    @pytest.mark.parametrize("h", [0.0, -1e-6, math.nan, math.inf])
    def test_refuses_bad_step(self, h):
        # h = 0 used to return 0/0 = NaN gradients
        with pytest.raises(ValueError, match="h must be positive and finite"):
            fd_gradient(lambda v: np.sum(v, axis=-1), np.ones(3), h)


class TestOracleRules:
    """fd_gradient and fd_hessian check x and h by one rule and every
    objective value by one probe check, which names the first bad probe."""

    def test_fd_gradient_refuses_an_inf_probe(self):
        x, h = np.array([1.0, 0.0]), 1e-6
        inf_past_one = lambda v: np.where(v[:, 0] > 1.0, np.inf, v.sum(axis=1))  # noqa: E731
        # the plus probe along x_0 is the only inf one
        with pytest.raises(NumericDomainError, match=re.escape(f"inf at probe point {[1.0 + h, 0.0]}")):
            fd_gradient(inf_past_one, x, h)

    def test_fd_gradient_names_the_first_bad_probe_of_a_stack(self):
        def objective(stack):
            values = np.stack([stack.sum(axis=1), stack[:, 0]], axis=-1)
            values[[3, 1], [0, 1]] = [np.inf, np.nan]
            return values

        with pytest.raises(NumericDomainError) as info:
            fd_gradient(objective, np.zeros(3), 0.5)
        assert str(info.value) == "objective returned [0.5, nan] at probe point [0.0, 0.5, 0.0]"

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_fd_hessian_refuses_bad_step(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            gradcheck.fd_hessian(lambda v: float(v @ v), np.ones(3), h)

    def test_fd_hessian_refuses_a_non_vector_point(self):
        with pytest.raises(ValueError, match="x must be a non-empty flat parameter vector"):
            gradcheck.fd_hessian(lambda v: float(np.sum(v)), np.ones((2, 2)))

    def test_one_fd_hessian(self):
        assert convexity.fd_hessian is gradcheck.fd_hessian
        assert convexlab.fd_hessian is gradcheck.fd_hessian


def _two_pass_check_case(case, h=1e-6):
    """The two-pass oracle: one fd_gradient call, and so one probe pass, per
    criterion."""
    model, batch, params = _case_problem(case)

    def losses_at(stack):
        m = unflatten(model, stack)
        return batch_losses(forward(m, batch.inputs).outputs, batch.targets, m.output_mode)

    cache = forward(model, batch.inputs)
    losses = batch_losses(cache.outputs, batch.targets, model.output_mode)
    w = sample_weights(losses, params)
    analytic = weighted_backward(model, batch, w, cache)
    numeric = fd_gradient(lambda v: nrae(losses_at(v), params), model.theta, h)
    weight_err = rel_error(numeric, analytic)
    uniform = np.full(batch.size, 1.0 / batch.size)
    analytic_ce = weighted_backward(model, batch, uniform, cache)
    numeric_ce = fd_gradient(lambda v: np.mean(losses_at(v), axis=-1), model.theta, h)
    weight_err = max(weight_err, rel_error(numeric_ce, analytic_ce))
    lam_grad = evaluate_criterion(losses, "anrat", params).lambda_grad
    lam_err = rel_error(fd_lambda_gradient(losses, params), lam_grad)
    return weight_err, lam_err


class TestCheckCase:
    @pytest.mark.parametrize("seed", [0, 90])
    def test_matches_two_pass_oracle(self, seed):
        for case in _cases(48, DEFAULT_LAMBDAS, DEFAULT_PS, seed):
            assert check_case(case) == _two_pass_check_case(case), case.describe()

    def test_one_forward_per_probe_block(self, monkeypatch):
        calls = []
        real_forward = gradcheck.forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real_forward(*args, **kwargs)
        monkeypatch.setattr(gradcheck, "forward", counting)
        for case in _cases(24, DEFAULT_LAMBDAS, DEFAULT_PS, 0):
            calls.clear()
            check_case(case)
            n = _case_problem(case)[0].param_count
            # the unperturbed forward, then one stacked forward per block
            assert len(calls) == 1 + math.ceil(n / FD_BLOCK), case.describe()

    def test_one_backward_on_a_two_row_stack(self, monkeypatch):
        # the anrat and uniform rows go through the stacked path the scan
        # takes; test_matches_two_pass_oracle holds each row to its own call
        shapes = []
        real_backward = gradcheck.weighted_backward

        def recording(model, batch, weights, cache=None):
            shapes.append((np.shape(weights), batch.size))
            return real_backward(model, batch, weights, cache)
        monkeypatch.setattr(gradcheck, "weighted_backward", recording)
        for case in _cases(12, DEFAULT_LAMBDAS, DEFAULT_PS, 0):
            shapes.clear()
            check_case(case)
            assert shapes == [((2, case.batch_size), case.batch_size)], case.describe()

    def test_stacked_model_wraps_probe_stack(self, monkeypatch):
        stacks, thetas = [], []
        real_fd, real_forward = gradcheck.fd_gradient, gradcheck.forward

        def recording_fd(objective, x, *args, **kwargs):
            def recorded(stack):
                stacks.append(stack)
                return objective(stack)
            return real_fd(recorded, x, *args, **kwargs)

        def recording_forward(model, inputs):
            thetas.append(model.theta)
            return real_forward(model, inputs)
        monkeypatch.setattr(gradcheck, "fd_gradient", recording_fd)
        monkeypatch.setattr(gradcheck, "forward", recording_forward)
        case = next(_cases(1, DEFAULT_LAMBDAS, DEFAULT_PS, 0))
        check_case(case)
        stacked = [t for t in thetas if t.ndim == 2]
        assert len(stacked) == len(stacks) == math.ceil(_case_problem(case)[0].param_count / FD_BLOCK)
        for theta, stack in zip(stacked, stacks):
            assert np.shares_memory(theta, stack)

    def test_lambda_oracle_seed_90(self):
        assert run_gradcheck(num_cases=24, seed=90).ok

    # seeds 90, 355, 455 and 535 each hold a lam**p = 1e-6 case; with one
    # plain central difference as the lam oracle, 90 and 455 failed
    @pytest.mark.parametrize("seed", list(range(20)) + [90, 355, 455, 535])
    def test_sweep_passes(self, seed):
        assert run_gradcheck(num_cases=24, seed=seed).ok


class TestNanErrors:
    """A NaN error is worse than any number: it fails the sweep and names
    its case, and a later finite error does not displace it."""

    @staticmethod
    def _patch(monkeypatch, errors_of):
        real = gradcheck.check_case
        monkeypatch.setattr(gradcheck, "check_case", lambda case: errors_of(case, real(case)))

    @pytest.mark.parametrize("suite", [0, 1], ids=["weights", "lambda"])
    def test_one_nan_case_fails_sweep(self, monkeypatch, suite):
        def errors_of(case, errs):
            return tuple(math.nan if j == suite and case.seed == 1002 else e for j, e in enumerate(errs))
        self._patch(monkeypatch, errors_of)
        summary = run_gradcheck(num_cases=6, seed=0)
        worst = [(summary.max_weight_rel_err, summary.worst_weight_case),
                 (summary.max_lambda_rel_err, summary.worst_lambda_case)]
        assert not summary.ok
        assert math.isnan(worst[suite][0]) and worst[suite][1].seed == 1002
        assert worst[1 - suite][0] < 1e-6

    def test_first_nan_stays_worst(self, monkeypatch):
        self._patch(monkeypatch, lambda case, errs: (math.nan, math.nan) if case.seed == 1000 else (0.5, 0.5))
        summary = run_gradcheck(num_cases=4, seed=0)
        assert math.isnan(summary.max_weight_rel_err) and math.isnan(summary.max_lambda_rel_err)
        assert summary.worst_weight_case.seed == summary.worst_lambda_case.seed == 1000

    def test_all_nan_sweep_fails(self, monkeypatch):
        # the parent reported max error -1.0, no worst case and ok = True here
        self._patch(monkeypatch, lambda case, errs: (math.nan, math.nan))
        summary = run_gradcheck(num_cases=3, seed=0)
        assert not summary.ok
        assert math.isnan(summary.max_weight_rel_err) and math.isnan(summary.max_lambda_rel_err)
        assert summary.worst_weight_case.seed == summary.worst_lambda_case.seed == 1000


class TestUnresolvedDerivatives:
    """Two values below REL_ERROR_FLOOR compare as NaN, which fails: a
    floored ratio would pass them whatever they are."""

    def test_rel_error_below_the_floor_is_nan(self):
        assert math.isnan(rel_error(1e-288, 5e-289))
        assert math.isnan(rel_error([0.0, 1e-13], [0.0, -1e-13]))
        assert rel_error(1e-288, 1e-11) == pytest.approx(1.0)
        assert rel_error(2e-12, 1e-12) == 0.5

    def test_huge_lambda_sweep_fails_and_names_its_case(self):
        # at lam = 1e150, p = 2 the lam derivative is about 1e-288
        summary = run_gradcheck(num_cases=3, lambdas=(1e150,), ps=(2,))
        assert not summary.ok
        assert math.isnan(summary.max_lambda_rel_err)
        assert (summary.worst_lambda_case.lam, summary.worst_lambda_case.p) == (1e150, 2)
        assert summary.max_weight_rel_err < summary.tol_weights


def _decimal_grad_lambda(c, params):
    """(p/lam) * (sum_i w_i c_i - nrae) - a*q*lam**(-q-1) in 80-digit decimal
    arithmetic from the float64 losses."""
    with localcontext() as ctx:
        ctx.prec = 80
        cs = [Decimal(float(v)) for v in c]
        lam = Decimal(float(params.lam))
        s = lam ** int(params.p)
        e = [(s * v).exp() for v in cs]
        total = sum(e)
        gap = sum(ei * v for ei, v in zip(e, cs)) / total - (total / len(cs)).ln() / s
        g = Decimal(int(params.p)) / lam * gap - Decimal(float(params.a)) * int(params.q) * lam ** (-int(params.q) - 1)
        return float(g)


class TestLambdaGradientReference:
    # Case 4 of these gradcheck seeds has lam = 0.001, p = 2: lam**p = 1e-6,
    # where the difference of the weighted mean loss and nrae cancels to a
    # millionth of either term.
    SEEDS = [90, 355, 455, 535]

    @staticmethod
    def _small_scale_case(seed):
        case = list(_cases(5, DEFAULT_LAMBDAS, DEFAULT_PS, seed))[4]
        model, batch, params = _case_problem(case)
        assert params.scale == pytest.approx(1e-6)
        c = batch_losses(forward(model, batch.inputs).outputs, batch.targets, model.output_mode)
        return c, params, _decimal_grad_lambda(c, params)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_small_scale_cases(self, seed):
        c, params, reference = self._small_scale_case(seed)
        assert rel_error(evaluate_criterion(c, "anrat", params).lambda_grad, reference) < 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_oracle_on_small_scale_cases(self, seed):
        # the Richardson-extrapolated oracle; one plain central difference
        # at relative step 1e-6 is 1.4e-5 off on seed 90
        c, params, reference = self._small_scale_case(seed)
        assert rel_error(fd_lambda_gradient(c, params), reference) < 1e-7
