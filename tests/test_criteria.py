import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import convexlab.criteria as criteria
from convexlab.criteria import (
    EXP_CAP,
    CriterionParams,
    NumericDomainError,
    evaluate_criterion,
    nrae,
    sample_weights,
)
from convexlab.gradcheck import fd_lambda_gradient
from convexlab.trainer import LAMBDA_MIN

LN2 = math.log(2.0)


def params(lam, p=1, a=0.0, q=1):
    return CriterionParams(lam=lam, p=p, a=a, q=q)


def value(losses, kind, pr):
    return evaluate_criterion(losses, kind, pr).criterion_value


class TestRae:
    def test_zero_losses(self):
        assert value([0.0, 0.0, 0.0], "rae", params(3.7, p=2)) == 1.0

    def test_hand_value(self):
        assert value([0.0, LN2], "rae", params(1.0)) == pytest.approx(1.5, abs=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = rng.uniform(0, 2, size=rng.integers(1, 20))
            assert value(c, "rae", params(1.5)) >= 1.0 - 1e-12


class TestNrae:
    def test_identical_losses_exact(self):
        for k in (0.0, 0.3, 2.0, 7.5):
            assert nrae([k] * 5, params(3.0, p=2)) == pytest.approx(k, abs=1e-12)

    def test_hand_value(self):
        assert nrae([0.0, LN2], params(1.0)) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_minimax_limit(self):
        val = nrae([0.0, LN2], params(1e6))
        assert abs(val - LN2) <= math.log(2) / 1e6

    def test_bounds_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = int(rng.integers(1, 50))
            c = rng.uniform(0, 5, size=m)
            lam = float(10 ** rng.uniform(-3, 3))
            p = int(rng.integers(1, 3))
            v = nrae(c, params(lam, p=p))
            s = lam**p
            assert c.mean() - 1e-10 <= v <= c.max() + 1e-10
            assert v >= c.max() - math.log(m) / s - 1e-10

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            c = rng.uniform(0, 4, size=rng.integers(2, 30))
            l1, l2 = sorted(10 ** rng.uniform(-3, 3, size=2))
            p = int(rng.integers(1, 3))
            assert nrae(c, params(l1, p=p)) <= nrae(c, params(l2, p=p)) + 1e-12

    def test_mean_limit(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.uniform(0, 5, size=rng.integers(2, 40))
            v = nrae(c, params(1e-4))
            assert abs(v - c.mean()) <= 1e-3 * (1.0 + c.mean())

    def test_max_limit(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            c = rng.uniform(0, 5, size=m)
            v = nrae(c, params(1e6))
            assert abs(v - c.max()) <= math.log(m) / 1e6 + 1e-9

    def test_stability_huge_exponent(self):
        # lam**p * max(c) up to 1e9 stays finite on the log-sum-exp path
        for lam, p in ((1e9, 1), (31623.0, 2)):
            c = np.array([1.0, 0.5, 0.25])
            v = nrae(c, params(lam, p=p))
            w = sample_weights(c, params(lam, p=p))
            assert np.isfinite(v)
            assert np.all(np.isfinite(w))
            assert v == pytest.approx(1.0, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.uniform(0, 3, size=12)
            pm = rng.permutation(12)
            pr = params(float(10 ** rng.uniform(-2, 2)))
            assert nrae(c, pr) == pytest.approx(nrae(c[pm], pr), rel=1e-12, abs=1e-12)
            assert value(c, "rae", params(1.0)) == pytest.approx(value(c[pm], "rae", params(1.0)), rel=1e-12)


class TestSampleWeights:
    def test_uniform_at_tiny_lambda(self):
        c = np.array([0.2, 1.0, 3.0])
        w = sample_weights(c, params(LAMBDA_MIN, p=2))
        assert np.allclose(w, 1.0 / 3.0, atol=1e-5)

    def test_hand_value(self):
        w = sample_weights([0.0, LN2], params(1.0))
        assert w == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)

    def test_minimax_selects_argmax(self):
        w = sample_weights([1.0, 5.0, 2.0], params(1e4))
        assert w == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)

    @staticmethod
    def _unflushed(c, s):
        c = np.asarray(c, dtype=float)
        e = np.exp(s * (c - c.max()))
        return e / e.sum()

    def test_subnormal_weights_flushed(self):
        # exp(-730) and exp(-710) are subnormal, exp(-630) is not
        c = np.array([0.0, 20.0, 100.0, 730.0])
        raw = self._unflushed(c, 1.0)
        tiny = np.finfo(float).tiny
        assert 0.0 < raw[0] < raw[1] < tiny < raw[2]
        w = sample_weights(c, params(1.0))
        assert w[0] == 0.0 and w[1] == 0.0
        assert np.array_equal(w[2:], raw[2:])

    def test_no_subnormal_entry_unchanged(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            c = rng.uniform(0, 6, size=rng.integers(1, 25))
            lam = float(10 ** rng.uniform(-3, 4))
            raw = self._unflushed(c, lam)
            if np.any((raw > 0.0) & (raw < np.finfo(float).tiny)):
                continue
            assert np.array_equal(sample_weights(c, params(lam)), raw)

    def test_simplex(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            c = rng.uniform(0, 6, size=rng.integers(1, 25))
            w = sample_weights(c, params(float(10 ** rng.uniform(-3, 4))))
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_matches_loss_derivative(self):
        # d(nrae)/d(c_i) is exactly the softmax weight of sample i
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(200):
            m = int(rng.integers(2, 20))
            c = rng.uniform(0.1, 3.0, size=m)
            pr = params(float(10 ** rng.uniform(-3, 1)), p=int(rng.integers(1, 3)))
            w = sample_weights(c, pr)
            fd = np.empty(m)
            for i in range(m):
                up, dn = c.copy(), c.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (nrae(up, pr) - nrae(dn, pr)) / (2 * h)
            assert np.abs(fd - w).max() <= 1e-6 * max(np.abs(w).max(), 1e-12)


class TestAnrat:
    @staticmethod
    def grad(losses, pr):
        return evaluate_criterion(losses, "anrat", pr).lambda_grad

    def test_zero_loss_zero_penalty(self):
        assert value([0.0, 0.0], "anrat", params(10.0, a=0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        v = value([0.0, LN2], "anrat", params(1.0, a=0.1, q=1))
        assert v == pytest.approx(math.log(1.5) + 0.1, abs=1e-12)

    def test_identical_losses_plus_penalty(self):
        v = value([2.5] * 4, "anrat", params(10.0, a=1.0, q=2))
        assert v == pytest.approx(2.5 + 0.01, abs=1e-12)

    def test_grad_identical_losses_penalty_only(self):
        g = self.grad([3.0] * 6, params(10.0, a=0.1, q=1))
        assert g == pytest.approx(-0.001, abs=1e-15)

    def test_grad_hand_value(self):
        g = self.grad([0.0, LN2], params(1.0, a=0.1, q=1))
        expected = (2.0 / 3.0) * LN2 - math.log(1.5) - 0.1
        assert g == pytest.approx(expected, abs=1e-12)
        assert g == pytest.approx(-0.043367, abs=1e-6)

    def test_grad_nonnegative_without_penalty(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            c = rng.uniform(0, 4, size=rng.integers(1, 30))
            g = self.grad(c, params(float(10 ** rng.uniform(-2, 2))))
            assert g >= -1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            c = rng.uniform(0, 4, size=rng.integers(2, 25))
            pr = params(
                float(10 ** rng.uniform(-3, 2)),
                p=int(rng.integers(1, 3)),
                a=float(rng.choice([0.0, 0.1, 1.0])),
                q=int(rng.integers(1, 3)),
            )
            exact = self.grad(c, pr)
            fd = fd_lambda_gradient(c, pr)
            scale = max(abs(exact), abs(fd), 1e-12)
            assert abs(exact - fd) / scale < 1e-6


class TestOrderingEquivalence:
    def test_rae_nrae_same_ordering(self):
        rng = np.random.default_rng(10)
        agree = 0
        total = 1000
        for _ in range(total):
            m = int(rng.integers(2, 20))
            c1 = rng.uniform(0, 3, size=m)
            c2 = rng.uniform(0, 3, size=m)
            lam = float(rng.uniform(0.5, EXP_CAP / 3.01))
            pr = params(lam)
            r1, r2 = value(c1, "rae", pr), value(c2, "rae", pr)
            n1, n2 = nrae(c1, pr), nrae(c2, pr)
            if (r1 < r2) == (n1 < n2):
                agree += 1
        assert agree == total


class TestLossReport:
    def test_weights_sum_and_bounds(self):
        rng = np.random.default_rng(11)
        for kind in ("nrae", "anrat"):
            for _ in range(100):
                c = rng.uniform(0, 4, size=rng.integers(1, 20))
                pr = params(float(10 ** rng.uniform(-2, 2)))
                rep = evaluate_criterion(c, kind, pr)
                assert abs(rep.sample_weights.sum() - 1.0) <= 1e-12
                assert np.all(rep.sample_weights >= 0)
                # with a = 0 the adaptive value is the log-domain criterion
                assert rep.ce_value - 1e-10 <= rep.criterion_value <= c.max() + 1e-10

    def test_ce_report(self):
        rep = evaluate_criterion([1.0, 3.0], "ce", params(1.0))
        assert rep.criterion_value == rep.ce_value == 2.0
        assert rep.sample_weights == pytest.approx([0.5, 0.5])
        assert rep.lambda_grad is None
        assert rep.max_loss == 3.0

    def test_anrat_report_has_lambda_grad(self):
        rep = evaluate_criterion([0.0, LN2], "anrat", params(1.0, a=0.1))
        assert rep.lambda_grad == pytest.approx((2.0 / 3.0) * LN2 - math.log(1.5) - 0.1, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            evaluate_criterion([1.0], "mse", params(1.0))

    def test_losses_checked_once(self, monkeypatch):
        calls = []
        check = criteria._check_losses

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)
        monkeypatch.setattr(criteria, "_check_losses", counting)
        for kind in ("ce", "rae", "nrae", "anrat"):
            calls.clear()
            evaluate_criterion([0.2, 1.0, 0.7], kind, params(3.0, a=0.1))
            assert len(calls) == 1, kind

    @pytest.mark.parametrize("lam,big", [(1e-3, False), (1.0, False), (100.0, True), (1000.0, True)])
    def test_reports_equal_public_functions(self, lam, big):
        # both branches of nrae and of the lam derivative: the tilt
        # s*(max(c) - mean(c)) below and above 50
        c = np.array([0.1, 0.5, 2.0, 0.3])
        pr = params(lam, p=1, a=0.1, q=2)
        assert (pr.scale * (c.max() - c.mean()) > 50.0) == big
        rep = evaluate_criterion(c, "nrae", pr)
        assert rep.criterion_value == nrae(c, pr)
        assert np.array_equal(rep.sample_weights, sample_weights(c, pr))
        rep = evaluate_criterion(c, "anrat", pr)
        assert rep.criterion_value == nrae(c, pr) + pr.a * pr.lam ** -pr.q
        assert np.array_equal(rep.sample_weights, sample_weights(c, pr))

    def test_rae_kind_inf_past_float_range(self):
        c = np.array([0.0, 10.0])
        pr = params(100.0)  # exp(1000) is past float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate_criterion(c, "rae", pr)
        assert rep.criterion_value == math.inf
        assert np.array_equal(rep.sample_weights, sample_weights(c, pr))


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp,
                    reason="the reference needs long double's exponent range")
class TestEveryLambda:
    """nrae, its weights, rae and the lam derivative where lam**p * c passes
    double range, against a long-double softmax (s*c fits up to ~1e4932)."""

    LD = np.longdouble
    LOG_DBL_MAX = math.log(np.finfo(float).max)

    @classmethod
    def _reference(cls, c, lam):
        # (nrae, weights, log rae) by the classic softmax: scaled, then shifted
        z = cls.LD(lam) * c.astype(cls.LD)
        e = np.exp(z - z.max())
        log_rae = z.max() + np.log(e.sum() / c.size)
        return log_rae / cls.LD(lam), e / e.sum(), log_rae

    @staticmethod
    def _cases():
        rng = np.random.default_rng(23)
        yield np.array([2.0, 2.1, 2.5]), 1e308
        for lam in (1e-3, 1.0, 100.0, 1e4, 1e100, 1e300, 1e308):
            yield rng.uniform(0, 6, size=7), lam
        for _ in range(400):
            c = rng.uniform(0, 6, size=rng.integers(1, 30))
            c[rng.random(c.size) < 0.2] = c.max()  # ties at the max
            yield c, float(10 ** rng.uniform(-3, 308))

    def test_against_long_double(self):
        for c, lam in self._cases():
            pr = params(lam, a=0.1)
            ref_value, ref_w, log_rae = self._reference(c, lam)
            with np.errstate(over="raise", invalid="raise"):
                v, w = nrae(c, pr), sample_weights(c, pr)
                reps = {k: evaluate_criterion(c, k, pr) for k in ("nrae", "anrat", "rae")}
            tol = 1e-15 * c.max()
            assert c.mean() - tol <= v <= c.max() + tol
            assert abs(v - float(ref_value)) <= 1e-13 * c.max()
            assert abs(w.sum() - 1.0) <= 1e-12
            normal = ref_w >= np.finfo(float).tiny
            assert np.all(w[~normal] == 0.0)
            assert np.all(np.abs(w[normal] - ref_w[normal]) <= 1e-12 * ref_w[normal])
            for rep in reps.values():
                assert np.array_equal(rep.sample_weights, w)
            assert reps["nrae"].criterion_value == v
            assert reps["anrat"].criterion_value == v + 0.1 * pr.lam_neg_q
            # (1/lam) * (sum_i w_i c_i - nrae) - 0.1/lam**2, whose gap is
            # read to the scale of the losses it cancels
            ref_gap = np.dot(ref_w, c.astype(self.LD)) - ref_value
            ref_grad = float(ref_gap / self.LD(lam) - self.LD(0.1) / self.LD(lam) ** 2)
            grad = reps["anrat"].lambda_grad
            assert abs(grad - ref_grad) <= 1e-12 * c.max() / lam + np.finfo(float).tiny
            rae = reps["rae"].criterion_value
            if log_rae < self.LOG_DBL_MAX - 1e-6:
                assert abs(rae - float(np.exp(log_rae))) <= 1e-12 * rae
            elif log_rae > self.LOG_DBL_MAX + 1e-6:
                assert rae == math.inf

    def test_stack_across_the_regime_boundary_matches_rows(self):
        pr = params(1e308)
        stack = np.array([[2.0, 2.1, 2.5], [0.0, 1e-307, 2e-307], [0.0, 6.0, 3.0],
                          [1.5, 1.5, 1.5], [0.0, 1e-306, 5e-306]])
        with np.errstate(over="ignore"):
            spread = pr.scale * (stack.max(axis=1) - stack.mean(axis=1))
        assert list(spread <= criteria.EXPM1_LIMIT) == [False, True, False, True, False]
        with np.errstate(over="raise", invalid="raise"):
            values = nrae(stack, pr)
            rows = [nrae(row, pr) for row in stack]
        for value, row, c in zip(values, rows, stack):
            assert value.tobytes() == np.float64(row).tobytes()
            assert c.mean() <= row <= c.max()


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CriterionParams(lam=0.0)
        with pytest.raises(ValueError):
            CriterionParams(lam=1.0, p=0)
        with pytest.raises(ValueError):
            CriterionParams(lam=1.0, q=0)
        with pytest.raises(ValueError):
            CriterionParams(lam=1.0, a=-0.5)

    # lam**p overflows; lam**p underflows to 0 or to a subnormal; lam**(-q-1) overflows
    OUT_OF_RANGE = [(1e200, 2, 1), (1e154, 3, 1), (1e-200, 2, 1), (1e-160, 2, 1), (1e-200, 1, 1),
                    (7.4e-155, 1, 1), (1e-110, 1, 2)]

    @pytest.mark.parametrize("lam, p, q", OUT_OF_RANGE)
    def test_powers_out_of_double_range_refused(self, lam, p, q):
        with pytest.raises(NumericDomainError, match=re.escape(f"lam={lam} (p={p}, q={q})")):
            CriterionParams(lam=lam, p=p, q=q)

    @pytest.mark.parametrize("lam, p, q", [(7.6e-155, 1, 1), (1e154, 2, 1), (2e-103, 1, 2), (1.5e-154, 2, 1)])
    def test_powers_at_the_edge_of_range_accepted(self, lam, p, q):
        pr = CriterionParams(lam=lam, p=p, q=q)
        assert np.isfinite(pr.scale) and pr.scale >= np.finfo(float).tiny and np.isfinite(pr.lam_neg_q1)

    def test_powers_equal_the_inline_expressions_bit_for_bit(self):
        # the expressions evaluate_criterion, its lam derivative and scheduled_update
        # used before the powers were stored
        c = np.array([0.3, 1.7, 0.05, 2.2])
        for lam in (1e-3, 0.037, 0.5, 1.0, 3.3, 10.0, 123.456, 1e5, 7.6e-155 * 3):
            for p in (1, 2, 3):
                for q in (1, 2, 3):
                    try:
                        pr = CriterionParams(lam=lam, p=p, a=0.1, q=q)
                    except NumericDomainError:
                        continue
                    assert pr.scale.hex() == (float(lam) ** int(p)).hex()
                    assert pr.lam_neg_q.hex() == (float(lam) ** (-q)).hex()
                    assert pr.lam_neg_q1.hex() == (float(lam) ** (-q - 1)).hex()
                    rep = evaluate_criterion(c, "anrat", pr)
                    assert rep.criterion_value == nrae(c, pr) + 0.1 * float(lam) ** (-q)

    def test_replace_recomputes_powers(self):
        pr = replace(CriterionParams(lam=2.0, p=3, a=0.1, q=2), lam=5.0)
        assert (pr.scale, pr.lam_neg_q, pr.lam_neg_q1) == (5.0 ** 3, 5.0 ** -2, 5.0 ** -3)
        assert replace(pr, p=1).scale == 5.0
        with pytest.raises(NumericDomainError):
            replace(pr, lam=1e200)

    BAD_LOSSES = [
        # (losses, exception, message): non-finite is named before negative
        ([0.5, np.nan], NumericDomainError, "losses contain non-finite entries"),
        ([0.5, -np.inf], NumericDomainError, "losses contain non-finite entries"),
        ([np.inf, 0.0], NumericDomainError, "losses contain non-finite entries"),
        ([np.nan, -1.0], NumericDomainError, "losses contain non-finite entries"),
        ([0.5, -1.0], ValueError, "per-sample losses must be nonnegative"),
        ([[0.1, 0.2], [-0.5, 0.1], [0.3, np.nan]], NumericDomainError,
         "losses contain non-finite entries (rows [2])"),
        ([[-0.5, 0.1], [0.1, 0.2], [0.3, -0.1], [-np.inf, 1.0]], NumericDomainError,
         "losses contain non-finite entries (rows [3])"),
        ([[-0.5, 0.1], [0.1, 0.2], [0.3, -0.1]], ValueError, "per-sample losses must be nonnegative (rows [0, 2])"),
    ]

    @pytest.mark.parametrize("losses,exc,message", BAD_LOSSES)
    def test_bad_losses_named_under_raising_errstate(self, losses, exc, message):
        # every criterion kind takes one loss vector; nrae takes a stack too
        kinds = [lambda c, pr, k=k: evaluate_criterion(c, k, pr) for k in ("ce", "rae", "nrae", "anrat")]
        fns = [nrae] if np.ndim(losses) == 2 else [nrae, sample_weights] + kinds
        for fn in fns:
            with np.errstate(all="raise"), pytest.raises(exc) as info:
                fn(np.array(losses), params(2.0))
            assert type(info.value) is exc and str(info.value) == message

    def test_negative_zero_loss_accepted(self):
        with np.errstate(all="raise"):
            assert nrae([-0.0, 1.0], params(1.0)) == nrae([0.0, 1.0], params(1.0))

    def test_rejects_bad_losses(self):
        with pytest.raises(ValueError):
            nrae([], params(1.0))
        with pytest.raises(ValueError):
            nrae([-1.0], params(1.0))
        with pytest.raises(NumericDomainError):
            nrae([float("inf")], params(1.0))
