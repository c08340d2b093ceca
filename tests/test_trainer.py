import math
from dataclasses import replace

import numpy as np
import pytest

import convexlab.trainer as trainer
from convexlab.criteria import EXP_CAP, CriterionParams, NumericDomainError, sample_weights
from convexlab.data import SampleBatch, synthetic_blobs, synthetic_regression
from convexlab.network import MAX_CLAMPED_LOSS, batch_losses, forward, init_model, weighted_backward
from convexlab.seeds import rng_for
from convexlab.trainer import (
    LAMBDA_MIN,
    DivergedError,
    NoViableModelError,
    TrainConfig,
    anrat_lambda_step,
    detect_stagnancy,
    evaluate,
    grid_configs,
    grid_search,
    scheduled_update,
    sgd_step,
    train,
    write_grid_csv,
    write_metrics_csv,
)

BLOBS_NET = (16, 32, 10)


def blobs_splits(noise_sd=0.9, seed=0, n=2600):
    full = synthetic_blobs(n, num_classes=10, dim=16, seed=seed, noise_sd=noise_sd)
    cut1, cut2 = int(n * 0.7), int(n * 0.85)
    return full.take(range(cut1)), full.take(range(cut1, cut2)), full.take(range(cut2, n))


def small_batch(seed=0, m=8):
    rng = np.random.default_rng(seed)
    model = init_model([3, 6, 4], "tanh", "softmax-ce", seed=seed)
    batch = SampleBatch(rng.normal(size=(m, 3)), rng.integers(0, 4, size=m))
    return model, batch


class TestSgdStep:
    def test_zero_gradient_leaves_model_unchanged(self):
        model = init_model([2, 1], "tanh", "identity-squared", seed=0)
        model.weights[0][:] = 0.0
        batch = SampleBatch(np.ones((4, 2)), np.zeros(4))
        updated, report = sgd_step(model, batch, "ce", CriterionParams(1.0), 0.5)
        assert np.array_equal(updated.theta, model.theta)
        assert report.criterion_value == 0.0

    def test_zero_learning_rate_reports_losses(self):
        model, batch = small_batch()
        updated, report = sgd_step(model, batch, "ce", CriterionParams(1.0), 0.0)
        assert np.array_equal(updated.theta, model.theta)
        assert report.ce_value > 0

    def test_ce_equals_small_lambda_nrae(self):
        # lam -> 0 limit: at lam = LAMBDA_MIN, p = 3 the exponential tilt
        # is 1e-9, so the two updates agree well within 1e-6 relative
        model, batch = small_batch(seed=3)
        lr = 0.3
        up_ce, _ = sgd_step(model, batch, "ce", CriterionParams(1.0), lr)
        up_nrae, _ = sgd_step(model, batch, "nrae", CriterionParams(LAMBDA_MIN, p=3), lr)
        delta_ce = up_ce.theta - model.theta
        delta_nrae = up_nrae.theta - model.theta
        scale = np.abs(delta_ce).max()
        assert np.abs(delta_ce - delta_nrae).max() <= 1e-6 * scale

    def test_rae_step_matches_nrae_direction_and_scale(self):
        # the raw-criterion learning-rate rescale makes the applied update
        # identical to the log-domain one
        model, batch = small_batch(seed=4)
        params = CriterionParams(2.0)
        up_rae, rep = sgd_step(model, batch, "rae", params, 0.2)
        up_nrae, _ = sgd_step(model, batch, "nrae", params, 0.2)
        assert np.array_equal(up_rae.theta, up_nrae.theta)
        assert rep.criterion_value >= 1.0  # raw criterion value, not the log

    def test_rae_nrae_gradient_cosine_identity(self):
        # grad(RAE) = lam**p * RAE * grad(NRAE): cosine similarity exactly 1
        model, batch = small_batch(seed=5)
        cache = forward(model, batch.inputs)
        losses = batch_losses(cache.outputs, batch.targets, model.output_mode)
        s = 400.0 / losses.max()
        params = CriterionParams(lam=s)
        g_nrae = weighted_backward(model, batch, sample_weights(losses, params))
        raw = (s / batch.size) * np.exp(s * losses)
        assert np.all(np.isfinite(raw))
        g_rae = weighted_backward(model, batch, raw)
        u = g_rae / np.abs(g_rae).max()
        v = g_nrae / np.abs(g_nrae).max()
        cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert abs(cos - 1.0) <= 1e-9


def anrat_update(model, lam, batch, params, learning_rate, lambda_lr):
    """The anrat update of `train`: the weight step and the lam step, both
    from the gradients at the pre-update point."""
    new_model, report = sgd_step(model, batch, "anrat", replace(params, lam=lam), learning_rate)
    return new_model, anrat_lambda_step(lam, report.lambda_grad, lambda_lr), report


class TestAnratStep:
    def test_equal_losses_penalty_drives_lambda_up(self):
        model = init_model([2, 1], "tanh", "identity-squared", seed=0)
        model.weights[0][:] = 0.0
        batch = SampleBatch(np.ones((4, 2)), np.full(4, 0.5))  # identical losses
        params = CriterionParams(lam=10.0, a=0.5, q=1)
        _, new_lam, report = anrat_update(model, 10.0, batch, params, 0.1, 1.0)
        assert new_lam > 10.0
        assert report.lambda_grad < 0

    def test_no_penalty_lambda_never_increases(self):
        model, batch = small_batch(seed=6)
        params = CriterionParams(lam=5.0, a=0.0)
        _, new_lam, _ = anrat_update(model, 5.0, batch, params, 0.1, 0.5)
        assert new_lam <= 5.0

    def test_clamped_at_floor(self):
        model, batch = small_batch(seed=7)
        params = CriterionParams(lam=LAMBDA_MIN, a=0.0)
        _, new_lam, _ = anrat_update(model, LAMBDA_MIN, batch, params, 0.1, 100.0)
        assert new_lam == LAMBDA_MIN

    def test_step_never_more_than_doubles_or_halves(self):
        # at the penalty barrier the raw gradient is ~ -a*q*lam**(-q-1);
        # the trust clamp stops one step from catapulting lam upward
        model = init_model([2, 1], "tanh", "identity-squared", seed=0)
        model.weights[0][:] = 0.0
        batch = SampleBatch(np.ones((4, 2)), np.zeros(4))
        params = CriterionParams(lam=LAMBDA_MIN, a=1.0, q=2)
        _, new_lam, report = anrat_update(model, LAMBDA_MIN, batch, params, 0.1, 1.0)
        assert report.lambda_grad < -1e6
        assert new_lam == pytest.approx(2 * LAMBDA_MIN)

    def test_lambda_step_clamps(self):
        assert anrat_lambda_step(1.0, 0.1, 1.0) == pytest.approx(0.9)
        assert anrat_lambda_step(1.0, 10.0, 1.0) == 0.5  # at most halved
        assert anrat_lambda_step(1.0, -10.0, 1.0) == 2.0  # at most doubled
        assert anrat_lambda_step(LAMBDA_MIN, 1.0, 1.0) == LAMBDA_MIN  # floored

    @pytest.mark.parametrize("grad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_gradient_refused(self, grad):
        with pytest.raises(NumericDomainError, match=rf"lam gradient {grad}"):
            anrat_lambda_step(1.0, grad, 1.0)

    def test_non_finite_lambda_gradient_is_divergence(self, monkeypatch):
        real = trainer.evaluate_criterion

        def nan_grad(losses, kind, params):
            return replace(real(losses, kind, params), lambda_grad=float("nan"))

        monkeypatch.setattr(trainer, "evaluate_criterion", nan_grad)
        full = synthetic_regression("sine", 40, 0.0, seed=0)
        cfg = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=1, batch_size=10,
                          layer_dims=(1, 4, 1), seed=0)
        with pytest.raises(DivergedError, match="lam gradient nan") as exc:
            train(cfg, full, full)
        assert (exc.value.epoch, exc.value.batch_index) == (0, 0)

    def test_lambda_past_double_range_is_divergence(self, monkeypatch):
        # lam**2 of 1e200 overflows: CriterionParams refuses it at the next batch
        monkeypatch.setattr(trainer, "anrat_lambda_step", lambda lam, grad, lr: 1e200)
        full = synthetic_regression("sine", 40, 0.0, seed=0)
        cfg = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=1, batch_size=10,
                          layer_dims=(1, 4, 1), p=2, seed=0)
        with pytest.raises(DivergedError, match=r"lam=1e\+200 \(p=2, q=1\)") as exc:
            train(cfg, full, full)
        assert (exc.value.epoch, exc.value.batch_index) == (0, 1)

    def test_update_sign_matches_gradient(self):
        model, batch = small_batch(seed=8)
        lam = 3.0
        for _ in range(20):
            params = CriterionParams(lam=lam, a=0.1)
            model, new_lam, report = anrat_update(model, lam, batch, params, 0.1, 0.05)
            moved = new_lam - lam
            if new_lam > LAMBDA_MIN:
                assert moved == pytest.approx(-0.05 * report.lambda_grad, rel=1e-12)
            lam = new_lam


class TestScheduledUpdate:
    def test_decay_without_switch(self):
        lam, switched = scheduled_update(100.0, False, max_loss=28.0, rho=0.8)
        assert lam == pytest.approx(80.0)
        assert not switched  # 80 * 28 = 2240 > 500

    def test_switch_when_under_cap(self):
        lam, switched = scheduled_update(100.0, False, max_loss=5.0, rho=0.8)
        assert lam == pytest.approx(80.0)
        assert switched  # 80 * 5 = 400 <= 500

    def test_frozen_after_switch(self):
        lam, switched = scheduled_update(7.3, True, max_loss=1e9, rho=0.8)
        assert lam == 7.3 and switched

    def test_floor_at_one(self):
        lam, _ = scheduled_update(1.1, False, max_loss=1e9, rho=0.5)
        assert lam == 1.0

    @staticmethod
    def _inline_rule(lam, switched, max_loss, rho, p=1):
        # the rule as it was written before CriterionParams owned lam**p
        if switched:
            return lam, True
        lam = max(lam * rho, 1.0)
        return lam, lam**p * max_loss <= EXP_CAP

    def test_equals_the_inline_rule_and_refuses_past_double_range(self):
        for lam in (1.0, 1.3, 7.3, 31.25, 100.0, 625.0, 1e4, 1e6):
            for max_loss in (0.0, 0.8, 5.0, 20.0, MAX_CLAMPED_LOSS, 1e3):
                for rho in (0.5, 0.8, 0.99):
                    for p in (1, 2, 3):
                        for switched in (False, True):
                            args = (lam, switched, max_loss, rho, p)
                            assert scheduled_update(*args) == self._inline_rule(*args)
        with pytest.raises(NumericDomainError, match="p=2"):
            scheduled_update(1e200, False, 1.0, 0.9, p=2)


class TestCriterionKinds:
    """The criterion kind `train` hands to evaluate_criterion, batch by batch."""

    def kinds_per_epoch(self, monkeypatch, cfg):
        tr, va, _ = blobs_splits(n=400)
        kinds = []
        real = trainer.evaluate_criterion

        def recording(losses, kind, params):
            kinds.append(kind)
            return real(losses, kind, params)

        monkeypatch.setattr(trainer, "evaluate_criterion", recording)
        report = train(cfg, tr, va)
        per_epoch = -(-tr.size // cfg.batch_size)
        assert len(kinds) == cfg.epochs * per_epoch
        return [kinds[i:i + per_epoch] for i in range(0, len(kinds), per_epoch)], report

    @pytest.mark.parametrize("strategy, kind", [("ce", "ce"), ("nrae-fixed", "nrae"), ("anrat", "anrat")])
    def test_fixed_kind_every_batch(self, monkeypatch, strategy, kind):
        cfg = TrainConfig(strategy=strategy, learning_rate=0.1, epochs=2, batch_size=40,
                          layer_dims=BLOBS_NET, seed=0)
        epochs, _ = self.kinds_per_epoch(monkeypatch, cfg)
        assert all(k == kind for ep in epochs for k in ep)

    def test_scheduled_turns_rae_after_switch_epoch(self, monkeypatch):
        # 12.5 * MAX_CLAMPED_LOSS fits under EXP_CAP: the switch comes at the
        # end of epoch 0, and the raw criterion runs from epoch 1 on
        cfg = TrainConfig(strategy="scheduled", learning_rate=0.1, epochs=3, batch_size=40,
                          layer_dims=BLOBS_NET, lambda0=25.0, rho=0.5, seed=0)
        epochs, report = self.kinds_per_epoch(monkeypatch, cfg)
        assert [r.switched_to_rae for r in report.records] == [True] * 3
        assert epochs[0] == ["nrae"] * len(epochs[0])
        assert all(k == "rae" for ep in epochs[1:] for k in ep)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, -2**40])
    def test_negative_seed_refused_by_name(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {seed}$"):
            rng_for(seed, "init")


class TestDetectStagnancy:
    def test_flat_validation_is_stagnant(self):
        assert detect_stagnancy([1.0] * 5)

    def test_halving_is_not(self):
        vals = [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert not detect_stagnancy(vals)

    def test_insufficient_evidence(self):
        assert not detect_stagnancy([1.0, 1.0])

    def test_worsening_counts_as_stagnant(self):
        assert detect_stagnancy([1.0, 1.1, 1.2, 1.3, 1.4])


class TestEvaluate:
    def test_perfect_predictions(self):
        model = init_model([2, 1], "tanh", "identity-squared", seed=0)
        model.weights[0][:] = 0.0
        ds = SampleBatch(np.ones((5, 2)), np.zeros(5))
        ce, err = evaluate(model, ds)
        assert ce == 0.0 and err == 0.0

    def test_uniform_output_argmax_error(self):
        # zero weights -> uniform softmax -> argmax ties break to class 0
        model = init_model([4, 10], "tanh", "softmax-ce", seed=0)
        model.weights[0][:] = 0.0
        rng = np.random.default_rng(10)
        y = rng.integers(0, 10, size=2000)
        ds = SampleBatch(rng.normal(size=(2000, 4)), y)
        ce, err = evaluate(model, ds)
        assert err == pytest.approx(float(np.mean(y != 0)))
        assert abs(err - 0.9) < 0.05
        assert ce == pytest.approx(math.log(10.0), abs=1e-9)

    def test_data_of_another_kind_refused(self):
        # a regression model on class labels, and a classifier on real
        # targets or on labels past its output layer
        labels = SampleBatch(np.ones((4, 1)), np.array([0, 1, 1, 0]))
        reals = SampleBatch(np.ones((4, 1)), np.array([0.5, 1.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="imply output mode sigmoid-binary-ce"):
            evaluate(init_model([1, 8, 1], "tanh", "identity-squared", seed=0), labels)
        with pytest.raises(ValueError, match="imply output mode identity-squared"):
            evaluate(init_model([1, 1], "tanh", "sigmoid-binary-ce", seed=0), reals)
        with pytest.raises(ValueError, match=r"labels in \[0, 2\)"):
            evaluate(init_model([1, 2], "tanh", "softmax-ce", seed=0),
                     SampleBatch(np.ones((2, 1)), np.array([0, 2])))


class TestTrainLoop:
    def test_reproducible_bit_identical(self):
        tr, va, _ = blobs_splits(n=600)
        cfg = TrainConfig(strategy="anrat", learning_rate=0.3, epochs=3, batch_size=50,
                          layer_dims=BLOBS_NET, lambda0=10.0, a=0.1, seed=5)
        r1 = train(cfg, tr, va)
        r2 = train(cfg, tr, va)
        assert np.array_equal(r1.final_model.theta, r2.final_model.theta)
        for a, b in zip(r1.records, r2.records):
            # wall_ms is measurement metadata; everything else is exact
            assert (a.epoch, a.train_criterion, a.train_ce, a.val_ce,
                    a.val_error, a.lam, a.switched_to_rae) == \
                   (b.epoch, b.train_criterion, b.train_ce, b.val_ce,
                    b.val_error, b.lam, b.switched_to_rae)
        assert r1.best_epoch == r2.best_epoch

    def test_best_epoch_is_argmin(self):
        tr, va, _ = blobs_splits(n=600)
        cfg = TrainConfig(strategy="ce", learning_rate=0.3, epochs=4, batch_size=50,
                          layer_dims=BLOBS_NET, seed=2)
        rep = train(cfg, tr, va)
        vals = [r.val_ce for r in rep.records]
        assert vals[rep.best_epoch] == min(vals)
        assert all(0.0 <= r.val_error <= 1.0 for r in rep.records)

    def test_anrat_matches_ce_at_floor_lambda(self):
        # lam pinned at the floor by the a=0 gradient sign, p=2: trajectory
        # within 1e-5 of the plain baseline after an epoch
        tr, va, _ = blobs_splits(n=400)
        base = dict(learning_rate=0.2, epochs=1, batch_size=40, layer_dims=BLOBS_NET, seed=3)
        ce_rep = train(TrainConfig(strategy="ce", **base), tr, va)
        an_rep = train(TrainConfig(strategy="anrat", lambda0=LAMBDA_MIN, p=2, a=0.0, **base), tr, va)
        w_ce = ce_rep.final_model.theta
        w_an = an_rep.final_model.theta
        assert an_rep.final_lambda == LAMBDA_MIN
        assert np.abs(w_ce - w_an).max() <= 1e-5 * max(1.0, np.abs(w_ce).max())

    def test_divergence_detected(self):
        full = synthetic_regression("sine", 300, 0.0, seed=0)
        tr, va = full.take(range(200)), full.take(range(200, 300))
        cfg = TrainConfig(strategy="ce", learning_rate=1e6, epochs=6, batch_size=10,
                          layer_dims=(1, 8, 1), seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergedError) as exc:
            train(cfg, tr, va)
        assert exc.value.epoch >= 0
        assert exc.value.batch_index >= -1

    def test_raw_phase_overflow_is_divergence(self):
        # one sample, full-batch steps far past the stable step size: the
        # loss at the switch fits under EXP_CAP at lam = 5, the next epoch's
        # (19**2 times larger) puts the raw criterion past float range
        one = SampleBatch(np.ones((1, 1)), np.full(1, 3.0))
        cfg = TrainConfig(strategy="scheduled", learning_rate=5.0, epochs=3, batch_size=1,
                          layer_dims=(1, 1), lambda0=10.0, rho=0.5, seed=0)
        with pytest.raises(DivergedError, match="criterion value inf") as exc:
            train(cfg, one, one)
        assert (exc.value.epoch, exc.value.batch_index) == (1, 0)

    def test_evaluation_overflow_is_divergence(self):
        # the weights blow up during epoch 3 and the hold-out evaluation's
        # squared error overflows: that is DivergedError, not a RuntimeWarning
        # (which the test filter would raise in its place)
        full = synthetic_regression("sine", 200, 0.0, seed=0)
        full = SampleBatch(full.inputs, 0.2 * full.targets)
        cfg = TrainConfig(strategy="scheduled", learning_rate=5.0, epochs=6, batch_size=10,
                          layer_dims=(1, 8, 1), lambda0=100.0, rho=0.5, p=2, seed=0)
        with pytest.raises(DivergedError, match="overflow") as exc:
            train(cfg, full, full)
        assert (exc.value.epoch, exc.value.batch_index) == (3, -1)

    def test_non_finite_validation_loss_is_divergence(self, monkeypatch):
        monkeypatch.setattr(trainer, "evaluate", lambda model, data: (float("nan"), 0.5))
        full = synthetic_regression("sine", 40, 0.0, seed=0)
        cfg = TrainConfig(strategy="ce", learning_rate=0.1, epochs=2, batch_size=10,
                          layer_dims=(1, 4, 1), seed=0)
        with pytest.raises(DivergedError) as exc:
            train(cfg, full, full)
        assert str(exc.value) == "diverged at epoch 0, batch -1: non-finite validation loss"
        assert (exc.value.epoch, exc.value.batch_index) == (0, -1)

    @pytest.mark.parametrize("targets, out_dim, mode", [
        (lambda x: (x > 0).astype(int), 1, "sigmoid-binary-ce"),
        (lambda x: (x > 0).astype(int), 2, "softmax-ce"),
        (lambda x: np.sin(x), 1, "identity-squared"),
    ], ids=["binary", "softmax", "regression"])
    def test_mode_follows_training_targets(self, targets, out_dim, mode):
        x = np.linspace(-1.0, 1.0, 20)[:, None]
        ds = SampleBatch(x, targets(x[:, 0]))
        cfg = TrainConfig(strategy="ce", learning_rate=0.1, epochs=1, batch_size=10,
                          layer_dims=(1, 4, out_dim), seed=0)
        assert train(cfg, ds, ds).best_model.output_mode == mode

    def test_val_set_of_another_kind_refused_before_first_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *a: steps.append(a))
        full = synthetic_regression("sine", 40, 0.0, seed=0)
        labels = SampleBatch(full.inputs, (full.targets > 0).astype(int))
        cfg = TrainConfig(strategy="ce", learning_rate=0.1, epochs=1, batch_size=10,
                          layer_dims=(1, 4, 1), seed=0)
        with pytest.raises(ValueError, match="imply output mode sigmoid-binary-ce"):
            train(cfg, full, labels)
        with pytest.raises(ValueError, match=r"need labels in \[0, 2\), got labels in \[0, 3\]"):
            train(cfg, SampleBatch(full.inputs, np.arange(40) % 4), labels)
        assert steps == []

    def test_val_set_of_another_width_refused_before_first_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *a: steps.append(a))
        rng = np.random.default_rng(0)
        cfg = TrainConfig(strategy="ce", learning_rate=0.1, epochs=1, batch_size=10,
                          layer_dims=(16, 4, 1), seed=0)
        wide = SampleBatch(rng.normal(size=(100, 16)), rng.normal(size=100))
        narrow = SampleBatch(rng.normal(size=(20, 8)), rng.normal(size=20))
        with pytest.raises(ValueError, match="the inputs have 8 features, but the model takes 16"):
            train(cfg, wide, narrow)
        assert steps == []

    def test_config_validation(self):
        good = dict(learning_rate=0.1, epochs=1, batch_size=10, layer_dims=(4, 2))
        # a config validates itself when built, and on request
        with pytest.raises(ValueError):
            TrainConfig(strategy="sgd", **good)
        # rho has its default for every strategy, and one rule
        assert TrainConfig(strategy="scheduled", **good).rho == 0.8
        with pytest.raises(ValueError, match="rho must be in"):
            TrainConfig(strategy="ce", rho=1.0, **good)
        cfg = TrainConfig(strategy="anrat", **good)
        assert cfg.validate() is cfg
        assert cfg.effective_lambda_lr == pytest.approx(0.1)
        assert TrainConfig(strategy="anrat", lambda_lr=0.02, **good).effective_lambda_lr == 0.02

    @pytest.mark.parametrize("strategy, field, value", [
        ("ce", "p", 0), ("anrat", "p", 2.5), ("anrat", "a", -1.0), ("anrat", "a", np.nan),
        ("anrat", "q", 0), ("ce", "lambda0", np.inf), ("ce", "lambda0", np.nan),
        ("scheduled", "lambda0", 0.5), ("anrat", "lambda0", LAMBDA_MIN / 10),
        ("ce", "epochs", 2.5), ("ce", "epochs", 2.0), ("ce", "batch_size", 7.5), ("ce", "seed", 1.5),
        ("ce", "seed", -1), ("anrat", "seed", -7),
    ])
    def test_criterion_values_refused(self, strategy, field, value):
        good = dict(learning_rate=0.1, epochs=1, batch_size=10, layer_dims=(4, 2))
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            TrainConfig(strategy=strategy, **{**good, field: value})

    @pytest.mark.parametrize("field, value, named", [
        ("layer_dims", (1, 0, 1), "layer sizes must be >= 1"),
        ("layer_dims", (4,), "needs at least input and output sizes"),
        ("activation", "swish", "activation must be one of"),
    ], ids=["zero-width", "one-layer", "activation"])
    def test_net_refused_by_the_model_rules(self, field, value, named):
        good = dict(learning_rate=0.1, epochs=1, batch_size=10, layer_dims=(4, 2))
        with pytest.raises(ValueError, match=named):
            TrainConfig(strategy="ce", **{**good, field: value})

    def test_penalty_checked_for_every_strategy(self):
        # a and q, like rho and lambda_lr, have one rule whether or not the
        # strategy reads them
        good = dict(learning_rate=0.1, epochs=1, batch_size=10, layer_dims=(4, 2))
        bad = [("a", -1.0), ("a", np.nan), ("q", 0), ("rho", 0.0), ("rho", 1.0), ("rho", np.nan),
               ("lambda_lr", 0.0), ("lambda_lr", np.inf)]
        for strategy in trainer.STRATEGIES:
            for field, value in bad:
                with pytest.raises(ValueError, match=rf"^{field} must be"):
                    TrainConfig(strategy=strategy, **good, **{field: value})
            cfg = TrainConfig(strategy=strategy, a=0.5, q=2, rho=0.5, lambda_lr=0.02, **good)
            assert (cfg.a, cfg.q, cfg.rho, cfg.effective_lambda_lr) == (0.5, 2, 0.5, 0.02)

    def test_nrae_fixed_trains_at_lambda0_as_given(self):
        # no lam floor for a strategy that keeps lam fixed
        full = synthetic_regression("sine", 40, 0.0, seed=0)
        tr, va = full.take(range(30)), full.take(range(30, 40))
        cfg = TrainConfig(strategy="nrae-fixed", learning_rate=0.1, epochs=2, batch_size=10,
                          layer_dims=(1, 4, 1), lambda0=1e-4, seed=0)
        rep = train(cfg, tr, va)
        assert [r.lam for r in rep.records] == [1e-4, 1e-4]
        assert rep.final_lambda == 1e-4

    @pytest.mark.parametrize("source", trainer.STRATEGIES)
    def test_replace_strategy_builds_for_every_pair(self, source):
        # one base config serves every strategy of a comparison study
        base = TrainConfig(strategy=source, learning_rate=0.1, epochs=1, batch_size=10,
                           layer_dims=(4, 2), lambda0=100.0, lambda_lr=0.05)
        for target in trainer.STRATEGIES:
            cfg = replace(base, strategy=target)
            assert (cfg.strategy, cfg.rho, cfg.lambda_lr) == (target, 0.8, 0.05)

    # the records of a 2-epoch sine run of each strategy, pinned bit for bit:
    # which settings a strategy reads changes no step of the others
    # (train_criterion, train_ce, val_ce, val_error, lam, switched_to_rae)
    PINNED_RECORDS = {
        "ce": [(0.1690470661814139, 0.1690470661814139, 0.15063082449978532,
                0.15063082449978532, 10.0, False),
               (0.1724352151010617, 0.1724352151010617, 0.10875528889546553,
                0.10875528889546553, 10.0, False)],
        # the tilt's max-shifted exponent moved these by at most 6.3e-15
        # relative (scheduled's raw rae value); ce's bits did not move
        "nrae-fixed": [(1.5634645780479435, 0.7597336153363207, 0.3547265192037847,
                        0.3547265192037847, 10.0, False),
                       (0.27505134623534067, 0.1718400331489413, 0.10710462349915814,
                        0.10710462349915814, 10.0, False)],
        "scheduled": [(1.752309794740325, 0.8276378953145016, 0.5493932649124846,
                       0.5493932649124846, 80.0, True),
                      (6.699868194745205e+44, 0.2706944188193418, 0.2601658012771137,
                       0.2601658012771137, 80.0, True)],
        "anrat": [(1.573429757494186, 0.7597330970985687, 0.3547217853675458,
                   0.3547217853675458, 9.993789833631828, False),
                  (0.28494471801122445, 0.17181012580364313, 0.10705369636994082,
                   0.10705369636994082, 9.990734052708579, False)],
    }

    @pytest.mark.parametrize("strategy", trainer.STRATEGIES)
    def test_records_unchanged(self, strategy):
        full = synthetic_regression("sine", 60, 0.0, seed=0)
        tr, va = full.take(range(40)), full.take(range(40, 60))
        cfg = TrainConfig(strategy=strategy, learning_rate=0.1, epochs=2, batch_size=10,
                          layer_dims=(1, 6, 1), seed=0,
                          lambda0=100.0 if strategy == "scheduled" else 10.0)
        rep = train(cfg, tr, va)
        got = [(r.train_criterion, r.train_ce, r.val_ce, r.val_error, r.lam, r.switched_to_rae)
               for r in rep.records]
        assert got == self.PINNED_RECORDS[strategy]

    @pytest.mark.parametrize("strategy", ["nrae-fixed", "anrat", "scheduled"])
    def test_lambda_past_double_range_in_the_exponent_trains(self, strategy):
        # lam**p * c is far past double range, but the tilt, its weights and
        # lam derivative are finite: no divergence at the first batch
        full = synthetic_blobs(120, num_classes=10, dim=4, seed=0)
        tr, va = full.take(range(80)), full.take(range(80, 120))
        cfg = TrainConfig(strategy=strategy, learning_rate=0.1, epochs=2, batch_size=20,
                          layer_dims=(4, 8, 10), lambda0=1e308)
        rep = train(cfg, tr, va)
        assert len(rep.records) == 2 and np.isfinite(rep.final_lambda)
        for r in rep.records:
            assert all(np.isfinite(v) for v in (r.train_criterion, r.train_ce, r.val_ce, r.lam))
            assert r.train_ce <= r.train_criterion


class TestIntegrationSurrogate:
    """Desk-scale behavior on a synthetic 10-class task (stands in for the
    MNIST protocol when the official files are unreachable)."""

    def test_ce_baseline_learns(self):
        tr, va, te = blobs_splits()
        cfg = TrainConfig(strategy="ce", learning_rate=0.3, epochs=10, batch_size=50,
                          layer_dims=BLOBS_NET, seed=1)
        rep = train(cfg, tr, va)
        _, err = evaluate(rep.best_model, te)
        assert err <= 0.15

    def test_huge_lambda_stagnates_while_ce_improves(self):
        # noise-free sine regression: at lam = 1000 every update chases the
        # single worst residual and validation loss bounces without
        # sustained progress; the baseline descends smoothly
        full = synthetic_regression("sine", 500, 0.0, seed=2)
        tr, va = full.take(range(350)), full.take(range(350, 500))
        base = dict(learning_rate=0.05, epochs=10, batch_size=25,
                    layer_dims=(1, 16, 1), seed=1)
        ce_rep = train(TrainConfig(strategy="ce", **base), tr, va)
        nrae_rep = train(TrainConfig(strategy="nrae-fixed", lambda0=1000.0, **base), tr, va)
        assert nrae_rep.stagnant
        assert not ce_rep.stagnant
        assert all(r.lam == 1000.0 for r in nrae_rep.records)
        ce_vals = [r.val_ce for r in ce_rep.records]
        assert (ce_vals[0] - ce_vals[-1]) / ce_vals[0] >= 0.25

    def test_scheduled_switches_and_stays_finite(self):
        # nearly separable task: post-switch losses keep falling, so the
        # raw criterion stays representable once feasible
        tr, va, _ = blobs_splits(noise_sd=0.55)
        cfg = TrainConfig(strategy="scheduled", learning_rate=0.3, epochs=12, batch_size=50,
                          layer_dims=BLOBS_NET, lambda0=100.0, rho=0.8, seed=1)
        rep = train(cfg, tr, va)
        switch_epochs = [r.epoch for r in rep.records if r.switched_to_rae]
        assert switch_epochs, "never switched to the raw criterion"
        first = switch_epochs[0]
        lam_at_switch = rep.records[first].lam
        assert all(r.lam == lam_at_switch for r in rep.records[first:])
        assert all(np.isfinite(r.train_criterion) for r in rep.records)

    def test_anrat_trajectory_sane(self):
        tr, va, _ = blobs_splits()
        cfg = TrainConfig(strategy="anrat", learning_rate=0.3, epochs=8, batch_size=50,
                          layer_dims=BLOBS_NET, lambda0=10.0, a=0.1, seed=1)
        rep = train(cfg, tr, va)
        lams = [r.lam for r in rep.records]
        assert all(LAMBDA_MIN <= lam <= 100.0 for lam in lams)
        assert all(np.isfinite(r.train_criterion) for r in rep.records)


class TestGridSearch:
    def test_default_grids_give_nine_ranked_rows(self):
        tr, va, _ = blobs_splits(n=600)
        base = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=2, batch_size=50,
                           layer_dims=BLOBS_NET, seed=4)
        result = grid_search(grid_configs(base), tr, va)
        assert len(result.rows) == 9
        ok_vals = [r.best_val_ce for r in result.rows if r.status == "ok"]
        assert ok_vals == sorted(ok_vals)
        assert result.best_row is result.rows[0]
        again = grid_search(grid_configs(base), tr, va)
        assert [(r.lr, r.a, r.best_val_ce) for r in again.rows] == \
               [(r.lr, r.a, r.best_val_ce) for r in result.rows]

    def test_single_point_grid(self):
        tr, va, _ = blobs_splits(n=400)
        base = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=1, batch_size=40,
                           layer_dims=BLOBS_NET, seed=4)
        result = grid_search(grid_configs(base, (0.5,), (0.1,)), tr, va)
        assert len(result.rows) == 1
        assert (result.rows[0].lr, result.rows[0].a) == (0.5, 0.1)

    def test_trains_from_base_lambda0(self, monkeypatch):
        tr, va, _ = blobs_splits(n=400)
        base = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=1, batch_size=40,
                           layer_dims=BLOBS_NET, lambda0=5.0, seed=4)
        seen = []
        real_train = trainer.train

        def recording(cfg, *args):
            seen.append((cfg.strategy, cfg.lambda0))
            return real_train(cfg, *args)

        monkeypatch.setattr(trainer, "train", recording)
        grid_search(grid_configs(base, (0.5,), (0.1, 1.0)), tr, va)
        assert seen == [("anrat", 5.0)] * 2

    def test_bad_point_refused_before_training(self, monkeypatch):
        tr, va, _ = blobs_splits(n=400)
        base = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=1, batch_size=40,
                           layer_dims=BLOBS_NET, seed=4)
        seen = []
        monkeypatch.setattr(trainer, "train", lambda cfg, *args: seen.append(cfg))
        with pytest.raises(ValueError, match="a must be"):
            grid_search(grid_configs(base, (0.5,), (0.1, -1.0)), tr, va)
        assert seen == []

    def test_empty_list_refused(self, monkeypatch):
        tr, va, _ = blobs_splits(n=400)
        seen = []
        monkeypatch.setattr(trainer, "train", lambda cfg, *args: seen.append(cfg))
        with pytest.raises(ValueError, match="at least one configuration"):
            grid_search([], tr, va)
        assert seen == []

    def test_all_diverged(self):
        full = synthetic_regression("sine", 200, 0.0, seed=0)
        tr, va = full.take(range(150)), full.take(range(150, 200))
        base = TrainConfig(strategy="anrat", learning_rate=1.0, epochs=6, batch_size=10,
                           layer_dims=(1, 8, 1), seed=0)
        with np.errstate(all="ignore"), pytest.raises(NoViableModelError):
            grid_search(grid_configs(base, (1e6, 1e7), (0.1,)), tr, va)

    def test_diverged_rows_recorded_not_ranked(self):
        full = synthetic_regression("sine", 200, 0.0, seed=0)
        tr, va = full.take(range(150)), full.take(range(150, 200))
        base = TrainConfig(strategy="anrat", learning_rate=1.0, epochs=6, batch_size=10,
                           layer_dims=(1, 8, 1), seed=0)
        with np.errstate(all="ignore"):
            result = grid_search(grid_configs(base, (0.01, 1e7), (0.1,)), tr, va)
        statuses = [r.status for r in result.rows]
        assert statuses == ["ok", "diverged"]
        assert math.isnan(result.rows[1].best_val_ce)


class TestCsvWriters:
    def test_metrics_header_and_rows(self, tmp_path):
        tr, va, _ = blobs_splits(n=400)
        cfg = TrainConfig(strategy="scheduled", learning_rate=0.3, epochs=2, batch_size=40,
                          layer_dims=BLOBS_NET, lambda0=100.0, rho=0.8, seed=0)
        rep = train(cfg, tr, va)
        path = tmp_path / "m.csv"
        write_metrics_csv(rep.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_criterion,train_ce,val_ce,val_error,lambda,switched,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == rep.records[0].train_criterion
        assert first[6] in ("true", "false")

    def test_grid_csv(self, tmp_path):
        tr, va, _ = blobs_splits(n=400)
        base = TrainConfig(strategy="anrat", learning_rate=0.1, epochs=1, batch_size=40,
                           layer_dims=BLOBS_NET, seed=4)
        result = grid_search(grid_configs(base, (0.5,), (0.1,)), tr, va)
        path = tmp_path / "g.csv"
        write_grid_csv(result.rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lr,a,best_val_ce,best_val_error,status"
        assert lines[1].endswith(",ok")
