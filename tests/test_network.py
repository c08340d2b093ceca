import warnings
from dataclasses import replace

import numpy as np
import pytest

from convexlab.criteria import CriterionParams, nrae, sample_weights
from convexlab.data import SampleBatch
from convexlab.gradcheck import fd_gradient, rel_error
from convexlab.network import (
    ACTIVATIONS,
    MlpModel,
    ModelFormatError,
    _activate,
    _activate_grad,
    _sigmoid,
    _softmax,
    batch_losses,
    deserialize_model,
    forward,
    init_model,
    output_mode_for,
    serialize_model,
    unflatten,
    weighted_backward,
)


class TestInit:
    def test_deterministic(self):
        m1 = init_model([2, 3, 1], "tanh", "sigmoid-binary-ce", seed=7)
        m2 = init_model([2, 3, 1], "tanh", "sigmoid-binary-ce", seed=7)
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
        assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))
        m3 = init_model([2, 3, 1], "tanh", "sigmoid-binary-ce", seed=8)
        assert not np.array_equal(m1.weights[0], m3.weights[0])

    def test_param_count(self):
        m = init_model([784, 128, 10], "sigmoid", "softmax-ce", seed=0)
        assert m.param_count == 784 * 128 + 128 + 128 * 10 + 10 == 101770

    def test_rejects_single_dim(self):
        with pytest.raises(ValueError):
            init_model([2], "tanh", "softmax-ce", seed=0)

    def test_rejects_unknown_tags(self):
        with pytest.raises(ValueError):
            init_model([2, 2], "swish", "softmax-ce", seed=0)
        with pytest.raises(ValueError):
            init_model([2, 2], "tanh", "hinge", seed=0)
        with pytest.raises(ValueError):
            init_model([2, 2], "tanh", "sigmoid-binary-ce", seed=0)  # needs one output

    def test_glorot_range_and_zero_bias(self):
        m = init_model([10, 4], "tanh", "softmax-ce", seed=1)
        r = np.sqrt(6.0 / 14.0)
        assert np.abs(m.weights[0]).max() <= r
        assert np.all(m.biases[0] == 0.0)


class TestOutputModeRule:
    X = np.zeros((4, 2))

    @pytest.mark.parametrize("targets, out_dim, mode", [
        ([0, 2, 1, 2], 3, "softmax-ce"),
        ([0, 1, 1, 0], 2, "softmax-ce"),
        ([0, 1, 1, 0], 1, "sigmoid-binary-ce"),
        ([0.0, 1.0, 1.0, 0.0], 1, "identity-squared"),
        ([[0.5, 1.0], [-2.0, 0.0], [3.0, 0.1], [0.0, 0.0]], 2, "identity-squared"),
    ], ids=["labels-3", "labels-2", "labels-1", "float-01", "reals-2"])
    def test_mode_from_targets(self, targets, out_dim, mode):
        assert output_mode_for(SampleBatch(self.X, np.array(targets)), out_dim) == mode

    @pytest.mark.parametrize("targets, out_dim, named", [
        ([0, 7, 1, 2], 5, r"labels in \[0, 5\), got labels in \[0, 7\]"),
        ([-1, 0, 1, 2], 5, r"labels in \[0, 5\), got labels in \[-1, 2\]"),
        ([0, 1, 2, 1], 1, r"1 output unit\(s\) need labels in \[0, 2\), got labels in \[0, 2\]"),
        # real targets are not broadcast across the output units
        ([0.5, -2.0, 3.0, 0.0], 3, r"3 output unit\(s\) need real targets of width 3, got width 1"),
    ], ids=["past-top", "negative", "one-unit", "reals"])
    def test_labels_outside_the_output_layer_refused(self, targets, out_dim, named):
        with pytest.raises(ValueError, match=named):
            output_mode_for(SampleBatch(self.X, np.array(targets)), out_dim)


class TestForward:
    def test_uniform_softmax_for_zero_weights(self):
        m = init_model([5, 10], "tanh", "softmax-ce", seed=0)
        m.weights[0][:] = 0.0
        out = forward(m, np.random.default_rng(0).normal(size=(6, 5))).outputs
        assert np.allclose(out, 0.1, atol=1e-15)

    def test_sigmoid_zero_weights_half(self):
        m = init_model([3, 1], "tanh", "sigmoid-binary-ce", seed=0)
        m.weights[0][:] = 0.0
        out = forward(m, np.ones((4, 3))).outputs
        assert np.allclose(out, 0.5)

    def test_outputs_finite_even_for_huge_inputs(self):
        m = init_model([3, 8, 4], "sigmoid", "softmax-ce", seed=2)
        out = forward(m, 1e6 * np.ones((2, 3))).outputs
        assert np.all(np.isfinite(out))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_width_mismatch(self):
        m = init_model([3, 2], "tanh", "softmax-ce", seed=0)
        with pytest.raises(ValueError):
            forward(m, np.ones((2, 4)))

    @pytest.mark.parametrize("shape", [(3,), (), (1, 2, 3)])
    def test_inputs_of_another_rank_refused(self, shape):
        # a vector of d_0 values is not read as one sample: batches are (m, d_0)
        m = init_model([3, 2], "tanh", "softmax-ce", seed=0)
        with pytest.raises(ValueError) as exc:
            forward(m, np.full(shape, 0.1))
        assert str(exc.value) == f"inputs must be an (m, d_0) array, got shape {shape}"

    def test_deterministic(self):
        m = init_model([4, 6, 3], "relu", "softmax-ce", seed=5)
        x = np.random.default_rng(1).normal(size=(7, 4))
        a = forward(m, x).outputs
        b = forward(m, x).outputs
        assert np.array_equal(a, b)


def _masked_sigmoid(z):
    # reference: the two branches evaluated through boolean masks
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _grad_from_pre_activation(z, tag):
    # reference: the activation derivative recomputed from the pre-activation z
    if tag == "sigmoid":
        s = _masked_sigmoid(z)
        return s * (1.0 - s)
    if tag == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return (z > 0).astype(float)


def _all_rows_backward(model, batch, w, cache):
    # every row through every layer, zero weights included, derivatives from z
    f, y = cache.outputs, batch.targets
    if model.output_mode == "softmax-ce":
        delta = f.copy()
        delta[np.arange(batch.size), y] -= 1.0
    elif model.output_mode == "sigmoid-binary-ce":
        delta = f - np.asarray(y, dtype=float).reshape(-1, 1)
    else:
        delta = 2.0 * (f - np.asarray(y, dtype=float).reshape(batch.size, -1))
    delta = delta * w[:, None]
    parts = []
    for k in range(model.num_layers - 1, -1, -1):
        parts.insert(0, np.concatenate([(delta.T @ cache.acts[k]).ravel(), delta.sum(axis=0)]))
        if k > 0:
            z = cache.acts[k - 1] @ model.weights[k - 1].T + model.biases[k - 1]
            act_grad = _grad_from_pre_activation(z, model.activation)
            delta = (delta @ model.weights[k]) * act_grad
    return np.concatenate(parts)


class TestWeightedBackward:
    def _setup(self, output_mode, out_dim, activation="sigmoid", m=6, seed=3):
        rng = np.random.default_rng(seed)
        model = init_model([4, 5, out_dim], activation, output_mode, seed=seed)
        x = rng.normal(size=(m, 4))
        if output_mode == "softmax-ce":
            y = rng.integers(0, out_dim, size=m)
        elif output_mode == "sigmoid-binary-ce":
            y = rng.integers(0, 2, size=m)
        else:
            y = rng.normal(size=(m, out_dim)) if out_dim > 1 else rng.normal(size=m)
        return model, SampleBatch(x, y)

    @pytest.mark.parametrize("mode,out_dim", [
        ("softmax-ce", 3), ("sigmoid-binary-ce", 1), ("identity-squared", 2),
    ])
    def test_matches_per_sample_loop(self, mode, out_dim):
        model, batch = self._setup(mode, out_dim)
        m = batch.size
        w = np.full(m, 1.0 / m)
        g = weighted_backward(model, batch, w)
        oracle = np.zeros_like(g)
        for i in range(m):
            single = SampleBatch(batch.inputs[i:i + 1], batch.targets[i:i + 1])
            oracle += weighted_backward(model, single, np.array([1.0])) / m
        assert np.abs(g - oracle).max() <= 1e-12

    def test_one_hot_weight_selects_sample(self):
        model, batch = self._setup("softmax-ce", 3)
        w = np.zeros(batch.size)
        w[2] = 1.0
        g = weighted_backward(model, batch, w)
        single = SampleBatch(batch.inputs[2:3], batch.targets[2:3])
        g_single = weighted_backward(model, single, np.array([1.0]))
        assert np.abs(g - g_single).max() <= 1e-15

    def test_zero_weights_zero_gradient(self):
        model, batch = self._setup("identity-squared", 1)
        g = weighted_backward(model, batch, np.zeros(batch.size))
        assert np.all(g == 0.0)

    def test_linearity(self):
        model, batch = self._setup("softmax-ce", 3)
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 1, batch.size)
        v = rng.uniform(0, 1, batch.size)
        alpha, beta = 0.3, 1.7
        g_combo = weighted_backward(model, batch, alpha * u + beta * v)
        g_parts = (alpha * weighted_backward(model, batch, u)
                   + beta * weighted_backward(model, batch, v))
        assert np.abs(g_combo - g_parts).max() <= 1e-12

    def test_length_mismatch(self):
        model, batch = self._setup("softmax-ce", 3)
        m = batch.size
        for bad in (np.ones(m + 1), np.ones((2, m + 1)), np.ones((2, 1, m)), np.float64(1.0)):
            with pytest.raises(ValueError, match=rf"weights must have shape \({m},\) or \(K, {m}\)"):
                weighted_backward(model, batch, bad)
        with pytest.raises(ValueError, match="sample weights must be nonnegative"):
            weighted_backward(model, batch, np.array([np.full(m, 0.1), -np.full(m, 0.1)]))

    @pytest.mark.parametrize("mode,out_dim", [
        ("softmax-ce", 3), ("sigmoid-binary-ce", 1), ("identity-squared", 2),
    ])
    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    def test_identity_rows_give_per_sample_gradients(self, mode, out_dim, act):
        # the rows of the identity pick one sample each: row i is grad(c_i),
        # checked against central differences of the per-sample loss vector
        model, batch = self._setup(mode, out_dim, activation=act, m=7, seed=13)

        def losses(stack):
            mm = replace(model, theta=stack)
            return batch_losses(forward(mm, batch.inputs).outputs, batch.targets, mm.output_mode)

        per_sample = weighted_backward(model, batch, np.eye(batch.size))
        assert per_sample.shape == (batch.size, model.param_count)
        numeric = fd_gradient(losses, model.theta)
        assert rel_error(numeric, per_sample) < 1e-6
        for i, row in enumerate(per_sample):
            assert rel_error(numeric[i], row) < 1e-5, i

    @pytest.mark.parametrize("mode,out_dim,act", [
        ("softmax-ce", 3, "tanh"),
        ("sigmoid-binary-ce", 1, "sigmoid"),
        ("identity-squared", 1, "tanh"),
    ])
    def test_composed_gradient_vs_finite_differences(self, mode, out_dim, act):
        for lam, p in ((1e-3, 1), (1.0, 1), (10.0, 1), (100.0, 2)):
            model, batch = self._setup(mode, out_dim, activation=act, seed=11)
            params = CriterionParams(lam=lam, p=p)

            def objective(vec):
                mm = unflatten(model, vec)
                losses = batch_losses(forward(mm, batch.inputs).outputs, batch.targets, mm.output_mode)
                return nrae(losses, params)

            losses = batch_losses(forward(model, batch.inputs).outputs, batch.targets, mode)
            analytic = weighted_backward(model, batch, sample_weights(losses, params))
            numeric = fd_gradient(objective, model.theta, h=1e-6)
            assert rel_error(numeric, analytic) < 1e-5

    @pytest.mark.parametrize("mode,out_dim", [
        ("softmax-ce", 3), ("sigmoid-binary-ce", 1), ("identity-squared", 2),
    ])
    def test_flat_gradient_matches_concatenate_oracle(self, mode, out_dim):
        # per-layer gradients joined by concatenate in the frozen layout;
        # the backward pass writes them into one buffer instead
        model, batch = self._setup(mode, out_dim, activation="tanh")
        w = np.random.default_rng(5).uniform(0, 1, batch.size)
        cache = forward(model, batch.inputs)
        g = weighted_backward(model, batch, w, cache)
        assert g.shape == (model.param_count,)
        assert np.array_equal(g, _all_rows_backward(model, batch, w, cache))

    def test_relu_gradient_away_from_kinks(self):
        # resample until every pre-activation is well clear of zero, then
        # the finite-difference probes cannot straddle the kink
        for seed in range(40):
            model, batch = self._setup("softmax-ce", 3, activation="relu", seed=seed)
            cache = forward(model, batch.inputs)
            closest = min(float(np.abs(a @ w.T + b).min())
                          for a, w, b in zip(cache.acts, model.weights, model.biases))
            if closest > 1e-3:
                break
        else:
            pytest.fail("no kink-free configuration found")

        def objective(vec):
            mm = unflatten(model, vec)
            losses = batch_losses(forward(mm, batch.inputs).outputs, batch.targets, mm.output_mode)
            return np.mean(losses, axis=-1)

        uniform = np.full(batch.size, 1.0 / batch.size)
        analytic = weighted_backward(model, batch, uniform)
        numeric = fd_gradient(objective, model.theta, h=1e-7)
        assert rel_error(numeric, analytic) < 1e-5


class TestKernelsBitIdentical:
    SPECIALS = (0.0, 1e-320, 709.8, 745.0, 800.0, np.inf)

    def test_softmax_equals_row_max_formula(self):
        rng = np.random.default_rng(4)
        special = np.array([[1.0, np.nan, 3.0], [np.inf, 1.0, 2.0], [-np.inf, 0.0, 1.0],
                            [np.inf, -np.inf, np.inf], [-np.inf] * 3, [0.0, -0.0, -1.0]])
        for z in (rng.normal(scale=30.0, size=(7, 2)), rng.normal(size=(3, 5, 10)),
                  rng.normal(size=(128, 7, 1)), rng.normal(size=(100, 10)), special):
            with np.errstate(invalid="ignore"):
                e = np.exp(z - z.max(axis=-1, keepdims=True))
                expected = e / e.sum(axis=-1, keepdims=True)
                got = _softmax(z)
            assert got.tobytes() == expected.tobytes(), z.shape

    @pytest.mark.parametrize("mode,out_dim", [("softmax-ce", 3), ("sigmoid-binary-ce", 1), ("identity-squared", 2)])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_stacked_forward_rows_equal_single_forward(self, mode, out_dim, act):
        # a width-1 hidden layer, and a width-16 one: on OpenBLAS a (K, 16)
        # stack times a contiguous copy of the transposed weights rounds
        # differently from one network times the transposed view
        rng = np.random.default_rng(6)
        for dims in ((4, 1, out_dim), (3, 16, out_dim)):
            model = init_model(dims, act, mode, seed=2)
            for m in (1, 7):
                x = rng.normal(size=(m, dims[0]))
                for k_count in (1, 128):
                    stack = model.theta + rng.normal(scale=0.5, size=(k_count, model.param_count))
                    acts = forward(unflatten(model, stack), x).acts
                    for k in range(k_count):
                        single = forward(unflatten(model, stack[k]), x).acts
                        for layer, (a, b) in enumerate(zip(acts[1:], single[1:])):
                            assert a[k].tobytes() == b.tobytes(), (dims, m, k_count, k, layer)

    def test_sigmoid_equals_masked_formula(self):
        specials = np.array(self.SPECIALS)
        grid = np.concatenate([np.linspace(-800.0, 800.0, 40000), np.linspace(-40.0, 40.0, 40000)])
        z = np.concatenate([grid, specials, -specials])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(z)
            stacked = _sigmoid(grid.reshape(4, 100, 200))
        assert np.array_equal(got, _masked_sigmoid(z))
        assert np.array_equal(stacked, _masked_sigmoid(grid).reshape(4, 100, 200))
        assert got[-1] == 0.0 and got[-len(specials) - 1] == 1.0  # -inf and +inf
        assert not np.signbit(_sigmoid(np.array([-0.0, -800.0]))).any()

    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_derivative_from_activation_equals_from_pre_activation(self, tag):
        rng = np.random.default_rng(6)
        z = np.concatenate([rng.normal(scale=4.0, size=5000), np.linspace(-50.0, 50.0, 2001),
                            [0.0, -0.0, 1e-320, -1e-320, 709.8, -709.8]])
        delta = rng.normal(size=z.shape)
        got = delta * _activate_grad(_activate(z, tag), tag)
        assert np.array_equal(got, delta * _grad_from_pre_activation(z, tag))
        if tag == "relu":
            assert not _activate_grad(_activate(np.array([0.0, -0.0]), tag), tag).any()

    @pytest.mark.parametrize("mode,out_dim", [
        ("softmax-ce", 10), ("sigmoid-binary-ce", 1), ("identity-squared", 3),
    ])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_zero_weight_rows_equal_all_rows_oracle(self, mode, out_dim, act):
        # a backward that drops zero-weight rows must pass this too; on
        # OpenBLAS a plain compaction fails the width-1 and one-row cases
        rng = np.random.default_rng(7)
        m = 100
        model = init_model([30, 24, out_dim], act, mode, seed=7)
        x = rng.normal(size=(m, 30))
        if mode == "softmax-ce":
            y = rng.integers(0, out_dim, size=m)
        elif mode == "sigmoid-binary-ce":
            y = rng.integers(0, 2, size=m)
        else:
            y = rng.normal(size=(m, out_dim))
        batch = SampleBatch(x, y)
        cache = forward(model, x)
        sparse = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.1)
        one = np.zeros(m)
        one[37] = 0.25
        # a large-lam tilt, where most weights underflow to exactly 0
        tilted = sample_weights(batch_losses(cache.outputs, y, mode), CriterionParams(lam=1e4, p=1))
        for w in (sparse, one, tilted):
            assert np.count_nonzero(w) < m
            g = weighted_backward(model, batch, w, cache)
            assert np.array_equal(g, _all_rows_backward(model, batch, w, cache))
        # a (K, m) stack: every row equals its own call bit for bit, a
        # one-row stack included
        rows = np.stack([sparse, one, tilted])
        for stack in (rows, rows[2:], rows[1:2], np.eye(m)[::9]):
            stacked = weighted_backward(model, batch, stack, cache)
            assert stacked.shape == (len(stack), model.param_count)
            for k, w in enumerate(stack):
                assert stacked[k].tobytes() == weighted_backward(model, batch, w, cache).tobytes(), k

    def test_zero_weight_rows_equal_all_rows_oracle_at_desk_scale(self):
        rng = np.random.default_rng(8)
        model = init_model([784, 128, 10], "sigmoid", "softmax-ce", seed=8)
        batch = SampleBatch(rng.uniform(size=(100, 784)), rng.integers(0, 10, size=100))
        cache = forward(model, batch.inputs)
        w = rng.uniform(0.0, 1.0, 100) * (rng.uniform(size=100) < 0.1)
        g = weighted_backward(model, batch, w, cache)
        assert np.array_equal(g, _all_rows_backward(model, batch, w, cache))
        stack = np.stack([w, np.full(100, 0.01), np.eye(100)[37]])
        stacked = weighted_backward(model, batch, stack, cache)
        assert stacked[0].tobytes() == g.tobytes()
        for k in (1, 2):
            assert stacked[k].tobytes() == weighted_backward(model, batch, stack[k], cache).tobytes()


class TestFlatten:
    def test_round_trip_exact(self):
        m = init_model([3, 7, 2], "tanh", "softmax-ce", seed=9)
        v = m.theta
        m2 = unflatten(m, v)
        assert np.array_equal(m2.theta, v)
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, m2.weights))

    def test_ordering_contract(self):
        m = init_model([1, 1], "tanh", "identity-squared", seed=0)
        m.weights[0][0, 0] = 2.0
        m.biases[0][0] = 3.0
        assert np.array_equal(m.theta, [2.0, 3.0])

    def test_wrong_length(self):
        m = init_model([2, 2], "tanh", "softmax-ce", seed=0)
        with pytest.raises(ValueError):
            unflatten(m, np.zeros(m.param_count - 1))


class TestThetaLength:
    """The layout owns theta's length: every way of building a model walks it
    and refuses any other shape, naming n."""

    @staticmethod
    def _refused(n):
        return pytest.raises(ValueError, match=rf"must have length {n} \(or be a \(K, {n}\) stack\)")

    @pytest.mark.parametrize("shape", ["n-1", "n+1", "(2,5,n)", "short", "scalar"])
    def test_replace_and_unflatten_refuse_other_shapes(self, shape):
        m = init_model([1, 3, 1], "tanh", "identity-squared", seed=0)
        n = m.param_count
        theta = {"n-1": np.zeros(n - 1), "n+1": np.zeros(n + 1), "(2,5,n)": np.zeros((2, 5, n)),
                 "short": np.zeros(3), "scalar": np.zeros(())}[shape]
        with self._refused(n):
            replace(m, theta=theta)
        with self._refused(n):
            unflatten(m, theta)

    def test_constructor_refuses_a_long_vector(self):
        n = 10  # 1-3-1
        with self._refused(n):
            MlpModel((1, 3, 1), "tanh", "identity-squared", np.zeros(n + 1))


class TestParameterBuffer:
    def test_layer_views_share_theta(self):
        m = init_model([3, 7, 2], "tanh", "softmax-ce", seed=9)
        for model in (m, unflatten(m, m.theta), deserialize_model(serialize_model(m))):
            assert model.theta.shape == (m.param_count,)
            assert all(np.shares_memory(a, model.theta) for a in model.weights + model.biases)
        m.weights[1][0, 0] = 5.0
        m.biases[0][2] = -4.0
        assert m.theta[3 * 7 + 7] == 5.0 and m.theta[3 * 7 + 2] == -4.0

    def test_stacked_layer_views_share_theta(self):
        m = init_model([3, 7, 2], "tanh", "softmax-ce", seed=9)
        stack = m.theta + np.arange(4.0)[:, None]
        sm = unflatten(m, stack)
        assert sm.theta.shape == (4, m.param_count)
        assert [w.shape for w in sm.weights] == [(4, 7, 3), (4, 2, 7)]
        assert [b.shape for b in sm.biases] == [(4, 7), (4, 2)]
        assert all(np.shares_memory(a, sm.theta) for a in sm.weights + sm.biases)
        assert np.array_equal(sm.weights[1][2], m.weights[1] + 2.0)

    def test_unflatten_does_not_alias_its_argument(self):
        m = init_model([3, 7, 2], "tanh", "softmax-ce", seed=9)
        for v in (m.theta, np.tile(m.theta, (3, 1))):
            m2 = unflatten(m, v)
            assert not np.shares_memory(m2.theta, v)
            before = m2.theta.copy()
            v += 1.0
            assert np.array_equal(m2.theta, before)


class TestSerialization:
    def test_round_trip_bit_identical(self):
        m = init_model([2, 3, 1], "tanh", "sigmoid-binary-ce", seed=21)
        m2 = deserialize_model(serialize_model(m))
        assert np.array_equal(m2.theta, m.theta)
        assert m2.layer_dims == m.layer_dims
        assert (m2.activation, m2.output_mode) == (m.activation, m.output_mode)

    def test_header_contract(self):
        m = init_model([2, 3, 4], "tanh", "softmax-ce", seed=0)
        text = serialize_model(m)
        assert text.splitlines()[0] == "mlp 2 3 4 tanh softmax-ce"
        assert deserialize_model(text).layer_dims == (2, 3, 4)

    def test_truncated_file(self):
        m = init_model([2, 3, 2], "tanh", "softmax-ce", seed=0)
        lines = serialize_model(m).splitlines()
        with pytest.raises(ModelFormatError, match=r"line \d+"):
            deserialize_model("\n".join(lines[:3]))

    def test_bad_header(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            deserialize_model("mlp 2 tanh softmax-ce\n")
        with pytest.raises(ModelFormatError, match="line 1"):
            deserialize_model("perceptron 2 3 1 tanh softmax-ce\n")

    def test_bad_token_count(self):
        m = init_model([2, 2], "tanh", "softmax-ce", seed=0)
        lines = serialize_model(m).splitlines()
        lines[2] = lines[2] + " " + float(1.0).hex()
        with pytest.raises(ModelFormatError, match="line 3"):
            deserialize_model("\n".join(lines))

    def test_bad_hex_token(self):
        m = init_model([2, 2], "tanh", "softmax-ce", seed=0)
        lines = serialize_model(m).splitlines()
        lines[2] = "not-a-float " + " ".join(lines[2].split()[1:])
        with pytest.raises(ModelFormatError, match="line 3"):
            deserialize_model("\n".join(lines))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "0x1p+1024"])
    def test_non_finite_parameter_refused(self, token):
        # float.fromhex takes nan and inf, and overflows past the double range
        m = init_model([2, 2], "tanh", "softmax-ce", seed=0)
        lines = serialize_model(m).splitlines()
        lines[3] = " ".join(lines[3].split()[:-1] + [token])
        with pytest.raises(ModelFormatError, match="line 4: parameters must be finite doubles"):
            deserialize_model("\n".join(lines))


    def test_content_after_the_last_layer_refused(self):
        text = serialize_model(init_model([2, 3, 1], "tanh", "identity-squared", seed=0))
        after = len(text.splitlines()) + 1
        # a second model, a stray line, and a stray line past blank ones
        for tail, line in ((text, after), ("garbage 1 2 3\n", after), ("\n\nlayer 3\n", after + 2)):
            with pytest.raises(ModelFormatError, match=f"line {line}: unexpected content after the last layer"):
                deserialize_model(text + tail)

    def test_trailing_blank_lines_accepted(self):
        m = init_model([2, 3, 1], "tanh", "identity-squared", seed=0)
        m2 = deserialize_model(serialize_model(m) + "\n  \n\t\n")
        assert np.array_equal(m2.theta, m.theta)


class TestBatchLosses:
    def test_softmax_ce_values(self):
        out = np.array([[0.1, 0.7, 0.2], [0.5, 0.25, 0.25]])
        c = batch_losses(out, np.array([1, 0]), "softmax-ce")
        assert c == pytest.approx([-np.log(0.7), -np.log(0.5)])

    def test_squared_multi_output(self):
        out = np.array([[1.0, 2.0]])
        c = batch_losses(out, np.array([[0.0, 0.0]]), "identity-squared")
        assert c == pytest.approx([5.0])

    def test_all_nonnegative_finite(self):
        rng = np.random.default_rng(12)
        out = rng.dirichlet(np.ones(4), size=20)
        c = batch_losses(out, rng.integers(0, 4, 20), "softmax-ce")
        assert np.all(c >= 0) and np.all(np.isfinite(c))
