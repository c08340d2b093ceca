"""Minimal multilayer perceptron: seeded init, batched forward, and a
weighted backward pass returning the flat gradient sum_i w_i * grad(c_i).
Inputs are (m, d_0) arrays, one sample a row; no other rank is accepted.

A model owns one parameter buffer `theta`, whose layout is frozen for the
whole package: layer-major, and within a layer the weight matrix in
row-major order followed by the bias vector.  `weights[k]` and `biases[k]`
are views of `theta`, so the flat vector is always `model.theta`.  Building
any model walks this layout, which refuses any other length of theta, and
`unflatten`, `weighted_backward`'s gradient and the serialization use it.

`unflatten` also takes a (K, n) stack of parameter vectors and returns a
stacked model of K networks: `theta` (K, n), weights (K, d_out, d_in),
biases (K, d_out).  `forward` and `batch_losses` run a stacked model
through the same code as a single one, giving (K, m, d_L) outputs and a
C-contiguous (K, m) loss array whose row k equals, bit for bit, the losses
of network k alone.  The backward pass takes a single model, with an (m,)
vector of sample weights or a (K, m) stack of weight rows; row k of a
stack's (K, n) gradient equals, bit for bit, the call with row k alone.

The backward pass takes the activation derivatives from the activations
cached by `forward`.  Zero-weight rows still go through every product:
dropping them changes the last bit of some OpenBLAS sums (one kept row
turns gemm into gemv; width-1 layers sum in a row-count-dependent order).

The output mode follows from the targets (`output_mode_for`): class labels
give `softmax-ce`, or `sigmoid-binary-ce` on one output unit, and real
targets give `identity-squared`, one output unit per target column.

Models are never mutated by forward/backward, so a model can be shared
across concurrent evaluations; per-batch reductions run left-to-right by
sample index, keeping results bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .seeds import rng_for

ACTIVATIONS = ("sigmoid", "tanh", "relu")
OUTPUT_MODES = ("softmax-ce", "sigmoid-binary-ce", "identity-squared")

# Output probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any
# log, so per-sample losses are always finite; for the two cross-entropy
# modes -log(PROB_EPS) is a hard ceiling on any c_i.
PROB_EPS = 1e-12
MAX_CLAMPED_LOSS = -float(np.log(PROB_EPS))


def output_mode_for(batch, out_dim: int) -> str:
    """The output mode a SampleBatch's targets imply for `out_dim` output
    units: integer labels give softmax-ce, or sigmoid-binary-ce when
    out_dim = 1, and any other targets identity-squared.  Labels outside
    [0, out_dim), or outside {0, 1} on one unit, raise ValueError, and so
    do real targets whose width (1 for a vector) is not out_dim."""
    if not batch.is_classification:
        width = 1 if batch.targets.ndim == 1 else batch.targets.shape[1]
        if width != out_dim:
            raise ValueError(f"{out_dim} output unit(s) need real targets of width {out_dim}, "
                             f"got width {width}")
        return "identity-squared"
    lo, hi, top = int(batch.targets.min()), int(batch.targets.max()), max(out_dim, 2)
    if lo < 0 or hi >= top:
        raise ValueError(f"{out_dim} output unit(s) need labels in [0, {top}), got labels in [{lo}, {hi}]")
    return "softmax-ce" if out_dim > 1 else "sigmoid-binary-ce"


class ModelFormatError(ValueError):
    """Malformed serialized model text."""


def _layer_views(flat, layer_dims) -> tuple:
    """(weights, biases): views of an (n,) or (K, n) parameter array in the frozen layout,
    weights[k] (..., d_{k+1}, d_k) and biases[k] (..., d_{k+1}); any other shape is refused."""
    lead = flat.shape[:-1]
    weights, biases, pos = [], [], 0
    try:
        for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
            end = pos + d_out * d_in
            weights.append(flat[..., pos:end].reshape(*lead, d_out, d_in))
            biases.append(flat[..., end:end + d_out])
            pos = end + d_out
    except (IndexError, ValueError):  # a 0-d array, or a slice short of its layer's shape
        pos = -1
    if flat.ndim in (1, 2) and flat.shape[-1] == pos:
        return weights, biases
    n = _param_count(layer_dims)
    raise ValueError(f"parameter vector must have length {n} (or be a (K, {n}) stack), got {flat.shape}")


@dataclass
class MlpModel:
    layer_dims: tuple
    activation: str
    output_mode: str
    theta: np.ndarray  # (n,), or (K, n) for a stack of K networks
    weights: list = field(init=False, repr=False)  # weights[k]: (d_{k+1}, d_k), a view of theta
    biases: list = field(init=False, repr=False)   # biases[k]: (d_{k+1},), a view of theta

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.theta, self.layer_dims)

    @property
    def param_count(self) -> int:
        """Parameters of one network (of each network of a stacked model)."""
        return self.theta.shape[-1]

    @property
    def num_layers(self) -> int:
        return len(self.weights)


@dataclass
class ForwardCache:
    """Per-layer activations: acts[0] is the input batch, acts[-1] the
    network output."""

    acts: list

    @property
    def outputs(self) -> np.ndarray:
        return self.acts[-1]


def _sigmoid(z):
    # 1/(1+e) for z >= 0, else e/(1+e), with e = exp(-|z|): neither overflows
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=e)


def _activate(z, tag):
    if tag == "sigmoid":
        return _sigmoid(z)
    if tag == "tanh":
        return np.tanh(z)
    if tag == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {tag!r}")


def _activate_grad(a, tag):
    # d act(z)/dz from the cached activation a = act(z); relu'(0) := 0
    if tag == "sigmoid":
        return a * (1.0 - a)
    if tag == "tanh":
        return 1.0 - a * a
    if tag == "relu":
        return a > 0
    raise ValueError(f"unknown activation {tag!r}")


def _softmax(z):
    # the row maximum column by column: exact, and on a short last axis far
    # cheaper than z.max(axis=-1), which costs ~50 ns a row
    zmax = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(zmax, z[..., j:j + 1], out=zmax)
    e = np.exp(z - zmax)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _param_count(dims) -> int:
    return sum(d_out * (d_in + 1) for d_in, d_out in zip(dims[:-1], dims[1:]))


def validate_net(layer_dims, activation) -> tuple:
    """The layer sizes as ints, checked with the activation by every model's rules."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"layer_dims needs at least input and output sizes, got {list(layer_dims)}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer sizes must be >= 1, got {list(dims)}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    return dims


def _validate_spec(layer_dims, activation, output_mode):
    dims = validate_net(layer_dims, activation)
    if output_mode not in OUTPUT_MODES:
        raise ValueError(f"unknown output mode {output_mode!r} (expected one of {OUTPUT_MODES})")
    if output_mode == "sigmoid-binary-ce" and dims[-1] != 1:
        raise ValueError("sigmoid-binary-ce requires a single output unit")
    if output_mode == "softmax-ce" and dims[-1] < 2:
        raise ValueError("softmax-ce requires at least two output units")
    return dims


def init_model(layer_dims, activation, output_mode, seed: int) -> MlpModel:
    """Glorot-uniform weights (r = sqrt(6/(fan_in+fan_out))), zero biases,
    fully determined by the seed."""
    dims = _validate_spec(layer_dims, activation, output_mode)
    rng = rng_for(seed, "init")
    model = MlpModel(dims, activation, output_mode, np.zeros(_param_count(dims)))
    for w in model.weights:
        d_out, d_in = w.shape
        r = np.sqrt(6.0 / (d_in + d_out))
        w[...] = rng.uniform(-r, r, size=(d_out, d_in))
    return model


def forward(model: MlpModel, inputs) -> ForwardCache:
    """Batched forward pass over (m, d_0) inputs (any other rank is
    refused); returns the cache needed by weighted_backward.  softmax-ce
    outputs are rows of probabilities summing to 1.  A stacked model runs
    every network on the same inputs."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"inputs must be an (m, d_0) array, got shape {x.shape}")
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input width {x.shape[1]} does not match d_0 = {model.layer_dims[0]}")
    acts = [x]
    h = x
    last = model.num_layers - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        # the transposed view for a stack too: a contiguous copy is faster, but
        # OpenBLAS rounds it differently (d_k >= 16, or a single sample)
        z = h @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        if k < last:
            h = _activate(z, model.activation)
        elif model.output_mode == "softmax-ce":
            h = _softmax(z)
        elif model.output_mode == "sigmoid-binary-ce":
            h = _sigmoid(z)
        else:  # identity-squared
            h = z
        acts.append(h)
    return ForwardCache(acts)


def _targets(targets, output_mode) -> np.ndarray:
    """The targets in the dtype and shape the loss of `output_mode` reads."""
    if output_mode == "softmax-ce":
        return np.asarray(targets).astype(int)
    if output_mode not in OUTPUT_MODES:
        raise ValueError(f"unknown output mode {output_mode!r}")
    y = np.asarray(targets, dtype=float)
    return y.reshape(-1) if output_mode == "sigmoid-binary-ce" else y.reshape(len(y), -1)


def batch_losses(outputs, targets, output_mode) -> np.ndarray:
    """Vector of nonnegative per-sample losses c_i for a batch of network
    outputs, or a C-contiguous (K, m) array for a stacked model's (K, m, d_L)
    outputs.  Probabilities are clamped before logs."""
    f = np.asarray(outputs, dtype=float)
    y = _targets(targets, output_mode)
    if output_mode == "softmax-ce":
        # the fancy index leaves a stack non-contiguous, and reductions over
        # its rows would then round differently from those over one vector
        picked = np.ascontiguousarray(f[..., np.arange(f.shape[-2]), y])
        p = np.clip(picked, PROB_EPS, 1.0 - PROB_EPS)
        return -np.log(p)
    if output_mode == "sigmoid-binary-ce":
        p = np.clip(f[..., 0], PROB_EPS, 1.0 - PROB_EPS)
        return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return np.sum((f - y) ** 2, axis=-1)


def _output_delta(cache: ForwardCache, targets, output_mode) -> np.ndarray:
    """d c_i / d z_L for each sample, rows of the output-layer delta."""
    f = cache.outputs
    y = _targets(targets, output_mode)
    if output_mode == "softmax-ce":
        delta = f.copy()
        delta[np.arange(f.shape[0]), y] -= 1.0
        return delta
    if output_mode == "sigmoid-binary-ce":
        return f - y[:, None]
    return 2.0 * (f - y)


def weighted_backward(model: MlpModel, batch, weights, cache: ForwardCache | None = None) -> np.ndarray:
    """One batched backward pass computing sum_i w_i * grad_W(c_i) as an (n,)
    vector laid out like `theta`.  With w_i = 1/m this is the plain
    mean-loss gradient.  A (K, m) stack of weight rows gives the (K, n)
    stack of their gradients from the same pass; row k equals, bit for bit,
    the call with weights[k] alone.  The activation derivatives come from
    the cached activations; rows with w_i = 0 are not skipped (see the
    module docstring)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != batch.size:
        raise ValueError(f"weights must have shape ({batch.size},) or (K, {batch.size}), got {w.shape}")
    if np.any(w < 0):
        raise ValueError("sample weights must be nonnegative")
    if cache is None:
        cache = forward(model, batch.inputs)

    delta = _output_delta(cache, batch.targets, model.output_mode) * w[..., None]
    grad = np.empty(w.shape[:-1] + (model.param_count,))
    grads_w, grads_b = _layer_views(grad, model.layer_dims)
    for k in range(model.num_layers - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), cache.acts[k], out=grads_w[k])
        delta.sum(axis=-2, out=grads_b[k])
        if k > 0:
            delta = delta @ model.weights[k]
            delta *= _activate_grad(cache.acts[k], model.activation)

    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient")
    return grad


def unflatten(model: MlpModel, vector) -> MlpModel:
    """New model with a private copy of `vector` as theta: (n,), or (K, n) for K networks."""
    return replace(model, theta=np.array(vector, dtype=float))


def serialize_model(model: MlpModel) -> str:
    """Line-oriented text form.  Header `mlp <dims...> <activation>
    <output_mode>`, then per layer a `layer <k>` line and d_k rows of
    d_{k-1}+1 hexadecimal floats (row weights then bias); lossless."""
    lines = ["mlp " + " ".join(str(d) for d in model.layer_dims)
             + f" {model.activation} {model.output_mode}"]
    for k, (w, b) in enumerate(zip(model.weights, model.biases), start=1):
        lines.append(f"layer {k}")
        for row, bias in zip(w, b):
            lines.append(" ".join(float(v).hex() for v in row) + " " + float(bias).hex())
    return "\n".join(lines) + "\n"


def deserialize_model(text: str) -> MlpModel:
    """The model `serialize_model` wrote; only blank lines may follow the
    last layer, and every parameter must be a finite double."""
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("line 1: empty model text")
    header = lines[0].split()
    if len(header) < 5 or header[0] != "mlp":
        raise ModelFormatError("line 1: expected header 'mlp <dims...> <activation> <output_mode>'")
    activation, output_mode = header[-2], header[-1]
    try:
        dims = tuple(int(tok) for tok in header[1:-2])
    except ValueError:
        raise ModelFormatError("line 1: non-integer layer dimension in header") from None
    dims = _validate_spec(dims, activation, output_mode)

    model = MlpModel(dims, activation, output_mode, np.empty(_param_count(dims)))
    ln = 1  # 0-based index of the next line to consume
    for k in range(1, len(dims)):
        if ln >= len(lines) or lines[ln].split() != ["layer", str(k)]:
            raise ModelFormatError(f"line {ln + 1}: expected 'layer {k}'")
        ln += 1
        d_out, d_in = dims[k], dims[k - 1]
        w, b = model.weights[k - 1], model.biases[k - 1]
        for r in range(d_out):
            if ln >= len(lines):
                raise ModelFormatError(f"line {ln + 1}: file ends inside layer {k} (row {r + 1} missing)")
            toks = lines[ln].split()
            if len(toks) != d_in + 1:
                raise ModelFormatError(
                    f"line {ln + 1}: expected {d_in + 1} tokens for layer {k} row {r + 1}, got {len(toks)}"
                )
            try:
                vals = [float.fromhex(t) for t in toks]
            except ValueError:
                raise ModelFormatError(f"line {ln + 1}: invalid hexadecimal float") from None
            except OverflowError:  # e.g. 0x1p+1024
                vals = [np.inf]
            if not np.isfinite(vals).all():
                raise ModelFormatError(f"line {ln + 1}: parameters must be finite doubles")
            w[r] = vals[:-1]
            b[r] = vals[-1]
            ln += 1
    for extra in range(ln, len(lines)):
        if lines[extra].strip():
            raise ModelFormatError(f"line {extra + 1}: unexpected content after the last layer")
    return model
