"""The four training strategies side by side on synthetic tasks.

  ce         plain mean-loss SGD baseline
  nrae-fixed log-domain criterion at a fixed lam
  scheduled  large lam decayed each epoch, permanent switch to the raw
             criterion once it cannot overflow
  anrat      lam learned jointly with the weights against a lam**(-q)
             penalty

Also demonstrated: training stagnancy at an extreme lam (every update
chases the single worst sample), and the weight-duplication diagnostic
that goes with it.
"""

import numpy as np

from convexlab import SampleBatch, TrainConfig, evaluate, synthetic_blobs, synthetic_regression, train

# scaled sine regression: targets x6 so the early per-sample losses are
# large enough that the scheduled strategy has something to decay through
full = synthetic_regression("sine", 500, 0.0, seed=2)
full = SampleBatch(full.inputs, 6.0 * full.targets)
tr, va, te = full.take(range(300)), full.take(range(300, 400)), full.take(range(400, 500))

base = dict(learning_rate=0.02, epochs=14, batch_size=25,
            layer_dims=(1, 16, 1), seed=1)

runs = {
    "ce": TrainConfig(strategy="ce", **base),
    "nrae lam=2": TrainConfig(strategy="nrae-fixed", lambda0=2.0, **base),
    "scheduled": TrainConfig(strategy="scheduled", lambda0=100.0, rho=0.8, **base),
    "anrat": TrainConfig(strategy="anrat", lambda0=10.0, a=0.1, **base),
}

print(f"{'strategy':>12} {'test mse':>10} {'best epoch':>11} {'final lam':>10}")
reports = {}
for name, cfg in runs.items():
    rep = train(cfg, tr, va)
    reports[name] = rep
    mse, _ = evaluate(rep.best_model, te)
    print(f"{name:>12} {mse:10.5f} {rep.best_epoch:11d} {rep.final_lambda:10.3f}")

sched = reports["scheduled"].records
switch = next((r.epoch for r in sched if r.switched_to_rae), None)
print(f"\nscheduled lam trajectory: {[round(r.lam, 1) for r in sched]}")
print(f"  (decays by rho=0.8 until the raw criterion is safe, switches at "
      f"epoch {switch}, then freezes)")
an = reports["anrat"].records
print(f"adaptive lam trajectory:  {[round(r.lam, 2) for r in an]}")

# stagnancy at an extreme lam: the minimax regime stops making validation
# progress while the baseline with the same budget descends smoothly
stag_full = synthetic_regression("sine", 500, 0.0, seed=2)
s_tr, s_va = stag_full.take(range(350)), stag_full.take(range(350, 500))
stag_base = dict(learning_rate=0.05, epochs=10, batch_size=25,
                 layer_dims=(1, 16, 1), seed=1)
stuck = train(TrainConfig(strategy="nrae-fixed", lambda0=1000.0, **stag_base), s_tr, s_va)
smooth = train(TrainConfig(strategy="ce", **stag_base), s_tr, s_va)
print("\nextreme lam: validation loss per epoch")
print(f"  nrae lam=1000: {[round(r.val_ce, 4) for r in stuck.records]}")
print(f"  ce           : {[round(r.val_ce, 4) for r in smooth.records]}")
print(f"  stagnant flags: lam=1000 -> {stuck.stagnant}, ce -> {smooth.stagnant}")

# the duplication diagnostic on a 16-dimensional task: mean absolute cosine
# between hidden-unit weight vectors (1.0 = perfectly duplicated units)
blobs = synthetic_blobs(1500, num_classes=10, dim=16, seed=0, noise_sd=0.9)
b_tr, b_va = blobs.take(range(1000)), blobs.take(range(1000, 1500))
b_base = dict(learning_rate=0.3, epochs=10, batch_size=50, layer_dims=(16, 32, 10), seed=1)


def mean_cos(model):
    w = model.weights[0]  # incoming weight vectors of the hidden units, one per row
    unit = w / np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-300)
    cos = unit @ unit.T
    off = np.abs(cos[~np.eye(cos.shape[0], dtype=bool)])
    return float(off.mean())


b_ce = train(TrainConfig(strategy="ce", **b_base), b_tr, b_va)
b_stuck = train(TrainConfig(strategy="nrae-fixed", lambda0=1000.0, **b_base), b_tr, b_va)
print("\nhidden-unit weight-vector similarity on a 16-d task (diagnostic only):")
print(f"  ce model:        {mean_cos(b_ce.final_model):.3f}")
print(f"  lam=1000 model:  {mean_cos(b_stuck.final_model):.3f}")
