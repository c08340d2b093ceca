"""Full MNIST pipeline: fetch, split, grid search, adaptive training.

Needs either network access to download the four IDX files or an existing
copy in $CONVEXLAB_DATA_DIR (or ./data).  Everything is desk-scale: a
784-128-10 perceptron on a 5000/1000/1000 subset, minutes on a laptop CPU.

CLI equivalents:
    convexlab fetch --data-dir data
    convexlab gridsearch --set dataset=mnist ...
    convexlab train --strategy anrat --set dataset=mnist ...
"""

import sys

from convexlab import (
    TrainConfig,
    evaluate,
    fetch_mnist,
    grid_configs,
    grid_search,
    load_mnist,
    split,
    train,
)
from convexlab.data import TransportError, default_data_dir

data_dir = default_data_dir()
try:
    fetch_mnist(dest_dir=data_dir)
except (TransportError, OSError) as exc:
    print(f"cannot reach the MNIST mirror and no local copy in {data_dir!r}:\n  {exc}")
    print("set CONVEXLAB_DATA_DIR to a directory holding the four IDX files and rerun.")
    sys.exit(1)

train_src, test_src = load_mnist(data_dir)
tr, va, te = split(train_src, test_src, 5000, 1000, 1000, shuffle_seed=0)
print(f"splits: train {tr.size}, val {va.size}, test {te.size}")


def config(strategy, **kw):
    base = dict(learning_rate=0.5, epochs=20, batch_size=100,
                layer_dims=(784, 128, 10), activation="tanh", seed=0)
    base.update(kw)
    return TrainConfig(strategy=strategy, **base)


# baseline with hold-out-selected learning rate
ce_lr = min(
    ((train(config("ce", learning_rate=lr), tr, va).best_val_ce, lr) for lr in (1.0, 0.5, 0.1))
)[1]
ce_rep = train(config("ce", learning_rate=ce_lr), tr, va)
ce_ce, ce_err = evaluate(ce_rep.best_model, te)
print(f"\nce baseline (lr={ce_lr:g}): test error {ce_err:.4f}, test ce {ce_ce:.4f}")

# the protocol: grid over learning rate and penalty weight, lam0 = 10
result = grid_search(grid_configs(config("anrat", lambda0=10.0)), tr, va)
row = result.best_row
print("\ngrid search (ranked by validation ce):")
for r in result.rows:
    print(f"  lr={r.lr:<5g} a={r.a:<6g} val_ce={r.best_val_ce:.4f} "
          f"val_err={r.best_val_error:.4f} [{r.status}]")

an_ce, an_err = evaluate(result.best_report.best_model, te)
lams = [round(r.lam, 3) for r in result.best_report.records]
print(f"\nadaptive training (lr={row.lr:g}, a={row.a:g}): test error {an_err:.4f}")
print(f"lam trajectory: {lams}")

sched = train(config("scheduled", lambda0=100.0, rho=0.8, epochs=25), tr, va)
switch = next((r.epoch for r in sched.records if r.switched_to_rae), None)
s_ce, s_err = evaluate(sched.best_model, te)
print(f"\nscheduled run: switched at epoch {switch}, test error {s_err:.4f}")
