"""Command-line front end: `fetch`, `train`, `gridsearch`, `gradcheck`,
`scan`, and `eval`.

Configuration is one flat key=value mapping (`KEY_SPECS`), built in layers:
defaults (the library's own wherever it defines one, so the two cannot
drift), then the `--config` file (one pair per line, `#` comments), then
`--set key=value` overrides, then the command's flags.  Every flag is a
shorthand for `--set` on its own key (`COMMANDS`), so each value, whatever its
source, is parsed once by its key's parser into a plain dict before any data
is loaded; unknown keys are rejected, and so are `train` without `strategy`
and `eval` without `model`.  `train` and `gridsearch` build their
`TrainConfig`s from the keys as given, whatever the strategy, every grid
point included, before loading data too.  No key sets the output mode:
`network.output_mode_for` derives it from the targets, and labels or real
targets that `net` cannot fit are refused as the data loads.  `scan` takes
its problem from `convexity.scan_problem`.  No key sets gradcheck's pass
bounds either: they are `gradcheck.TOL_WEIGHTS` and `TOL_LAMBDA`.
`train`, `gridsearch` and `scan` echo every key to `<run>.resolved.cfg`,
which reproduces the run; a refused run writes none.  Stable exit codes: 0
ok, 1 config/usage, 2 transport, 3 training failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import convexity, gradcheck, trainer
from .convexity import scan_convexity, scan_problem, write_scan_csvs
from .criteria import NumericDomainError
from .data import (
    DEFAULT_MNIST_URL,
    IdxFormatError,
    TransportError,
    default_data_dir,
    fetch_mnist,
    load_mnist,
    split,
    synthetic_blobs,
    synthetic_regression,
)
from .gradcheck import run_gradcheck
from .network import deserialize_model, output_mode_for, serialize_model
from .trainer import (
    STRATEGIES,
    DivergedError,
    NoViableModelError,
    TrainConfig,
    evaluate,
    grid_configs,
    grid_search,
    train,
    write_grid_csv,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRANSPORT = 2
EXIT_TRAINING = 3
EXIT_VERIFICATION = 4


class ConfigError(Exception):
    pass


def _floats(text):
    return tuple(float(tok) for tok in str(text).replace(",", " ").split())


def _ints(text):
    return tuple(int(tok) for tok in str(text).replace(",", " ").split())


def _float_or_auto(text):
    return "auto" if text == "auto" else float(text)


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"expected one of {' | '.join(map(repr, names))}")
        return text
    return parse


# TrainConfig's field defaults, shared by the keys of the same name
_TRAIN = {f.name: f.default for f in dataclasses.fields(TrainConfig)}

# key -> (default, parser, help); defaults are stored parsed
KEY_SPECS = {
    "seed": (0, int, "master seed feeding every named substream"),
    "data_dir": ("", str, "dataset directory (falls back to $CONVEXLAB_DATA_DIR, then ./data)"),
    "out": ("runs", str, "output directory for CSVs, models, resolved configs"),
    "run_name": ("run", str, "prefix for this run's output files"),
    "mnist_base_url": (DEFAULT_MNIST_URL, str, "base URL of the four MNIST .gz files"),
    # dataset
    "dataset": ("mnist", _choice("mnist", "blobs", "sine", "peak"), "mnist | blobs | sine | peak"),
    "train_count": (5000, int, "training samples drawn from the source"),
    "val_count": (1000, int, "hold-out validation samples"),
    "test_count": (1000, int, "test samples (from the designated test source)"),
    "noise_sd": (0.0, float, "observation noise for synthetic regression"),
    # network
    "net": ((784, 128, 10), _ints, "layer sizes d_0,...,d_L"),
    "activation": (_TRAIN["activation"], str, "hidden activation: sigmoid | tanh | relu"),
    # training
    "strategy": ("", _choice("", *STRATEGIES), " | ".join(STRATEGIES) + " (train requires it)"),
    "learning_rate": (0.5, float, "SGD step size for the weights"),
    "lambda_lr": ("auto", _float_or_auto, "step size for lam (anrat); auto = learning_rate"),
    "epochs": (20, int, "training epochs"),
    "batch_size": (100, int, "SGD batch size"),
    "lambda0": (_TRAIN["lambda0"], float, "initial convexity index, used as given: >= 1 for scheduled "
                                          "(train default: 100), >= 0.001 for anrat"),
    "p": (_TRAIN["p"], int, "exponent applied as lam**p"),
    "a": (_TRAIN["a"], float, "penalty weight of the adaptive criterion"),
    "q": (_TRAIN["q"], int, "penalty index of the adaptive criterion"),
    "rho": (_TRAIN["rho"], float, "per-epoch lam decay of the scheduled strategy, in (0, 1)"),
    # grid search
    "lr_grid": (trainer.DEFAULT_LR_GRID, _floats, "learning-rate grid"),
    "a_grid": (trainer.DEFAULT_A_GRID, _floats, "penalty-weight grid"),
    # gradcheck
    "gc_cases": (gradcheck.DEFAULT_CASES, int, "number of random gradcheck configurations"),
    "gc_lambdas": (gradcheck.DEFAULT_LAMBDAS, _floats, "lam values swept by gradcheck"),
    "gc_ps": (gradcheck.DEFAULT_PS, _ints, "p values swept by gradcheck"),
    # scan
    "lambdas": ((1.0, 2.0, 4.0, 8.0), _floats, "ascending lam values for the convexity scan"),
    "points": (200, int, "parameter-space sample points per lam"),
    "box_radius": (1.0, float, "half-width of the sampling box"),
    "scan_samples": (convexity.SCAN_SAMPLES, int, "size of the scan's fixed synthetic dataset"),
    "target_scale": (convexity.TARGET_SCALE, float, "target amplitude of the scan dataset (scales "
                                                    "the losses so the tilt is strong already at small lam)"),
    "preset": ("", _choice(*convexity.SCAN_PRESETS), "scan preset: '' | logistic (ignores net, activation)"),
    # eval
    "model": ("", str, "path of a serialized model file"),
}


def parse_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{n}: expected 'key = value'")
            key, _, raw = body.partition("=")
            key = key.strip()
            if key not in KEY_SPECS:
                raise ConfigError(f"{path}:{n}: unknown key {key!r}")
            values[key] = raw.strip()
    return values


def resolved_text(cfg: dict) -> str:
    """The effective configuration as a config file, one line per key."""
    lines = []
    for key in KEY_SPECS:
        val = cfg[key]
        if isinstance(val, tuple):
            val = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _parse_value(key, raw):
    if "#" in raw:
        # the echoed config would cut the value at its comment mark
        raise ConfigError(f"value of {key!r} contains '#': {raw!r}")
    try:
        return KEY_SPECS[key][1](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


def _build_config(args) -> dict:
    """Defaults < --config file < --set < the command's flags, as one dict
    of parsed values.  Each value given is parsed once, here, so a bad one
    is named before any data is loaded."""
    given = parse_config_file(args.config) if args.config else {}
    for item in args.set or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        given[key.strip()] = val.strip()
    for key in {**COMMON_FLAGS, **COMMANDS[args.command][2]}.values():
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    for key in given:
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown key {key!r}")
    # the scheduled strategy's default, resolved here so the echoed config
    # reproduces the run rather than re-deriving a different lambda0; the
    # grid search always trains anrat, from lambda0 as given
    if args.command == "train" and given.get("strategy") == "scheduled":
        given.setdefault("lambda0", "100.0")
    cfg = {key: _parse_value(key, given[key]) if key in given else default
           for key, (default, _, _) in KEY_SPECS.items()}
    if args.command == "train" and not cfg["strategy"]:
        raise ConfigError("missing required key 'strategy'")
    return cfg


def _out_path(cfg: dict, suffix: str) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], f"{cfg['run_name']}{suffix}")


def _echo_resolved(cfg: dict) -> str:
    path = _out_path(cfg, ".resolved.cfg")
    with open(path, "w", newline="\n") as fh:
        fh.write(resolved_text(cfg))
    return path


def _load_datasets(cfg: dict):
    """(train, val, test) SampleBatches.  Blobs get net[0] input features
    and net[-1] classes, or two classes for a one-unit net.  Labels that
    net[-1] output units cannot take are refused here, before the echo."""
    name = cfg["dataset"]
    seed = cfg["seed"]
    for key in ("train_count", "val_count", "test_count"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    n_train, n_val, n_test = cfg["train_count"], cfg["val_count"], cfg["test_count"]
    if name == "mnist":
        source_train, source_test = load_mnist(default_data_dir(cfg["data_dir"] or None))
        parts = split(source_train, source_test, n_train, n_val, n_test, shuffle_seed=seed)
    else:
        total = n_train + n_val + n_test
        if name == "blobs":
            full = synthetic_blobs(total, max(cfg["net"][-1], 2), cfg["net"][0], seed)
        else:
            full = synthetic_regression(name, total, cfg["noise_sd"], seed)
        parts = tuple(full.take(idx) for idx in np.split(np.arange(total), [n_train, n_train + n_val]))
    for part in parts:
        output_mode_for(part, cfg["net"][-1])
    return parts


def _train_config(cfg: dict, strategy=None) -> TrainConfig:
    """The run's TrainConfig, which validates itself: built before any data
    loads, so a bad value is named first.  Each field is passed as its key
    gives it (layer_dims is `net`; lambda_lr `auto` is None)."""
    fields = {name: cfg[name] for name in _TRAIN if name != "layer_dims"}
    return TrainConfig(**{**fields, "strategy": strategy or cfg["strategy"], "layer_dims": cfg["net"],
                          "lambda_lr": None if cfg["lambda_lr"] == "auto" else cfg["lambda_lr"]})


def cmd_fetch(cfg: dict) -> int:
    dest = default_data_dir(cfg["data_dir"] or None)
    from .data import MNIST_FILES
    cached = all(os.path.exists(os.path.join(dest, n)) for n in MNIST_FILES)
    paths = fetch_mnist(cfg["mnist_base_url"], dest)
    if cached:
        print("cached: all four files already present")
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_train(cfg: dict) -> int:
    tc = _train_config(cfg)
    train_set, val_set, test_set = _load_datasets(cfg)
    _echo_resolved(cfg)
    report = train(tc, train_set, val_set)
    metrics_path = _out_path(cfg, ".metrics.csv")
    write_metrics_csv(report.records, metrics_path)
    model_path = _out_path(cfg, ".model.txt")
    with open(model_path, "w", newline="\n") as fh:
        fh.write(serialize_model(report.best_model))
    test_ce, test_err = evaluate(report.best_model, test_set)
    print(f"best epoch {report.best_epoch}: val_ce={report.best_val_ce:.6f} "
          f"val_error={report.best_val_error:.4f}")
    print(f"test: ce={test_ce:.6f} error={test_err:.4f}")
    print(f"stagnant: {report.stagnant}")
    print(f"wrote {metrics_path} and {model_path}")
    return EXIT_OK


def cmd_gridsearch(cfg: dict) -> int:
    # every grid point is built, and so checked, before the data load
    configs = grid_configs(_train_config(cfg, strategy="anrat"), cfg["lr_grid"], cfg["a_grid"])
    train_set, val_set, test_set = _load_datasets(cfg)
    _echo_resolved(cfg)
    result = grid_search(configs, train_set, val_set)
    path = _out_path(cfg, ".grid.csv")
    write_grid_csv(result.rows, path)
    best = result.best_row
    test_ce, test_err = evaluate(result.best_report.best_model, test_set)
    print(f"best: lr={best.lr:g} a={best.a:g} val_ce={best.best_val_ce:.6f} "
          f"val_error={best.best_val_error:.4f}")
    print(f"test: ce={test_ce:.6f} error={test_err:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(cfg: dict) -> int:
    summary = run_gradcheck(num_cases=cfg["gc_cases"], lambdas=cfg["gc_lambdas"], ps=cfg["gc_ps"],
                            seed=cfg["seed"])
    print(f"{summary.num_cases} configurations in {summary.elapsed_s:.1f}s")
    print(f"max weight-gradient relative error: {summary.max_weight_rel_err:.3e} "
          f"(tolerance {gradcheck.TOL_WEIGHTS:g})")
    print(f"max lam-derivative relative error:  {summary.max_lambda_rel_err:.3e} "
          f"(tolerance {gradcheck.TOL_LAMBDA:g})")
    if not summary.ok:
        print("FAIL", file=sys.stderr)
        for name, err, case in (("weight", summary.max_weight_rel_err, summary.worst_weight_case),
                                ("lambda", summary.max_lambda_rel_err, summary.worst_lambda_case)):
            why = f" (error nan: both values below {gradcheck.REL_ERROR_FLOOR:g}, or not finite)"
            print(f"worst {name} case:  {case.describe()}{why if np.isnan(err) else ''}", file=sys.stderr)
        return EXIT_VERIFICATION
    print("PASS")
    return EXIT_OK


def cmd_scan(cfg: dict) -> int:
    template, dataset = scan_problem(cfg["net"], cfg["activation"], cfg["scan_samples"],
                                     cfg["target_scale"], cfg["noise_sd"], cfg["seed"], cfg["preset"])
    scan = scan_convexity(template, dataset, cfg["lambdas"], num_points=cfg["points"],
                          box_radius=cfg["box_radius"], seed=cfg["seed"], p=cfg["p"])
    _echo_resolved(cfg)  # after scan_convexity has checked its arguments
    detail = _out_path(cfg, ".scan.csv")
    summary = _out_path(cfg, ".scan_summary.csv")
    write_scan_csvs(scan, detail, summary)
    for lam, frac in zip(scan.lambdas, scan.psd_fraction):
        print(f"lambda={lam:g}: psd_fraction={frac:.3f}")
    viol = [int(v) for v in scan.comparison_violations()]
    print(f"base-criterion PSD points: {int(scan.ce_psd.sum())} of {scan.points.shape[0]}; "
          f"containment violations per lambda: {viol}")
    print(f"wrote {detail} and {summary}")
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    model_path = cfg["model"]
    if not model_path:
        raise ConfigError("missing required key 'model' (or --model PATH)")
    with open(model_path) as fh:
        model = deserialize_model(fh.read())
    # the data take their shape from the model, as they did in its train run
    _, _, test_set = _load_datasets({**cfg, "net": model.layer_dims})
    ce, err = evaluate(model, test_set)
    print(f"test: ce={ce:.6f} error={err:.4f} ({test_set.size} samples)")
    return EXIT_OK


# Each flag is a shorthand for `--set KEY=VALUE` on the config key it maps
# to, and no two flags of a command set the same key.
COMMON_FLAGS = {"--seed": "seed", "--data-dir": "data_dir", "--out": "out", "--run-name": "run_name"}

# command -> (function, help, flags)
COMMANDS = {
    "fetch": (cmd_fetch, "download the MNIST IDX files", {}),
    "train": (cmd_train, "train one strategy, write metrics CSV and best model",
              {"--strategy": "strategy"}),
    "gridsearch": (cmd_gridsearch, "grid-search (learning rate, penalty weight)",
                   {"--lr": "lr_grid", "--a": "a_grid"}),
    "gradcheck": (cmd_gradcheck, "finite-difference verification of the derivatives",
                  {"--lambda": "gc_lambdas", "--p": "gc_ps"}),
    "scan": (cmd_scan, "convexity-region scan over weight space",
             {"--net": "net", "--lambdas": "lambdas", "--points": "points",
              "--box-radius": "box_radius", "--preset": "preset"}),
    "eval": (cmd_eval, "evaluate a serialized model on the test set (net is read from the model)",
             {"--model": "model"}),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other config error, not with argparse's
    2, which is EXIT_TRANSPORT here."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="convexlab",
        description="Convexified loss criteria: training, verification, and convexity scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override any config key (repeatable)")
        for flag, key in {**COMMON_FLAGS, **flags}.items():
            sub.add_argument(flag, dest=key, metavar="VALUE", help=f"{KEY_SPECS[key][2]} (sets {key})")
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(_build_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except IdxFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (DivergedError, NoViableModelError) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, NumericDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
