"""Command-line front end: `fetch`, `train`, `gridsearch`, `gradcheck`,
`scan`, and `eval`.

Configuration is a flat key=value file (one pair per line, `#` comments)
merged with command-line overrides; unknown keys are rejected.  The
effective configuration of every run is echoed to `<run>.resolved.cfg` so
the run can be reproduced from it.  Exit codes are stable: 0 ok, 1
config/usage, 2 transport, 3 training failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .criteria import EXP_CAP
from .convexity import scan_convexity, write_scan_csvs
from .data import (
    DEFAULT_MNIST_URL,
    IdxFormatError,
    SampleBatch,
    SplitSpec,
    TransportError,
    default_data_dir,
    fetch_mnist,
    load_mnist,
    split,
    synthetic_blobs,
    synthetic_regression,
)
from .gradcheck import run_gradcheck
from .network import deserialize_model, init_model, serialize_model
from .seeds import rng_for
from .trainer import (
    DivergedError,
    NoViableModelError,
    TrainConfig,
    evaluate,
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


_REQUIRED = object()

# key -> (default, parser, help); _REQUIRED keys must come from the config
# file or a flag
KEY_SPECS = {
    "seed": (0, int, "master seed feeding every named substream"),
    "data_dir": ("", str, "dataset directory (falls back to $CONVEXLAB_DATA_DIR, then ./data)"),
    "out": ("runs", str, "output directory for CSVs, models, resolved configs"),
    "run_name": ("run", str, "prefix for this run's output files"),
    "mnist_base_url": (DEFAULT_MNIST_URL, str, "base URL of the four MNIST .gz files"),
    # dataset
    "dataset": ("mnist", str, "mnist | blobs | sine | peak"),
    "train_count": (5000, int, "training samples drawn from the source"),
    "val_count": (1000, int, "hold-out validation samples"),
    "test_count": (1000, int, "test samples (from the designated test source)"),
    "samples": (200, int, "synthetic dataset size per partition unit"),
    "noise_sd": (0.0, float, "observation noise for synthetic regression"),
    "blob_classes": (10, int, "classes for the blobs dataset"),
    "blob_dim": (16, int, "input dimension for the blobs dataset"),
    # network
    "net": ("784,128,10", _ints, "layer sizes d_0,...,d_L"),
    "activation": ("tanh", str, "hidden activation: sigmoid | tanh | relu"),
    "output_mode": ("auto", str, "softmax-ce | sigmoid-binary-ce | identity-squared | auto"),
    # training
    "strategy": (_REQUIRED, str, "ce | nrae-fixed | scheduled | anrat"),
    "learning_rate": (0.5, float, "SGD step size for the weights"),
    "lambda_lr": ("auto", str, "step size for lam (anrat); auto = learning_rate"),
    "epochs": (20, int, "training epochs"),
    "batch_size": (100, int, "SGD batch size"),
    "lambda0": (10.0, float, "initial convexity index (scheduled default: 100)"),
    "p": (1, int, "exponent applied as lam**p"),
    "a": (0.1, float, "penalty weight of the adaptive criterion"),
    "q": (1, int, "penalty index of the adaptive criterion"),
    "rho": (0.8, float, "per-epoch lam decay of the scheduled strategy"),
    "switch_cap": (EXP_CAP, float, "feasibility cap for the scheduled switch"),
    "stagnancy_window": (5, int, "epochs inspected by the stagnancy detector"),
    "stagnancy_min_rel": (1e-4, float, "minimum relative val improvement over the window"),
    # grid search
    "lr_grid": ("1,0.5,0.1", _floats, "learning-rate grid"),
    "a_grid": ("1,0.1,0.001", _floats, "penalty-weight grid"),
    # gradcheck
    "gc_cases": (120, int, "number of random gradcheck configurations"),
    "gc_tolerance": (1e-5, float, "max relative error for weight gradients"),
    "gc_tolerance_lambda": (1e-6, float, "max relative error for the lam derivative"),
    "gc_lambdas": ("0.001,1,10,100", _floats, "lam values swept by gradcheck"),
    "gc_ps": ("1,2", _ints, "p values swept by gradcheck"),
    "gc_h": (1e-6, float, "finite-difference step"),
    # scan
    "lambdas": ("1,2,4,8", _floats, "ascending lam values for the convexity scan"),
    "points": (200, int, "parameter-space sample points per lam"),
    "box_radius": (1.0, float, "half-width of the sampling box"),
    "scan_samples": (20, int, "size of the scan's fixed synthetic dataset"),
    "target_scale": (6.0, float, "target amplitude of the scan dataset (scales the losses "
                                 "so the tilt is strong already at small lam)"),
    "scan_h": (1e-4, float, "Hessian finite-difference step"),
    "preset": ("", str, "scan preset: '' | logistic"),
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


class RunConfig:
    """Effective flat configuration: defaults, then config file, then
    command-line overrides.  Tracks which keys were set explicitly."""

    def __init__(self, file_values=None, overrides=None):
        self.raw = {}
        self.explicit = set()
        for key, (default, _, _) in KEY_SPECS.items():
            self.raw[key] = default
        for source in (file_values or {}), (overrides or {}):
            for key, val in source.items():
                if key not in KEY_SPECS:
                    raise ConfigError(f"unknown key {key!r}")
                self.raw[key] = val
                self.explicit.add(key)

    def get(self, key):
        raw = self.raw[key]
        if raw is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        if isinstance(raw, str):
            _, parser, _ = KEY_SPECS[key]
            try:
                return parser(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
        return raw

    def was_set(self, key) -> bool:
        return key in self.explicit

    def resolved_text(self) -> str:
        lines = []
        for key in KEY_SPECS:
            raw = self.raw[key]
            if raw is _REQUIRED:
                continue
            val = self.get(key)
            if isinstance(val, tuple):
                val = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
            elif isinstance(val, float):
                val = repr(val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def _build_config(args) -> RunConfig:
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    for flag, key in (("seed", "seed"), ("data_dir", "data_dir"), ("out", "out"),
                      ("run_name", "run_name"), ("strategy", "strategy")):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[key] = str(val)
    cfg = RunConfig(file_values, overrides)
    # strategy-conditional default, resolved here so the echoed config
    # reproduces the run rather than re-deriving a different lambda0
    if cfg.raw["strategy"] == "scheduled" and not cfg.was_set("lambda0"):
        cfg.raw["lambda0"] = 100.0
        cfg.explicit.add("lambda0")
    return cfg


def _resolve_data_dir(cfg: RunConfig) -> str:
    explicit = cfg.get("data_dir") or None
    return default_data_dir(explicit)


def _out_path(cfg: RunConfig, suffix: str) -> str:
    out = cfg.get("out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{cfg.get('run_name')}{suffix}")


def _echo_resolved(cfg: RunConfig) -> str:
    path = _out_path(cfg, ".resolved.cfg")
    with open(path, "w", newline="\n") as fh:
        fh.write(cfg.resolved_text())
    return path


def _load_datasets(cfg: RunConfig):
    """(train, val, test) SampleBatches plus the inferred output mode."""
    name = cfg.get("dataset")
    seed = cfg.get("seed")
    n_train, n_val, n_test = cfg.get("train_count"), cfg.get("val_count"), cfg.get("test_count")
    if name == "mnist":
        source_train, source_test = load_mnist(_resolve_data_dir(cfg))
        spec = SplitSpec(n_train, n_val, n_test, shuffle_seed=seed)
        tr, va, te = split(source_train, source_test, spec)
        return tr, va, te, "softmax-ce"
    if name == "blobs":
        total = n_train + n_val + n_test
        full = synthetic_blobs(total, cfg.get("blob_classes"), cfg.get("blob_dim"), seed)
        parts = np.split(np.arange(total), [n_train, n_train + n_val])
        return full.take(parts[0]), full.take(parts[1]), full.take(parts[2]), "softmax-ce"
    if name in ("sine", "peak"):
        total = n_train + n_val + n_test
        full = synthetic_regression(name, total, cfg.get("noise_sd"), seed)
        parts = np.split(np.arange(total), [n_train, n_train + n_val])
        return full.take(parts[0]), full.take(parts[1]), full.take(parts[2]), "identity-squared"
    raise ConfigError(f"unknown dataset {cfg.raw['dataset']!r}")


def _train_config(cfg: RunConfig, output_mode: str, strategy=None) -> TrainConfig:
    strategy = strategy or cfg.get("strategy")
    mode = cfg.get("output_mode")
    if mode == "auto":
        mode = output_mode
    lambda0 = cfg.get("lambda0")
    lambda_lr = None
    if strategy == "anrat" and cfg.raw["lambda_lr"] != "auto":
        lambda_lr = float(cfg.raw["lambda_lr"])
    return TrainConfig(
        strategy=strategy,
        learning_rate=cfg.get("learning_rate"),
        epochs=cfg.get("epochs"),
        batch_size=cfg.get("batch_size"),
        layer_dims=cfg.get("net"),
        activation=cfg.get("activation"),
        output_mode=mode,
        lambda_lr=lambda_lr,
        lambda0=lambda0,
        p=cfg.get("p"),
        a=cfg.get("a"),
        q=cfg.get("q"),
        rho=cfg.get("rho") if strategy == "scheduled" else None,
        switch_cap=cfg.get("switch_cap"),
        stagnancy_window=cfg.get("stagnancy_window"),
        stagnancy_min_rel_improvement=cfg.get("stagnancy_min_rel"),
        seed=cfg.get("seed"),
    ).validate()


def cmd_fetch(args) -> int:
    cfg = _build_config(args)
    dest = _resolve_data_dir(cfg)
    from .data import MNIST_FILES
    cached = all(os.path.exists(os.path.join(dest, n)) for n in MNIST_FILES)
    paths = fetch_mnist(cfg.get("mnist_base_url"), dest)
    if cached:
        print("cached: all four files already present")
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build_config(args)
    train_set, val_set, test_set, inferred = _load_datasets(cfg)
    tc = _train_config(cfg, inferred)
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


def cmd_gridsearch(args) -> int:
    cfg = _build_config(args)
    single = (args.lr is not None, args.a is not None)
    grids = (args.lr_grid is not None, args.a_grid is not None)
    if (single[0] and grids[0]) or (single[1] and grids[1]):
        raise ConfigError("give either a single point (--lr/--a) or a grid, not both")
    lr_grid = (args.lr,) if args.lr is not None else (_floats(args.lr_grid) if args.lr_grid else cfg.get("lr_grid"))
    a_grid = (args.a,) if args.a is not None else (_floats(args.a_grid) if args.a_grid else cfg.get("a_grid"))
    train_set, val_set, test_set, inferred = _load_datasets(cfg)
    base = _train_config(cfg, inferred, strategy="anrat")
    _echo_resolved(cfg)
    result = grid_search(base, train_set, val_set, lr_grid, a_grid)
    path = _out_path(cfg, ".grid.csv")
    write_grid_csv(result.rows, path)
    best = result.best_row
    test_ce, test_err = evaluate(result.best_report.best_model, test_set)
    print(f"best: lr={best.lr:g} a={best.a:g} val_ce={best.best_val_ce:.6f} "
          f"val_error={best.best_val_error:.4f}")
    print(f"test: ce={test_ce:.6f} error={test_err:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _build_config(args)
    lambdas = (args.lam,) if args.lam is not None else cfg.get("gc_lambdas")
    ps = (args.p,) if args.p is not None else cfg.get("gc_ps")
    tol_w = args.tolerance if args.tolerance is not None else cfg.get("gc_tolerance")
    tol_l = args.tolerance_lambda if args.tolerance_lambda is not None else cfg.get("gc_tolerance_lambda")
    summary = run_gradcheck(
        num_cases=cfg.get("gc_cases"),
        lambdas=lambdas,
        ps=ps,
        tol_weights=tol_w,
        tol_lambda=tol_l,
        h=cfg.get("gc_h"),
        seed=cfg.get("seed"),
    )
    print(f"{summary.num_cases} configurations in {summary.elapsed_s:.1f}s")
    print(f"max weight-gradient relative error: {summary.max_weight_rel_err:.3e} (tolerance {tol_w:g})")
    print(f"max lam-derivative relative error:  {summary.max_lambda_rel_err:.3e} (tolerance {tol_l:g})")
    if not summary.ok:
        print("FAIL", file=sys.stderr)
        print(f"worst weight case:  {summary.worst_weight_case.describe()}", file=sys.stderr)
        print(f"worst lambda case:  {summary.worst_lambda_case.describe()}", file=sys.stderr)
        return EXIT_VERIFICATION
    print("PASS")
    return EXIT_OK


def _scan_problem(cfg: RunConfig):
    seed = cfg.get("seed")
    preset = cfg.get("preset")
    if preset == "logistic":
        rng = rng_for(seed, "scan-data")
        x = rng.uniform(-2.0, 2.0, size=cfg.get("scan_samples"))
        dataset = SampleBatch(x[:, None], (x > 0).astype(np.int64))
        template = init_model([1, 1], "tanh", "sigmoid-binary-ce", seed)
        return template, dataset
    if preset:
        raise ConfigError(f"unknown scan preset {preset!r}")
    base = synthetic_regression("sine", cfg.get("scan_samples"), cfg.get("noise_sd"), seed)
    dataset = SampleBatch(base.inputs, cfg.get("target_scale") * base.targets)
    template = init_model(cfg.get("net"), cfg.get("activation"), "identity-squared", seed)
    return template, dataset


def cmd_scan(args) -> int:
    cfg = _build_config(args)
    template, dataset = _scan_problem(cfg)
    _echo_resolved(cfg)
    scan = scan_convexity(
        template,
        dataset,
        cfg.get("lambdas"),
        num_points=cfg.get("points"),
        box_radius=cfg.get("box_radius"),
        seed=cfg.get("seed"),
        p=cfg.get("p"),
        h=cfg.get("scan_h"),
    )
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


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    model_path = args.model or cfg.get("model")
    if not model_path:
        raise ConfigError("missing required key 'model' (or --model PATH)")
    with open(model_path) as fh:
        model = deserialize_model(fh.read())
    _, _, test_set, _ = _load_datasets(cfg)
    ce, err = evaluate(model, test_set)
    print(f"test: ce={ce:.6f} error={err:.4f} ({test_set.size} samples)")
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--data-dir", dest="data_dir", help="dataset directory")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--run-name", dest="run_name", help="output file prefix")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override any config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexlab",
        description="Convexified loss criteria: training, verification, and convexity scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fetch", help="download the MNIST IDX files")
    _add_common(p)
    p.set_defaults(fn=cmd_fetch)

    p = subs.add_parser("train", help="train one strategy, write metrics CSV and best model")
    _add_common(p)
    p.add_argument("--strategy", choices=("ce", "nrae-fixed", "scheduled", "anrat"))
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("gridsearch", help="grid-search (learning rate, penalty weight)")
    _add_common(p)
    p.add_argument("--lr", type=float, help="single learning rate instead of the grid")
    p.add_argument("--a", type=float, help="single penalty weight instead of the grid")
    p.add_argument("--lr-grid", dest="lr_grid", help="comma separated learning-rate grid")
    p.add_argument("--a-grid", dest="a_grid", help="comma separated penalty-weight grid")
    p.set_defaults(fn=cmd_gridsearch)

    p = subs.add_parser("gradcheck", help="finite-difference verification of the derivatives")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, help="check a single lam value")
    p.add_argument("--p", type=int, help="check a single exponent p")
    p.add_argument("--tolerance", type=float, help="weight-gradient tolerance")
    p.add_argument("--tolerance-lambda", dest="tolerance_lambda", type=float,
                   help="lam-derivative tolerance")
    p.set_defaults(fn=cmd_gradcheck)

    p = subs.add_parser("scan", help="convexity-region scan over weight space")
    _add_common(p)
    p.add_argument("--net", help="layer sizes, e.g. 1,3,1")
    p.add_argument("--lambdas", help="ascending lam list, e.g. 1,2,4,8")
    p.add_argument("--points", type=int)
    p.add_argument("--box-radius", dest="box_radius", type=float)
    p.add_argument("--preset", choices=("logistic",))
    p.set_defaults(fn=cmd_scan)

    p = subs.add_parser("eval", help="evaluate a serialized model on the test set")
    _add_common(p)
    p.add_argument("--model", help="path of a serialized model file")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # scan flags map onto config keys
    for flag, key in (("net", "net"), ("lambdas", "lambdas"), ("points", "points"),
                      ("box_radius", "box_radius"), ("preset", "preset")):
        val = getattr(args, flag, None)
        if val is not None:
            args.set = (args.set or []) + [f"{key}={val}"]
    try:
        return args.fn(args)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
