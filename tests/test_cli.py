import dataclasses
import gzip
import inspect
import os
import re

import numpy as np
import pytest

import convexlab.cli as cli
from convexlab import convexity, gradcheck, trainer
from convexlab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_TRANSPORT,
    EXIT_VERIFICATION,
    KEY_SPECS,
    ConfigError,
    _build_config,
    _load_datasets,
    build_parser,
    main,
    parse_config_file,
    resolved_text,
)
from convexlab.data import MNIST_FILES, synthetic_blobs, write_idx_images, write_idx_labels
from convexlab.network import init_model, output_mode_for, serialize_model

SINE_TRAIN = [
    "--set", "dataset=sine", "--set", "net=1,8,1", "--set", "train_count=120",
    "--set", "val_count=40", "--set", "test_count=40", "--set", "epochs=4",
    "--set", "batch_size=20", "--set", "learning_rate=0.05",
]


RESOLVED_DEFAULTS = """\
seed = 0
data_dir = 
out = runs
run_name = run
mnist_base_url = https://ossci-datasets.s3.amazonaws.com/mnist/
dataset = mnist
train_count = 5000
val_count = 1000
test_count = 1000
noise_sd = 0.0
net = 784,128,10
activation = tanh
strategy = 
learning_rate = 0.5
lambda_lr = auto
epochs = 20
batch_size = 100
lambda0 = 10.0
p = 1
a = 0.1
q = 1
rho = 0.8
lr_grid = 1.0,0.5,0.1
a_grid = 1.0,0.1,0.001
gc_cases = 120
gc_lambdas = 0.001,1.0,10.0,100.0
gc_ps = 1,2
lambdas = 1.0,2.0,4.0,8.0
points = 200
box_radius = 1.0
scan_samples = 20
target_scale = 6.0
preset = 
model = 
"""


def run(args):
    return main([str(a) for a in args])


def resolve(args):
    """The parsed configuration dict a command line resolves to."""
    return _build_config(build_parser().parse_args([str(a) for a in args]))


class TestConfigParsing:
    def test_file_with_comments_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "seed = 42\n"
            "learning_rate = 0.25   # trailing comment\n"
            "\n"
            "strategy = ce\n"
        )
        values = parse_config_file(cfg_file)
        assert values == {"seed": "42", "learning_rate": "0.25", "strategy": "ce"}
        cfg = resolve(["train", "--config", cfg_file, "--set", "seed=7"])
        assert cfg["seed"] == 7
        assert cfg["learning_rate"] == 0.25
        assert cfg["strategy"] == "ce"
        assert cfg["epochs"] == KEY_SPECS["epochs"][0]

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("learninng_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learninng_rate"):
            parse_config_file(cfg_file)
        with pytest.raises(ConfigError, match="unknown key 'nope'"):
            resolve(["train", "--strategy", "ce", "--set", "nope=1"])

    def test_removed_switch_cap_key_exit_1(self, tmp_path, capsys):
        # the scheduled switch always uses EXP_CAP, no code read the
        # synthetic `samples` size, the finite-difference steps are the
        # oracles' own constants, blobs take their shape from `net`, and the
        # stagnancy detector uses the trainer's constants; an old config that
        # still sets any of these is refused, not silently ignored
        for key in ("switch_cap", "samples", "gc_h", "scan_h", "blob_dim", "blob_classes",
                    "stagnancy_window", "stagnancy_min_rel"):
            cfg_file = tmp_path / "old.cfg"
            cfg_file.write_text(f"strategy = scheduled\n{key} = 200\n")
            assert run(["train", "--config", cfg_file, "--out", tmp_path / "out"] + SINE_TRAIN) == EXIT_CONFIG
            assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_output_mode_key_exit_1_before_data(self, tmp_path, capsys, monkeypatch, source):
        # the output mode follows from the data; an old config or echo that
        # still sets it is refused like any other unknown key
        loads = []
        monkeypatch.setattr(cli, "_load_datasets", lambda cfg: loads.append(cfg))
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("output_mode = auto\n")
        given = ["--set", "output_mode=identity-squared"] if source == "set" else ["--config", cfg_file]
        out = tmp_path / "out"
        assert run(["train", "--strategy", "ce", "--out", out] + given + SINE_TRAIN) == EXIT_CONFIG
        assert "unknown key 'output_mode'" in capsys.readouterr().err
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["eval", "--set", "model=a#b"], "'model'"),
        (["train", "--strategy", "ce", "--run-name", "r#1"], "'run_name'"),
    ], ids=["set", "flag"])
    def test_comment_mark_in_value_exit_1(self, tmp_path, capsys, argv, named):
        # the echoed config would read such a value back cut at the '#'
        assert run(argv + ["--out", tmp_path] + SINE_TRAIN) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="missing required key 'strategy'"):
            resolve(["train"])

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="epochs"):
            resolve(["train", "--strategy", "ce", "--set", "epochs=three"])

    def test_each_value_parsed_once(self, monkeypatch):
        calls = []
        default, parser, help_text = KEY_SPECS["epochs"]

        def counting(text):
            calls.append(text)
            return parser(text)
        monkeypatch.setitem(KEY_SPECS, "epochs", (default, counting, help_text))
        cfg = resolve(["train", "--strategy", "ce", "--set", "epochs=3"])
        resolved_text(cfg)
        assert cfg["epochs"] == 3 and calls == ["3"]

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = resolve(["train", "--strategy", "ce", "--seed", "9", "--set", "lambdas=1,2,4",
                       "--set", "lambda_lr=0.25"])
        text = resolved_text(cfg)
        assert len(text.splitlines()) == len(KEY_SPECS)
        path = tmp_path / "resolved.cfg"
        path.write_text(text)
        assert resolve(["train", "--config", path]) == cfg

    def test_shared_defaults_are_the_library_values(self):
        fields = {f.name: f.default for f in dataclasses.fields(trainer.TrainConfig)}
        shared = {
            "lr_grid": trainer.DEFAULT_LR_GRID, "a_grid": trainer.DEFAULT_A_GRID,
            "gc_lambdas": gradcheck.DEFAULT_LAMBDAS, "gc_ps": gradcheck.DEFAULT_PS,
            "gc_cases": gradcheck.DEFAULT_CASES,
            "activation": fields["activation"], "lambda0": fields["lambda0"], "p": fields["p"],
            "a": fields["a"], "q": fields["q"], "rho": fields["rho"],
            "scan_samples": convexity.SCAN_SAMPLES, "target_scale": convexity.TARGET_SCALE,
        }
        for key, value in shared.items():
            default = KEY_SPECS[key][0]
            assert default == value and type(default) is type(value), key
        run_defaults = inspect.signature(gradcheck.run_gradcheck).parameters
        assert run_defaults["num_cases"].default == KEY_SPECS["gc_cases"][0]
        assert run_defaults["lambdas"].default == KEY_SPECS["gc_lambdas"][0]
        assert run_defaults["ps"].default == KEY_SPECS["gc_ps"][0]
        assert KEY_SPECS["preset"][1]("logistic") == "logistic"

    def test_each_flag_sets_its_own_key(self):
        for name, (_, _, flags) in cli.COMMANDS.items():
            keys = list({**cli.COMMON_FLAGS, **flags}.values())
            assert len(keys) == len(set(keys)), name

    @pytest.mark.parametrize("argv, named", [
        (["gridsearch", "--lr-grid", "0.1,0.05"], "unrecognized arguments: --lr-grid"),
        (["gridsearch", "--a-grid", "0.1"], "unrecognized arguments: --a-grid"),
        (["gradcheck", "--tolerance", "1e-3"], "unrecognized arguments: --tolerance"),
        (["gradcheck", "--tolerance-lambda", "1e-3"], "unrecognized arguments: --tolerance-lambda"),
        (["gradcheck", "--set", "gc_tolerance=1e-05"], "unknown key 'gc_tolerance'"),
        (["gradcheck", "--set", "gc_tolerance_lambda=1e-06"], "unknown key 'gc_tolerance_lambda'"),
    ], ids=["lr-grid", "a-grid", "tolerance", "tolerance-lambda", "set-gc-tolerance",
            "set-gc-tolerance-lambda"])
    def test_removed_flag_or_key_exit_1(self, tmp_path, capsys, monkeypatch, argv, named):
        # the grids have one flag each, and gradcheck's pass bounds are the library's
        checked = []
        monkeypatch.setattr(gradcheck, "check_case", lambda case: checked.append(case))
        monkeypatch.setattr(cli, "_load_datasets", lambda cfg: checked.append(cfg))
        assert run(argv + ["--out", tmp_path]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert checked == []

    def test_old_config_with_a_tolerance_line_exit_1(self, tmp_path, capsys):
        # a config or echo written before the bounds were fixed runs again once the line goes
        path = tmp_path / "old.cfg"
        path.write_text("gc_cases = 2\ngc_tolerance = 1e-05\n")
        assert run(["gradcheck", "--config", path]) == EXIT_CONFIG
        assert "unknown key 'gc_tolerance'" in capsys.readouterr().err
        path.write_text("gc_cases = 2\n")
        assert run(["gradcheck", "--config", path]) == EXIT_OK

    def test_all_defaults_echo(self):
        # the echo of an all-defaults run, as it has always read
        cfg = {key: default for key, (default, _, _) in KEY_SPECS.items()}
        assert resolved_text(cfg) == RESOLVED_DEFAULTS

    @pytest.mark.parametrize("argv, named", [
        (["train", "--strategy", "bogus"], "'strategy'"),
        (["train", "--set", "strategy=bogus"], "'strategy'"),
        (["scan", "--preset", "bogus"], "'preset'"),
        (["scan", "--points", "many"], "'points'"),
        (["train", "--strategy", "ce", "--bogus", "1"], "--bogus"),
        (["train"], "missing required key 'strategy'"),
    ], ids=["bad-choice", "bad-choice-set", "bad-preset", "bad-int", "unknown-flag", "no-strategy"])
    def test_usage_error_exit_1(self, tmp_path, capsys, argv, named):
        # a bad value or unknown flag is named before any data is loaded
        # (the data dir is empty) and exits 1, not argparse's 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(argv + ["--data-dir", empty, "--out", tmp_path]) == EXIT_CONFIG
        assert named in capsys.readouterr().err


class TestTrainCommand:
    def test_train_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["train", "--strategy", "ce", "--seed", "3", "--out", out,
                  "--run-name", "sine-ce"] + SINE_TRAIN)
        assert rc == EXIT_OK
        metrics = (out / "sine-ce.metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_criterion,train_ce,val_ce,val_error,lambda,switched,wall_ms"
        assert len(metrics) == 5
        assert (out / "sine-ce.model.txt").exists()
        assert (out / "sine-ce.resolved.cfg").exists()
        # ce strategy: lambda column constant at its default
        lams = {line.split(",")[5] for line in metrics[1:]}
        assert lams == {"10.0"}

    def test_anrat_lambda_column_varies(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["train", "--strategy", "anrat", "--seed", "3", "--out", out,
                  "--run-name", "sine-anrat", "--set", "a=0.5"] + SINE_TRAIN)
        assert rc == EXIT_OK
        metrics = (out / "sine-anrat.metrics.csv").read_text().splitlines()
        lams = [float(line.split(",")[5]) for line in metrics[1:]]
        assert len(set(lams)) > 1

    def test_missing_strategy_exit_1(self, tmp_path):
        rc = run(["train", "--out", tmp_path] + SINE_TRAIN)
        assert rc == EXIT_CONFIG

    def test_diverged_exit_3(self, tmp_path):
        with np.errstate(all="ignore"):
            rc = run(["train", "--strategy", "ce", "--out", tmp_path, "--set", "epochs=8",
                      "--set", "dataset=sine", "--set", "net=1,8,1", "--set", "learning_rate=1e6",
                      "--set", "train_count=100", "--set", "val_count=30",
                      "--set", "test_count=30", "--set", "batch_size=10"])
        assert rc == EXIT_TRAINING

    @pytest.mark.parametrize("strategy", ["ce", "scheduled"])
    def test_resolved_config_reproduces_run(self, tmp_path, strategy):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rc = run(["train", "--strategy", strategy, "--seed", "11", "--out", out1,
                  "--run-name", "first"] + SINE_TRAIN)
        assert rc == EXIT_OK
        rc = run(["train", "--config", out1 / "first.resolved.cfg", "--out", out2,
                  "--run-name", "second"])
        assert rc == EXIT_OK

        def rows_sans_wall(path):
            rows = path.read_text().splitlines()[1:]
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert rows_sans_wall(out1 / "first.metrics.csv") == \
            rows_sans_wall(out2 / "second.metrics.csv")
        m1 = (out1 / "first.model.txt").read_text()
        m2 = (out2 / "second.model.txt").read_text()
        assert m1 == m2
        if strategy == "scheduled":
            # the strategy-conditional default must land in the echo
            assert "lambda0 = 100.0" in (out1 / "first.resolved.cfg").read_text()


class TestDatasets:
    BLOBS = ["--set", "dataset=blobs", "--set", "train_count=60", "--set", "val_count=20",
             "--set", "test_count=20", "--set", "epochs=1", "--set", "batch_size=20"]

    def test_blobs_with_default_net(self, tmp_path):
        out = tmp_path / "out"
        assert run(["train", "--strategy", "ce", "--out", out] + self.BLOBS) == EXIT_OK
        assert (out / "run.metrics.csv").exists()

    def test_blobs_one_unit_net_is_binary(self, tmp_path):
        args = ["train", "--strategy", "ce", "--out", tmp_path, "--set", "net=4,3,1"] + self.BLOBS
        assert run(args) == EXIT_OK
        tr, _, _ = _load_datasets(resolve(args))
        assert output_mode_for(tr, 1) == "sigmoid-binary-ce"
        assert tr.inputs.shape == (60, 4) and set(tr.targets.tolist()) == {0, 1}

    def test_blobs_draw_from_net_shape(self):
        # the same draw as the net's input width and class count always gave
        cfg = resolve(["train", "--strategy", "ce", "--seed", "5", "--set", "net=16,8,10"] + self.BLOBS)
        tr, va, te = _load_datasets(cfg)
        full = synthetic_blobs(100, 10, 16, 5)
        assert output_mode_for(tr, 10) == "softmax-ce"
        for part, lo, hi in ((tr, 0, 60), (va, 60, 80), (te, 80, 100)):
            assert np.array_equal(part.inputs, full.inputs[lo:hi])
            assert np.array_equal(part.targets, full.targets[lo:hi])

    @pytest.mark.parametrize("key", ["train_count", "val_count", "test_count"])
    def test_empty_blobs_split_exit_1(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        assert run(["train", "--strategy", "ce", "--out", out] + self.BLOBS + ["--set", f"{key}=0"]) == EXIT_CONFIG
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (out / "run.metrics.csv").exists()

    MNIST_SPLIT = ["--set", "train_count=20", "--set", "val_count=5", "--set", "epochs=1",
                   "--set", "batch_size=10"]

    @staticmethod
    def _write_mnist(tmp_path):
        """30 random IDX images and labels 0..9 in each of the four files."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rng = np.random.default_rng(0)
        for name in MNIST_FILES:
            if "images" in name:
                write_idx_images(data_dir / name, rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8))
            else:
                write_idx_labels(data_dir / name, rng.integers(0, 10, size=30, dtype=np.uint8))
        return data_dir

    def test_empty_mnist_split_exit_1(self, tmp_path, capsys):
        # refused before the (valid) files are read or anything is trained
        data_dir = self._write_mnist(tmp_path)
        out = tmp_path / "out"
        assert run(["train", "--strategy", "ce", "--data-dir", data_dir, "--out", out]
                   + self.MNIST_SPLIT + ["--set", "test_count=0"]) == EXIT_CONFIG
        assert "test_count must be >= 1" in capsys.readouterr().err
        assert not (out / "run.metrics.csv").exists()
        assert run(["train", "--strategy", "ce", "--data-dir", data_dir, "--out", out]
                   + self.MNIST_SPLIT + ["--set", "test_count=5"]) == EXIT_OK

    SINE_ON_TWO_UNITS = ["--set", "dataset=sine", "--set", "net=1,8,2", "--set", "train_count=100",
                         "--set", "val_count=20", "--set", "test_count=20", "--set", "epochs=2"]

    @pytest.mark.parametrize("command, data, named", [
        ("train", "mnist", r"5 output unit\(s\) need labels in \[0, 5\), got labels in \[0, [5-9]\]"),
        ("gridsearch", "mnist", r"5 output unit\(s\) need labels in \[0, 5\), got labels in \[0, [5-9]\]"),
        ("train", "sine", r"2 output unit\(s\) need real targets of width 2, got width 1"),
    ], ids=["train", "gridsearch", "sine-on-2-units"])
    def test_labels_past_the_output_layer_exit_1(self, tmp_path, capsys, command, data, named):
        # digit labels up to 9 on a 5-unit output, or 1-D real targets on a
        # 2-unit output: refused as the data loads, before the echo, not an
        # IndexError at the first batch or a broadcast fit
        out = tmp_path / "out"
        if data == "mnist":
            argv = ["--data-dir", self._write_mnist(tmp_path), "--set", "net=784,16,5",
                    "--set", "test_count=5"] + self.MNIST_SPLIT
        else:
            argv = self.SINE_ON_TWO_UNITS
        assert run([command, "--out", out, "--set", "strategy=ce"] + argv) == EXIT_CONFIG
        assert re.search(named, capsys.readouterr().err)
        assert not out.exists()


class TestCriterionValues:
    """Every training key is checked by one rule, whatever the strategy,
    before any data loads."""

    SINE = ["--set", "dataset=sine", "--set", "net=1,4,1", "--set", "train_count=20",
            "--set", "val_count=5", "--set", "test_count=5", "--set", "epochs=1"]

    @pytest.mark.parametrize("argv, key", [
        (["train", "--strategy", "ce", "--set", "p=0"], "p"),
        (["train", "--strategy", "anrat", "--set", "a=-1"], "a"),
        (["train", "--strategy", "anrat", "--set", "q=0"], "q"),
        (["gridsearch", "--set", "q=0"], "q"),
        (["gridsearch", "--set", "a_grid=0.1,-1"], "a"),
        (["gridsearch", "--set", "p=0"], "p"),
        (["train", "--strategy", "ce", "--set", "net=1,0,1"], "layer sizes"),
        (["train", "--strategy", "ce", "--set", "activation=foo"], "activation"),
        (["gridsearch", "--set", "net=1,0,1"], "layer sizes"),
        (["gridsearch", "--set", "activation=foo"], "activation"),
        (["train", "--strategy", "ce", "--set", "learning_rate=nan"], "learning_rate"),
        (["train", "--strategy", "ce", "--set", "learning_rate=inf"], "learning_rate"),
        (["train", "--strategy", "anrat", "--set", "lambda_lr=inf"], "lambda_lr"),
        (["train", "--strategy", "anrat", "--set", "lambda_lr=nan"], "lambda_lr"),
        (["gridsearch", "--set", "lr_grid=0.1,nan"], "learning_rate"),
        # every key by one rule, whether or not the strategy reads it
        (["train", "--strategy", "ce", "--set", "a=-1"], "a"),
        (["train", "--strategy", "nrae-fixed", "--set", "rho=2"], "rho"),
        (["train", "--strategy", "ce", "--set", "lambda_lr=0"], "lambda_lr"),
        # lambda0 below the strategy's lam floor, not raised to it
        (["train", "--strategy", "scheduled", "--set", "lambda0=0.5"], "lambda0"),
        (["train", "--strategy", "anrat", "--set", "lambda0=1e-4"], "lambda0"),
    ], ids=["ce-p", "anrat-a", "anrat-q", "grid-q", "grid-a-point", "grid-p",
            "ce-net", "ce-activation", "grid-net", "grid-activation", "ce-lr-nan", "ce-lr-inf",
            "anrat-lambda-lr-inf", "anrat-lambda-lr-nan", "grid-lr-point-nan",
            "ce-a", "nrae-rho", "ce-lambda-lr", "scheduled-lambda0", "anrat-lambda0"])
    def test_bad_value_exit_1_before_data(self, tmp_path, capsys, monkeypatch, argv, key):
        loads = []
        monkeypatch.setattr(cli, "_load_datasets", lambda cfg: loads.append(cfg))
        out = tmp_path / "out"
        # the bad value comes after SINE's, so it is the one that holds
        assert run(argv[:1] + self.SINE + argv[1:] + ["--out", out]) == EXIT_CONFIG
        assert re.search(rf"\b{key} must be", capsys.readouterr().err)
        assert loads == []
        assert not (out / "run.resolved.cfg").exists()


class TestEvalCommand:
    def test_eval_round_trip(self, tmp_path):
        out = tmp_path / "out"
        run(["train", "--strategy", "ce", "--seed", "3", "--out", out,
             "--run-name", "m"] + SINE_TRAIN)
        rc = run(["eval", "--model", out / "m.model.txt", "--seed", "3",
                  "--out", out] + SINE_TRAIN[:2] + SINE_TRAIN[2:])
        assert rc == EXIT_OK

    def test_eval_reads_net_from_the_model(self, tmp_path, capsys):
        # the default net is 784-128-10; without --set net the sine 1-8-1
        # model still gets width-1 targets, the same test set as with it
        out = tmp_path / "out"
        assert run(["train", "--strategy", "ce", "--out", out, "--run-name", "m"] + SINE_TRAIN) == EXIT_OK
        at = SINE_TRAIN.index("net=1,8,1")
        without_net = SINE_TRAIN[:at - 1] + SINE_TRAIN[at + 1:]
        lines = {}
        for name, extra in (("given", SINE_TRAIN), ("read", without_net)):
            capsys.readouterr()
            assert run(["eval", "--model", out / "m.model.txt", "--out", out] + extra) == EXIT_OK
            lines[name] = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("test:")]
        assert len(lines["given"]) == 1
        assert lines["read"] == lines["given"]

    def test_eval_on_another_kind_of_data_exit_1(self, tmp_path, capsys):
        # a sine regression model on blob class labels
        out = tmp_path / "out"
        assert run(["train", "--strategy", "ce", "--out", out, "--run-name", "m"] + SINE_TRAIN) == EXIT_OK
        capsys.readouterr()
        rc = run(["eval", "--model", out / "m.model.txt", "--out", out]
                 + SINE_TRAIN + ["--set", "dataset=blobs"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "imply output mode sigmoid-binary-ce, but the model's is identity-squared" in captured.err
        assert "test:" not in captured.out

    def test_eval_of_two_concatenated_models_exit_1(self, tmp_path, capsys):
        text = serialize_model(init_model([1, 8, 1], "tanh", "identity-squared", seed=0))
        path = tmp_path / "doubled.model.txt"
        path.write_text(text + text)
        assert run(["eval", "--model", path, "--out", tmp_path] + SINE_TRAIN) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"line {len(text.splitlines()) + 1}: unexpected content after the last layer" in captured.err
        assert "test:" not in captured.out

    @pytest.mark.parametrize("token", ["nan", "inf", "0x1p+1024"])
    def test_eval_of_a_non_finite_parameter_exit_1(self, tmp_path, capsys, token):
        # float.fromhex reads nan and inf, which evaluate to nan or, through a
        # saturated tanh, to a plausible loss, and overflows past the double range
        lines = serialize_model(init_model([1, 4, 1], "tanh", "identity-squared", seed=0)).splitlines()
        lines[2] = " ".join([token] + lines[2].split()[1:])
        path = tmp_path / "bad.model.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--model", path, "--out", tmp_path] + SINE_TRAIN) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: line 3: parameters must be finite doubles\n"
        assert "test:" not in captured.out

    def test_eval_requires_model(self, tmp_path):
        rc = run(["eval", "--out", tmp_path] + SINE_TRAIN)
        assert rc == EXIT_CONFIG


class TestGridsearchCommand:
    GRID_ARGS = [
        "--set", "dataset=sine", "--set", "net=1,6,1", "--set", "train_count=80",
        "--set", "val_count=30", "--set", "test_count=30", "--set", "epochs=2",
        "--set", "batch_size=20",
    ]

    def test_single_point(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["gridsearch", "--lr", "0.05", "--a", "0.1", "--seed", "2",
                  "--out", out, "--run-name", "g"] + self.GRID_ARGS)
        assert rc == EXIT_OK
        rows = (out / "g.grid.csv").read_text().splitlines()
        assert rows[0] == "lr,a,best_val_ce,best_val_error,status"
        assert len(rows) == 2

    def test_resolved_config_reproduces_single_point(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["gridsearch", "--lr", "0.05", "--a", "0.1", "--seed", "2",
                    "--out", out1, "--run-name", "g"] + self.GRID_ARGS) == EXIT_OK
        assert run(["gridsearch", "--config", out1 / "g.resolved.cfg",
                    "--out", out2]) == EXIT_OK
        assert (out1 / "g.grid.csv").read_bytes() == (out2 / "g.grid.csv").read_bytes()

    def test_scheduled_strategy_keeps_grid_lambda0(self, tmp_path):
        # the grid always trains anrat: the scheduled default of lambda0 is
        # not applied, and the echo reproduces the grid
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["gridsearch", "--lr", "0.05", "--a", "0.1", "--seed", "2", "--out", out1,
                    "--run-name", "g", "--set", "strategy=scheduled"] + self.GRID_ARGS) == EXIT_OK
        assert "lambda0 = 10.0" in (out1 / "g.resolved.cfg").read_text().splitlines()
        assert run(["gridsearch", "--config", out1 / "g.resolved.cfg", "--out", out2]) == EXIT_OK
        assert (out1 / "g.grid.csv").read_bytes() == (out2 / "g.grid.csv").read_bytes()

    def test_custom_grids_row_count(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["gridsearch", "--lr", "0.1,0.05", "--a", "0.1,0.001",
                  "--seed", "2", "--out", out, "--run-name", "g4"] + self.GRID_ARGS)
        assert rc == EXIT_OK
        rows = (out / "g4.grid.csv").read_text().splitlines()
        assert len(rows) == 5


class TestGradcheckCommand:
    def test_pass(self):
        assert run(["gradcheck", "--set", "gc_cases=12"]) == EXIT_OK

    def test_single_lambda_p(self, capsys):
        def printed(args):
            assert run(["gradcheck", "--set", "gc_cases=8"] + args) == EXIT_OK
            return re.sub(r"in [0-9.]+s", "", capsys.readouterr().out)

        assert printed(["--lambda", "100", "--p", "2"]) == \
            printed(["--set", "gc_lambdas=100", "--set", "gc_ps=2"])

    def test_tolerance_below_noise_floor_fails(self, capsys, monkeypatch):
        # the bound is the library's; a finite error over it fails the sweep
        real = gradcheck.check_case
        monkeypatch.setattr(gradcheck, "check_case",
                            lambda case: (2 * gradcheck.TOL_WEIGHTS, real(case)[1]))
        assert run(["gradcheck", "--set", "gc_cases=3"]) == EXIT_VERIFICATION
        captured = capsys.readouterr()
        assert "max weight-gradient relative error: 2.000e-05 (tolerance 1e-05)" in captured.out
        assert "PASS" not in captured.out and "worst weight case:" in captured.err

    def test_nan_error_exit_4(self, capsys, monkeypatch):
        real = gradcheck.check_case
        monkeypatch.setattr(gradcheck, "check_case",
                            lambda case: (float("nan"), real(case)[1]) if case.seed == 1001 else real(case))
        assert run(["gradcheck", "--set", "gc_cases=4"]) == EXIT_VERIFICATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "max weight-gradient relative error: nan" in captured.out
        assert "worst weight case:" in captured.err and "seed=1001" in captured.err

    def test_unresolved_lambda_derivative_exit_4(self, capsys):
        assert run(["gradcheck", "--lambda", "1e150", "--p", "2", "--set", "gc_cases=3"]) == EXIT_VERIFICATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "max lam-derivative relative error:  nan" in captured.out
        worst = next(line for line in captured.err.splitlines() if line.startswith("worst lambda case:"))
        assert "lam=1e+150 p=2" in worst and "both values below 1e-12" in worst

    @pytest.mark.parametrize("args, named", [
        (["--set", "gc_cases=0"], "at least one"),
        (["--set", "gc_cases=-2"], "at least one"),
        (["--lambda="], "at least one"),
        (["--p="], "at least one"),
    ], ids=["zero-cases", "negative-cases", "no-lambdas", "no-ps"])
    def test_empty_sweep_exit_1(self, capsys, monkeypatch, args, named):
        # a sweep that checks nothing must not print PASS or blame the
        # code; no case runs
        checked = []
        monkeypatch.setattr(gradcheck, "check_case", lambda case: checked.append(case))
        assert run(["gradcheck"] + args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert named in captured.err
        assert "PASS" not in captured.out
        assert checked == []


class TestScanCommand:
    def test_writes_csvs(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["scan", "--net", "1,3,1", "--lambdas", "1,2,4,8", "--points", "4",
                  "--seed", "0", "--out", out, "--run-name", "s"])
        assert rc == EXIT_OK
        summary = (out / "s.scan_summary.csv").read_text().splitlines()
        assert summary[0] == "lambda,psd_fraction"
        assert len(summary) == 5
        detail = (out / "s.scan.csv").read_text().splitlines()
        assert detail[0] == "lambda,point_index,min_eig,psd"
        assert len(detail) == 1 + 4 * 4

    def test_logistic_preset_fully_convex(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["scan", "--preset", "logistic", "--lambdas", "1,2,4", "--points", "10",
                  "--out", out, "--run-name", "lg"])
        assert rc == EXIT_OK
        summary = (out / "lg.scan_summary.csv").read_text().splitlines()[1:]
        assert all(line.split(",")[1] == "1.0" for line in summary)

    def test_large_lambda_reads_its_curvature(self, tmp_path, capsys):
        # the Gauss-Newton term at lam = 1e6 widens no slack; a slack grown with it read 1.000
        assert run(["scan", "--net", "1,3,1", "--lambdas", "1,1e6", "--points", "5",
                    "--out", tmp_path]) == EXIT_OK
        assert "lambda=1e+06: psd_fraction=0.000" in capsys.readouterr().out.splitlines()

    def test_resolved_config_reproduces_scan(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["scan", "--net", "1,3,1", "--lambdas", "1,2", "--points", "3", "--seed", "4",
                    "--out", out1, "--run-name", "s"]) == EXIT_OK
        echoed = (out1 / "s.resolved.cfg").read_text().splitlines()
        # every key is echoed, the unset strategy as an empty value
        assert [line.split(" = ")[0] for line in echoed] == list(KEY_SPECS)
        assert "strategy = " in echoed
        assert run(["scan", "--config", out1 / "s.resolved.cfg", "--out", out2]) == EXIT_OK
        for name in ("s.scan.csv", "s.scan_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lambdas_below_one_scan(self, tmp_path):
        out = tmp_path / "out"
        assert run(["scan", "--net", "1,3,1", "--lambdas", "0.25,0.5,1", "--points", "3",
                    "--out", out]) == EXIT_OK
        summary = (out / "run.scan_summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["0.25", "0.5", "1.0"]
        assert len((out / "run.scan.csv").read_text().splitlines()) == 1 + 3 * 3
        assert (out / "run.resolved.cfg").exists()

    def test_descending_lambdas_exit_1(self, tmp_path):
        rc = run(["scan", "--lambdas", "8,4", "--out", tmp_path])
        assert rc == EXIT_CONFIG

    def test_oversized_net_exit_1(self, tmp_path):
        rc = run(["scan", "--net", "784,128,10", "--out", tmp_path])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("args, named", [
        (["--net", "1,3,1", "--set", "points=0"], "num_points must be >= 1"),
        (["--net", "1,3,1", "--set", "lambdas=2,1"], "strictly ascending"),
        (["--net", "1,3,1", "--set", "activation=relu"], "smooth activation"),
        (["--set", "net=1,8,8,1"], "97 parameters exceeds the scan guard of 60"),
        ([], "101770 parameters exceeds the scan guard of 60"),
        (["--net", "1,3,1", "--lambdas", "0,1"], "lam must be positive and finite"),
        (["--net", "1,3,1", "--lambdas=-1,1"], "lam must be positive and finite"),
        (["--net", "1,3,1", "--lambdas", "nan,1"], "lam must be positive and finite"),
        (["--net", "1,3,1", "--lambdas", "1,inf"], "lam must be positive and finite"),
        (["--net", "1,3,1", "--set", "p=0"], "p must be an integer >= 1"),
        (["--net", "1,3,1", "--box-radius", "nan"], "box_radius must be positive and finite"),
        (["--net", "1,3,1", "--box-radius", "inf"], "box_radius must be positive and finite"),
        (["--net", "1,3,1", "--box-radius", "-1"], "box_radius must be positive and finite"),
        (["--net", "1,3,1", "--points", "1", "--box-radius", "1e308"], "as must 2 * box_radius"),
    ], ids=["no-points", "descending", "relu", "deep-net", "default-net", "zero-lambda",
            "negative-lambda", "nan-lambda", "inf-lambda", "zero-p", "nan-box", "inf-box",
            "negative-box", "huge-box"])
    def test_refused_scan_writes_no_resolved_config(self, tmp_path, capsys, args, named):
        out = tmp_path / "out"
        assert run(["scan", "--out", out] + args) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (out / "run.resolved.cfg").exists()


class TestNumericRefusals:
    """lam powers past double range, scan points whose losses, probes or
    Hessians are not finite, and negative seeds: each is one `error:` line
    and exit 1 from main(), with no run.resolved.cfg."""

    SINE = ["--set", "dataset=sine", "--set", "net=1,4,1", "--set", "train_count=20",
            "--set", "val_count=5", "--set", "test_count=5", "--set", "epochs=1", "--set", "batch_size=10"]

    @pytest.mark.parametrize("argv, named", [
        (["train", "--strategy", "nrae-fixed", "--set", "lambda0=1e200", "--set", "p=2"],
         "lam=1e+200 (p=2, q=1)"),
        (["gradcheck", "--lambda", "1e200", "--p", "2", "--set", "gc_cases=2"], "lam=1e+200 (p=2, q=1)"),
        (["gradcheck", "--lambda", "1e-200", "--p", "2", "--set", "gc_cases=2"], "lam=1e-200 (p=2, q=1)"),
        (["gradcheck", "--lambda", "1e-200", "--p", "1", "--set", "gc_cases=2"], "lam=1e-200 (p=1, q=1)"),
        (["scan", "--net", "1,3,1", "--lambdas", "1e200", "--set", "p=2"], "lam=1e+200 (p=2, q=1)"),
        (["scan", "--net", "1,3,1", "--points", "1", "--box-radius", "1e300"],
         "point 0, box_radius 1e+300, lambdas [1.0, 2.0, 4.0, 8.0]: losses contain non-finite entries"),
        (["scan", "--net", "1,3,1", "--lambdas", "1,1e308", "--points", "3"],
         "point 0, box_radius 1.0, lambdas [1.0, 1e+308]: non-finite Hessian"),
        (["scan", "--net", "1,3,1", "--lambdas", "1,1e306", "--points", "20"],
         "box_radius 1.0, lambdas [1.0, 1e+306]: non-finite Hessian"),
        (["scan", "--preset", "logistic", "--points", "20", "--box-radius", "20"],
         "point 1, box_radius 20.0, lambdas [1.0, 2.0, 4.0, 8.0]: a loss sits at the clamp ceiling"),
        (["train", "--strategy", "ce", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["gradcheck", "--seed", "-1", "--set", "gc_cases=2"], "seed must be >= 0, got -1"),
        (["scan", "--net", "1,3,1", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["train-lambda-overflow", "gradcheck-lambda-overflow", "gradcheck-lambda-underflow",
            "gradcheck-penalty-overflow", "scan-lambda-overflow", "scan-huge-box", "scan-gauss-newton-overflow",
            "scan-inf-hessian", "scan-clamped-loss", "train-negative-seed", "gradcheck-negative-seed", "scan-negative-seed"])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv, named):
        loads = []
        real_load = cli._load_datasets
        monkeypatch.setattr(cli, "_load_datasets", lambda cfg: loads.append(cfg) or real_load(cfg))
        out = tmp_path / "out"
        extra = self.SINE if argv[0] == "train" else []
        assert run(argv[:1] + extra + argv[1:] + ["--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and named in errors[0] and "Traceback" not in err
        assert loads == []
        assert not (out / "run.resolved.cfg").exists()

    def test_scan_non_finite_gradient_exit_1(self, tmp_path, capsys, monkeypatch):
        def failing(model, batch, weights, cache=None):
            raise FloatingPointError("non-finite gradient")

        monkeypatch.setattr(convexity, "weighted_backward", failing)
        out = tmp_path / "out"
        assert run(["scan", "--net", "1,3,1", "--points", "2", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: point 0, box_radius 1.0, lambdas [1.0, 2.0, 4.0, 8.0]: "
                                    "non-finite gradient"]
        assert not (out / "run.resolved.cfg").exists()


class TestFetchCommand:
    def _stage_remote(self, tmp_path):
        remote = tmp_path / "remote"
        remote.mkdir()
        rng = np.random.default_rng(0)
        for name in MNIST_FILES:
            local = remote / name
            if "images" in name:
                write_idx_images(local, rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8))
            else:
                write_idx_labels(local, rng.integers(0, 10, size=2, dtype=np.uint8))
            (remote / (name + ".gz")).write_bytes(gzip.compress(local.read_bytes()))
            local.unlink()
        return f"file://{remote}/"

    def test_fetch_then_cached(self, tmp_path, capsys):
        url = self._stage_remote(tmp_path)
        data_dir = tmp_path / "data"
        rc = run(["fetch", "--data-dir", data_dir, "--set", f"mnist_base_url={url}"])
        assert rc == EXIT_OK
        assert sorted(os.listdir(data_dir)) == sorted(MNIST_FILES)
        capsys.readouterr()
        rc = run(["fetch", "--data-dir", data_dir, "--set", f"mnist_base_url={url}"])
        assert rc == EXIT_OK
        assert "cached" in capsys.readouterr().out

    def test_bad_url_exit_2(self, tmp_path):
        rc = run(["fetch", "--data-dir", tmp_path / "d",
                  "--set", f"mnist_base_url=file://{tmp_path}/nowhere/"])
        assert rc == EXIT_TRANSPORT
