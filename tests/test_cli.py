import gzip
import os

import numpy as np
import pytest

from convexlab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_TRANSPORT,
    EXIT_VERIFICATION,
    ConfigError,
    RunConfig,
    main,
    parse_config_file,
)
from convexlab.data import MNIST_FILES, write_idx_images, write_idx_labels

SINE_TRAIN = [
    "--set", "dataset=sine", "--set", "net=1,8,1", "--set", "train_count=120",
    "--set", "val_count=40", "--set", "test_count=40", "--set", "epochs=4",
    "--set", "batch_size=20", "--set", "learning_rate=0.05",
]


def run(args):
    return main([str(a) for a in args])


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
        cfg = RunConfig(values, {"seed": "7"})
        assert cfg.get("seed") == 7
        assert cfg.get("learning_rate") == 0.25
        assert cfg.was_set("seed") and not cfg.was_set("epochs")

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("learninng_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learninng_rate"):
            parse_config_file(cfg_file)
        with pytest.raises(ConfigError):
            RunConfig({}, {"nope": "1"})

    def test_missing_required_key_named(self):
        cfg = RunConfig({}, {})
        with pytest.raises(ConfigError, match="strategy"):
            cfg.get("strategy")

    def test_bad_value_reported(self):
        cfg = RunConfig({}, {"epochs": "three"})
        with pytest.raises(ConfigError, match="epochs"):
            cfg.get("epochs")

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = RunConfig({}, {"strategy": "ce", "seed": "9", "lambdas": "1,2,4"})
        text = cfg.resolved_text()
        path = tmp_path / "resolved.cfg"
        path.write_text(text)
        cfg2 = RunConfig(parse_config_file(path), {})
        for key in ("seed", "strategy", "lambdas", "learning_rate", "net"):
            assert cfg.get(key) == cfg2.get(key)


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


class TestEvalCommand:
    def test_eval_round_trip(self, tmp_path):
        out = tmp_path / "out"
        run(["train", "--strategy", "ce", "--seed", "3", "--out", out,
             "--run-name", "m"] + SINE_TRAIN)
        rc = run(["eval", "--model", out / "m.model.txt", "--seed", "3",
                  "--out", out] + SINE_TRAIN[:2] + SINE_TRAIN[2:])
        assert rc == EXIT_OK

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

    def test_conflicting_flags_exit_1(self, tmp_path):
        rc = run(["gridsearch", "--lr", "0.05", "--lr-grid", "0.1,0.05",
                  "--out", tmp_path] + self.GRID_ARGS)
        assert rc == EXIT_CONFIG

    def test_custom_grids_row_count(self, tmp_path):
        out = tmp_path / "out"
        rc = run(["gridsearch", "--lr-grid", "0.1,0.05", "--a-grid", "0.1,0.001",
                  "--seed", "2", "--out", out, "--run-name", "g4"] + self.GRID_ARGS)
        assert rc == EXIT_OK
        rows = (out / "g4.grid.csv").read_text().splitlines()
        assert len(rows) == 5


class TestGradcheckCommand:
    def test_pass(self):
        assert run(["gradcheck", "--set", "gc_cases=12"]) == EXIT_OK

    def test_single_lambda_p(self):
        assert run(["gradcheck", "--lambda", "100", "--p", "2",
                    "--set", "gc_cases=8"]) == EXIT_OK

    def test_tolerance_below_noise_floor_fails(self):
        assert run(["gradcheck", "--tolerance", "1e-13", "--set", "gc_cases=6"]) == EXIT_VERIFICATION


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

    def test_descending_lambdas_exit_1(self, tmp_path):
        rc = run(["scan", "--lambdas", "8,4", "--out", tmp_path])
        assert rc == EXIT_CONFIG

    def test_oversized_net_exit_1(self, tmp_path):
        rc = run(["scan", "--net", "784,128,10", "--out", tmp_path])
        assert rc == EXIT_CONFIG


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
