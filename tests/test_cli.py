import json

import numpy as np
import pytest

from lahn import cli

TRAIN_CONFIG = {
    "objective": "lahn",
    "strategy": "simweight",
    "tau": 0.2,
    "lam": 0.1,
    "m": 0.99,
    "q": 16,
    "k": 4,
    "lr": 1e-3,
    "batch_size": 4,
    "dropout": 0.1,
    "epochs": 2,
    "seed": 0,
    "max_len": 16,
    "d_emb": 8,
    "hidden": 12,
    "d_feat": 8,
    "min_freq": 1,
    "max_vocab": 500,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generated corpus and one trained run, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["gen-data", "--n", "12", "--confound", "0.5", "--seed", "0", "--out", str(data)]) == 0
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TRAIN_CONFIG))
    run = root / "run"
    assert (
        cli.main(
            [
                "train",
                "--config", str(config_path),
                "--train", str(data / "train.jsonl"),
                "--val", str(data / "val.jsonl"),
                "--out", str(run),
            ]
        )
        == 0
    )
    return {"root": root, "data": data, "config": config_path, "run": run}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["gen-data", "--bogus", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_config_file_names_path(self, capsys, tmp_path):
        rc = cli.main(
            ["train", "--config", str(tmp_path / "nope.json"),
             "--train", "x", "--val", "y", "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "nope.json" in capsys.readouterr().err

    def test_missing_data_file_names_path(self, capsys, tmp_path):
        rc = cli.main(["train", "--train", str(tmp_path / "absent.jsonl"),
                       "--val", "y", "--out", str(tmp_path)])
        assert rc == 1
        assert "absent.jsonl" in capsys.readouterr().err

    def test_invalid_config_value_is_usage_error(self, workdir, tmp_path, capsys):
        rc = cli.main(
            ["train", "--config", str(workdir["config"]), "--tau", "-1",
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl"), "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "tau" in capsys.readouterr().err

    def test_adam_beta_of_one_is_usage_error(self, workdir, tmp_path, capsys):
        config = tmp_path / "beta1.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "beta1": 1.0}))
        rc = cli.main(
            ["train", "--config", str(config),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl"), "--out", str(tmp_path / "run")]
        )
        assert rc == 1
        assert "beta1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", [{"q": 16.5}, {"k": 2.5}, {"epochs": True}, {"max_len": 0}, {"d_feat": 0}, {"min_freq": -3}]
    )
    def test_non_integer_or_out_of_range_field_is_usage_error(self, workdir, tmp_path, capsys, bad):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, **bad}))
        rc = cli.main(
            ["train", "--config", str(config),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl"), "--out", str(tmp_path / "run")]
        )
        assert rc == 1
        assert next(iter(bad)) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_anchor_index_is_usage_error(self, workdir, capsys):
        rc = cli.main(
            ["inspect-negatives", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "train.jsonl"), "--anchor", "9999"]
        )
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_k_is_usage_error(self, workdir, capsys, k):
        rc = cli.main(
            ["inspect-negatives", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "train.jsonl"), "--anchor", "0", "--k", k]
        )
        assert rc == 1
        assert "--k" in capsys.readouterr().err

    def test_invalid_log_level_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("LAHN_LOG_LEVEL", "verbose")
        assert cli.main(["gen-data", "--n", "1", "--out", "ignored"]) == 1
        assert "LAHN_LOG_LEVEL" in capsys.readouterr().err

    def test_runtime_failure_is_exit_two(self, workdir, tmp_path, capsys):
        # probing a split with no identity tokens fails past flag validation
        plain = tmp_path / "plain.jsonl"
        plain.write_text(
            json.dumps({"text": "those people are kind and honest", "label": 0}) + "\n"
            + json.dumps({"text": "those folks are awful and rotten", "label": 1}) + "\n"
        )
        rc = cli.main(
            ["eval", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(plain), "--probe"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_gen_data_flag_validation(self, tmp_path):
        assert cli.main(["gen-data", "--n", "0", "--out", str(tmp_path)]) == 1
        assert cli.main(["gen-data", "--n", "4", "--confound", "1.5", "--out", str(tmp_path)]) == 1
        assert cli.main(["gen-data", "--n", "4", "--seed", "-1", "--out", str(tmp_path)]) == 1

    def test_version_and_help_exit_zero(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "lahn" in capsys.readouterr().out
        assert cli.main(["--help"]) == 0
        for cmd in ("gen-data", "train", "eval", "export-embeddings", "inspect-negatives", "ablate"):
            assert cli.main([cmd, "--help"]) == 0


class TestGenData:
    def test_split_sizes_and_summary(self, workdir, capsys, tmp_path):
        out = tmp_path / "fresh"
        assert cli.main(["gen-data", "--n", "12", "--seed", "3", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["train"] == 24  # both classes
        assert summary["val"] == summary["test"] == 6  # max(2, 12 // 4) per class
        for name in ("train", "val", "test"):
            lines = (out / f"{name}.jsonl").read_text().splitlines()
            assert len(lines) == summary[name]
            for line in lines:
                rec = json.loads(line)
                assert set(rec) == {"text", "label"} and rec["label"] in (0, 1)

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["gen-data", "--n", "8", "--seed", "7", "--out", str(out)]) == 0
        for name in ("train", "val", "test"):
            assert (a / f"{name}.jsonl").read_bytes() == (b / f"{name}.jsonl").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["gen-data", "--n", "8", "--seed", "1", "--out", str(a)]) == 0
        assert cli.main(["gen-data", "--n", "8", "--seed", "2", "--out", str(b)]) == 0
        assert (a / "train.jsonl").read_bytes() != (b / "train.jsonl").read_bytes()


class TestTrain:
    def test_artifacts_and_summary(self, workdir, capsys, tmp_path):
        out = tmp_path / "run2"
        rc = cli.main(
            ["train", "--config", str(workdir["config"]),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl"),
             "--test", str(workdir["data"] / "test.jsonl"),
             "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert {"best_epoch", "best_val_macro_f1", "out", "test"} <= set(summary)
        assert "macro_f1" in summary["test"]
        for name in ("metrics.jsonl", "vocab.txt", "checkpoint_best.npz", "checkpoint_last.npz"):
            assert (out / name).exists()

    def test_flag_overrides_config_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "short"
        rc = cli.main(
            ["train", "--config", str(workdir["config"]), "--epochs", "1",
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl"), "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        epochs = [
            json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()
            if "epoch" in json.loads(l)
        ]
        assert [r["epoch"] for r in epochs] == [1]


class TestEval:
    def test_stdout_report_and_out_file_match(self, workdir, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        rc = cli.main(
            ["eval", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "test.jsonl"), "--out", str(out_file)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert {"accuracy", "f1_class0", "f1_class1", "macro_f1", "n"} == set(report)
        assert report["n"] == 6
        assert out_file.read_text() == text

    def test_probe_report(self, workdir, capsys):
        rc = cli.main(
            ["eval", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "test.jsonl"), "--probe"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert {"accuracy", "macro_f1", "identity_nonhate_n", "identity_fpr"} == set(report)
        assert 0.0 <= report["identity_fpr"] <= 1.0


class TestExportEmbeddings:
    def test_tsv_shape(self, workdir, capsys, tmp_path):
        out = tmp_path / "emb.tsv"
        rc = cli.main(
            ["export-embeddings", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "val.jsonl"), "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 6
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            cells = line.split("\t")
            assert len(cells) == TRAIN_CONFIG["d_feat"] + 2
            [float(c) for c in cells[:-2]]
            assert cells[-2] in ("0", "1")


class TestInspectNegatives:
    def run_inspect(self, workdir, capsys, extra=(), anchor=0):
        rc = cli.main(
            ["inspect-negatives", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "train.jsonl"), "--anchor", str(anchor), *extra]
        )
        assert rc == 0
        return [json.loads(l) for l in capsys.readouterr().out.splitlines()]

    def test_contract(self, workdir, capsys):
        records = self.run_inspect(workdir, capsys)
        assert 0 < len(records) <= TRAIN_CONFIG["k"]
        anchor_label = json.loads(
            (workdir["data"] / "train.jsonl").read_text().splitlines()[0]
        )["label"]
        scores = [r["score"] for r in records]
        assert scores == sorted(scores, reverse=True)
        for rank, r in enumerate(records):
            assert r["rank"] == rank
            assert r["label"] != anchor_label  # true negatives only under simweight
            assert abs(r["product"] - r["similarity"] * r["probability"]) < 1e-12

    def test_k_flag_limits_output(self, workdir, capsys):
        records = self.run_inspect(workdir, capsys, extra=("--k", "2"))
        assert len(records) <= 2

    def test_all_strategy_ignores_labels(self, workdir, capsys):
        # anchor 20 is inside the surviving queue window (24 examples, q=16
        # keeps the last 16), so its own entry gets excluded by id
        records = self.run_inspect(workdir, capsys, extra=("--strategy", "all"), anchor=20)
        assert len(records) == TRAIN_CONFIG["q"] - 1
        assert len({r["label"] for r in records}) == 2


class TestAblate:
    def test_small_grid(self, workdir, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [{"tau": -1.0}, {"k": 2}], "seeds": [0]}))
        rc = cli.main(
            ["ablate", "--config", str(workdir["config"]), "--epochs", "1",
             "--grid", str(grid),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl")]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        bad, good = report["cells"]
        assert "error" in bad
        assert "median_val_macro_f1" in good

    def test_malformed_grid_is_usage_error(self, workdir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": []}))
        rc = cli.main(
            ["ablate", "--config", str(workdir["config"]), "--grid", str(grid),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl")]
        )
        assert rc == 1
        assert "cells" in capsys.readouterr().err
