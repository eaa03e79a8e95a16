import json
import os
import stat

import numpy as np
import pytest

from lahn import cli, fileio
from lahn.encoder import load_checkpoint, save_checkpoint

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

# each broken checkpoint kind, with the words of the error it must raise
BAD_CHECKPOINT_REASONS = {
    "text": "pickled (object) data",
    "truncated": "BadZipFile",
    "no-vocab": "vocab must be a list of strings",
    "bad-config": "tau",
    "bad-activation": "unknown activation 'tanh'",
    "bad-dropout": "dropout must be in [0, 1)",
    "string-dropout": "dropout must be a number, got 'x'",
    "list-activation": "unknown activation ['gelu']",
    "narrow-w2": "w2 has shape (12, 5)",
    "short-emb": "emb has shape (5, 8)",
    "dims-disagree": "but the model dims give (12, 7)",
    "short-vocab": "the vocabulary holds",
    "nan-w1": "w1 holds a value that is not finite",
    "inf-emb": "emb holds a value that is not finite",
    "version-1": "unsupported checkpoint version 1",
    "vocab-not-strings": "vocab must be a list of strings",
    "header-not-object": "unsupported checkpoint version None",
    "float-vocab-size": "vocab_size must be an integer, got 5.0",
    "bool-d-emb": "d_emb must be an integer, got True",
    "complex-w1": "w1 has dtype complex128",
    "int-emb": "emb has dtype int64",
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
        "bad",
        [{"q": 16.5}, {"k": 2.5}, {"epochs": True}, {"max_len": 0}, {"d_feat": 0}, {"min_freq": -3}, {"eps": 5e-324}],
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

    def test_runtime_failure_is_exit_two(self, workdir, monkeypatch, capsys):
        # a failure past flag and input validation, inside the scoring
        def fail(*args):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(cli.metrics, "evaluate", fail)
        rc = cli.main(
            ["eval", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(workdir["data"] / "test.jsonl")]
        )
        assert rc == 2
        assert "error: RuntimeError: scoring failed" in capsys.readouterr().err

    def test_probe_split_without_identity_token_is_usage_error(self, workdir, tmp_path, capsys):
        plain = tmp_path / "plain.jsonl"
        plain.write_text(
            json.dumps({"text": "people are kind", "label": 0}) + "\n"
            + json.dumps({"text": "folks are vile", "label": 1}) + "\n"
        )
        rc = cli.main(
            ["eval", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
             "--data", str(plain), "--probe"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--data" in err and "plain.jsonl" in err and "identity token" in err

    @pytest.mark.parametrize(
        "command, taken",
        [pytest.param(c, "directory", id=c) for c in ("eval", "export-embeddings", "inspect-negatives", "ablate")]
        + [pytest.param(c, "file", id=f"{c}-file") for c in ("gen-data", "train")]
        + [
            pytest.param(c, "under-file", id=f"{c}-under-file")
            for c in ("eval", "export-embeddings", "inspect-negatives", "ablate", "gen-data", "train")
        ],
    )
    def test_out_naming_a_directory_is_usage_error(self, workdir, tmp_path, capsys, command, taken):
        # a file --out that is a directory, a directory --out (gen-data,
        # train) that is a regular file, or either kind under a regular file
        out = tmp_path / "taken"
        if taken == "directory":
            out.mkdir()
        else:
            out.write_text("kept\n")
        if taken == "under-file":
            out = out / "x"
        data = workdir["data"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [{}], "seeds": [0]}))
        checkpoint = ["--checkpoint", str(workdir["run"] / "checkpoint_best.npz"),
                      "--data", str(data / "train.jsonl")]
        splits = ["--config", str(workdir["config"]),
                  "--train", str(data / "train.jsonl"), "--val", str(data / "val.jsonl")]
        extra = {
            "eval": checkpoint,
            "export-embeddings": checkpoint,
            "inspect-negatives": [*checkpoint, "--anchor", "0"],
            "ablate": [*splits, "--grid", str(grid)],
            "gen-data": ["--n", "2"],
            "train": splits,
        }[command]
        def tree():
            return {f: f.read_bytes() if f.is_file() else None for f in tmp_path.rglob("*")}

        before = tree()
        assert cli.main([command, *extra, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--out" in captured.err and "taken" in captured.err and "directory" in captured.err
        assert captured.out == ""
        assert tree() == before

    @pytest.mark.parametrize("kind", list(BAD_CHECKPOINT_REASONS))
    def test_bad_checkpoint_is_usage_error(self, workdir, tmp_path, capsys, kind):
        good = workdir["run"] / "checkpoint_best.npz"
        bad = tmp_path / "bad.npz"
        if kind == "text":
            bad.write_text("not a checkpoint\n")
        elif kind == "truncated":
            raw = good.read_bytes()
            bad.write_bytes(raw[: len(raw) // 2])
        elif kind == "bad-config":
            params, config, vocab = load_checkpoint(good)
            save_checkpoint(bad, params, {**config, "tau": -1.0}, vocab)
        else:
            # the good checkpoint's members, rewritten with one change
            with np.load(good) as z:
                members = {name: z[name] for name in z.files}
            meta = json.loads(members["__meta__"].tobytes())
            if kind == "no-vocab":
                del meta["vocab"]
            elif kind == "bad-activation":
                meta["dims"]["activation"] = "tanh"
            elif kind == "bad-dropout":
                meta["dims"]["dropout"] = 1.5
            elif kind == "string-dropout":
                meta["dims"]["dropout"] = "x"
            elif kind == "list-activation":
                meta["dims"]["activation"] = ["gelu"]
            elif kind == "narrow-w2":
                members["w2"] = members["w2"][:, :5]
            elif kind == "short-emb":
                members["emb"] = members["emb"][:5]
            elif kind == "dims-disagree":
                meta["dims"]["d_feat"] = 7
            elif kind == "nan-w1":
                members["w1"][0, 0] = np.nan
            elif kind == "inf-emb":
                members["emb"][3, 1] = -np.inf
            elif kind == "version-1":
                # the old layout: a numpy-string header and a __vocab__ member
                members["__vocab__"] = np.array(meta.pop("vocab"))
                meta["version"] = 1
            elif kind == "vocab-not-strings":
                meta["vocab"][-1] = 7
            elif kind == "header-not-object":
                meta = [meta]
            elif kind == "float-vocab-size":
                meta["dims"]["vocab_size"] = 5.0
            elif kind == "bool-d-emb":
                meta["dims"]["d_emb"] = True
            elif kind == "complex-w1":
                members["w1"] = members["w1"] + 1j
            elif kind == "int-emb":
                members["emb"] = members["emb"].astype(np.int64)
            else:
                meta["vocab"] = meta["vocab"][:-1]
            text = json.dumps(meta, sort_keys=True)
            members["__meta__"] = np.array(text) if kind == "version-1" else np.frombuffer(text.encode(), dtype=np.uint8)
            np.savez(bad, **members)
        data = ["--data", str(workdir["data"] / "train.jsonl")]
        for extra in (
            ["eval", *data],
            ["export-embeddings", *data, "--out", str(tmp_path / "emb.tsv")],
            ["inspect-negatives", *data, "--anchor", "0"],
        ):
            assert cli.main([*extra, "--checkpoint", str(bad)]) == 1, extra[0]
            err = capsys.readouterr().err
            assert "--checkpoint" in err and "bad.npz" in err, err
            assert BAD_CHECKPOINT_REASONS[kind] in err, err
            if kind != "truncated":
                assert "ValueError" in err, err
        assert not (tmp_path / "emb.tsv").exists()

    @pytest.mark.parametrize(
        "content, detail",
        [
            (b"", "no records"),
            (b'{"text": "fine", "label": 0}\n{"text": \n', "line 2"),
            (b"\xff\xfe not text\n", "not UTF-8"),
            (b'{"text": "", "label": 0}\n{"text": "fine", "label": 1}\n', "line 1"),
        ],
        ids=["empty", "malformed", "undecodable", "no-token"],
    )
    def test_bad_train_file_is_usage_error(self, workdir, tmp_path, capsys, content, detail):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        rc = cli.main(
            ["train", "--config", str(workdir["config"]), "--train", str(bad),
             "--val", str(workdir["data"] / "val.jsonl"), "--out", str(tmp_path / "run")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--train" in err and "bad.jsonl" in err and detail in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "content, detail",
        [
            ("\n", "no records"),
            ('{"text": "fine", "label": 7}\n', "line 1"),
            ('{"text": "fine", "label": 0}\n{"text": " \\t ", "label": 1}\n', "line 2"),
        ],
        ids=["empty", "malformed", "whitespace-text"],
    )
    def test_bad_eval_file_is_usage_error(self, workdir, tmp_path, capsys, content, detail):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content)
        rc = cli.main(
            ["eval", "--checkpoint", str(workdir["run"] / "checkpoint_best.npz"), "--data", str(bad)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--data" in err and "bad.jsonl" in err and detail in err

    @pytest.mark.parametrize("command, flag", [("train", "--train"), ("export-embeddings", "--data")])
    def test_text_utf8_cannot_encode_is_usage_error(self, workdir, tmp_path, capsys, command, flag):
        # a lone surrogate is a valid JSON escape but no Unicode character
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"text": "those people are kind", "label": 0}) + "\n"
            + json.dumps({"text": "those people are vile \ud800 x", "label": 1}) + "\n"
        )
        out = tmp_path / "out"
        extra = {
            "train": ["--config", str(workdir["config"]), "--val", str(workdir["data"] / "val.jsonl")],
            "export-embeddings": ["--checkpoint", str(workdir["run"] / "checkpoint_best.npz")],
        }[command]
        assert cli.main([command, *extra, flag, str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert flag in err and "bad.jsonl" in err and "line 2" in err and "not valid Unicode" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_one_record_train_file_is_usage_error(self, workdir, tmp_path, capsys, command):
        one = tmp_path / "one.jsonl"
        one.write_text(json.dumps({"text": "those people are kind", "label": 0}) + "\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [{}], "seeds": [0]}))
        extra = ["--out", str(tmp_path / "run")] if command == "train" else ["--grid", str(grid)]
        rc = cli.main(
            [command, "--config", str(workdir["config"]), "--train", str(one),
             "--val", str(workdir["data"] / "val.jsonl"), *extra]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--train" in err and "one.jsonl" in err and "at least 2" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, flag, content, detail",
        [
            ("train", "--config", b"\xff\xfe{}", "UTF-8"),
            ("ablate", "--grid", b"\xff\xfe{}", "UTF-8"),
            ("ablate", "--grid", b'[{"tau": 0.1}]', "JSON object"),
        ],
        ids=["config-undecodable", "grid-undecodable", "grid-list"],
    )
    def test_bad_json_flag_file_is_usage_error(self, workdir, tmp_path, capsys, command, flag, content, detail):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [{}], "seeds": [0]}))
        files = {"--config": workdir["config"], "--grid": grid, flag: bad}
        extra = ["--out", str(tmp_path / "run")] if command == "train" else ["--grid", str(files["--grid"])]
        rc = cli.main(
            [command, "--config", str(files["--config"]),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl"), *extra]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert flag in err and "bad.json" in err and detail in err
        assert not (tmp_path / "run").exists()

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


@pytest.fixture
def umask():
    """Sets the process umask for one test and restores it afterwards."""
    old = os.umask(0o022)
    try:
        yield os.umask
    finally:
        os.umask(old)


class TestFileModes:
    def test_artifacts_take_the_umask_mode(self, umask, workdir, tmp_path, capsys):
        # as a plain open() would: 0o666 less the umask, and no temp file left
        data, run = tmp_path / "data", tmp_path / "run"
        assert cli.main(["gen-data", "--n", "8", "--seed", "1", "--out", str(data)]) == 0
        rc = cli.main(
            ["train", "--config", str(workdir["config"]), "--epochs", "1",
             "--train", str(data / "train.jsonl"), "--val", str(data / "val.jsonl"), "--out", str(run)]
        )
        assert rc == 0
        capsys.readouterr()
        files = sorted(data.iterdir()) + sorted(run.iterdir())
        assert {f.name for f in run.iterdir()} >= {"metrics.jsonl", "vocab.txt", "checkpoint_best.npz"}
        assert not [f.name for f in files if f.suffix == ".tmp"]
        assert {f.name: stat.S_IMODE(f.stat().st_mode) for f in files} == {f.name: 0o644 for f in files}

    @pytest.mark.parametrize("mask, mode", [(0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_the_umask(self, umask, tmp_path, mask, mode):
        umask(mask)
        fileio.atomic_write_text(tmp_path / "a.txt", "x")
        assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        def write(fh):
            fh.write(b"new")
            raise RuntimeError("disk full")

        fileio.atomic_write_text(tmp_path / "a.txt", "old")
        with pytest.raises(RuntimeError, match="disk full"):
            fileio.atomic_write(tmp_path / "a.txt", write)
        assert [f.name for f in tmp_path.iterdir()] == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "old"


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

    def test_token_and_its_nul_suffixed_twin_survive_the_checkpoint(self, workdir, capsys, tmp_path):
        records = [
            {"text": "those people are vile x", "label": 1},
            {"text": "those people are kind x\u0000", "label": 0},
            {"text": "folks seem awful x", "label": 1},
            {"text": "folks seem gentle x\u0000", "label": 0},
        ] * 2
        data = tmp_path / "nul.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        run = tmp_path / "run"
        rc = cli.main(
            ["train", "--config", str(workdir["config"]), "--objective", "ce", "--epochs", "1",
             "--train", str(data), "--val", str(data), "--out", str(run)]
        )
        assert rc == 0
        tokens = (run / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1]
        assert {"x", "x\0"} <= set(tokens)
        _, _, vocab = load_checkpoint(run / "checkpoint_best.npz")
        assert vocab.id_to_token == tokens
        checkpoint = ["--checkpoint", str(run / "checkpoint_best.npz"), "--data", str(data)]
        for extra in (["eval"], ["export-embeddings", "--out", str(tmp_path / "emb.tsv")],
                      ["inspect-negatives", "--anchor", "0"]):
            assert cli.main([extra[0], *checkpoint, *extra[1:]]) == 0, capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "spec, detail",
        [
            ({"cells": [{"k": 2}], "seeds": ["x"]}, "seeds"),
            ({"cells": [{"k": 2}], "seeds": [0, -1]}, "seeds"),
            ({"cells": [{"k": 2}], "seeds": [True]}, "seeds"),
            ({"cells": [{"k": 2}, 1], "seeds": [0]}, "cell"),
            ({"cells": [{"seed": 5, "k": 2}], "seeds": [0, 1]}, "may not set 'seed'"),
            ({"cells": [{"k": 2}], "seeds": [0, 0]}, "distinct"),
        ],
        ids=["seed-string", "seed-negative", "seed-bool", "cell-not-object", "cell-sets-seed", "seed-repeated"],
    )
    def test_bad_grid_is_usage_error(self, workdir, tmp_path, capsys, spec, detail):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(spec))
        rc = cli.main(
            ["ablate", "--config", str(workdir["config"]), "--grid", str(grid),
             "--train", str(workdir["data"] / "train.jsonl"),
             "--val", str(workdir["data"] / "val.jsonl")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--grid" in err and "grid.json" in err and detail in err

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
