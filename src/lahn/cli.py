"""Command-line surface: corpus generation, training, evaluation, embedding
export, hard-negative inspection, and ablation grids.

Exit codes: 0 success, 1 usage error (bad flags, missing files, empty or
malformed data files or checkpoints, invalid config or ablation grid, an
--out that cannot be written), 2 runtime error. All randomness flows
from --seed through named sub-streams, so every command is reproducible
from its flags alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import zipfile
from dataclasses import fields
from pathlib import Path

from . import __version__, fileio, metrics
from .data import (
    Example,
    encode_examples,
    generate_confound_corpus,
    has_identity_token,
    load_jsonl,
    write_jsonl,
)
from .encoder import apply_head, load_checkpoint
from .momentum import MomentumQueue
from .sampler import Strategy, anchor_class_prob, sample_for_batch
from .trainer import OBJECTIVES, TrainConfig, run_ablation_grid, run_training

log = logging.getLogger("lahn")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on usage problems; route them to exit code 1
    def error(self, message):
        raise UsageError(message)


def _require_file(path, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: file not found: {p}")
    return p


def _check_out(path, directory: bool = False) -> None:
    """An ``--out`` that cannot be written is a usage error, caught before
    any work that would be lost when the write fails: a file path that names
    a directory, or a path whose nearest existing ancestor (a directory path
    itself included) is not a directory."""
    if path is None:
        return
    out = Path(path)
    if not directory and out.is_dir():
        raise UsageError(f"--out: is a directory, not a file: {path}")
    base = next(a for a in (out, *out.parents) if a.exists())
    if (directory or base != out) and not base.is_dir():
        raise UsageError(f"--out: {base} is a file, not a directory: {path}")


def _load_examples(path, flag: str) -> list[Example]:
    """The records of a JSONL data file; a missing, malformed or empty file
    is a usage error that names the flag and the file."""
    p = _require_file(path, flag)
    try:
        examples = load_jsonl(p)
    except UnicodeDecodeError as e:
        raise UsageError(f"{flag}: {p}: not UTF-8 text: {e}")
    except ValueError as e:
        raise UsageError(f"{flag}: {e}")
    if not examples:
        raise UsageError(f"{flag}: {p}: no records")
    return examples


def _load_splits(args) -> tuple[list[Example], list[Example], list[Example] | None]:
    """The --train, --val and optional --test examples. A training file of
    one record is a usage error: it makes no batch of 2, so it trains nothing."""
    train = _load_examples(args.train, "--train")
    if len(train) < 2:
        raise UsageError(f"--train: {args.train}: needs at least 2 records, got {len(train)}")
    val = _load_examples(args.val, "--val")
    return train, val, _load_examples(args.test, "--test") if args.test else None


def _load_json_object(path, flag: str) -> dict:
    """The JSON object in a file; a missing, undecodable, invalid or
    non-object file is a usage error that names the flag and the file."""
    p = _require_file(path, flag)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise UsageError(f"{flag}: {p}: not valid UTF-8 JSON: {e}")
    if not isinstance(obj, dict):
        raise UsageError(f"{flag}: {p}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring TrainConfig keys; flags win")
    p.add_argument("--seed", type=int, help="root seed for all named rng sub-streams")
    p.add_argument("--objective", choices=OBJECTIVES, help="training objective")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        help="hard-negative strategy (config key: strategy)",
    )
    p.add_argument("--q", type=int, help="momentum queue capacity")
    p.add_argument("--k", type=int, help="hard negatives per anchor")
    p.add_argument("--tau", type=float, help="contrastive temperature")
    p.add_argument("--lambda", dest="lam", type=float, help="loss mixing weight (config key: lam)")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--lr", type=float, help="learning rate")


def _build_config(args) -> TrainConfig:
    base = _load_json_object(args.config, "--config") if args.config else {}
    for f in fields(TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            base[f.name] = value
    try:
        return TrainConfig.from_dict(base)
    except (ValueError, TypeError) as e:
        raise UsageError(str(e))


def _emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path is not None:
        fileio.atomic_write_text(out_path, text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    _check_out(args.out, directory=True)
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if not 0.0 <= args.confound <= 1.0:
        raise UsageError(f"--confound must be in [0, 1], got {args.confound}")
    train, val, test = generate_confound_corpus(args.n, args.confound, args.seed)
    out = Path(args.out)
    for name, split in (("train", train), ("val", val), ("test", test)):
        write_jsonl(out / f"{name}.jsonl", split)
    _emit({"out": str(out), "train": len(train), "val": len(val), "test": len(test)})
    return 0


def _cmd_train(args) -> int:
    _check_out(args.out, directory=True)
    cfg = _build_config(args)
    train, val, test = _load_splits(args)
    result = run_training(cfg, train, val, out_dir=args.out)
    summary = {
        "best_epoch": result.best_epoch,
        "best_val_macro_f1": result.best_val_macro_f1,
        "out": str(args.out),
    }
    if test is not None:
        test_enc = encode_examples(test, result.vocab, cfg.max_len)
        summary["test"] = metrics.evaluate(result.best_params, test_enc).to_dict()
    _emit(summary)
    return 0


def _load_checkpoint_bundle(args):
    """The checkpoint's parameters and ``TrainConfig``, and the ``--data``
    examples encoded with its vocabulary. A checkpoint that cannot
    be read, has no vocabulary, or holds an invalid config or model shape is
    a usage error that names the flag and the file."""
    path = _require_file(args.checkpoint, "--checkpoint")
    try:
        params, config, vocab = load_checkpoint(path)
        cfg = TrainConfig.from_dict(config)
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise UsageError(f"--checkpoint: {path}: not a usable checkpoint: {type(e).__name__}: {e}")
    return params, cfg, encode_examples(_load_examples(args.data, "--data"), vocab, cfg.max_len)


def _cmd_eval(args) -> int:
    _check_out(args.out)
    params, _, encoded = _load_checkpoint_bundle(args)
    if args.probe:
        if not any(map(has_identity_token, encoded.texts)):
            raise UsageError(f"--data: {args.data}: no record holds an identity token for --probe")
        report = metrics.confound_probe(params, encoded)
    else:
        report = metrics.evaluate(params, encoded).to_dict()
    _emit(report, args.out)
    return 0


def _cmd_export_embeddings(args) -> int:
    _check_out(args.out)
    params, _, encoded = _load_checkpoint_bundle(args)
    metrics.export_embeddings(params, encoded, args.out)
    _emit({"rows": len(encoded), "out": str(args.out)})
    return 0


def _cmd_inspect_negatives(args) -> int:
    _check_out(args.out)
    if args.k is not None and args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    params, cfg, encoded = _load_checkpoint_bundle(args)
    if not 0 <= args.anchor < len(encoded):
        raise UsageError(f"--anchor: index {args.anchor} out of range for corpus of {len(encoded)}")
    strategy = Strategy.parse(args.strategy or cfg.strategy)
    k = args.k if args.k is not None else cfg.k
    feats = metrics.features_of(params, encoded)
    labels = encoded.labels

    # warm pass: the whole corpus through the queue, oldest-first, eval features
    queue = MomentumQueue(cfg.q, feats.shape[1])
    entry_ids = queue.enqueue_batch(feats, labels)
    snap = queue.snapshot()
    negs = sample_for_batch(
        feats[args.anchor : args.anchor + 1],
        labels[args.anchor : args.anchor + 1],
        snap,
        params,
        strategy,
        k,
        exclude_ids=entry_ids[args.anchor : args.anchor + 1],
    )
    negset, sims = negs[0], negs.similarity[0]
    probs = anchor_class_prob(apply_head(params, negset.features), int(labels[args.anchor]))
    lines = []
    for rank in range(negset.size):
        qi = int(negset.queue_indices[rank])
        src = int(snap.entry_ids[qi])
        lines.append(
            json.dumps(
                {
                    "rank": rank,
                    "queue_index": qi,
                    "text": encoded.texts[src],
                    "label": int(snap.labels[qi]),
                    "similarity": float(sims[rank]),
                    "probability": float(probs[rank]),
                    "product": float(sims[rank] * probs[rank]),
                    "score": float(negset.scores[rank]),
                },
                sort_keys=True,
            )
            + "\n"
        )
    text = "".join(lines)
    sys.stdout.write(text)
    if args.out:
        fileio.atomic_write_text(args.out, text)
    return 0


def _cmd_ablate(args) -> int:
    _check_out(args.out)
    cfg = _build_config(args)
    grid_spec = _load_json_object(args.grid, "--grid")
    cells = grid_spec.get("cells")
    seeds = grid_spec.get("seeds")
    if not isinstance(cells, list) or not cells:
        raise UsageError(f"--grid: {args.grid}: needs a nonempty 'cells' list")
    if not isinstance(seeds, list) or not seeds:
        raise UsageError(f"--grid: {args.grid}: needs a nonempty 'seeds' list")
    if not all(isinstance(cell, dict) for cell in cells):
        raise UsageError(f"--grid: {args.grid}: every cell must be a JSON object of config overrides")
    if not all(type(seed) is int and seed >= 0 for seed in seeds):
        raise UsageError(f"--grid: {args.grid}: seeds must be non-negative integers, got {seeds}")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--grid: {args.grid}: seeds must be distinct, got {seeds}")
    if any("seed" in cell for cell in cells):
        raise UsageError(f"--grid: {args.grid}: a cell may not set 'seed'; the 'seeds' list does")
    train, val, test = _load_splits(args)
    report = run_ablation_grid(cfg, cells, seeds, train, val, test)
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="lahn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lahn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate the synthetic confound corpus")
    p.add_argument("--n", type=int, required=True, help="train examples per class")
    p.add_argument("--confound", type=float, default=0.5, help="P(identity subject | hate) in train")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for train/val/test.jsonl")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser(
        "train",
        help="train a model",
        description="Trains and writes checkpoint_best.npz, checkpoint_last.npz, "
        "metrics.jsonl, vocab.txt. A run cannot be resumed: checkpoints hold the "
        "main parameters, config and vocabulary only, not the Adam moments, the "
        "momentum network or the queue.",
    )
    _add_train_flags(p)
    p.add_argument("--train", required=True, help="training split (JSONL)")
    p.add_argument("--val", required=True, help="validation split (JSONL)")
    p.add_argument("--test", help="optional test split, scored with the best checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="labeled split (JSONL)")
    p.add_argument("--probe", action="store_true", help="identity-shortcut probe report")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-embeddings", help="dump feature vectors as TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="TSV output path")
    p.set_defaults(func=_cmd_export_embeddings)

    p = sub.add_parser(
        "inspect-negatives",
        help="dump one anchor's selected hard negatives as JSONL",
        description="Simulates the queue with one eval-mode pass over the corpus, "
        "then reports the anchor's top-k entries with similarity, probability, "
        "and product score.",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="corpus to draw the queue from (JSONL)")
    p.add_argument("--anchor", type=int, required=True, help="corpus index of the anchor")
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--k", type=int)
    p.add_argument("--out", help="also write the JSONL dump here")
    p.set_defaults(func=_cmd_inspect_negatives)

    p = sub.add_parser("ablate", help="run an objective/strategy/hyperparameter grid")
    _add_train_flags(p)
    p.add_argument("--grid", required=True, help="JSON file: {'cells': [overrides...], 'seeds': [...]}")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_ablate)
    return parser


def _configure_logging() -> None:
    raw = os.environ.get("LAHN_LOG_LEVEL", "info").lower()
    if raw not in _LOG_LEVELS:
        raise UsageError(f"LAHN_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {raw!r}")
    logging.basicConfig(level=_LOG_LEVELS[raw], format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = _build_parser().parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
