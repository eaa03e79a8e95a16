"""Command-line surface: corpus generation, training, evaluation, embedding
export, hard-negative inspection, and ablation grids.

Exit codes: 0 success, 1 usage error (bad flags, missing files, invalid
config), 2 runtime error. All randomness flows from --seed through named
sub-streams, so every command is reproducible from its flags alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, fileio, metrics
from .data import encode_examples, generate_confound_corpus, load_jsonl, write_jsonl
from .encoder import apply_head, load_checkpoint
from .momentum import MomentumQueue
from .sampler import Strategy, anchor_class_prob, cosines, sample_for_batch
from .trainer import TrainConfig, run_ablation_grid, run_training

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


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring TrainConfig keys; flags win")
    p.add_argument("--seed", type=int, help="root seed for all named rng sub-streams")
    p.add_argument("--objective", choices=["ce", "scl", "lahn"], help="training objective")
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
    base: dict = {}
    if getattr(args, "config", None):
        path = _require_file(args.config, "--config")
        with open(path, encoding="utf-8") as fh:
            try:
                base = json.load(fh)
            except json.JSONDecodeError as e:
                raise UsageError(f"--config: {path}: not valid JSON: {e}")
        if not isinstance(base, dict):
            raise UsageError(f"--config: {path}: expected a JSON object of config keys")
    for key in ("seed", "objective", "strategy", "q", "k", "tau", "lam", "epochs", "lr"):
        value = getattr(args, key, None)
        if value is not None:
            base[key] = value
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
    cfg = _build_config(args)
    train = load_jsonl(_require_file(args.train, "--train"))
    val = load_jsonl(_require_file(args.val, "--val"))
    result = run_training(cfg, train, val, out_dir=args.out)
    summary = {
        "best_epoch": result.best_epoch,
        "best_val_macro_f1": result.best_val_macro_f1,
        "out": str(args.out),
    }
    if args.test:
        test = load_jsonl(_require_file(args.test, "--test"))
        test_enc = encode_examples(test, result.vocab, cfg.max_len)
        summary["test"] = metrics.evaluate(result.best_params, test_enc, cfg.batch_size).to_dict()
    _emit(summary)
    return 0


def _load_checkpoint_bundle(args):
    """The checkpoint's parameters and config, the ``--data`` examples raw and
    encoded with its vocabulary, and the batch size it was trained with."""
    path = _require_file(args.checkpoint, "--checkpoint")
    params, cfg, vocab = load_checkpoint(path)
    if vocab is None:
        raise RuntimeError(f"checkpoint {path} carries no vocabulary")
    examples = load_jsonl(_require_file(args.data, "--data"))
    encoded = encode_examples(examples, vocab, cfg.get("max_len", 64))
    return params, cfg, examples, encoded, cfg.get("batch_size", 16)


def _cmd_eval(args) -> int:
    params, _, _, encoded, batch_size = _load_checkpoint_bundle(args)
    if args.probe:
        report = metrics.confound_probe(params, encoded, batch_size)
    else:
        report = metrics.evaluate(params, encoded, batch_size).to_dict()
    _emit(report, args.out)
    return 0


def _cmd_export_embeddings(args) -> int:
    params, _, _, encoded, batch_size = _load_checkpoint_bundle(args)
    metrics.export_embeddings(params, encoded, args.out, batch_size)
    _emit({"rows": len(encoded), "out": str(args.out)})
    return 0


def _cmd_inspect_negatives(args) -> int:
    if args.k is not None and args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    params, cfg, corpus, encoded, batch_size = _load_checkpoint_bundle(args)
    if not 0 <= args.anchor < len(corpus):
        raise UsageError(f"--anchor: index {args.anchor} out of range for corpus of {len(corpus)}")
    strategy = Strategy.parse(args.strategy or cfg.get("strategy", "simweight"))
    k = args.k if args.k is not None else cfg.get("k", 16)
    feats = metrics.features_of(params, encoded, batch_size)
    labels = np.array([e.label for e in corpus], dtype=np.int64)

    # warm pass: the whole corpus through the queue, oldest-first, eval features
    queue = MomentumQueue(int(cfg.get("q", 512)), feats.shape[1])
    entry_ids = queue.enqueue_batch(feats, labels)
    snap = queue.snapshot()
    negset = sample_for_batch(
        feats[args.anchor : args.anchor + 1],
        labels[args.anchor : args.anchor + 1],
        snap,
        params,
        strategy,
        k,
        exclude_ids=entry_ids[args.anchor : args.anchor + 1],
    )[0]

    sims = cosines(feats[args.anchor : args.anchor + 1], negset.features)[0]
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
                    "text": corpus[src].text,
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
    cfg = _build_config(args)
    grid_path = _require_file(args.grid, "--grid")
    with open(grid_path, encoding="utf-8") as fh:
        try:
            grid_spec = json.load(fh)
        except json.JSONDecodeError as e:
            raise UsageError(f"--grid: {grid_path}: not valid JSON: {e}")
    cells = grid_spec.get("cells")
    seeds = grid_spec.get("seeds")
    if not isinstance(cells, list) or not cells:
        raise UsageError(f"--grid: {grid_path}: needs a nonempty 'cells' list")
    if not isinstance(seeds, list) or not seeds:
        raise UsageError(f"--grid: {grid_path}: needs a nonempty 'seeds' list")
    train = load_jsonl(_require_file(args.train, "--train"))
    val = load_jsonl(_require_file(args.val, "--val"))
    test = load_jsonl(_require_file(args.test, "--test")) if args.test else None
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
