"""Momentum-contrastive text classification with label-aware hard-negative
sampling, trained end to end on a from-scratch encoder."""

__version__ = "0.1.0"

from .data import (
    Batch,
    Example,
    Vocabulary,
    build_vocab,
    encode_examples,
    generate_confound_corpus,
    load_jsonl,
    make_batches,
    tokenize,
    write_jsonl,
)
from .encoder import (
    EncoderDims,
    EncoderOutput,
    EncoderParams,
    clone_params,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .metrics import MetricsReport, confound_probe, evaluate, export_embeddings
from .momentum import MomentumQueue, QueueSnapshot, ema_update
from .objectives import classification_loss, combined_loss, contrastive_loss, scl_loss
from .sampler import (
    HardNegativeBatch,
    HardNegativeSet,
    Strategy,
    anchor_class_prob,
    sample_for_batch,
    top_k_order,
)
from .trainer import (
    NonFiniteLossError,
    TrainConfig,
    TrainState,
    adam_step,
    run_ablation_grid,
    run_training,
    train_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
