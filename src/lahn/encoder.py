"""Sentence encoder: embedding -> masked mean-pool -> MLP with dropout ->
feature, plus a linear 2-class prediction head over the same feature.

The feature fed to contrastive similarity is the head's input; there is no
separate projection stream. Main and momentum networks are two parameter
sets of identical shape run through the same forward function.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fileio
from .data import Batch, Vocabulary
from .seeding import STREAM_INIT, substream

_CHECKPOINT_VERSION = 1

# the hidden layer's activation by config name; each entry looks its op up in
# autodiff at call time, so a wrapper installed there (perfbench's tracer
# counts calls that way) sees every call
ACTIVATIONS = {"gelu": lambda x: ad.gelu(x), "relu": lambda x: ad.relu(x)}


@dataclass
class EncoderDims:
    vocab_size: int
    d_emb: int = 64
    hidden: int = 128
    d_feat: int = 64
    dropout: float = 0.1
    activation: str = "gelu"  # a key of ACTIVATIONS

    def validate(self) -> None:
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if min(self.d_emb, self.hidden, self.d_feat) < 1:
            raise ValueError("all layer widths must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class EncoderParams:
    dims: EncoderDims
    emb: ad.Tensor
    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor
    wh: ad.Tensor
    bh: ad.Tensor

    def named(self) -> list[tuple[str, ad.Tensor]]:
        return [
            ("emb", self.emb),
            ("w1", self.w1),
            ("b1", self.b1),
            ("w2", self.w2),
            ("b2", self.b2),
            ("wh", self.wh),
            ("bh", self.bh),
        ]

    def zero_grads(self) -> None:
        for _, t in self.named():
            t.zero_grad()


@dataclass
class EncoderOutput:
    feature: ad.Tensor  # [B x d_feat]
    logits: ad.Tensor  # [B x 2]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_params(seed: int, dims: EncoderDims) -> EncoderParams:
    """Uniform Xavier linear layers, N(0, 0.02^2) embeddings, zero PAD row."""
    dims.validate()
    rng = substream(seed, STREAM_INIT)
    emb = rng.normal(0.0, 0.02, size=(dims.vocab_size, dims.d_emb))
    emb[0] = 0.0  # PAD row carries no signal
    return EncoderParams(
        dims=dims,
        emb=ad.param(emb),
        w1=ad.param(_xavier(rng, dims.d_emb, dims.hidden)),
        b1=ad.param(np.zeros(dims.hidden)),
        w2=ad.param(_xavier(rng, dims.hidden, dims.d_feat)),
        b2=ad.param(np.zeros(dims.d_feat)),
        wh=ad.param(_xavier(rng, dims.d_feat, 2)),
        bh=ad.param(np.zeros(2)),
    )


def clone_params(src: EncoderParams) -> EncoderParams:
    """Deep copy with gradients disabled (momentum-side parameter sets)."""
    copies = {name: ad.Tensor(t.values.copy(), requires_grad=False) for name, t in src.named()}
    return EncoderParams(dims=EncoderDims(**vars(src.dims)), **copies)


def forward(
    params: EncoderParams,
    batch: Batch,
    training: bool,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """feature = MLP(embed_mean_pool(emb, ids, mask)); logits = head(feature).

    Dropout (after pooling and between the MLP layers) is active iff
    training; eval forwards are deterministic.
    """
    act = ACTIVATIONS[params.dims.activation]
    p = params.dims.dropout
    x = ad.embed_mean_pool(params.emb, batch.token_ids, batch.mask)
    x = ad.dropout(x, p, training, rng)
    h = act(ad.add_rows(ad.matmul(x, params.w1), params.b1))
    h = ad.dropout(h, p, training, rng)
    feature = ad.add_rows(ad.matmul(h, params.w2), params.b2)
    logits = ad.add_rows(ad.matmul(feature, params.wh), params.bh)
    return EncoderOutput(feature=feature, logits=logits)


def apply_head(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Head logits over raw feature rows, outside the tape (eval-only path)."""
    return features @ params.wh.values + params.bh.values


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: EncoderParams, config: dict, vocab: Vocabulary | None = None) -> None:
    """Atomic npz container: parameter tensors, config echo, optional vocab.

    Values round-trip bitwise (float64 in, float64 out), and the file bytes
    themselves are deterministic for identical inputs: they equal
    ``np.savez``'s. Each member is written as ``np.savez`` writes it, except
    that a float64 array's data goes out straight from its buffer instead
    of through a full-size ``tobytes()`` copy.
    """
    arrays = {name: t.values for name, t in params.named()}
    meta = {
        "version": _CHECKPOINT_VERSION,
        "dims": vars(params.dims),
        "config": config,
    }
    arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    if vocab is not None:
        arrays["__vocab__"] = np.array(vocab.id_to_token)

    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w", allowZip64=True) as z:
            for name, a in arrays.items():
                with z.open(name + ".npy", "w", force_zip64=True) as member:
                    if a.dtype == np.float64 and a.flags.c_contiguous:
                        np.lib.format.write_array_header_1_0(
                            member, np.lib.format.header_data_from_array_1_0(a)
                        )
                        member.write(memoryview(a).cast("B"))
                    else:
                        np.lib.format.write_array(member, a, allow_pickle=False)

    fileio.atomic_write(path, write)


def load_checkpoint(path) -> tuple[EncoderParams, dict, Vocabulary | None]:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["__meta__"]))
        if meta.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        dims = EncoderDims(**meta["dims"])
        tensors = {name: ad.param(z[name]) for name in ("emb", "w1", "b1", "w2", "b2", "wh", "bh")}
        vocab = None
        if "__vocab__" in z.files:
            vocab = Vocabulary([str(t) for t in z["__vocab__"]])
    return EncoderParams(dims=dims, **tensors), meta["config"], vocab
