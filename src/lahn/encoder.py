"""Sentence encoder: embedding -> masked mean-pool -> MLP with dropout ->
feature, plus a linear 2-class prediction head over the same feature.

The feature fed to contrastive similarity is the head's input; there is no
separate projection stream. Main and momentum networks are two parameter
sets of identical shape run through the same forward function.
"""

from __future__ import annotations

import json
import math
import mmap
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import fileio
from .data import Batch, Vocabulary
from .seeding import STREAM_INIT, substream

_CHECKPOINT_VERSION = 2

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
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def zero_grads(self) -> None:
        for _, t in self.named():
            t.zero_grad()


# the parameter tensors' names, in declaration order
_PARAM_NAMES = tuple(f.name for f in fields(EncoderParams) if f.name != "dims")


@dataclass
class EncoderOutput:
    feature: ad.Tensor  # [B x d_feat]
    logits: ad.Tensor  # [B x 2]


# arrays below this size come from the C heap, which reuses small blocks
# well; a mapping each would cost a system call and a page apiece
_MAPPED_MIN_BYTES = 1 << 20


def mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 zero array; from ``_MAPPED_MIN_BYTES`` up, in an anonymous
    memory mapping of its own.

    A training run keeps its parameters, Adam moments and parameter copies
    in these, so freeing a large one unmaps it. A table freed into the C
    heap stays resident, and small blocks allocated after it can keep the
    next run from reusing its space, so a process that trains more than
    once would peak higher by whole tables, depending on its allocation
    history.
    """
    n = math.prod(shape)
    if n * 8 < _MAPPED_MIN_BYTES:
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, n * 8), dtype=np.float64, count=n).reshape(shape)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _shapes(dims: EncoderDims) -> dict[str, tuple[int, ...]]:
    """Each parameter tensor's shape, in declaration order."""
    v, e, h, f = dims.vocab_size, dims.d_emb, dims.hidden, dims.d_feat
    return {"emb": (v, e), "w1": (e, h), "b1": (h,), "w2": (h, f), "b2": (f,), "wh": (f, 2), "bh": (2,)}


def init_params(seed: int, dims: EncoderDims) -> EncoderParams:
    """Uniform Xavier linear layers, N(0, 0.02^2) embeddings, zero PAD row,
    zero biases; the rng draws in declaration order."""
    dims.validate()
    rng = substream(seed, STREAM_INIT)
    values = {name: mapped_zeros(shape) for name, shape in _shapes(dims).items()}
    for name, v in values.items():
        if name == "emb":
            # rng.normal(0.0, 0.02) computed in place: 0.0 + 0.02 * z, draw for draw
            rng.standard_normal(out=v)
            v *= 0.02
            v += 0.0
            v[0] = 0.0  # PAD row carries no signal
        elif v.ndim == 2:
            v[...] = _xavier(rng, *v.shape)
    return EncoderParams(dims=dims, **{name: ad.param(v) for name, v in values.items()})


def clone_params(src: EncoderParams) -> EncoderParams:
    """Deep copy with gradients disabled (momentum-side parameter sets)."""
    copies = {name: ad.Tensor(mapped_zeros(t.shape), requires_grad=False) for name, t in src.named()}
    for name, t in src.named():
        copies[name].values[...] = t.values
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


def save_checkpoint(path, params: EncoderParams, config: dict, vocab: Vocabulary) -> None:
    """Atomic npz container: the parameter arrays, then ``__meta__``, the
    UTF-8 bytes of one JSON header holding the format version, dims, config
    echo and vocabulary.

    Values round-trip bitwise (float64 in, float64 out), and the file bytes
    themselves are deterministic for identical inputs: they equal
    ``np.savez``'s. Each member's data goes out straight from its buffer
    instead of through a full-size ``tobytes()`` copy.
    """
    meta = {"version": _CHECKPOINT_VERSION, "dims": vars(params.dims), "config": config, "vocab": vocab.id_to_token}
    arrays = {name: t.values for name, t in params.named()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)

    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w", allowZip64=True) as z:
            for name, a in arrays.items():
                header = np.lib.format.header_data_from_array_1_0(a)
                with z.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(member, header)
                    # np.savez writes a Fortran-ordered array's data in Fortran order
                    data = a.T if header["fortran_order"] else np.ascontiguousarray(a)
                    member.write(memoryview(data).cast("B"))

    fileio.atomic_write(path, write)


def _check_arrays(dims: EncoderDims, arrays: dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` naming the first parameter array whose shape
    disagrees with ``dims`` or that holds a value that is not finite."""
    for name, shape in _shapes(dims).items():
        if arrays[name].shape != shape:
            raise ValueError(f"{name} has shape {arrays[name].shape}, but the model dims give {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{name} holds a value that is not finite")


def load_checkpoint(path) -> tuple[EncoderParams, dict, Vocabulary]:
    """The parameters, config echo and vocabulary of a checkpoint. Another
    format version, a vocabulary that is not a list of strings, model dims
    that are invalid or disagree with the stored arrays or vocabulary, and
    a parameter that is not finite raise ``ValueError``."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(z["__meta__"].tobytes())
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        dims = EncoderDims(**meta["dims"])
        tensors = {name: ad.param(z[name]) for name in _PARAM_NAMES}
    tokens = meta.get("vocab")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("the header's vocab must be a list of strings")
    vocab = Vocabulary(tokens)
    dims.validate()
    _check_arrays(dims, {name: t.values for name, t in tensors.items()})
    if len(vocab) != dims.vocab_size:
        raise ValueError(f"the vocabulary holds {len(vocab)} tokens, but vocab_size is {dims.vocab_size}")
    return EncoderParams(dims=dims, **tensors), meta["config"], vocab
