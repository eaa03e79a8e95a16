"""Sentence encoder: embedding -> masked mean-pool -> MLP with dropout ->
feature, plus a linear 2-class prediction head over the same feature.

The feature fed to contrastive similarity is the head's input; there is no
separate projection stream. Main and momentum networks are two parameter
sets of identical shape run through the same forward function.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import blocks, fileio
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
    """The encoder's parameter tensors. ``w1`` to ``bh`` are consecutive
    views of one flat array, ``flat``, in declaration order (``layout``
    makes them), so they are updated in place, never replaced; ``emb``
    keeps its own array."""

    dims: EncoderDims
    emb: ad.Tensor
    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor
    wh: ad.Tensor
    bh: ad.Tensor
    flat: np.ndarray

    def named(self) -> list[tuple[str, ad.Tensor]]:
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def zero_grads(self) -> None:
        for _, t in self.named():
            t.zero_grad()

    @functools.cached_property
    def work(self) -> np.ndarray:
        """An array the size of ``flat``, made on first use and kept: an
        optimizer step copies the six small gradients into it."""
        return blocks.mapped_zeros((self.flat.size,))

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        """``blocks.scratch(2, d_emb)``, made on first use and kept: the
        scratch of Adam's and the EMA's passes over these parameters."""
        return blocks.scratch(2, self.dims.d_emb)


# the parameter tensors' names, in declaration order
_PARAM_NAMES = tuple(f.name for f in fields(EncoderParams) if f.name not in ("dims", "flat"))
# the ones held in the flat array: all but the embedding table
FLAT_NAMES = _PARAM_NAMES[1:]


def views_of(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of the contiguous array ``flat``, one per shape."""
    ends = list(itertools.accumulate((math.prod(s) for s in shapes), initial=0))
    return [flat.reshape(-1)[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)]


@dataclass
class EncoderOutput:
    feature: ad.Tensor  # [B x d_feat]
    logits: ad.Tensor  # [B x 2]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _shapes(dims: EncoderDims) -> dict[str, tuple[int, ...]]:
    """Each parameter tensor's shape, in declaration order."""
    v, e, h, f = dims.vocab_size, dims.d_emb, dims.hidden, dims.d_feat
    return {"emb": (v, e), "w1": (e, h), "b1": (h,), "w2": (h, f), "b2": (f,), "wh": (f, 2), "bh": (2,)}


def layout(dims: EncoderDims, emb: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Parameter-shaped plain arrays for ``dims``: ``emb`` (zeros if not
    given), then ``w1`` to ``bh`` as zeroed views of a new flat array,
    ``"flat"``. The parameters, their momentum copy and Adam's moments each
    take one; the first two are filled and wrapped as ``EncoderParams``. So
    Adam and the EMA each make two passes a step, one over either array."""
    shapes = _shapes(dims)
    emb = blocks.mapped_zeros(shapes["emb"]) if emb is None else emb
    flat = blocks.mapped_zeros((sum(math.prod(shapes[n]) for n in FLAT_NAMES),))
    return {"emb": emb, **dict(zip(FLAT_NAMES, views_of(flat, [shapes[n] for n in FLAT_NAMES]))), "flat": flat}


def _wrap(dims: EncoderDims, arrays: dict, make=ad.param) -> EncoderParams:
    return EncoderParams(dims=dims, flat=arrays.pop("flat"), **{name: make(a) for name, a in arrays.items()})


def init_params(seed: int, dims: EncoderDims) -> EncoderParams:
    """Uniform Xavier linear layers, N(0, 0.02^2) embeddings, zero PAD row,
    zero biases; the rng draws in declaration order."""
    dims.validate()
    rng = substream(seed, STREAM_INIT)
    values = layout(dims)
    emb = values["emb"]
    # rng.normal(0.0, 0.02) computed in place: 0.0 + 0.02 * z, draw for draw
    rng.standard_normal(out=emb)
    emb *= 0.02
    emb += 0.0
    emb[0] = 0.0  # PAD row carries no signal
    for name in FLAT_NAMES:
        if values[name].ndim == 2:
            values[name][...] = _xavier(rng, *values[name].shape)
    return _wrap(dims, values)


def clone_params(src: EncoderParams) -> EncoderParams:
    """Deep copy with gradients disabled (momentum-side parameter sets)."""
    dims = EncoderDims(**vars(src.dims))
    values = layout(dims)
    values["emb"][...] = src.emb.values
    values["flat"][...] = src.flat
    return _wrap(dims, values, ad.constant)


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
    # the file is opened here, so it is closed also when np.load rejects it
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
        meta = json.loads(z["__meta__"].tobytes())
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        dims = EncoderDims(**meta["dims"])
        arrays = {name: z[name] for name in _PARAM_NAMES}
    tokens = meta.get("vocab")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("the header's vocab must be a list of strings")
    vocab = Vocabulary(tokens)
    dims.validate()
    _check_arrays(dims, arrays)
    if len(vocab) != dims.vocab_size:
        raise ValueError(f"the vocabulary holds {len(vocab)} tokens, but vocab_size is {dims.vocab_size}")
    values = layout(dims, np.asarray(arrays["emb"], dtype=np.float64))
    for name in FLAT_NAMES:
        values[name][...] = arrays[name]
    return _wrap(dims, values), meta["config"], vocab
