"""Desk-scale differentiable query composer and conclusion decoder.

The model mirrors the shape of a retrieval-oriented multimodal LM at toy
scale: a text encoder compressing a token sequence into one vector, an image
projection into the joint space, a composer fusing both into the query
embedding, and a one-step-history decoder emitting token logits. All
activations are tanh (bounded, so finite-difference gradient checks stay
well conditioned) and all math runs in float64.

Token table layout: ids [0, vocab_size) are the output vocabulary with 0
reserved for EOS; row vocab_size is the BOS embedding (input only).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import DEFAULT_VOCAB, EOS_TOKEN
from .errors import CirliteError

# ParamSet tensor fields in fixed serialization order.
PARAM_FIELDS = (
    "tok_emb", "w_txt", "b_txt", "w_img", "b_img",
    "w_comp", "b_comp", "w_hid", "b_hid", "w_out", "b_out",
)

DEFAULT_DIMS = dict(d_tok=32, d_img=64, d_joint=32, d_hidden=32)
DEFAULT_TEMPERATURE = 0.07
INIT_SCALE = 0.1


class ModelError(CirliteError):
    """Shape mismatch, out-of-range token, or invalid parameter."""


def param_shapes(vocab_size: int, d_tok: int, d_img: int, d_joint: int,
                 d_hidden: int) -> dict[str, tuple]:
    """Shape of every ParamSet tensor, in PARAM_FIELDS order."""
    v, d, h = vocab_size, d_joint, d_hidden
    return {
        "tok_emb": (v + 1, d_tok),
        "w_txt": (d_tok, d), "b_txt": (d,),
        "w_img": (d_img, d), "b_img": (d,),
        "w_comp": (2 * d, d), "b_comp": (d,),
        "w_hid": (d + d_tok, h), "b_hid": (h,),
        "w_out": (h, v), "b_out": (v,),
    }


@dataclass
class ParamSet:
    """All trainable tensors plus the (fixed) softmax temperature.

    Read-only during forward passes; optimizer steps build new instances.
    """

    tok_emb: np.ndarray   # (vocab_size + 1, d_tok); last row is BOS
    w_txt: np.ndarray     # (d_tok, d_joint)
    b_txt: np.ndarray     # (d_joint,)
    w_img: np.ndarray     # (d_img, d_joint)
    b_img: np.ndarray     # (d_joint,)
    w_comp: np.ndarray    # (2 * d_joint, d_joint)
    b_comp: np.ndarray    # (d_joint,)
    w_hid: np.ndarray     # (d_joint + d_tok, d_hidden)
    b_hid: np.ndarray     # (d_hidden,)
    w_out: np.ndarray     # (d_hidden, vocab_size)
    b_out: np.ndarray     # (vocab_size,)
    temperature: float

    def __post_init__(self):
        for name in PARAM_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        expected = param_shapes(self.vocab_size, self.d_tok, self.d_img,
                                self.d_joint, self.d_hidden)
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ModelError(f"{name} has shape {actual}, expected {shape}")
        for name in PARAM_FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ModelError(f"{name} contains NaN or Inf")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ModelError(f"temperature must be positive, got {self.temperature}")

    @property
    def vocab_size(self) -> int:
        return self.w_out.shape[1]

    @property
    def d_tok(self) -> int:
        return self.tok_emb.shape[1]

    @property
    def d_img(self) -> int:
        return self.w_img.shape[0]

    @property
    def d_joint(self) -> int:
        return self.w_txt.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.w_hid.shape[1]

    @property
    def bos_token(self) -> int:
        return self.vocab_size


def init_params(
    seed: int,
    *,
    vocab_size: int = DEFAULT_VOCAB,
    d_tok: int = DEFAULT_DIMS["d_tok"],
    d_img: int = DEFAULT_DIMS["d_img"],
    d_joint: int = DEFAULT_DIMS["d_joint"],
    d_hidden: int = DEFAULT_DIMS["d_hidden"],
    temperature: float = DEFAULT_TEMPERATURE,
) -> ParamSet:
    """Uniform [-0.1, 0.1] initialization, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(vocab_size, d_tok, d_img, d_joint, d_hidden)
    return ParamSet(
        **{name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
           for name, shape in shapes.items()},
        temperature=temperature,
    )


def _check_tokens(p: ParamSet, toks) -> None:
    for tok in toks:
        if not 0 <= tok < p.vocab_size:
            raise ModelError(f"token {tok} outside [0, {p.vocab_size})")


# Model blocks. Each is the one implementation of its computation, shared by
# the batched forward (one row per item or decoder position) and by
# greedy_decode (one query); none validates its inputs.

def pool_tokens(p: ParamSet, toks) -> np.ndarray:
    """Mean token embedding; mean pooling makes the encoding order-invariant."""
    return p.tok_emb[toks].mean(axis=0)


def text_block(p: ParamSet, x_mean: np.ndarray) -> np.ndarray:
    """Text encoder on pooled token embeddings: tanh(x_mean W_txt + b_txt)."""
    return np.tanh(x_mean @ p.w_txt + p.b_txt)


def image_block(p: ParamSet, imgs: np.ndarray) -> np.ndarray:
    """Image projection into the joint space: tanh(img W_img + b_img)."""
    return np.tanh(imgs @ p.w_img + p.b_img)


def composer_block(p: ParamSet, g_img: np.ndarray, txt: np.ndarray):
    """Fuse projected image and text encoding; returns (fused, query)."""
    fused = np.concatenate([g_img, txt], axis=-1)
    return fused, np.tanh(fused @ p.w_comp + p.b_comp)


def decoder_block(p: ParamSet, q: np.ndarray, prev):
    """Decoder hidden layer on (query, previous token); returns (input, hidden)."""
    zd = np.concatenate([q, p.tok_emb[prev]], axis=-1)
    return zd, np.tanh(zd @ p.w_hid + p.b_hid)


def output_weights(p: ParamSet) -> np.ndarray:
    """[w_out; b_out], the (d_hidden + 1) x vocab right operand of logits_block.
    A caller that computes several blocks of logits builds it once."""
    return np.vstack([p.w_out, p.b_out])


def logits_block(w_ob: np.ndarray, a_hid: np.ndarray, out: np.ndarray | None = None):
    """Decoder output logits [a_hid | 1] @ w_ob, w_ob = output_weights(p),
    written to out if given.

    The output bias rides in the GEMM instead of a separate pass over the
    rows x vocab logits.
    """
    a_one = np.concatenate([a_hid, np.ones(a_hid.shape[:-1] + (1,))], axis=-1)
    return np.matmul(a_one, w_ob, out=out)


def encode_queries(p: ParamSet, ref_imgs: np.ndarray, tok_lists):
    """Batched query encoder, shared by training and evaluation.

    ref_imgs is (N, d_img) and tok_lists holds N non-empty token lists.
    Returns (x_mean, txt, g_img, fused, q_mat), the activations backprop
    needs, with q_mat the (N, d_joint) query embeddings.
    """
    x_mean = np.stack([pool_tokens(p, toks) for toks in tok_lists])
    txt = text_block(p, x_mean)
    g_img = image_block(p, ref_imgs)
    fused, q_mat = composer_block(p, g_img, txt)
    return x_mean, txt, g_img, fused, q_mat


def greedy_decode(p: ParamSet, q, max_len: int) -> list[int]:
    """Greedy generation from one query: argmax per step, ties to the lowest
    token index. The emitted EOS is included in the output and stops
    generation; otherwise generation stops at max_len.
    """
    if max_len < 1:
        raise ModelError(f"max_len must be >= 1, got {max_len}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (p.d_joint,):
        raise ModelError(f"q has shape {q.shape}, expected ({p.d_joint},)")
    w_ob = output_weights(p)
    out: list[int] = []
    prev = p.bos_token
    for _ in range(max_len):
        logits = logits_block(w_ob, decoder_block(p, q, prev)[1])
        token = int(np.argmax(logits))  # argmax returns the first (lowest) max
        out.append(token)
        if token == EOS_TOKEN:
            break
        prev = token
    return out


@dataclass
class BatchItem:
    """One training example: reference image, modification tokens, target
    image, and the supervision token sequence (EOS appended internally)."""

    img_vec: np.ndarray
    mod_toks: list[int]
    target_img_vec: np.ndarray
    target_toks: list[int] = field(default_factory=list)


@dataclass
class ForwardTrace:
    """Cached activations from forward_batch, enough for exact backprop.

    The decoder's input is (query of the position's item, previous token),
    so its activations depend on that pair only. They are computed once per
    distinct pair, a row, and each of the P teacher-forced positions points
    at its row. The rows x vocab logits are not kept: backward computes them
    from a_hid a block of rows at a time. Read-only: backward reads it and
    does not write to it.
    """

    mod_toks: list[list[int]]
    imgs: np.ndarray          # (N, d_img)
    target_imgs: np.ndarray   # (N, d_img)
    x_mean: np.ndarray        # (N, d_tok) pooled modification embeddings
    txt: np.ndarray           # (N, d_joint) post-tanh text encodings
    g_img: np.ndarray         # (N, d_joint) post-tanh reference projections
    fused: np.ndarray         # (N, 2 d_joint) composer inputs
    q_mat: np.ndarray         # (N, d_joint) query embeddings
    t_mat: np.ndarray         # (N, d_joint) target projections
    row_item: np.ndarray      # (R,) decoder row -> batch item
    row_prev: np.ndarray      # (R,) decoder row -> input token id
    row_counts: np.ndarray    # (R,) positions per decoder row (sum P)
    row_of_pos: np.ndarray    # (P,) position -> decoder row
    zd: np.ndarray            # (R, d_joint + d_tok) decoder inputs
    a_hid: np.ndarray         # (R, d_hidden) post-tanh decoder hidden
    targets_flat: np.ndarray  # (P,) supervision token ids (EOS appended)

    @property
    def n_items(self) -> int:
        return len(self.mod_toks)


class _LogitSeqs(Sequence):
    """Per-item teacher-forced logits, computed from the decoder rows' hidden
    activations only when an item is indexed (training needs none of them,
    and all of them at once cost a rows x vocab array)."""

    def __init__(self, p: ParamSet, a_hid: np.ndarray, row_of_pos: np.ndarray,
                 bounds: np.ndarray):
        self._p = p
        self._a_hid = a_hid
        self._row_of_pos = row_of_pos
        self._bounds = bounds

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, j: int) -> np.ndarray:
        j = range(len(self))[j]
        rows = self._row_of_pos[self._bounds[j]:self._bounds[j + 1]]
        return logits_block(output_weights(self._p), self._a_hid[rows])


def forward_batch(p: ParamSet, items: Sequence[BatchItem]):
    """Vectorized forward pass over a batch.

    Returns (q_mat, t_mat, logit_seqs, trace): per-item query embeddings,
    target projections (through the same image path, so query and gallery
    spaces are commensurate), teacher-forced logits for every supervision
    position (targets plus a final EOS), and the trace for backprop.
    The decoder runs once per distinct (item, previous token) row; a
    repeated bigram in an item's supervision reuses its row. No logits are
    computed here: logit_seqs[j] computes item j's, one per position, when
    it is indexed, as a new array.
    """
    items = list(items)
    if not items:
        raise ModelError("empty batch")
    n = len(items)
    d_img = p.d_img

    imgs = np.empty((n, d_img))
    target_imgs = np.empty((n, d_img))
    mod_toks = []
    for j, item in enumerate(items):
        img = np.asarray(item.img_vec, dtype=np.float64)
        tgt = np.asarray(item.target_img_vec, dtype=np.float64)
        if img.shape != (d_img,) or tgt.shape != (d_img,):
            raise ModelError(
                f"batch item {j}: image vectors must have shape ({d_img},)"
            )
        toks = list(item.mod_toks)
        if not toks:
            raise ModelError(f"batch item {j}: empty modification tokens")
        _check_tokens(p, toks)
        _check_tokens(p, item.target_toks)
        imgs[j] = img
        target_imgs[j] = tgt
        mod_toks.append(toks)

    x_mean, txt, g_img, fused, q_mat = encode_queries(p, imgs, mod_toks)
    t_mat = image_block(p, target_imgs)

    # Teacher forcing over target_toks + [EOS]: inputs are BOS then the
    # shifted targets, flattened across the batch for one big matmul.
    prev_toks, target_toks, pos_counts = [], [], []
    for item in items:
        targets = list(item.target_toks) + [EOS_TOKEN]
        prev_toks += [p.bos_token] + targets[:-1]
        target_toks += targets
        pos_counts.append(len(targets))
    prev_flat = np.array(prev_toks, dtype=np.int64)
    targets_flat = np.array(target_toks, dtype=np.int64)
    item_index = np.repeat(np.arange(n, dtype=np.int64), pos_counts)
    # One decoder row per distinct (item, previous token) pair; prev ranges
    # over the vocabulary plus BOS, so the key is unique per pair.
    keys, row_of_pos, row_counts = np.unique(
        item_index * (p.vocab_size + 1) + prev_flat,
        return_inverse=True, return_counts=True,
    )
    row_item, row_prev = np.divmod(keys, p.vocab_size + 1)
    zd, a_hid = decoder_block(p, q_mat[row_item], row_prev)
    bounds = np.concatenate([[0], np.cumsum(pos_counts)])

    trace = ForwardTrace(
        mod_toks=mod_toks,
        imgs=imgs,
        target_imgs=target_imgs,
        x_mean=x_mean,
        txt=txt,
        g_img=g_img,
        fused=fused,
        q_mat=q_mat,
        t_mat=t_mat,
        row_item=row_item,
        row_prev=row_prev,
        row_counts=row_counts,
        row_of_pos=row_of_pos,
        zd=zd,
        a_hid=a_hid,
        targets_flat=targets_flat,
    )
    return q_mat, t_mat, _LogitSeqs(p, a_hid, row_of_pos, bounds), trace
