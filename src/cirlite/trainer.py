"""Losses, exact analytic gradients, SGD, and the two-stage training loop.

The training objective is a weighted sum of a sequence cross-entropy over
the supervision text and an in-batch InfoNCE over (query, target) pairs:

    L = lambda_txt * L_txt + lambda_info * L_infonce

L_infonce treats row j's target as the positive and every other in-batch
target as a negative, with temperature-scaled cosine similarities. All
gradients are hand-derived and checked against central finite differences;
everything runs in float64 so determinism is bitwise.

Stage 1 pretrains the text side only (token table and text projection) with
InfoNCE over premise/paraphrase pairs. Stage 2 trains all parameters on
annotated triplets with the combined objective.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, make_dataclass, replace

import numpy as np

from .data import DEFAULT_VOCAB, EOS_TOKEN, SynthWorld, batch_iter, query_inputs, tokenize
from .errors import CirliteError
from .model import (
    DEFAULT_TEMPERATURE,
    PARAM_FIELDS,
    BatchItem,
    ForwardTrace,
    ModelError,
    ParamSet,
    forward_batch,
    init_params,
    logits_block,
    output_weights,
    param_shapes,
    pool_tokens,
    text_block,
)
from .store import (check_field_types, parse_json, read_input, read_record, write_atomic,
                    write_jsonl)

CHECKPOINT_VERSION = 1

STAGE1_DEFAULTS = dict(epochs=2)
STAGE2_DEFAULTS = dict(epochs=20)
ANNOTATION_MODES = ("full", "fast")


class TrainerError(CirliteError):
    """Invalid training configuration, data, or loss inputs."""


class CheckpointError(CirliteError):
    """Unreadable, truncated, or version-mismatched checkpoint file."""


@dataclass
class TrainConfig:
    """Every setting of one training stage, a fresh start's included.

    Unset epochs take the stage's default (STAGE1_DEFAULTS, STAGE2_DEFAULTS).
    vocab_size and tau size a fresh start only; a ParamSet keeps its own.
    annotation_mode selects the supervision text: "full" concatenates
    caption, reasoning steps, and conclusion; "fast" the conclusion only.
    """

    stage: int
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int | None = None
    lambda_txt: float = 1.0
    lambda_info: float = 1.0
    tau: float = DEFAULT_TEMPERATURE
    seed: int = 0
    annotation_mode: str = "full"
    vocab_size: int = DEFAULT_VOCAB

    def __post_init__(self):
        check_field_types(self, TrainerError, "train config")
        if self.stage not in (1, 2):
            raise TrainerError(f"stage must be 1 or 2, got {self.stage}")
        if self.epochs is None:
            self.epochs = (STAGE1_DEFAULTS, STAGE2_DEFAULTS)[self.stage - 1]["epochs"]
        if not 0 < self.learning_rate < np.inf:
            raise TrainerError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainerError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise TrainerError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("lambda_txt", "lambda_info"):
            if not 0 <= getattr(self, name) < np.inf:
                raise TrainerError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 < self.tau < np.inf:
            raise TrainerError(f"tau must be finite and > 0, got {self.tau}")
        if self.seed < 0:
            raise TrainerError(f"seed must be >= 0, got {self.seed}")
        if self.annotation_mode not in ANNOTATION_MODES:
            raise TrainerError(f"annotation_mode must be in {ANNOTATION_MODES}, "
                               f"got {self.annotation_mode!r}")
        if self.vocab_size < 2:
            raise TrainerError(f"vocab_size must be >= 2, got {self.vocab_size}")


GradientSet = make_dataclass(
    "GradientSet",
    [(name, np.ndarray) for name in PARAM_FIELDS]
    + [("d_temperature", float, field(default=0.0))],
    namespace={"__doc__": "One gradient tensor per parameter tensor "
                          "(PARAM_FIELDS), plus the temperature slot."},
)
GradientSet.__module__ = __name__


def _zero_grads(p: ParamSet, **given: np.ndarray) -> GradientSet:
    """The given gradient tensors, and zeros for every other one."""
    return GradientSet(**{name: given[name] if name in given else np.zeros_like(getattr(p, name))
                          for name in PARAM_FIELDS})


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _ce_exps(logits, rows, targets):
    """Softmax cross-entropy per position, turning logits into exponentials.

    Position i reads logits row rows[i] and has target targets[i], so
    several positions can share one row. Works in place on the caller's
    logits, which end as exp(logits - row max). Returns (terms, sums):
    terms[i] is position i's loss, log sum - shifted target logit, and sums
    the row sums, so softmax = exps / sums[:, None]. Callers fold that one
    normaliser into what they do next (Milakov & Gimelshein,
    arXiv:1805.02867) instead of dividing the whole array.
    """
    logits -= logits.max(axis=1, keepdims=True)
    target_shifted = logits[rows, targets]
    np.exp(logits, out=logits)
    sums = logits.sum(axis=1)
    return np.log(sums[rows]) - target_shifted, sums


def _softmax_ce(logits, targets):
    """Mean softmax cross-entropy, row i against targets[i], and its
    gradient (softmax - onehot) / rows, written over the caller's logits."""
    n = len(targets)
    rows = np.arange(n)
    terms, sums = _ce_exps(logits, rows, targets)
    logits /= sums[:, None] * n
    logits[rows, targets] -= 1.0 / n
    return float(np.mean(terms)), logits


def _info_nce_full(q_mat, t_mat, temperature):
    """InfoNCE loss with gradients for Q, T, and the temperature.

    loss = -(1/N) sum_j log softmax_k( cos(q_j, t_k) / temperature )[k = j]
    Gradients are exact, including through the row normalizations.
    """
    q_mat = np.asarray(q_mat, dtype=np.float64)
    t_mat = np.asarray(t_mat, dtype=np.float64)
    if q_mat.ndim != 2 or q_mat.shape != t_mat.shape:
        raise TrainerError(
            f"Q and T must be equal-shape 2-d arrays, got {q_mat.shape} and {t_mat.shape}"
        )
    n = q_mat.shape[0]
    if n < 1:
        raise TrainerError("InfoNCE needs at least one row")
    if temperature <= 0:
        raise TrainerError(f"temperature must be > 0, got {temperature}")
    q_norms = np.linalg.norm(q_mat, axis=1)
    t_norms = np.linalg.norm(t_mat, axis=1)
    if np.any(q_norms == 0) or np.any(t_norms == 0):
        raise TrainerError("InfoNCE input has a zero row (cosine undefined)")

    q_hat = q_mat / q_norms[:, None]
    t_hat = t_mat / t_norms[:, None]
    sims = q_hat @ t_hat.T                      # (N, N) cosines
    logits = sims / temperature
    # Row j's positive is column j: softmax-CE with targets 0..N-1.
    loss, d_logits = _softmax_ce(logits, np.arange(n))
    d_sims = d_logits / temperature
    # logits = sims / tau, so dlogits/dtau = -sims / tau^2.
    d_temperature = float(-(d_logits * sims).sum() / temperature ** 2)

    d_q_hat = d_sims @ t_hat
    d_t_hat = d_sims.T @ q_hat
    # Through v_hat = v / |v|: dv = (dv_hat - (v_hat . dv_hat) v_hat) / |v|.
    d_q = (d_q_hat - (d_q_hat * q_hat).sum(axis=1, keepdims=True) * q_hat) / q_norms[:, None]
    d_t = (d_t_hat - (d_t_hat * t_hat).sum(axis=1, keepdims=True) * t_hat) / t_norms[:, None]
    return loss, d_q, d_t, d_temperature


def info_nce(q_mat, t_mat, tau):
    """In-batch InfoNCE over cosine similarities; returns (loss, dQ, dT)."""
    loss, d_q, d_t, _ = _info_nce_full(q_mat, t_mat, tau)
    return loss, d_q, d_t


def cross_entropy_seq(logit_seqs, target_seqs):
    """Token-level cross entropy averaged over all positions in the batch.

    Returns (loss, dlogit_seqs) where each gradient block is
    (softmax - onehot) / total_positions, the exact derivative.
    """
    logit_seqs = [np.asarray(logits, dtype=np.float64) for logits in logit_seqs]
    target_seqs = [list(t) for t in target_seqs]
    if not logit_seqs:
        raise TrainerError("empty batch")
    if len(logit_seqs) != len(target_seqs):
        raise TrainerError(
            f"{len(logit_seqs)} logit sequences for {len(target_seqs)} target sequences"
        )
    vocab = logit_seqs[0].shape[-1]
    for j, (logits, targets) in enumerate(zip(logit_seqs, target_seqs)):
        if logits.ndim != 2 or logits.shape[0] != len(targets):
            raise TrainerError(
                f"item {j}: {logits.shape[0]} logit rows for {len(targets)} targets"
            )
        if logits.shape[1] != vocab:
            raise TrainerError(f"item {j}: {logits.shape[1]} logit columns, expected {vocab}")
    idx = np.array([t for targets in target_seqs for t in targets], dtype=np.int64)
    if idx.size == 0:
        raise TrainerError("no supervision positions in batch")
    if idx.min() < 0 or idx.max() >= vocab:
        raise TrainerError("target token outside vocabulary")
    loss, d_logits = _softmax_ce(np.concatenate(logit_seqs), idx)
    splits = np.cumsum([len(targets) for targets in target_seqs])[:-1]
    return loss, np.split(d_logits, splits)


def combined_loss(l_txt, l_info, lambda_txt, lambda_info) -> float:
    """Weighted sum of the text and contrastive losses."""
    for name, value in (("l_txt", l_txt), ("l_info", l_info),
                        ("lambda_txt", lambda_txt), ("lambda_info", lambda_info)):
        if not np.isfinite(value):
            raise TrainerError(f"{name} is not finite: {value}")
    return lambda_txt * l_txt + lambda_info * l_info


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

# The backward computes the decoder logits a block of rows at a time into
# one buffer of this many bytes (at least one row): small enough to bound
# the logits' memory, large enough that the GEMMs run near full speed
# (README, design notes). train_stage2 allocates the buffer once per run
# (_decoder_buffer) and hands it to every step, so the logits' memory
# neither comes and goes with each step nor depends on the allocator.
DECODER_BLOCK_BYTES = 4 * 1024 * 1024


def _decoder_buffer(vocab_size: int) -> np.ndarray:
    """The backward's logits block: DECODER_BLOCK_BYTES of rows, at least one."""
    return np.empty((max(1, DECODER_BLOCK_BYTES // (8 * vocab_size)), vocab_size))


def backward(p: ParamSet, trace: ForwardTrace, batch, config: TrainConfig) -> GradientSet:
    """Exact gradient of the combined loss for every parameter tensor.

    lambda_txt enters the text path as a factor of its row scales and of
    its one-hot weight, so lambda_txt=0 zeroes the decoder gradients exactly
    and doubling lambda_txt doubles the text contribution exactly (scaling
    by powers of two is lossless).
    """
    batch = list(batch)
    if trace.n_items != len(batch):
        raise TrainerError(
            f"trace holds {trace.n_items} items but batch has {len(batch)}"
        )
    for j, item in enumerate(batch):
        if list(item.mod_toks) != trace.mod_toks[j]:
            raise TrainerError(f"batch item {j} does not match the trace")
    return _backward_with_losses(p, trace, config, _decoder_buffer(p.vocab_size))[0]


def _backward_with_losses(p: ParamSet, trace: ForwardTrace, config: TrainConfig,
                          buffer: np.ndarray):
    """backward() plus the loss values, sharing one softmax evaluation.
    buffer, a _decoder_buffer(p.vocab_size), holds each block of logits."""
    n = trace.n_items
    d = p.d_joint

    # Text path, on the decoder rows, a block of rows at a time: the block's
    # logits go into one buffer, become exponentials in place there, and
    # both GEMMs read them. d_logits = scale[:, None] * exps - onehot_weight
    # * (one 1 per position at (row, target)), with scale_r = lambda *
    # count_r / (P * sum_r), is never formed: scale goes on the
    # d_hidden-wide side of each GEMM, the one-hot term is a scatter over
    # the P positions (np.subtract.at charges a repeated (row, target) pair
    # once per occurrence), and the bias gradient is the GEMM's last row.
    # At lambda_txt = 0 every decoder term is an exact zero, so skipping
    # them changes no bit of the result.
    rows, targets = trace.row_of_pos, trace.targets_flat
    positions, n_rows = targets.size, trace.row_counts.size
    text_grads = config.lambda_txt != 0.0
    block = buffer.shape[0]
    w_ob = output_weights(p)
    terms = np.empty(positions)
    out_grad = np.zeros(w_ob.shape)  # [w_out; b_out] gradients; zero at lambda_txt = 0
    d_a = np.empty((n_rows, p.d_hidden))
    for lo in range(0, n_rows, block):
        hi = min(lo + block, n_rows)
        exps = logits_block(w_ob, trace.a_hid[lo:hi], out=buffer[:hi - lo])
        pos = np.flatnonzero((lo <= rows) & (rows < hi))
        terms[pos], sums = _ce_exps(exps, rows[pos] - lo, targets[pos])
        if text_grads:
            scale = config.lambda_txt * trace.row_counts[lo:hi] / (positions * sums)
            out_grad += np.concatenate([trace.a_hid[lo:hi] * scale[:, None], scale[:, None]],
                                       axis=1).T @ exps
            d_a[lo:hi] = (exps @ p.w_out.T) * scale[:, None]
    l_txt = float(np.mean(terms))
    g = _zero_grads(p, w_out=out_grad[:-1], b_out=out_grad[-1])
    d_q = np.zeros((n, d))
    if text_grads:
        onehot_weight = config.lambda_txt / positions
        np.subtract.at(g.w_out.T, targets, onehot_weight * trace.a_hid[rows])
        g.b_out -= onehot_weight * np.bincount(targets, minlength=p.vocab_size)
        np.subtract.at(d_a, rows, onehot_weight * p.w_out.T[targets])
        d_uh = d_a * (1.0 - trace.a_hid ** 2)
        g.w_hid += trace.zd.T @ d_uh
        g.b_hid += d_uh.sum(axis=0)
        d_zd = d_uh @ p.w_hid.T
        np.add.at(d_q, trace.row_item, d_zd[:, :d])
        np.add.at(g.tok_emb, trace.row_prev, d_zd[:, d:])

    # Contrastive path.
    l_info, d_q_info, d_t_info, d_tau = _info_nce_full(
        trace.q_mat, trace.t_mat, p.temperature
    )
    d_q += config.lambda_info * d_q_info
    d_t = config.lambda_info * d_t_info
    g.d_temperature = config.lambda_info * d_tau

    # Composer.
    d_uc = d_q * (1.0 - trace.q_mat ** 2)
    g.w_comp += trace.fused.T @ d_uc
    g.b_comp += d_uc.sum(axis=0)
    d_fused = d_uc @ p.w_comp.T

    # Reference-image projection (query side) and target projection share w_img.
    d_ui = d_fused[:, :d] * (1.0 - trace.g_img ** 2)
    g.w_img += trace.imgs.T @ d_ui
    g.b_img += d_ui.sum(axis=0)
    d_ut = d_t * (1.0 - trace.t_mat ** 2)
    g.w_img += trace.target_imgs.T @ d_ut
    g.b_img += d_ut.sum(axis=0)

    _text_encoder_backward(p, g, trace.x_mean, trace.txt, d_fused[:, d:], trace.mod_toks)
    return g, l_txt, l_info


def _text_encoder_backward(p: ParamSet, g: GradientSet, x_mean, txt, d_txt,
                           tok_seqs) -> None:
    """Accumulate into g the text encoder's gradients (w_txt, b_txt, tok_emb)
    given d_txt, the loss gradient at its output txt = text_block(p, x_mean)."""
    d_u = d_txt * (1.0 - txt ** 2)
    g.w_txt += x_mean.T @ d_u
    g.b_txt += d_u.sum(axis=0)
    d_x = d_u @ p.w_txt.T
    # One scatter in sequence order: the same sums as one per sequence.
    lengths = np.array([len(toks) for toks in tok_seqs])
    ids = np.array([tok for toks in tok_seqs for tok in toks], dtype=np.int64)
    np.add.at(g.tok_emb, ids, np.repeat(d_x / lengths[:, None], lengths, axis=0))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

# finite_diff_grad evaluates blocks of perturbed parameter copies; a block
# holds as many copies as fit in this many bytes of each copy's largest
# float64 array (the perturbed tensor or the (positions, vocab) logits),
# and at least one.
FD_BLOCK_BYTES = 512 * 1024


def central_difference(fn, x, epsilon: float):
    """(f(x+e) - f(x-e)) / (2e), the oracle for every analytic gradient.

    Works elementwise: x may be an array of points, with fn returning one
    value per point.
    """
    if epsilon <= 0:
        raise TrainerError(f"epsilon must be > 0, got {epsilon}")
    return (fn(x + epsilon) - fn(x - epsilon)) / (2.0 * epsilon)


def _infonce_loss_only(q_mat, t_mat, temperature):
    """InfoNCE loss of (..., N, d) queries and targets, one per leading index."""
    q_norms = np.linalg.norm(q_mat, axis=-1)
    t_norms = np.linalg.norm(t_mat, axis=-1)
    t_hat = t_mat / t_norms[..., None]
    logits = (q_mat / q_norms[..., None]) @ np.swapaxes(t_hat, -1, -2) / temperature
    row_max = logits.max(axis=-1, keepdims=True)
    lse = row_max[..., 0] + np.log(np.exp(logits - row_max).sum(axis=-1))
    return np.mean(lse - np.diagonal(logits, axis1=-2, axis2=-1), axis=-1)


def _concat_last(arrays):
    """Concatenate on the last axis after broadcasting the leading axes, so
    activations of a block of perturbed copies meet unperturbed ones."""
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    return np.concatenate(
        [np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays], axis=-1
    )


def _make_loss_fn(p: ParamSet, batch, config: TrainConfig):
    """A from-scratch loss evaluator over raw tensors, for the FD oracle.

    Deliberately does not reuse forward_batch or the trace so the oracle
    stays an independent route to the same number. Index structure is
    precomputed once; only parameter values vary. A tensor may be a block
    of B copies stacked as (B, *shape): every activation computed from it
    then carries that leading axis, and the loss is one value per copy.
    """
    batch = list(batch)
    mod_toks = [np.asarray(list(item.mod_toks), dtype=np.int64) for item in batch]
    imgs = np.stack([np.asarray(item.img_vec, dtype=np.float64) for item in batch])
    target_imgs = np.stack(
        [np.asarray(item.target_img_vec, dtype=np.float64) for item in batch]
    )
    prev_parts, target_parts, item_idx = [], [], []
    bos = p.vocab_size
    for j, item in enumerate(batch):
        targets = list(item.target_toks) + [EOS_TOKEN]
        prev_parts.extend([bos] + targets[:-1])
        target_parts.extend(targets)
        item_idx.extend([j] * len(targets))
    prev_flat = np.asarray(prev_parts, dtype=np.int64)
    targets_flat = np.asarray(target_parts, dtype=np.int64)
    item_index = np.asarray(item_idx, dtype=np.int64)
    total = targets_flat.size
    rows = np.arange(total)
    lam_txt, lam_info = config.lambda_txt, config.lambda_info

    def loss(tensors: dict[str, np.ndarray], temperature: float):
        # Biases get a row axis, so a stacked (B, d) bias meets (..., rows, d).
        def affine(x, name):
            return x @ tensors[f"w_{name}"] + tensors[f"b_{name}"][..., None, :]

        emb = tensors["tok_emb"]
        x_mean = np.stack(
            [np.take(emb, toks, axis=-2).mean(axis=-2) for toks in mod_toks], axis=-2
        )
        txt = np.tanh(affine(x_mean, "txt"))
        g_img = np.tanh(affine(imgs, "img"))
        q = np.tanh(affine(_concat_last([g_img, txt]), "comp"))
        t = np.tanh(affine(target_imgs, "img"))
        zd = _concat_last([np.take(q, item_index, axis=-2),
                           np.take(emb, prev_flat, axis=-2)])
        logits = affine(np.tanh(affine(zd, "hid")), "out")
        row_max = logits.max(axis=-1, keepdims=True)
        lse = row_max[..., 0] + np.log(np.exp(logits - row_max).sum(axis=-1))
        l_txt = (lse - logits[..., rows, targets_flat]).sum(axis=-1) / total
        l_info = _infonce_loss_only(q, t, temperature)
        return lam_txt * l_txt + lam_info * l_info

    return loss


def _fd_block_sizes(p: ParamSet, positions: int) -> dict[str, int]:
    """Perturbed copies per loss evaluation for each tensor, so that a block
    of the copies' largest array fits in FD_BLOCK_BYTES (at least one)."""
    logits = positions * p.vocab_size
    return {
        name: max(1, FD_BLOCK_BYTES // (8 * max(getattr(p, name).size, logits)))
        for name in PARAM_FIELDS
    }


def finite_diff_grad(p: ParamSet, batch, config: TrainConfig,
                     epsilon: float = 1e-4) -> GradientSet:
    """Central-difference gradient of the combined loss, a block at a time.

    Independent of backward(): evaluates the loss from raw tensors for every
    entry of every tensor, each moved to original +- epsilon. The copies of
    one tensor, one per entry in a block, are stacked on a leading axis and
    evaluated in one loss call (block sizes from FD_BLOCK_BYTES); each copy
    goes through the same arithmetic as a lone perturbed tensor, so the
    result is bitwise that of perturbing one entry per call. The
    temperature has its own central difference.
    """
    batch = list(batch)
    loss_fn = _make_loss_fn(p, batch, config)
    tensors = {name: getattr(p, name) for name in PARAM_FIELDS}
    positions = sum(len(item.target_toks) + 1 for item in batch)
    grads = _zero_grads(p)
    for name, block in _fd_block_sizes(p, positions).items():
        tensor = tensors[name]
        flat = tensor.ravel()
        out_flat = getattr(grads, name).ravel()
        for start in range(0, flat.size, block):
            entries = np.arange(start, min(start + block, flat.size))

            def loss_at_block(values):
                copies = np.repeat(flat[None, :], entries.size, axis=0)
                copies[np.arange(entries.size), entries] = values
                stacked = copies.reshape((entries.size,) + tensor.shape)
                return loss_fn({**tensors, name: stacked}, p.temperature)

            out_flat[entries] = central_difference(loss_at_block, flat[entries], epsilon)

    grads.d_temperature = float(central_difference(
        lambda tau: loss_fn(tensors, tau), p.temperature, epsilon
    ))
    return grads


def max_relative_error(analytic: GradientSet, numeric: GradientSet) -> dict[str, float]:
    """Per-tensor max |a - n| / max(|a| + |n|, 1e-6), plus the temperature."""
    errors = {}
    for name in PARAM_FIELDS:
        a = getattr(analytic, name)
        b = getattr(numeric, name)
        denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
        errors[name] = float((np.abs(a - b) / denom).max())
    a, b = analytic.d_temperature, numeric.d_temperature
    errors["temperature"] = abs(a - b) / max(abs(a) + abs(b), 1e-6)
    return errors


# ---------------------------------------------------------------------------
# Optimizer and training loops
# ---------------------------------------------------------------------------

def sgd_step(p: ParamSet, g: GradientSet, lr: float) -> ParamSet:
    """Plain SGD: theta <- theta - lr * grad. The temperature stays fixed."""
    updates = {}
    for name in PARAM_FIELDS:
        tensor, grad = getattr(p, name), getattr(g, name)
        if tensor.shape != grad.shape:
            raise TrainerError(
                f"{name}: gradient shape {grad.shape} != parameter shape {tensor.shape}"
            )
        updates[name] = tensor - lr * grad
    return replace(p, **updates)


def _loop_seed(seed: int, stage: int, epoch: int) -> int:
    # Distinct shuffle stream per (seed, stage, epoch), stable across runs.
    return (seed * 1_000_003 + stage * 1_009 + epoch) & 0x7FFFFFFF


def _fresh_params(world: SynthWorld, config: TrainConfig) -> ParamSet:
    """Both stages' seeded start: the config's vocabulary and temperature."""
    return init_params(config.seed, vocab_size=config.vocab_size,
                       d_img=world.embeddings.dims, temperature=config.tau)


def _train(p: ParamSet, items, config: TrainConfig, step, loss_log) -> ParamSet:
    """SGD over seeded shuffles of items. step(p, batch, config) returns
    (gradients, the log entry's losses)."""
    for epoch in range(config.epochs):
        for index, batch in enumerate(
            batch_iter(items, config.batch_size, _loop_seed(config.seed, config.stage, epoch))
        ):
            grads, losses = step(p, batch, config)
            p = sgd_step(p, grads, config.learning_rate)
            # Drop the gradients after the update, before the next step
            # allocates its own.
            del grads
            if loss_log is not None:
                loss_log.append(dict(stage=config.stage, epoch=epoch, step=index, **losses))
    return p


def _stage1_gradients(p: ParamSet, batch, config: TrainConfig):
    """Stage 1's step: lambda_info times InfoNCE over encoded (premise,
    positive) token pairs. Only the text encoder's tensors get nonzero
    gradients; there is no decoder term, so lambda_txt does not apply."""
    tok_seqs = [prem for prem, _ in batch] + [pos for _, pos in batch]
    x_mean = np.stack([pool_tokens(p, toks) for toks in tok_seqs])
    enc = text_block(p, x_mean)
    n = len(batch)
    l_info, d_prem, d_pos = info_nce(enc[:n], enc[n:], p.temperature)
    g = _zero_grads(p)
    d_enc = config.lambda_info * np.concatenate([d_prem, d_pos])
    _text_encoder_backward(p, g, x_mean, enc, d_enc, tok_seqs)
    combined = combined_loss(0.0, l_info, config.lambda_txt, config.lambda_info)
    return g, dict(l_txt=0.0, l_info=l_info, combined=combined)


def _stage2_step(p: ParamSet, batch, config: TrainConfig, buffer: np.ndarray):
    """Stage 2's step: the combined objective's gradients and losses.
    buffer is the backward's logits block (see _backward_with_losses)."""
    _, _, _, trace = forward_batch(p, batch)
    grads, l_txt, l_info = _backward_with_losses(p, trace, config, buffer)
    combined = combined_loss(l_txt, l_info, config.lambda_txt, config.lambda_info)
    return grads, dict(l_txt=l_txt, l_info=l_info, combined=combined)


def train_stage1(world: SynthWorld, config: TrainConfig, *,
                 loss_log: list | None = None) -> ParamSet:
    """Text-only contrastive pretraining on premise/paraphrase pairs.

    Updates only the token table and the text projection; every other tensor
    keeps its initialization until stage 2. Deterministic per seed.
    """
    if config.stage != 1:
        raise TrainerError(f"train_stage1 got a stage-{config.stage} config")
    if not world.nli_pairs:
        raise TrainerError("no text pairs to train on")
    p = _fresh_params(world, config)
    token_pairs = []
    for i, (premise, positive) in enumerate(world.nli_pairs):
        prem = tokenize(premise, p.vocab_size)
        pos = tokenize(positive, p.vocab_size)
        if not prem or not pos:
            raise TrainerError(f"text pair {i} tokenizes to an empty sequence")
        token_pairs.append((prem, pos))
    return _train(p, token_pairs, config, _stage1_gradients, loss_log)


def supervision_text(annotation, mode: str) -> str:
    """The decoder's supervision string for one annotation."""
    if mode == "fast":
        return annotation.conclusion
    parts = [annotation.caption, *annotation.reasoning_steps, annotation.conclusion]
    return " ".join(part for part in parts if part)


def build_training_items(world: SynthWorld, annotations, mode: str,
                         vocab_size: int) -> list[BatchItem]:
    """Join accepted annotations to their triplets; embed and tokenize under vocab_size."""
    accepted = [a for a in annotations if a.accepted]
    if not accepted:
        raise TrainerError("no accepted annotations")
    by_pair = {t.pair_id: t for t in world.triplets}
    triplets = []
    for a in accepted:
        if a.pair_id not in by_pair:
            raise TrainerError(f"annotation {a.pair_id!r} has no matching triplet")
        triplets.append(by_pair[a.pair_id])
    matrix = world.embeddings
    refs, mod_toks = query_inputs(matrix, triplets, vocab_size)
    targets = matrix.values[[matrix.row_index(t.target_id) for t in triplets]].astype(np.float64)
    return [
        BatchItem(img_vec=ref, mod_toks=toks, target_img_vec=target,
                  target_toks=tokenize(supervision_text(a, mode), vocab_size))
        for a, ref, toks, target in zip(accepted, refs, mod_toks, targets)
    ]


def train_stage2(world: SynthWorld, annotations, init: ParamSet | None,
                 config: TrainConfig, *, loss_log: list | None = None) -> ParamSet:
    """Full-parameter training with the combined objective. Deterministic.
    Starts from init, or else where train_stage1 would; tokenizes under its
    vocabulary. Every step's backward reuses one logits buffer."""
    if config.stage != 2:
        raise TrainerError(f"train_stage2 got a stage-{config.stage} config")
    p = init if init is not None else _fresh_params(world, config)
    items = build_training_items(world, annotations, config.annotation_mode, p.vocab_size)
    step = functools.partial(_stage2_step, buffer=_decoder_buffer(p.vocab_size))
    return _train(p, items, config, step, loss_log)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class _CheckpointHeader:
    """The JSON header line of a checkpoint file."""

    version: int
    vocab_size: int
    d_tok: int
    d_img: int
    d_joint: int
    d_hidden: int
    temperature: float
    seed: int | None = None

    def __post_init__(self):
        check_field_types(self, CheckpointError)
        for name in ("vocab_size", "d_tok", "d_img", "d_joint", "d_hidden"):
            if getattr(self, name) < 1:
                raise CheckpointError(f"{name} must be >= 1")


def save_checkpoint(p: ParamSet, path, *, seed: int | None = None) -> None:
    """Write a checkpoint: one JSON header line, then one float32 LE blob of
    the tensors in PARAM_FIELDS order. Deterministic bytes for identical
    parameters; replaced atomically, so a failed write leaves any earlier one."""
    header = _CheckpointHeader(CHECKPOINT_VERSION, p.vocab_size, p.d_tok, p.d_img,
                               p.d_joint, p.d_hidden, p.temperature, seed)
    blob = np.concatenate([getattr(p, name).ravel() for name in PARAM_FIELDS]).astype("<f4")
    write_atomic(path, f"{json.dumps(asdict(header), sort_keys=True)}\n".encode() + blob.tobytes())


def load_checkpoint(path) -> ParamSet:
    """Load a checkpoint written by save_checkpoint. The file's format is
    checked here, the values by ParamSet; every error names the file."""
    data = read_input(path, CheckpointError, "checkpoint")
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"checkpoint {path} has no header line")
    where = f"checkpoint {path} header"
    header = read_record(_CheckpointHeader, parse_json(data[:newline], CheckpointError, where),
                         CheckpointError, where)
    if header.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {header.version!r}, expected {CHECKPOINT_VERSION}"
        )
    shapes = param_shapes(header.vocab_size, header.d_tok, header.d_img,
                          header.d_joint, header.d_hidden)
    sizes = [math.prod(shape) for shape in shapes.values()]
    payload = data[newline + 1:]
    if len(payload) != 4 * sum(sizes):
        raise CheckpointError(f"checkpoint {path} holds {len(payload)} payload bytes, expected "
                              f"{4 * sum(sizes)} for its header (truncated or inconsistent)")
    blocks = np.split(np.frombuffer(payload, dtype="<f4").astype(np.float64),
                      np.cumsum(sizes)[:-1])
    try:
        return ParamSet(**{name: block.reshape(shape)
                           for (name, shape), block in zip(shapes.items(), blocks)},
                        temperature=header.temperature)
    except ModelError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc


def write_loss_log(entries, path) -> None:
    """Write training log entries as JSONL, keys sorted (entries are flat)."""
    write_jsonl((dict(sorted(entry.items())) for entry in entries), path)
