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

import json
from dataclasses import dataclass, field, make_dataclass, replace
from pathlib import Path

import numpy as np

from .data import EOS_TOKEN, SynthWorld, batch_iter, tokenize
from .errors import CirliteError
from .model import (
    PARAM_FIELDS,
    BatchItem,
    ForwardTrace,
    ParamSet,
    forward_batch,
    init_params,
    param_shapes,
    pool_tokens,
    text_block,
)
from .store import lookup

CHECKPOINT_VERSION = 1

STAGE1_DEFAULTS = dict(epochs=2, batch_size=32, learning_rate=0.05)
STAGE2_DEFAULTS = dict(epochs=20, batch_size=32, learning_rate=0.05)


class TrainerError(CirliteError):
    """Invalid training configuration, data, or loss inputs."""


class CheckpointError(CirliteError):
    """Unreadable, truncated, or version-mismatched checkpoint file."""


@dataclass
class TrainConfig:
    """Knobs for one training stage.

    annotation_mode selects the supervision text: "full" concatenates
    caption, reasoning steps, and conclusion; "fast" keeps the conclusion
    only. Loss weights default to 1.0 each.
    """

    stage: int
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 3
    lambda_txt: float = 1.0
    lambda_info: float = 1.0
    tau: float = 0.07
    seed: int = 0
    annotation_mode: str = "full"

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise TrainerError(f"stage must be 1 or 2, got {self.stage}")
        if self.learning_rate <= 0:
            raise TrainerError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainerError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise TrainerError(f"epochs must be >= 0, got {self.epochs}")
        if self.lambda_txt < 0 or self.lambda_info < 0:
            raise TrainerError("loss weights must be non-negative")
        if self.tau <= 0:
            raise TrainerError(f"tau must be > 0, got {self.tau}")
        if self.annotation_mode not in ("full", "fast"):
            raise TrainerError(
                f"annotation_mode must be 'full' or 'fast', got {self.annotation_mode!r}"
            )


def default_config(stage: int, seed: int = 0, **overrides) -> TrainConfig:
    """Per-stage default configuration (stage 1: 2 epochs, stage 2: 20)."""
    base = STAGE1_DEFAULTS if stage == 1 else STAGE2_DEFAULTS
    merged = {**base, **overrides}
    return TrainConfig(stage=stage, seed=seed, **merged)


GradientSet = make_dataclass(
    "GradientSet",
    [(name, np.ndarray) for name in PARAM_FIELDS]
    + [("d_temperature", float, field(default=0.0))],
    namespace={"__doc__": "One gradient tensor per parameter tensor "
                          "(PARAM_FIELDS), plus the temperature slot."},
)
GradientSet.__module__ = __name__


def _zero_grads(p: ParamSet) -> GradientSet:
    return GradientSet(**{name: np.zeros_like(getattr(p, name)) for name in PARAM_FIELDS})


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _softmax_ce(logits, targets):
    """Mean softmax cross-entropy over rows, and its gradient.

    Returns (loss, d_logits) with d_logits = (softmax - onehot) / rows. The
    exponentials are computed once, in place, and normalised by one division
    by rows * row sum (single normaliser: Milakov & Gimelshein,
    arXiv:1805.02867).
    """
    rows = np.arange(len(targets))
    probs = logits - logits.max(axis=1, keepdims=True)
    target_shifted = probs[rows, targets]
    np.exp(probs, out=probs)
    sums = probs.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(sums[:, 0]) - target_shifted))
    probs /= sums * len(targets)
    probs[rows, targets] -= 1.0 / len(targets)
    return loss, probs


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

def batch_loss(p: ParamSet, batch, config: TrainConfig):
    """Forward pass plus both losses; returns (combined, l_txt, l_info)."""
    q_mat, t_mat, _, trace = forward_batch(p, batch)
    l_txt, _ = _softmax_ce(trace.logits_flat, trace.targets_flat)
    l_info, _, _, _ = _info_nce_full(q_mat, t_mat, p.temperature)
    return combined_loss(l_txt, l_info, config.lambda_txt, config.lambda_info), l_txt, l_info


def backward(p: ParamSet, trace: ForwardTrace, batch, config: TrainConfig) -> GradientSet:
    """Exact gradient of the combined loss for every parameter tensor.

    The text-loss path is scaled by lambda_txt at the logits, so lambda_txt=0
    zeroes the decoder gradients exactly and doubling lambda_txt doubles the
    text contribution exactly (scaling by powers of two is lossless).
    """
    return _backward_with_losses(p, trace, batch, config)[0]


def _backward_with_losses(p: ParamSet, trace: ForwardTrace, batch,
                          config: TrainConfig):
    """backward() plus the loss values, sharing one softmax evaluation."""
    batch = list(batch)
    if trace.n_items != len(batch):
        raise TrainerError(
            f"trace holds {trace.n_items} items but batch has {len(batch)}"
        )
    for j, item in enumerate(batch):
        if list(item.mod_toks) != trace.mod_toks[j]:
            raise TrainerError(f"batch item {j} does not match the trace")
    g = _zero_grads(p)
    n = trace.n_items
    d = p.d_joint

    # Text path: dCE/dlogits = (softmax - onehot) / total positions.
    l_txt, d_logits = _softmax_ce(trace.logits_flat, trace.targets_flat)
    d_logits *= config.lambda_txt

    g.w_out += trace.a_hid.T @ d_logits
    g.b_out += d_logits.sum(axis=0)
    d_a = d_logits @ p.w_out.T
    d_uh = d_a * (1.0 - trace.a_hid ** 2)
    g.w_hid += trace.zd.T @ d_uh
    g.b_hid += d_uh.sum(axis=0)
    d_zd = d_uh @ p.w_hid.T
    d_q = np.zeros((n, d))
    np.add.at(d_q, trace.item_index, d_zd[:, :d])
    np.add.at(g.tok_emb, trace.prev_flat, d_zd[:, d:])

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
    for j, toks in enumerate(tok_seqs):
        np.add.at(g.tok_emb, np.asarray(toks, dtype=np.int64), (d_x[j] / len(toks))[None, :])


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def central_difference(fn, x: float, epsilon: float) -> float:
    """(f(x+e) - f(x-e)) / (2e), the oracle for every analytic gradient."""
    if epsilon <= 0:
        raise TrainerError(f"epsilon must be > 0, got {epsilon}")
    return (fn(x + epsilon) - fn(x - epsilon)) / (2.0 * epsilon)


def _infonce_loss_only(q_mat, t_mat, temperature) -> float:
    q_norms = np.linalg.norm(q_mat, axis=1)
    t_norms = np.linalg.norm(t_mat, axis=1)
    logits = (q_mat / q_norms[:, None]) @ (t_mat / t_norms[:, None]).T / temperature
    row_max = logits.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(logits - row_max).sum(axis=1))
    return float(np.mean(lse - np.diag(logits)))


def _make_loss_fn(p: ParamSet, batch, config: TrainConfig):
    """A from-scratch loss evaluator over raw tensors, for the FD oracle.

    Deliberately does not reuse forward_batch or the trace so the oracle
    stays an independent route to the same number. Index structure is
    precomputed once; only parameter values vary.
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

    def loss(tensors: dict[str, np.ndarray], temperature: float) -> float:
        emb = tensors["tok_emb"]
        x_mean = np.stack([emb[toks].mean(axis=0) for toks in mod_toks])
        txt = np.tanh(x_mean @ tensors["w_txt"] + tensors["b_txt"])
        g_img = np.tanh(imgs @ tensors["w_img"] + tensors["b_img"])
        q = np.tanh(
            np.concatenate([g_img, txt], axis=1) @ tensors["w_comp"]
            + tensors["b_comp"]
        )
        t = np.tanh(target_imgs @ tensors["w_img"] + tensors["b_img"])
        zd = np.concatenate([q[item_index], emb[prev_flat]], axis=1)
        hidden = np.tanh(zd @ tensors["w_hid"] + tensors["b_hid"])
        logits = hidden @ tensors["w_out"] + tensors["b_out"]
        row_max = logits.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(logits - row_max).sum(axis=1))
        l_txt = float((lse - logits[rows, targets_flat]).sum()) / total
        l_info = _infonce_loss_only(q, t, temperature)
        return lam_txt * l_txt + lam_info * l_info

    return loss


def finite_diff_grad(p: ParamSet, batch, config: TrainConfig,
                     epsilon: float = 1e-4) -> GradientSet:
    """Central-difference gradient of the combined loss, one scalar at a time.

    Independent of backward(): evaluates the loss from raw tensors for every
    perturbed parameter, including the temperature.
    """
    if epsilon <= 0:
        raise TrainerError(f"epsilon must be > 0, got {epsilon}")
    loss_fn = _make_loss_fn(p, batch, config)
    tensors = {name: getattr(p, name).copy() for name in PARAM_FIELDS}
    grads = _zero_grads(p)
    for name in PARAM_FIELDS:
        flat = tensors[name].ravel()
        out_flat = getattr(grads, name).ravel()
        for i in range(flat.size):
            original = flat[i]

            def loss_at(value):
                flat[i] = value
                result = loss_fn(tensors, p.temperature)
                flat[i] = original
                return result

            out_flat[i] = central_difference(loss_at, original, epsilon)

    grads.d_temperature = central_difference(
        lambda tau: loss_fn(tensors, tau), p.temperature, epsilon
    )
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


def _log(loss_log, **entry):
    if loss_log is not None:
        loss_log.append(entry)


def _stage1_gradients(p: ParamSet, batch):
    """InfoNCE over encoded (premise, positive) token pairs, and its gradient.

    Only the text encoder's tensors get nonzero gradients. Returns
    (l_info, GradientSet).
    """
    tok_seqs = [prem for prem, _ in batch] + [pos for _, pos in batch]
    x_mean = np.stack([pool_tokens(p, toks) for toks in tok_seqs])
    enc = text_block(p, x_mean)
    n = len(batch)
    l_info, d_prem, d_pos = info_nce(enc[:n], enc[n:], p.temperature)
    g = _zero_grads(p)
    _text_encoder_backward(p, g, x_mean, enc, np.concatenate([d_prem, d_pos]), tok_seqs)
    return l_info, g


def train_stage1(world: SynthWorld, config: TrainConfig, *,
                 init: ParamSet | None = None, loss_log: list | None = None) -> ParamSet:
    """Text-only contrastive pretraining on premise/paraphrase pairs.

    Updates only the token table and the text projection; every other tensor
    keeps its initialization until stage 2. Deterministic per seed.
    """
    if config.stage != 1:
        raise TrainerError(f"train_stage1 got a stage-{config.stage} config")
    if not world.nli_pairs:
        raise TrainerError("no text pairs to train on")
    p = init if init is not None else init_params(
        config.seed,
        vocab_size=world.vocab_size,
        d_img=world.embeddings.dims,
        temperature=config.tau,
    )
    token_pairs = []
    for i, (premise, positive) in enumerate(world.nli_pairs):
        prem = tokenize(premise, world.vocab_size)
        pos = tokenize(positive, world.vocab_size)
        if not prem or not pos:
            raise TrainerError(f"text pair {i} tokenizes to an empty sequence")
        token_pairs.append((prem, pos))

    for epoch in range(config.epochs):
        for step, batch in enumerate(
            batch_iter(token_pairs, config.batch_size, _loop_seed(config.seed, 1, epoch))
        ):
            l_info, grads = _stage1_gradients(p, batch)
            p = sgd_step(p, grads, config.learning_rate)
            _log(loss_log, stage=1, epoch=epoch, step=step,
                 l_txt=0.0, l_info=l_info, combined=l_info)
    return p


def supervision_text(annotation, mode: str) -> str:
    """The decoder's supervision string for one annotation."""
    if mode == "fast":
        return annotation.conclusion
    parts = [annotation.caption, *annotation.reasoning_steps, annotation.conclusion]
    return " ".join(part for part in parts if part)


def build_training_items(world: SynthWorld, annotations, mode: str) -> list[BatchItem]:
    """Join accepted annotations to their triplets and embed both sides."""
    accepted = [a for a in annotations if a.accepted]
    if not accepted:
        raise TrainerError("no accepted annotations")
    by_pair = {t.pair_id: t for t in world.triplets}
    items = []
    for a in accepted:
        t = by_pair.get(a.pair_id)
        if t is None:
            raise TrainerError(f"annotation {a.pair_id!r} has no matching triplet")
        mod_toks = tokenize(t.modification_text, world.vocab_size)
        if not mod_toks:
            raise TrainerError(f"pair {a.pair_id!r}: empty modification tokens")
        items.append(
            BatchItem(
                img_vec=lookup(world.embeddings, t.reference_id).astype(np.float64),
                mod_toks=mod_toks,
                target_img_vec=lookup(world.embeddings, t.target_id).astype(np.float64),
                target_toks=tokenize(supervision_text(a, mode), world.vocab_size),
            )
        )
    return items


def train_stage2(world: SynthWorld, annotations, init: ParamSet,
                 config: TrainConfig, *, loss_log: list | None = None) -> ParamSet:
    """Full-parameter training with the combined objective. Deterministic."""
    if config.stage != 2:
        raise TrainerError(f"train_stage2 got a stage-{config.stage} config")
    items = build_training_items(world, annotations, config.annotation_mode)
    p = init
    for epoch in range(config.epochs):
        for step, batch in enumerate(
            batch_iter(items, config.batch_size, _loop_seed(config.seed, 2, epoch))
        ):
            _, _, _, trace = forward_batch(p, batch)
            grads, l_txt, l_info = _backward_with_losses(p, trace, batch, config)
            p = sgd_step(p, grads, config.learning_rate)
            _log(loss_log, stage=2, epoch=epoch, step=step, l_txt=l_txt,
                 l_info=l_info,
                 combined=combined_loss(l_txt, l_info,
                                        config.lambda_txt, config.lambda_info))
    return p


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(p: ParamSet, path, *, seed: int | None = None) -> None:
    """Write a checkpoint: one JSON header line, then float32 LE blocks in
    PARAM_FIELDS order. Deterministic bytes for identical parameters."""
    header = {
        "version": CHECKPOINT_VERSION,
        "vocab_size": p.vocab_size,
        "d_tok": p.d_tok,
        "d_img": p.d_img,
        "d_joint": p.d_joint,
        "d_hidden": p.d_hidden,
        "temperature": p.temperature,
        "seed": seed,
    }
    blob = bytearray(json.dumps(header, sort_keys=True).encode("utf-8"))
    blob += b"\n"
    for name in PARAM_FIELDS:
        blob += np.ascontiguousarray(getattr(p, name), dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


def _read_checkpoint(path) -> tuple[dict, bytes]:
    """Split a checkpoint file into its parsed JSON header and payload bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"checkpoint {path} has no header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} header is malformed: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint {path} header is not a JSON object")
    return header, data[newline + 1:]


def load_checkpoint(path) -> ParamSet:
    """Load and validate a checkpoint written by save_checkpoint."""
    header, payload = _read_checkpoint(path)
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {header.get('version')}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    try:
        shapes = param_shapes(header["vocab_size"], header["d_tok"], header["d_img"],
                              header["d_joint"], header["d_hidden"])
        temperature = float(header["temperature"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path} header incomplete: {exc}") from exc

    total = sum(int(np.prod(shape)) for shape in shapes.values())
    if len(payload) != 4 * total:
        raise CheckpointError(
            f"checkpoint {path} holds {len(payload)} payload bytes, expected "
            f"{4 * total} for the header dimensions (truncated or inconsistent)"
        )
    tensors = {}
    offset = 0
    for name in PARAM_FIELDS:
        shape = shapes[name]
        size = int(np.prod(shape))
        block = payload[offset:offset + 4 * size]
        offset += 4 * size
        tensors[name] = (
            np.frombuffer(block, dtype="<f4").astype(np.float64).reshape(shape)
        )
    return ParamSet(**tensors, temperature=temperature)


def checkpoint_seed(path) -> int | None:
    """Read back the seed recorded in a checkpoint header."""
    return _read_checkpoint(path)[0].get("seed")


def write_loss_log(entries, path) -> None:
    """Write training log entries as JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
