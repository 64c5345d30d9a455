"""Losses against hand evaluation, gradients against finite differences,
optimizer algebra, training determinism, checkpoint format."""

import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cirlite.trainer as trainer_mod
from cirlite.data import DEFAULT_VOCAB, EOS_TOKEN, generate_synthetic_world
from cirlite.annotate import MockGenerator, MockJudge, annotate_triplets, filter_annotations
from cirlite.model import PARAM_FIELDS, BatchItem, forward_batch, init_params
from cirlite.trainer import (
    CheckpointError,
    GradientSet,
    TrainConfig,
    TrainerError,
    _fd_block_sizes,
    _info_nce_full,
    _infonce_loss_only,
    _make_loss_fn,
    _stage1_gradients,
    _stage2_step,
    _text_encoder_backward,
    backward,
    build_training_items,
    central_difference,
    combined_loss,
    cross_entropy_seq,
    finite_diff_grad,
    info_nce,
    load_checkpoint,
    max_relative_error,
    save_checkpoint,
    sgd_step,
    train_stage1,
    train_stage2,
    write_loss_log,
)

SMALL = dict(vocab_size=16, d_tok=4, d_img=6, d_joint=5, d_hidden=3)


def small_params(seed=0):
    return init_params(seed, **SMALL)


def checkpoint_header(path):
    """A checkpoint's JSON header line, parsed."""
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


def small_batch(seed, n=3):
    rng = np.random.default_rng(seed)
    return [
        BatchItem(
            img_vec=rng.standard_normal(6),
            mod_toks=[int(t) for t in rng.integers(1, 16, size=2)],
            target_img_vec=rng.standard_normal(6),
            target_toks=[int(t) for t in rng.integers(1, 16, size=2)],
        )
        for _ in range(n)
    ]


def repeated_bigram_batch(seed):
    """small_batch whose item 0 supervises 3 5 3 5: its decoder row
    (item 0, prev 3) has target 5 twice, a repeated (row, target) pair, and
    its row (item 0, prev 5) has the targets 3 and EOS."""
    batch = small_batch(seed)
    batch[0] = dataclasses.replace(batch[0], target_toks=[3, 5, 3, 5])
    return batch


class _ZeroThatTakesDecoderPath(float):
    """0.0 that compares unequal to every number and is truthy, so backward
    runs the decoder backward on zero-scaled gradients instead of skipping
    it."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def __bool__(self):
        return True

    __hash__ = float.__hash__


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------

def test_infonce_single_pair_is_zero():
    loss, d_q, d_t = info_nce(np.ones((1, 4)), np.ones((1, 4)), 0.07)
    assert loss == 0.0
    np.testing.assert_allclose(d_q, 0.0, atol=1e-15)
    np.testing.assert_allclose(d_t, 0.0, atol=1e-15)


def test_infonce_identity_cosine_two_pairs():
    # Cosine matrix [[1, 0], [0, 1]] at tau=1: loss = -log(e / (e + 1)).
    q = np.eye(2)
    loss, _, _ = info_nce(q, q.copy(), 1.0)
    assert abs(loss - (-math.log(math.e / (math.e + 1)))) <= 1e-12
    assert abs(loss - 0.31326168751822286) <= 1e-9


def test_infonce_equal_cosines_gives_log_n():
    # All rows identical: every pairwise cosine is 1, softmax is uniform.
    q = np.tile([[0.3, -0.2, 0.9]], (4, 1))
    t = np.tile([[1.0, 2.0, -0.5]], (4, 1))
    loss, _, _ = info_nce(q, t, 0.07)
    assert abs(loss - math.log(4)) <= 1e-12


def test_infonce_matches_hand_evaluation_n8():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((8, 5))
    t = rng.standard_normal((8, 5))
    tau = 0.07
    loss, _, _ = info_nce(q, t, tau)
    # Independent evaluation: explicit cosine loops and per-row softmax.
    total = 0.0
    for j in range(8):
        sims = []
        for k in range(8):
            num = float(np.dot(q[j], t[k]))
            den = float(np.linalg.norm(q[j]) * np.linalg.norm(t[k]))
            sims.append(num / den / tau)
        exps = [math.exp(s) for s in sims]
        total += -math.log(exps[j] / sum(exps))
    assert abs(loss - total / 8) <= 1e-9


def test_infonce_loss_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        loss, _, _ = info_nce(rng.standard_normal((n, 4)),
                              rng.standard_normal((n, 4)), 0.07)
        assert loss >= 0.0


def test_infonce_permutation_invariant():
    # Invariant up to float summation order (reductions reorder under the
    # permutation); 1e-12 relative is the double-precision "exact".
    rng = np.random.default_rng(2)
    q, t = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    loss, _, _ = info_nce(q, t, 0.5)
    perm = rng.permutation(6)
    loss_perm, _, _ = info_nce(q[perm], t[perm], 0.5)
    assert math.isclose(loss, loss_perm, rel_tol=1e-12)


def test_infonce_zero_row_rejected():
    q = np.ones((2, 3))
    q[1] = 0.0
    with pytest.raises(TrainerError, match="zero row"):
        info_nce(q, np.ones((2, 3)), 0.07)


def _sha256_f64(array):
    return hashlib.sha256(np.asarray(array, dtype="<f8").tobytes()).hexdigest()


# Outputs of the dense softmax-CE callers on fixed inputs, as float.hex and
# sha256 of little-endian float64 bytes. A change that keeps their arithmetic
# keeps every bit.
INFONCE_GOLDEN = [
    ((0, 6, 4, 0.07), "0x1.c6939bb38b9adp+3", "-0x1.8b3f11c4b8e1bp+7",
     "dfe55aa86c8491bacda09987e7d42aeaceee90ae545ea5b22c9c38b423e48e34",
     "a18ec2483dd8996831d4829b314a935314f6424e34e53c81b4c1efd313b20b67"),
    ((1, 9, 5, 0.5), "0x1.2129b63b4b094p+1", "-0x1.54b568656101ap-1",
     "6cc33e288f97a34beb38bdf20bcb0f3fe67b234bc1b1ba32962c7b7b3d2aacee",
     "80a60e36d45c68f02889902271bb80db1018bac26a6401faecdd2efa61516be3"),
]


def test_dense_softmax_ce_callers_match_golden_bits():
    for (seed, n, d, tau), loss_hex, d_tau_hex, d_q_sha, d_t_sha in INFONCE_GOLDEN:
        rng = np.random.default_rng(seed)
        q, t = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        loss, d_q, d_t, d_tau = _info_nce_full(q, t, tau)
        assert (loss.hex(), d_tau.hex()) == (loss_hex, d_tau_hex)
        assert (_sha256_f64(d_q), _sha256_f64(d_t)) == (d_q_sha, d_t_sha)
    rng = np.random.default_rng(2)
    seqs = [rng.standard_normal((k, 7)) for k in (3, 1, 4)]
    loss, grads = cross_entropy_seq(seqs, [[1, 1, 6], [0], [3, 2, 3, 5]])
    assert loss.hex() == "0x1.061628a11b436p+1"
    assert _sha256_f64(np.concatenate(grads)) == (
        "4187d5de9e7c14215200d74141aa01aaed67a10da86ececbd1a53fc4a3666e96")


def test_infonce_bad_tau_rejected():
    with pytest.raises(TrainerError, match="temperature"):
        info_nce(np.ones((2, 3)), np.ones((2, 3)), 0.0)


# ---------------------------------------------------------------------------
# Sequence cross entropy
# ---------------------------------------------------------------------------

def test_ce_uniform_two_way():
    logits = [np.zeros((1, 2))]
    loss, grads = cross_entropy_seq(logits, [[0]])
    assert abs(loss - math.log(2)) <= 1e-12
    np.testing.assert_allclose(grads[0], [[-0.5, 0.5]], atol=1e-12)


def test_ce_all_zero_logits_gives_log_vocab():
    for vocab in (2, 16, 64):
        loss, _ = cross_entropy_seq([np.zeros((3, vocab))], [[0, 1, 0]])
        assert abs(loss - math.log(vocab)) <= 1e-12


def test_ce_matches_independent_softmax():
    rng = np.random.default_rng(3)
    logits = [rng.standard_normal((3, 7)), rng.standard_normal((2, 7))]
    targets = [[1, 5, 2], [0, 6]]
    loss, grads = cross_entropy_seq(logits, targets)
    total, expected = 0, 0.0
    for block, tgt in zip(logits, targets):
        for row, y in zip(block, tgt):
            exps = [math.exp(v) for v in row]
            expected += -math.log(exps[y] / sum(exps))
            total += 1
    assert abs(loss - expected / total) <= 1e-9
    for block, grad in zip(logits, grads):
        assert grad.shape == block.shape


def test_ce_length_mismatch():
    with pytest.raises(TrainerError, match="logit rows"):
        cross_entropy_seq([np.zeros((2, 4))], [[0]])


def test_ce_vocab_mismatch():
    with pytest.raises(TrainerError, match="logit columns"):
        cross_entropy_seq([np.zeros((1, 4)), np.zeros((1, 5))], [[0], [0]])


def test_ce_empty_batch():
    with pytest.raises(TrainerError, match="empty batch"):
        cross_entropy_seq([], [])


# ---------------------------------------------------------------------------
# Combined loss
# ---------------------------------------------------------------------------

def test_combined_weighted_sum():
    assert combined_loss(0.5, 0.3, 1.0, 1.0) == 0.8
    assert combined_loss(123.0, 0.7, 0.0, 1.0) == 0.7
    assert combined_loss(0.0, 0.0, 9.0, 9.0) == 0.0


def test_combined_linear_in_lambdas():
    assert combined_loss(0.5, 0.3, 2.0, 1.0) == 2.0 * 0.5 + 0.3
    assert combined_loss(0.5, 0.3, 1.0, 4.0) == 0.5 + 4.0 * 0.3


def test_combined_rejects_nan():
    with pytest.raises(TrainerError):
        combined_loss(float("nan"), 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Backward vs finite differences
# ---------------------------------------------------------------------------

def test_gradient_check_small_model():
    config = TrainConfig(stage=2, seed=0)
    for seed in range(3):
        p = small_params(seed)
        batch = small_batch(seed)
        _, _, _, trace = forward_batch(p, batch)
        analytic = backward(p, trace, batch, config)
        numeric = finite_diff_grad(p, batch, config, 1e-4)
        errors = max_relative_error(analytic, numeric)
        assert max(errors.values()) < 1e-4, errors


def test_gradient_check_extreme_lambdas():
    for lam_txt, lam_info in ((0.0, 1.0), (1.0, 0.0), (2.0, 0.5)):
        config = TrainConfig(stage=2, seed=0, lambda_txt=lam_txt, lambda_info=lam_info)
        p = small_params(11)
        batch = small_batch(11)
        _, _, _, trace = forward_batch(p, batch)
        errors = max_relative_error(
            backward(p, trace, batch, config),
            finite_diff_grad(p, batch, config, 1e-4),
        )
        assert max(errors.values()) < 1e-4, (lam_txt, lam_info, errors)


def test_lambda_txt_zero_zeroes_decoder_gradients():
    config = TrainConfig(stage=2, seed=0, lambda_txt=0.0, lambda_info=1.0)
    p = small_params(4)
    batch = small_batch(4)
    _, _, _, trace = forward_batch(p, batch)
    g = backward(p, trace, batch, config)
    assert np.all(g.w_hid == 0.0) and np.all(g.b_hid == 0.0)
    assert np.all(g.w_out == 0.0) and np.all(g.b_out == 0.0)
    # Token rows used only by the decoder (BOS and supervision-only tokens)
    # get zero gradient when the text loss is off.
    mod_tokens = {t for item in batch for t in item.mod_toks}
    decoder_only = {p.vocab_size} | (
        {t for item in batch for t in item.target_toks} | {EOS_TOKEN}
    ) - mod_tokens
    for tok in decoder_only:
        assert np.all(g.tok_emb[tok] == 0.0)


def test_lambda_txt_zero_skip_equals_full_path_bitwise():
    # Skipping the decoder backward at lambda_txt = 0 changes no bit: the
    # path that runs it on zeroed gradients gives the same tensors, on a
    # batch whose decoder rows repeat.
    p, batch = small_params(4), repeated_bigram_batch(4)
    _, _, _, trace = forward_batch(p, batch)
    skipped = backward(p, trace, batch, TrainConfig(stage=2, lambda_txt=0.0))
    full = backward(p, trace, batch,
                    TrainConfig(stage=2, lambda_txt=_ZeroThatTakesDecoderPath()))
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(skipped, name), getattr(full, name))
    assert skipped.d_temperature == full.d_temperature
    for name in ("w_hid", "b_hid", "w_out", "b_out"):
        assert np.all(getattr(skipped, name) == 0.0)


def test_gradient_check_repeated_decoder_rows():
    # One decoder row per distinct (item, prev) pair, charged for all of its
    # positions, against the per-position finite-difference oracle.
    config = TrainConfig(stage=2, seed=0)
    for seed in range(3):
        p, batch = small_params(seed), repeated_bigram_batch(seed)
        _, _, _, trace = forward_batch(p, batch)
        positions = sum(len(item.target_toks) + 1 for item in batch)
        assert trace.targets_flat.size == trace.row_counts.sum() == positions
        assert len(trace.row_counts) < positions
        prevs = [p.vocab_size] + batch[0].target_toks
        first = trace.row_of_pos[:len(prevs)]
        assert list(trace.row_item[first]) == [0] * len(prevs)
        assert list(trace.row_prev[first]) == prevs
        errors = max_relative_error(
            backward(p, trace, batch, config),
            finite_diff_grad(p, batch, config, 1e-4),
        )
        assert max(errors.values()) < 1e-4, errors


def dense_decoder_reference(p, trace, batch, lambda_txt):
    """Decoder-side gradients at lambda_info = 0 from one row per position:
    d_logits from cross_entropy_seq on the per-position logits, pushed back
    through the per-position hidden activations, then through the composer
    and text encoder into the token table."""
    _, _, logit_seqs, _ = forward_batch(p, batch)
    target_seqs = [list(item.target_toks) + [EOS_TOKEN] for item in batch]
    _, d_seqs = cross_entropy_seq(list(logit_seqs), target_seqs)
    d_logits = lambda_txt * np.concatenate(d_seqs)
    rows = trace.row_of_pos
    a_hid, zd = trace.a_hid[rows], trace.zd[rows]
    d = p.d_joint
    ref = {"w_out": a_hid.T @ d_logits, "b_out": d_logits.sum(axis=0)}
    d_uh = (d_logits @ p.w_out.T) * (1.0 - a_hid ** 2)
    ref["w_hid"], ref["b_hid"] = zd.T @ d_uh, d_uh.sum(axis=0)
    d_zd = d_uh @ p.w_hid.T
    tok_emb = np.zeros_like(p.tok_emb)
    np.add.at(tok_emb, trace.row_prev[rows], d_zd[:, d:])
    d_q = np.zeros((len(batch), d))
    np.add.at(d_q, trace.row_item[rows], d_zd[:, :d])
    d_txt = ((d_q * (1.0 - trace.q_mat ** 2)) @ p.w_comp.T)[:, d:]
    d_x = (d_txt * (1.0 - trace.txt ** 2)) @ p.w_txt.T
    for j, toks in enumerate(trace.mod_toks):
        np.add.at(tok_emb, np.asarray(toks), d_x[j] / len(toks))
    ref["tok_emb"] = tok_emb
    return ref


@pytest.mark.parametrize("lambda_txt", [0.5, 1.0, 3.0])
def test_decoder_gradients_match_dense_reference(lambda_txt):
    # The backward never forms d_logits: row scales on the hidden side of
    # the GEMMs and one-hot scatters over positions give the same tensors
    # as the dense per-position softmax gradient, on batches with a
    # repeated (row, target) pair.
    config = TrainConfig(stage=2, lambda_txt=lambda_txt, lambda_info=0.0)
    for seed in range(3):
        p, batch = small_params(seed), repeated_bigram_batch(seed)
        _, _, _, trace = forward_batch(p, batch)
        g = backward(p, trace, batch, config)
        for name, expected in dense_decoder_reference(p, trace, batch, lambda_txt).items():
            error = np.abs(getattr(g, name) - expected).max()
            assert error <= 1e-12 * np.abs(expected).max(), (seed, name, error)


def test_gradient_check_repeated_decoder_rows_scaled_text_loss():
    for lambda_txt in (0.5, 3.0):
        config = TrainConfig(stage=2, seed=0, lambda_txt=lambda_txt)
        for seed in range(3):
            p, batch = small_params(seed), repeated_bigram_batch(seed)
            _, _, _, trace = forward_batch(p, batch)
            errors = max_relative_error(
                backward(p, trace, batch, config),
                finite_diff_grad(p, batch, config, 1e-4),
            )
            assert max(errors.values()) < 1e-4, (lambda_txt, seed, errors)


def test_backward_leaves_trace_unchanged():
    # backward reads the trace and writes nothing to it, and logit_seqs are
    # copies: a second backward on one trace gives the same gradients.
    p, batch = small_params(2), repeated_bigram_batch(2)
    _, _, logit_seqs, trace = forward_batch(p, batch)
    config = TrainConfig(stage=2)
    first = backward(p, trace, batch, config)
    logit_seqs[0][:] = 0.0
    second = backward(p, trace, batch, config)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


def criterion2_draw(seed):
    """Criterion 2's draw: init_params(seed, vocab_size=64) and four items."""
    rng = np.random.default_rng(seed)
    p = init_params(seed, vocab_size=64)
    batch = [
        BatchItem(
            img_vec=rng.standard_normal(64),
            mod_toks=[int(t) for t in rng.integers(1, 64, size=int(rng.integers(1, 5)))],
            target_img_vec=rng.standard_normal(64),
            target_toks=[int(t) for t in rng.integers(1, 64, size=int(rng.integers(0, 5)))],
        )
        for _ in range(4)
    ]
    return p, batch


def set_decoder_block_rows(monkeypatch, p, rows):
    monkeypatch.setattr(trainer_mod, "DECODER_BLOCK_BYTES", rows * 8 * p.vocab_size)


@pytest.mark.parametrize("seed", range(3))
def test_multi_block_backward_matches_one_block(monkeypatch, seed):
    # Blocks of two decoder rows, the last one short. The per-position loss
    # terms are computed row by row, so the losses are bitwise those of one
    # block; the w_out and b_out gradients add the blocks' GEMMs, a
    # different summation order, so every gradient agrees to 1e-12.
    p, batch = small_params(seed), repeated_bigram_batch(seed)
    config = TrainConfig(stage=2, lambda_txt=0.5)
    _, _, _, trace = forward_batch(p, batch)
    one = trainer_mod._backward_with_losses(p, trace, batch, config)
    set_decoder_block_rows(monkeypatch, p, 2)
    assert trace.row_counts.size >= 5
    many = trainer_mod._backward_with_losses(p, trace, batch, config)
    again = trainer_mod._backward_with_losses(p, trace, batch, config)
    assert many[1:] == again[1:] == one[1:]
    for name in PARAM_FIELDS:
        expected = getattr(one[0], name)
        error = np.abs(getattr(many[0], name) - expected).max()
        assert error <= 1e-12 * np.abs(expected).max(), (name, error)
        np.testing.assert_array_equal(getattr(again[0], name), getattr(many[0], name))
    assert many[0].d_temperature == one[0].d_temperature


def test_gradient_check_one_decoder_row_per_block(monkeypatch):
    # Criterion 2's draws and bound with every decoder row its own block.
    config = TrainConfig(stage=2, seed=0)
    for seed in range(10):
        p, batch = criterion2_draw(seed)
        set_decoder_block_rows(monkeypatch, p, 1)
        _, _, _, trace = forward_batch(p, batch)
        assert trace.row_counts.size >= 3
        errors = max_relative_error(backward(p, trace, batch, config),
                                    finite_diff_grad(p, batch, config, epsilon=1e-4))
        assert max(errors.values()) < 1e-4, (seed, errors)


def test_stage2_step_peak_memory_is_one_logits_buffer():
    # A default-world step holds the decoder logits only in the buffer it is
    # given, as train_stage2 gives every step: everything it allocates stays
    # under 0.4 of a rows x vocab float64 array (the logits kept in the trace
    # plus a shifted copy took 2.2 arrays in all), and the trace it returns
    # has no vocab-wide field.
    world = generate_synthetic_world(0, 200, 8, n_triplets=500)
    anns, _ = annotate_triplets(world.triplets[:400], MockGenerator(0),
                                [MockJudge(i) for i in range(3)])
    accepted, _ = filter_annotations([(a, a.judge_scores) for a in anns])
    items = build_training_items(world, accepted, "full", DEFAULT_VOCAB)[:32]
    p = init_params(0, d_img=world.embeddings.dims)
    buffer = trainer_mod._decoder_buffer(p.vocab_size)
    tracemalloc.start()
    try:
        _, _, trace = _stage2_step(p, items, TrainConfig(stage=2), buffer=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    logits_bytes = trace.row_counts.size * p.vocab_size * 8
    assert trace.row_counts.size > buffer.shape[0]
    assert peak <= 0.4 * logits_bytes, (peak, logits_bytes)
    for name, value in vars(trace).items():
        assert not (isinstance(value, np.ndarray) and value.ndim == 2
                    and value.shape[1] == p.vocab_size), name


def test_default_vocabulary_block_holds_at_least_64_rows():
    # Blocks under 64 rows slow the backward: on a default-world batch,
    # 32-row blocks took 16% longer than 128-row ones.
    assert trainer_mod._decoder_buffer(DEFAULT_VOCAB).shape[0] >= 64


def test_train_stage2_passes_one_buffer_to_every_step(monkeypatch, tiny_world, tiny_accepted):
    # The run owns the backward's logits buffer: every step gets the same array.
    original = trainer_mod._backward_with_losses
    buffers = []

    def recording(p, trace, batch, config, buffer=None):
        buffers.append(buffer)
        return original(p, trace, batch, config, buffer)

    monkeypatch.setattr(trainer_mod, "_backward_with_losses", recording)
    log = []
    p = train_stage2(tiny_world, tiny_accepted, None,
                     TrainConfig(stage=2, seed=0, epochs=2, vocab_size=TINY_VOCAB),
                     loss_log=log)
    assert len(buffers) == len(log) >= 4
    assert isinstance(buffers[0], np.ndarray)
    assert buffers[0].shape == trainer_mod._decoder_buffer(p.vocab_size).shape
    assert all(buffer is buffers[0] for buffer in buffers)


def test_doubling_lambda_txt_doubles_text_gradient_exactly():
    p = small_params(5)
    batch = small_batch(5)
    _, _, _, trace = forward_batch(p, batch)
    g1 = backward(p, trace, batch, TrainConfig(stage=2, lambda_txt=1.0, lambda_info=0.0))
    g2 = backward(p, trace, batch, TrainConfig(stage=2, lambda_txt=2.0, lambda_info=0.0))
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(g2, name), 2.0 * getattr(g1, name))


def test_gradient_shapes_match_parameters():
    p = small_params(6)
    batch = small_batch(6)
    _, _, _, trace = forward_batch(p, batch)
    g = backward(p, trace, batch, TrainConfig(stage=2))
    for name in PARAM_FIELDS:
        assert getattr(g, name).shape == getattr(p, name).shape


def test_backward_rejects_mismatched_batch():
    p = small_params(7)
    batch = small_batch(7)
    _, _, _, trace = forward_batch(p, batch)
    with pytest.raises(TrainerError, match="does not match"):
        backward(p, trace, small_batch(8), TrainConfig(stage=2))


def test_central_difference_quadratic():
    derivative = central_difference(lambda x: x * x, 3.0, 1e-4)
    assert abs(derivative - 6.0) <= 1e-6


def test_finite_diff_deterministic():
    p = small_params(8)
    batch = small_batch(8)
    config = TrainConfig(stage=2)
    a = finite_diff_grad(p, batch, config, 1e-4)
    b = finite_diff_grad(p, batch, config, 1e-4)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def entrywise_finite_diff(p, batch, config, epsilon):
    """The oracle one entry per loss call: each entry of an unstacked tensor
    copy is moved to original +- epsilon in turn."""
    loss_fn = _make_loss_fn(p, batch, config)
    tensors = {name: getattr(p, name) for name in PARAM_FIELDS}
    numeric = zero_grads_like(p)
    for name in PARAM_FIELDS:
        work = tensors[name].copy()
        flat, out = work.ravel(), getattr(numeric, name).ravel()
        for i in range(flat.size):
            original = flat[i]

            def loss_at(value):
                flat[i] = value
                result = loss_fn({**tensors, name: work}, p.temperature)
                flat[i] = original
                return result

            out[i] = central_difference(loss_at, original, epsilon)
    numeric.d_temperature = central_difference(
        lambda tau: loss_fn(tensors, tau), p.temperature, epsilon)
    return numeric


@pytest.mark.parametrize("copies", [1, 2, 7, None])
def test_blocked_finite_diff_equals_entrywise_bitwise(monkeypatch, copies):
    # Stacking perturbed copies on a leading axis must not change a bit of
    # the oracle. Every SMALL tensor is smaller than the (9, 16) logits, so
    # a cap of 8 * 9 * 16 * copies bytes gives blocks of `copies` entries:
    # 1 everywhere, 2 and 7 leave short last blocks (a block of 1 included),
    # None keeps the default cap (one block per tensor).
    p, batch = small_params(3), small_batch(3)
    config = TrainConfig(stage=2, lambda_txt=1.0, lambda_info=0.5)
    if copies is not None:
        monkeypatch.setattr(trainer_mod, "FD_BLOCK_BYTES", 8 * 9 * 16 * copies)
    blocks = _fd_block_sizes(p, positions=9)
    sizes = {name: getattr(p, name).size for name in PARAM_FIELDS}
    if copies is not None:
        assert set(blocks.values()) == {copies}
    else:
        assert all(blocks[name] >= sizes[name] for name in PARAM_FIELDS)
    calls = []
    counted = trainer_mod.central_difference

    def counting(fn, x, epsilon):
        calls.append(np.size(x))
        return counted(fn, x, epsilon)

    monkeypatch.setattr(trainer_mod, "central_difference", counting)
    blocked = finite_diff_grad(p, batch, config, 1e-4)
    expected_calls = 1 + sum(-(-sizes[name] // blocks[name]) for name in PARAM_FIELDS)
    assert len(calls) == expected_calls and sum(calls) == 1 + sum(sizes.values())
    if copies == 2:
        assert calls.count(1) > 1  # odd-sized tensors end in a block of 1
    reference = entrywise_finite_diff(p, batch, config, 1e-4)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(blocked, name), getattr(reference, name))
    assert blocked.d_temperature == reference.d_temperature


def test_finite_diff_block_respects_byte_cap():
    # At the full vocabulary a single copy can exceed the cap; a block then
    # holds one copy. Otherwise it holds as many copies as fit, no more.
    p = init_params(0, vocab_size=4096)
    for positions in (1, 4, 20):
        for name, block in _fd_block_sizes(p, positions).items():
            per_copy = 8 * max(getattr(p, name).size, positions * 4096)
            assert block >= 1
            assert block == 1 or block * per_copy <= trainer_mod.FD_BLOCK_BYTES
            assert (block + 1) * per_copy > trainer_mod.FD_BLOCK_BYTES
    assert _fd_block_sizes(p, 1)["tok_emb"] == 1
    assert _fd_block_sizes(p, 1)["b_txt"] > 1


def test_text_encoder_backward_equals_per_sequence_scatter_bitwise():
    # One scatter over the concatenated token ids adds in the same order as
    # one scatter per sequence, also where tokens repeat within and across
    # sequences. tok_emb starts nonzero so that a reordered sum shows.
    p = small_params(15)
    rng = np.random.default_rng(15)
    tok_seqs = [[3, 3, 5], [5], [3, 7, 3, 3], (7, 5)]
    n = len(tok_seqs)
    x_mean = rng.standard_normal((n, p.d_tok))
    txt = np.tanh(rng.standard_normal((n, p.d_joint)))
    d_txt = rng.standard_normal((n, p.d_joint))
    start = rng.standard_normal(p.tok_emb.shape)
    g = zero_grads_like(p)
    g.tok_emb = start.copy()
    _text_encoder_backward(p, g, x_mean, txt, d_txt, tok_seqs)
    expected = start.copy()
    d_x = (d_txt * (1.0 - txt ** 2)) @ p.w_txt.T
    for j, toks in enumerate(tok_seqs):
        np.add.at(expected, np.asarray(toks, dtype=np.int64), (d_x[j] / len(toks))[None, :])
    np.testing.assert_array_equal(g.tok_emb, expected)


def test_stage1_gradient_check():
    # Stage 1's text-encoder backprop against central differences of an
    # independent encoding plus the oracle's InfoNCE; other tensors stay zero.
    p = small_params(12)
    rng = np.random.default_rng(12)
    batch = [
        tuple([int(t) for t in rng.integers(1, 16, size=int(rng.integers(1, 4)))]
              for _ in range(2))
        for _ in range(5)
    ]
    analytic, _, _ = _stage1_gradients(p, batch, TrainConfig(stage=1))
    tensors = {name: getattr(p, name).copy() for name in ("tok_emb", "w_txt", "b_txt")}

    def loss():
        def encode(seqs):
            x = np.stack([tensors["tok_emb"][toks].mean(axis=0) for toks in seqs])
            return np.tanh(x @ tensors["w_txt"] + tensors["b_txt"])
        return _infonce_loss_only(encode([a for a, _ in batch]),
                                  encode([b for _, b in batch]), p.temperature)

    numeric = zero_grads_like(p)
    for name, tensor in tensors.items():
        flat, out = tensor.ravel(), getattr(numeric, name).ravel()
        for i in range(flat.size):
            original = flat[i]

            def loss_at(value):
                flat[i] = value
                result = loss()
                flat[i] = original
                return result

            out[i] = central_difference(loss_at, original, 1e-4)
    errors = max_relative_error(analytic, numeric)
    assert max(errors.values()) < 1e-4, errors
    assert np.any(analytic.tok_emb != 0.0) and np.any(analytic.w_txt != 0.0)


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def zero_grads_like(p):
    return GradientSet(**{name: np.zeros_like(getattr(p, name)) for name in PARAM_FIELDS})


def test_sgd_zero_lr_is_identity_update():
    p = small_params(9)
    g = zero_grads_like(p)
    g.w_txt = np.ones_like(p.w_txt)
    stepped = sgd_step(p, g, 0.0)
    np.testing.assert_array_equal(stepped.w_txt, p.w_txt)


def test_sgd_arithmetic():
    p = small_params(9)
    g = zero_grads_like(p)
    g.b_txt = np.full_like(p.b_txt, 0.5)
    p = dataclasses.replace(p, b_txt=np.ones_like(p.b_txt))
    stepped = sgd_step(p, g, 0.1)
    np.testing.assert_allclose(stepped.b_txt, 0.95, atol=1e-15)


def test_sgd_two_steps_equal_summed_update():
    # Dyadic values make the algebraic identity exact in floats.
    p = small_params(10)
    g = zero_grads_like(p)
    for name in PARAM_FIELDS:
        setattr(g, name, np.full_like(getattr(p, name), 0.25))
    twice = sgd_step(sgd_step(p, g, 0.125), g, 0.125)
    doubled = GradientSet(
        **{name: 2.0 * getattr(g, name) for name in PARAM_FIELDS}
    )
    once = sgd_step(p, doubled, 0.125)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(twice, name), getattr(once, name))


def test_sgd_leaves_temperature_fixed():
    p = small_params(10)
    g = zero_grads_like(p)
    g.d_temperature = 123.0
    assert sgd_step(p, g, 0.5).temperature == p.temperature


def test_sgd_shape_mismatch():
    p = small_params(10)
    g = zero_grads_like(p)
    g.w_out = np.zeros((2, 2))
    with pytest.raises(TrainerError, match="w_out"):
        sgd_step(p, g, 0.1)


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

def test_config_defaults():
    config = TrainConfig(stage=2)
    assert config.lambda_txt == 1.0 and config.lambda_info == 1.0
    assert config.tau == 0.07 and config.annotation_mode == "full"


def test_config_validation():
    with pytest.raises(TrainerError):
        TrainConfig(stage=3)
    with pytest.raises(TrainerError):
        TrainConfig(stage=1, learning_rate=0.0)
    with pytest.raises(TrainerError):
        TrainConfig(stage=1, epochs=-1)
    with pytest.raises(TrainerError):
        TrainConfig(stage=1, annotation_mode="medium")
    with pytest.raises(TrainerError):
        TrainConfig(stage=1, lambda_txt=-0.1)
    with pytest.raises(TrainerError, match="seed must be >= 0"):
        TrainConfig(stage=1, seed=-1)
    with pytest.raises(TrainerError, match="vocab_size must be >= 2, got 1"):
        TrainConfig(stage=1, vocab_size=1)


@pytest.mark.parametrize("change", [
    {"epochs": 2.5}, {"batch_size": True}, {"learning_rate": "0.1"}, {"lambda_txt": None},
    {"stage": 2.0}, {"seed": "1"}, {"tau": [0.07]}, {"annotation_mode": 1},
    {"vocab_size": 256.0},
])
def test_config_field_of_wrong_type_rejected(change):
    with pytest.raises(TrainerError, match=f"{next(iter(change))} must be"):
        TrainConfig(**{"stage": 2, **change})


def test_config_int_for_float_accepted():
    config = TrainConfig(stage=2, learning_rate=1, lambda_txt=0, tau=1)
    assert (config.learning_rate, config.lambda_txt, config.tau) == (1, 0, 1)


def test_stage_defaults():
    # TrainConfig defaults the epochs per stage; an explicit count, 0 included, wins.
    assert TrainConfig(stage=1).epochs == 2
    assert TrainConfig(stage=2).epochs == 20
    assert trainer_mod.STAGE1_DEFAULTS == {"epochs": 2}
    assert trainer_mod.STAGE2_DEFAULTS == {"epochs": 20}
    assert TrainConfig(stage=2, epochs=0).epochs == 0
    assert TrainConfig(stage=1).vocab_size == 4096


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["learning_rate", "lambda_txt", "lambda_info", "tau"])
def test_config_non_finite_setting_rejected(name, value):
    with pytest.raises(TrainerError, match=f"{name} must be finite"):
        TrainConfig(stage=2, **{name: value})


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

TINY_VOCAB = 256


@pytest.fixture(scope="module")
def tiny_world():
    return generate_synthetic_world(0, 24, 5, n_triplets=60, dims=16)


@pytest.fixture(scope="module")
def tiny_accepted(tiny_world):
    anns, _ = annotate_triplets(
        tiny_world.triplets, MockGenerator(0), [MockJudge(i) for i in range(3)]
    )
    accepted, _ = filter_annotations([(a, a.judge_scores) for a in anns])
    return accepted


def test_stage1_zero_epochs_keeps_init(tiny_world):
    config = TrainConfig(stage=1, seed=5, epochs=0, vocab_size=TINY_VOCAB)
    p = train_stage1(tiny_world, config)
    fresh = init_params(5, vocab_size=TINY_VOCAB,
                        d_img=tiny_world.embeddings.dims, temperature=config.tau)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(p, name), getattr(fresh, name))


def test_stage1_gradient_and_combined_loss_scale_with_lambda_info():
    # Stage 1 has InfoNCE only: lambda_info scales its gradient and the
    # logged combined loss (a power of two exactly), and lambda_txt does
    # not apply.
    p = small_params(13)
    batch = [([1, 2], [2, 3]), ([4], [5, 6]), ([7, 8, 9], [9])]
    g1, losses1, _ = _stage1_gradients(p, batch, TrainConfig(stage=1))
    g2, losses2, _ = _stage1_gradients(p, batch, TrainConfig(stage=1, lambda_info=2.0,
                                                             lambda_txt=0.0))
    g0, losses0, _ = _stage1_gradients(p, batch, TrainConfig(stage=1, lambda_info=0.0))
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(g2, name), 2.0 * getattr(g1, name))
        assert np.all(getattr(g0, name) == 0.0)
    assert losses1["combined"] == losses1["l_info"] == losses2["l_info"]
    assert losses2["combined"] == 2.0 * losses1["l_info"]
    assert losses0 == dict(l_txt=0.0, l_info=losses1["l_info"], combined=0.0)


def test_stage1_bitwise_deterministic(tiny_world, tmp_path):
    config = TrainConfig(stage=1, seed=6, vocab_size=TINY_VOCAB)
    save_checkpoint(train_stage1(tiny_world, config), tmp_path / "a.ckpt")
    save_checkpoint(train_stage1(tiny_world, config), tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_stage1_loss_decreases_on_default_world():
    # The default world, where the recorded-curve contract is stated.
    world = generate_synthetic_world(0, 200, 8, n_triplets=500)
    log = []
    train_stage1(world, TrainConfig(stage=1, seed=0), loss_log=log)
    epochs = sorted({e["epoch"] for e in log})
    first = [e["l_info"] for e in log if e["epoch"] == epochs[0]]
    last = [e["l_info"] for e in log if e["epoch"] == epochs[-1]]
    assert sum(last) / len(last) < sum(first) / len(first)


def test_stage1_touches_text_side_only(tiny_world):
    config = TrainConfig(stage=1, seed=7, epochs=1, vocab_size=TINY_VOCAB)
    p = train_stage1(tiny_world, config)
    fresh = init_params(7, vocab_size=TINY_VOCAB,
                        d_img=tiny_world.embeddings.dims, temperature=config.tau)
    assert not np.array_equal(p.tok_emb, fresh.tok_emb)
    assert not np.array_equal(p.w_txt, fresh.w_txt)
    for name in ("w_img", "b_img", "w_comp", "b_comp", "w_hid", "b_hid", "w_out", "b_out"):
        np.testing.assert_array_equal(getattr(p, name), getattr(fresh, name))


def test_stage1_requires_stage1_config(tiny_world):
    with pytest.raises(TrainerError, match="stage-2"):
        train_stage1(tiny_world, TrainConfig(stage=2))


def test_stage1_requires_pairs(tiny_world):
    empty = dataclasses.replace(tiny_world, nli_pairs=[])
    with pytest.raises(TrainerError, match="no text pairs"):
        train_stage1(empty, TrainConfig(stage=1))


def test_stage2_zero_lambdas_leave_params_unchanged(tiny_world, tiny_accepted):
    init = init_params(0, vocab_size=TINY_VOCAB,
                       d_img=tiny_world.embeddings.dims)
    config = TrainConfig(stage=2, seed=0, epochs=2, lambda_txt=0.0, lambda_info=0.0)
    p = train_stage2(tiny_world, tiny_accepted, init, config)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(p, name), getattr(init, name))


def test_stage2_bitwise_deterministic(tiny_world, tiny_accepted, tmp_path):
    init = init_params(1, vocab_size=TINY_VOCAB,
                       d_img=tiny_world.embeddings.dims)
    config = TrainConfig(stage=2, seed=1, epochs=2)
    save_checkpoint(train_stage2(tiny_world, tiny_accepted, init, config),
                    tmp_path / "a.ckpt")
    save_checkpoint(train_stage2(tiny_world, tiny_accepted, init, config),
                    tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_stage2_rejects_no_accepted(tiny_world):
    init = init_params(0, vocab_size=TINY_VOCAB,
                       d_img=tiny_world.embeddings.dims)
    with pytest.raises(TrainerError, match="no accepted"):
        train_stage2(tiny_world, [], init, TrainConfig(stage=2))


def test_stage2_fast_mode_uses_fewer_tokens(tiny_world, tiny_accepted):
    from cirlite.trainer import build_training_items

    full_items = build_training_items(tiny_world, tiny_accepted, "full", TINY_VOCAB)
    fast_items = build_training_items(tiny_world, tiny_accepted, "fast", TINY_VOCAB)
    full_tokens = sum(len(i.target_toks) for i in full_items)
    fast_tokens = sum(len(i.target_toks) for i in fast_items)
    assert fast_tokens < full_tokens


def test_stage2_logs_both_loss_components(tiny_world, tiny_accepted):
    init = init_params(2, vocab_size=TINY_VOCAB,
                       d_img=tiny_world.embeddings.dims)
    log = []
    train_stage2(tiny_world, tiny_accepted, init,
                 TrainConfig(stage=2, seed=2, epochs=1), loss_log=log)
    assert log and all({"l_txt", "l_info", "combined"} <= set(e) for e in log)


def test_stage2_without_init_starts_where_stage1_would(tiny_world, tiny_accepted):
    config = TrainConfig(stage=2, seed=4, epochs=1, tau=0.05, vocab_size=TINY_VOCAB)
    init = init_params(config.seed, vocab_size=TINY_VOCAB,
                       d_img=tiny_world.embeddings.dims, temperature=config.tau)
    log_none, log_init = [], []
    fresh = train_stage2(tiny_world, tiny_accepted, None, config, loss_log=log_none)
    given = train_stage2(tiny_world, tiny_accepted, init, config, loss_log=log_init)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(fresh, name), getattr(given, name))
    assert fresh.temperature == given.temperature == 0.05
    assert log_none == log_init


def test_stage2_tokenizes_with_the_init_vocabulary(tiny_world, tiny_accepted):
    # The parameters own the vocabulary: the config's vocab_size sizes a fresh
    # start only, so two configs that differ in it train one init the same.
    init = init_params(6, vocab_size=2 * TINY_VOCAB, d_img=tiny_world.embeddings.dims)
    logs, trained = [[], []], []
    for log, vocab_size in zip(logs, (TINY_VOCAB, init.vocab_size)):
        config = TrainConfig(stage=2, seed=6, epochs=1, vocab_size=vocab_size)
        trained.append(train_stage2(tiny_world, tiny_accepted, init, config, loss_log=log))
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(trained[0], name), getattr(trained[1], name))
    assert logs[0] == logs[1]


# sha256 of a tiny-world stage-1 then stage-2 run, taken before both stages
# shared one training loop: the loop must not change a bit of either.
_GOLDEN = {
    "s1.ckpt": "9ee54770c002393a5f2a6388a2ab3b34dc3cf2b8d01367e9a35704e7211e7ae9",
    "s1.jsonl": "19f6a5477f05c13a685ce2e77bb90c489afcd185e2518ea4d149fc664828e11d",
    "s2.ckpt": "f3eb1c3fa09ef85c55bb039209736e153fef6e9a097187c88e7621d8aafea19f",
    "s2.jsonl": "78391a9b68c9c3e4a6d3c307c9b0eaa717d4df02bea2627e054d55af693639c4",
}


def test_two_stage_training_matches_golden_bytes(tiny_world, tiny_accepted, tmp_path):
    log1, log2 = [], []
    p1 = train_stage1(tiny_world, TrainConfig(stage=1, seed=3, vocab_size=TINY_VOCAB),
                      loss_log=log1)
    p2 = train_stage2(tiny_world, tiny_accepted, p1, TrainConfig(stage=2, seed=3, epochs=2),
                      loss_log=log2)
    save_checkpoint(p1, tmp_path / "s1.ckpt", seed=3)
    write_loss_log(log1, tmp_path / "s1.jsonl")
    save_checkpoint(p2, tmp_path / "s2.ckpt", seed=3)
    write_loss_log(log2, tmp_path / "s2.jsonl")
    assert (len(log1), len(log2)) == (6, 4)
    assert all(e["l_txt"] == 0.0 and e["combined"] == e["l_info"] for e in log1)
    hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in _GOLDEN}
    assert hashes == _GOLDEN


def test_loss_log_round_trips_exactly(tiny_world, tiny_accepted, tmp_path):
    # One sorted-key JSON line per step, whose floats read back bit for bit.
    log = []
    p1 = train_stage1(tiny_world, TrainConfig(stage=1, seed=2, epochs=1, vocab_size=TINY_VOCAB),
                      loss_log=log)
    train_stage2(tiny_world, tiny_accepted, p1, TrainConfig(stage=2, seed=2, epochs=2),
                 loss_log=log)
    write_loss_log(log, tmp_path / "loss.jsonl")
    lines = (tmp_path / "loss.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(log)
    for line, entry in zip(lines, log):
        read = json.loads(line)
        assert list(read) == sorted(entry)
        assert read == entry
        for key, value in entry.items():
            assert type(read[key]) is type(value), key
            if isinstance(value, float):
                assert read[key].hex() == value.hex(), key
    steps = [(e["stage"], e["epoch"], e["step"]) for e in log]
    assert len(set(steps)) == len(steps)
    assert {stage for stage, _, _ in steps} == {1, 2}


def test_benchmark_tracer_sees_every_training_step(tiny_world, tiny_accepted):
    # The benchmark's traced mode wraps trainer.sgd_step, forward_batch and
    # _backward_with_losses by name, so the training loop and the stage-2
    # step must look them up at call time.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(0.0)
    log1, log2 = [], []
    tracer.install()
    try:
        p = trainer_mod.train_stage1(
            tiny_world, TrainConfig(stage=1, seed=0, epochs=1, vocab_size=TINY_VOCAB),
            loss_log=log1)
        trainer_mod.train_stage2(tiny_world, tiny_accepted, p,
                                 TrainConfig(stage=2, seed=0, epochs=1), loss_log=log2)
    finally:
        tracer.uninstall()
    assert log1 and log2
    spans = [span[0] for span in tracer.spans]
    assert spans.count("trainer.stage1") == spans.count("trainer.stage2") == 1
    assert spans.count("trainer.sgd_step") == len(log1) + len(log2)
    assert spans.count("model.forward_batch") == len(log2)
    assert spans.count("trainer.backward") == len(log2)


def _attribute_chain(node):
    """["a", "b", "c"] for the expression a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def _import_from(module, name):
    """What `from module import name` binds, or None if it fails."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def test_benchmark_reads_only_names_the_program_binds():
    # The benchmark's files may not change with the program, so every name
    # they import from cirlite, and every module.attr they read, must resolve.
    missing = []
    for path in sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cirlite"):
                for alias in node.names:
                    value = _import_from(node.module, alias.name)
                    if value is None:
                        missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            chain = _attribute_chain(node)
            if chain is None or chain[0] not in modules:
                continue
            value = modules[chain[0]]
            for depth, attr in enumerate(chain[1:], start=2):
                if not hasattr(value, attr):
                    missing.append(f"{path.name}:{node.lineno}: {'.'.join(chain[:depth])}")
                    break
                value = getattr(value, attr)
    assert sorted(set(missing)) == []
    # pipeline-default counts its items by the stage-2 default epochs.
    assert TrainConfig(stage=2).epochs == trainer_mod.STAGE2_DEFAULTS["epochs"]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_file_roundtrip_stable(tmp_path):
    p = small_params(12)
    save_checkpoint(p, tmp_path / "a.ckpt", seed=12)
    loaded = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(loaded, tmp_path / "b.ckpt", seed=12)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_values_are_f32_cast(tmp_path):
    rng = np.random.default_rng(13)
    for i in range(6):
        dims = dict(zip(SMALL, rng.integers(2, 9, size=len(SMALL)).tolist()))
        p = dataclasses.replace(init_params(13 + i, **dims),
                                temperature=float(rng.uniform(0.01, 1.0)))
        seed = int(rng.integers(0, 2**31)) if i % 2 else None
        save_checkpoint(p, tmp_path / "p.ckpt", seed=seed)
        assert checkpoint_header(tmp_path / "p.ckpt") == dict(
            version=trainer_mod.CHECKPOINT_VERSION, **dims, temperature=p.temperature, seed=seed)
        loaded = load_checkpoint(tmp_path / "p.ckpt")
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(
                getattr(loaded, name),
                getattr(p, name).astype("<f4").astype(np.float64),
            )
        assert loaded.temperature == p.temperature


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(0), path, seed=1)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(small_params(1), path, seed=2)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["p.ckpt"]
    monkeypatch.undo()
    save_checkpoint(small_params(1), path, seed=2)
    assert load_checkpoint(path).w_txt.shape == small_params(1).w_txt.shape
    assert checkpoint_header(path)["seed"] == 2


def test_checkpoint_seed_recorded(tmp_path):
    save_checkpoint(small_params(), tmp_path / "p.ckpt", seed=42)
    assert checkpoint_header(tmp_path / "p.ckpt")["seed"] == 42


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(), path)
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = json.loads(data[:newline])
    header["version"] = 99
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + data[newline:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError, match="payload bytes"):
        load_checkpoint(path)


def test_checkpoint_header_dims_disagree_with_blocks(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(), path)
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = json.loads(data[:newline])
    header["d_hidden"] = 7
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + data[newline:])
    with pytest.raises(CheckpointError, match="payload bytes"):
        load_checkpoint(path)


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointError):
        load_checkpoint("/nonexistent/x.ckpt")


def test_checkpoint_header_not_object(tmp_path):
    path = tmp_path / "p.ckpt"
    path.write_bytes(b"[1]\n")
    with pytest.raises(CheckpointError, match="not a JSON object"):
        load_checkpoint(path)


def test_checkpoint_header_unknown_field(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(3), path, seed=3)
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = {**json.loads(data[:newline]), "note": "x"}
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    with pytest.raises(CheckpointError, match="header: unknown field 'note'$"):
        load_checkpoint(path)


def test_checkpoint_header_missing_fields(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(3), path, seed=3)
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline])
    del header["seed"], header["d_tok"]
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    with pytest.raises(CheckpointError, match="header: missing field 'd_tok'$"):
        load_checkpoint(path)
    header["d_tok"] = small_params(3).d_tok
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    assert load_checkpoint(path).d_tok == small_params(3).d_tok  # the seed is optional


@pytest.mark.parametrize("change", [
    {"vocab_size": 16.0}, {"d_tok": None}, {"d_img": ["x"]}, {"d_joint": 0},
    {"d_hidden": -1}, {"d_hidden": True}, {"version": 1.0}, {"temperature": "0.07"},
    {"temperature": True}, {"seed": "x"}, {"seed": 1.5},
])
def test_checkpoint_header_field_of_wrong_type(tmp_path, change):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(3), path, seed=3)
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = {**json.loads(data[:newline]), **change}
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    with pytest.raises(CheckpointError, match=f"header: {next(iter(change))} must be"):
        load_checkpoint(path)


@pytest.mark.parametrize("temperature, message", [
    ("1" + "0" * 400, "temperature int too large"), ("1" + "0" * 5000, "header is malformed"),
])
def test_checkpoint_header_huge_int_temperature(tmp_path, temperature, message):
    path = tmp_path / "p.ckpt"
    save_checkpoint(small_params(3), path)
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = data[:newline].replace(b'"temperature": 0.07', b'"temperature": ' + temperature.encode())
    path.write_bytes(header + data[newline:])
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_header_int_temperature_and_null_seed_load(tmp_path):
    path = tmp_path / "p.ckpt"
    p = dataclasses.replace(small_params(3), temperature=1.0)
    save_checkpoint(p, path)
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = {**json.loads(data[:newline]), "temperature": 1}
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    assert load_checkpoint(path).temperature == 1.0
    assert checkpoint_header(path)["seed"] is None


def test_stage2_step_loss_components():
    p = small_params(14)
    batch = small_batch(14)
    losses = _stage2_step(p, batch, TrainConfig(stage=2))[1]
    assert losses["combined"] == pytest.approx(losses["l_txt"] + losses["l_info"])
    config = TrainConfig(stage=2, lambda_txt=0.5, lambda_info=2.0)
    weighted = _stage2_step(p, batch, config)[1]
    assert weighted["combined"] == pytest.approx(0.5 * losses["l_txt"] + 2.0 * losses["l_info"])
