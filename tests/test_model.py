"""Model forward passes: shapes, purity, zero cases, batch consistency."""

import dataclasses

import numpy as np
import pytest

from cirlite.data import EOS_TOKEN
from cirlite.model import (
    BatchItem,
    ModelError,
    ParamSet,
    decoder_block,
    encode_queries,
    forward_batch,
    greedy_decode,
    init_params,
    logits_block,
    output_weights,
)

SMALL = dict(vocab_size=16, d_tok=4, d_img=6, d_joint=5, d_hidden=3)


def small_params(seed=0):
    return init_params(seed, **SMALL)


def zero_params():
    p = small_params()
    return dataclasses.replace(
        p, **{name: np.zeros_like(getattr(p, name))
              for name in ("tok_emb", "w_txt", "b_txt", "w_img", "b_img",
                           "w_comp", "b_comp", "w_hid", "b_hid", "w_out", "b_out")}
    )


def test_init_deterministic():
    a, b = small_params(3), small_params(3)
    for name in ("tok_emb", "w_out"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(small_params(4).tok_emb, a.tok_emb)


def test_paramset_shape_validation():
    # Dims are derived from tensor shapes, so a resized w_out surfaces as a
    # cross-tensor inconsistency.
    p = small_params()
    with pytest.raises(ModelError, match="shape"):
        dataclasses.replace(p, w_out=np.zeros((2, 2)))


def test_paramset_temperature_positive():
    with pytest.raises(ModelError, match="temperature"):
        dataclasses.replace(small_params(), temperature=0.0)


# ---------------------------------------------------------------------------
# encode_queries and the decoder blocks
# ---------------------------------------------------------------------------

def step_logits(p, q, prev):
    """One decoder step's logits, through the blocks the backward uses."""
    return logits_block(output_weights(p), decoder_block(p, q, prev)[1])


def test_encode_zero_params_gives_zero():
    _, txt, _, _, q_mat = encode_queries(zero_params(), np.ones((2, 6)), [[1, 2, 3], [4]])
    np.testing.assert_array_equal(txt, np.zeros((2, 5)))
    np.testing.assert_array_equal(q_mat, np.zeros((2, 5)))


def test_encode_permutation_invariant():
    rng = np.random.default_rng(0)
    p = small_params(1)
    for _ in range(20):
        toks = [int(t) for t in rng.integers(1, 16, size=5)]
        perm = [toks[i] for i in rng.permutation(5)]
        txt = encode_queries(p, np.zeros((2, 6)), [toks, perm])[1]
        np.testing.assert_allclose(txt[0], txt[1], atol=1e-12)


def test_encode_sensitive_to_both_inputs():
    rng = np.random.default_rng(2)
    p = small_params(2)
    img = rng.standard_normal(6)
    q_mat = encode_queries(p, np.stack([img, img + 0.5, img]), [[1, 2], [1, 2], [3, 2]])[-1]
    assert not np.allclose(q_mat[0], q_mat[1])
    assert not np.allclose(q_mat[0], q_mat[2])


def test_decode_zero_params_uniform_logits():
    np.testing.assert_array_equal(step_logits(zero_params(), np.zeros(5), 0), np.zeros(16))


def test_decode_accepts_bos_index():
    p = small_params()
    assert step_logits(p, np.zeros(5), p.bos_token).shape == (16,)


def test_decode_softmax_sums_to_one():
    rng = np.random.default_rng(3)
    p = small_params(3)
    for _ in range(10):
        logits = step_logits(p, rng.standard_normal(5), int(rng.integers(0, 17)))
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert abs(probs.sum() - 1.0) <= 1e-9


def test_greedy_all_zero_params_emits_eos_and_stops():
    # Uniform logits tie-break to the lowest index, which is EOS.
    assert greedy_decode(zero_params(), np.zeros(5), max_len=8) == [EOS_TOKEN]


def test_greedy_deterministic():
    rng = np.random.default_rng(4)
    p = small_params(4)
    q = rng.standard_normal(5)
    assert greedy_decode(p, q, 10) == greedy_decode(p, q, 10)


def test_greedy_respects_max_len():
    rng = np.random.default_rng(5)
    p = small_params(5)
    for _ in range(20):
        out = greedy_decode(p, rng.standard_normal(5), max_len=4)
        assert 1 <= len(out) <= 4


def test_greedy_decode_follows_teacher_forced_argmax():
    # Teacher-forcing the greedy output through forward_batch gives, at every
    # position, logits whose argmax is the token greedy_decode emitted there.
    # Scaled decoder weights make the outputs vary, some ending at EOS.
    for seed in range(6):
        p = small_params(seed)
        p = dataclasses.replace(p, **{name: getattr(p, name) * 10
                                      for name in ("tok_emb", "w_hid", "w_out")})
        item = make_batch(seed, 1, with_targets=False)[0]
        q = forward_batch(p, [item])[0][0]
        out = greedy_decode(p, q, 12)
        targets = out[:-1] if out[-1] == EOS_TOKEN else out
        logit_seqs = forward_batch(p, [dataclasses.replace(item, target_toks=targets)])[2]
        assert [int(np.argmax(row)) for row in logit_seqs[0][:len(out)]] == out
    with pytest.raises(ModelError):
        greedy_decode(small_params(), np.zeros(4), 3)


def test_greedy_max_len_validation():
    with pytest.raises(ModelError):
        greedy_decode(small_params(), np.zeros(5), 0)


# ---------------------------------------------------------------------------
# forward_batch
# ---------------------------------------------------------------------------

def make_batch(seed, n, with_targets=True):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        items.append(
            BatchItem(
                img_vec=rng.standard_normal(6),
                mod_toks=[int(t) for t in rng.integers(1, 16, size=int(rng.integers(1, 4)))],
                target_img_vec=rng.standard_normal(6),
                target_toks=(
                    [int(t) for t in rng.integers(1, 16, size=int(rng.integers(0, 4)))]
                    if with_targets else []
                ),
            )
        )
    return items


def test_forward_single_item_shapes():
    p = small_params(6)
    q, t, logit_seqs, trace = forward_batch(p, make_batch(0, 1))
    assert q.shape == (1, 5) and t.shape == (1, 5)
    assert len(logit_seqs) == 1
    assert logit_seqs[0].shape[1] == 16


def test_forward_empty_batch_rejected():
    with pytest.raises(ModelError, match="empty batch"):
        forward_batch(small_params(), [])


@pytest.mark.parametrize("img, target", [(np.ones(3), np.ones(6)), (np.ones(6), np.ones(7))])
def test_forward_dim_mismatch_rejected(img, target):
    bad = BatchItem(img_vec=img, mod_toks=[1], target_img_vec=target)
    with pytest.raises(ModelError, match="image vectors"):
        forward_batch(small_params(), [bad])


def test_forward_permutation_permutes_rows():
    p = small_params(7)
    batch = make_batch(1, 5)
    perm = [3, 0, 4, 1, 2]
    q, t, logits, _ = forward_batch(p, batch)
    q2, t2, logits2, _ = forward_batch(p, [batch[i] for i in perm])
    np.testing.assert_array_equal(q2, q[perm])
    np.testing.assert_array_equal(t2, t[perm])
    for j, i in enumerate(perm):
        np.testing.assert_array_equal(logits2[j], logits[i])


def test_forward_rows_match_numpy_reference():
    p = small_params(8)
    batch = make_batch(2, 6)
    q, t, _, _ = forward_batch(p, batch)
    for j, item in enumerate(batch):
        txt = np.tanh(p.tok_emb[item.mod_toks].mean(axis=0) @ p.w_txt + p.b_txt)
        g_img = np.tanh(item.img_vec @ p.w_img + p.b_img)
        expected = np.tanh(np.concatenate([g_img, txt]) @ p.w_comp + p.b_comp)
        np.testing.assert_allclose(q[j], expected, atol=1e-12)
        np.testing.assert_allclose(t[j], np.tanh(item.target_img_vec @ p.w_img + p.b_img),
                                   atol=1e-12)


def test_forward_teacher_forcing_matches_numpy_reference():
    p = small_params(9)
    batch = make_batch(3, 2)
    # A repeated bigram: item 0's positions share decoder rows.
    batch[0] = dataclasses.replace(batch[0], target_toks=[3, 5, 3, 5])
    q, _, logit_seqs, trace = forward_batch(p, batch)
    assert len(trace.row_counts) < trace.targets_flat.size
    assert len(logit_seqs) == len(batch)
    np.testing.assert_array_equal(logit_seqs[-1], logit_seqs[len(batch) - 1])
    for j, item in enumerate(batch):
        targets = list(item.target_toks) + [EOS_TOKEN]
        prev = p.bos_token
        for pos, target in enumerate(targets):
            hidden = np.tanh(np.concatenate([q[j], p.tok_emb[prev]]) @ p.w_hid + p.b_hid)
            np.testing.assert_allclose(logit_seqs[j][pos], hidden @ p.w_out + p.b_out,
                                       atol=1e-9)
            prev = target


@pytest.mark.parametrize("field, toks, message", [
    ("mod_toks", [], "empty modification tokens"), ("mod_toks", [16], "token 16 outside"),
    ("target_toks", [16], "token 16 outside"), ("target_toks", [-1], "token -1 outside"),
    ("mod_toks", [1.0], "tokens must be integers, got float64"),
    ("mod_toks", [True], "tokens must be integers, got bool"),
    ("target_toks", [2.5], "tokens must be integers, got float64"),
])
def test_forward_rejects_tokens_outside_vocabulary(field, toks, message):
    item = dataclasses.replace(make_batch(0, 1)[0], **{field: toks})
    with pytest.raises(ModelError, match=message):
        forward_batch(small_params(), [item])


def test_logits_block_folds_output_bias_into_gemm():
    # [a_hid | 1] @ [w_out; b_out] is a_hid @ w_out + b_out up to rounding,
    # for a block of rows, for greedy_decode's single row, and written into
    # a caller's buffer.
    for seed in range(3):
        p = init_params(seed, vocab_size=300, d_tok=6, d_img=6, d_joint=5, d_hidden=7)
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((9, 5))
        prev = rng.integers(0, p.vocab_size + 1, size=9)
        _, a_hid = decoder_block(p, q, prev)
        w_ob = output_weights(p)
        logits = logits_block(w_ob, a_hid)
        reference = a_hid @ p.w_out + p.b_out
        scale = np.abs(reference).max()
        assert np.abs(logits - reference).max() <= 1e-12 * scale
        buffer = np.empty((12, p.vocab_size))
        assert logits_block(w_ob, a_hid, out=buffer[:9]).base is buffer
        np.testing.assert_array_equal(buffer[:9], logits)
        _, a_row = decoder_block(p, q[0], int(prev[0]))
        row_logits = logits_block(w_ob, a_row)
        assert row_logits.shape == (p.vocab_size,)
        assert np.abs(row_logits - (a_row @ p.w_out + p.b_out)).max() <= 1e-12 * scale


def test_forward_purity():
    p = small_params(10)
    batch = make_batch(4, 3)
    q1, t1, l1, _ = forward_batch(p, batch)
    q2, t2, l2, _ = forward_batch(p, batch)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(t1, t2)


def test_shape_closure_across_configs():
    rng = np.random.default_rng(11)
    for dims in (
        dict(vocab_size=8, d_tok=2, d_img=3, d_joint=2, d_hidden=2),
        dict(vocab_size=100, d_tok=7, d_img=13, d_joint=9, d_hidden=5),
        dict(vocab_size=4096, d_tok=32, d_img=64, d_joint=32, d_hidden=32),
    ):
        p = init_params(0, **dims)
        toks = [int(t) for t in rng.integers(1, dims["vocab_size"], size=3)]
        encoded = encode_queries(p, rng.standard_normal((1, dims["d_img"])), [toks])
        assert [a.shape for a in encoded] == [
            (1, dims["d_tok"]), (1, dims["d_joint"]), (1, dims["d_joint"]),
            (1, 2 * dims["d_joint"]), (1, dims["d_joint"])]
        assert step_logits(p, encoded[-1][0], toks[0]).shape == (dims["vocab_size"],)
        item = BatchItem(
            img_vec=rng.standard_normal(dims["d_img"]),
            mod_toks=toks,
            target_img_vec=rng.standard_normal(dims["d_img"]),
            target_toks=toks[:2],
        )
        q_mat, t_mat, logit_seqs, _ = forward_batch(p, [item, item])
        assert q_mat.shape == (2, dims["d_joint"])
        assert t_mat.shape == (2, dims["d_joint"])
        assert logit_seqs[0].shape == (3, dims["vocab_size"])
