"""Losses against hand evaluation, gradients against finite differences,
optimizer algebra, training determinism, checkpoint format."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cirlite.data import EOS_TOKEN, generate_synthetic_world
from cirlite.annotate import MockGenerator, MockJudge, annotate_triplets, filter_annotations
from cirlite.model import PARAM_FIELDS, BatchItem, forward_batch, init_params
from cirlite.trainer import (
    CheckpointError,
    GradientSet,
    TrainConfig,
    TrainerError,
    _backward_with_losses,
    _infonce_loss_only,
    _stage1_gradients,
    backward,
    batch_loss,
    central_difference,
    checkpoint_seed,
    combined_loss,
    cross_entropy_seq,
    default_config,
    finite_diff_grad,
    info_nce,
    load_checkpoint,
    max_relative_error,
    save_checkpoint,
    sgd_step,
    train_stage1,
    train_stage2,
)

SMALL = dict(vocab_size=16, d_tok=4, d_img=6, d_joint=5, d_hidden=3)


def small_params(seed=0):
    return init_params(seed, **SMALL)


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


def test_backward_losses_equal_batch_loss_bitwise():
    # One softmax-CE and one InfoNCE serve both the training step and
    # batch_loss, so the reported losses agree to the last bit.
    config = TrainConfig(stage=2)
    for seed in range(4):
        p = small_params(seed)
        batch = small_batch(seed, n=4)
        _, l_txt, l_info = batch_loss(p, batch, config)
        _, _, _, trace = forward_batch(p, batch)
        _, bw_txt, bw_info = _backward_with_losses(p, trace, batch, config)
        assert (bw_txt, bw_info) == (l_txt, l_info)


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
    _, analytic = _stage1_gradients(p, batch)
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


def test_stage_defaults():
    assert default_config(1).epochs == 2
    assert default_config(2).epochs == 20


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_world():
    return generate_synthetic_world(0, 24, 5, vocab_size=256, n_triplets=60, dims=16)


@pytest.fixture(scope="module")
def tiny_accepted(tiny_world):
    anns, _ = annotate_triplets(
        tiny_world.triplets, MockGenerator(0), [MockJudge(i) for i in range(3)]
    )
    accepted, _ = filter_annotations([(a, a.judge_scores) for a in anns])
    return accepted


def test_stage1_zero_epochs_keeps_init(tiny_world):
    config = default_config(1, seed=5, epochs=0)
    p = train_stage1(tiny_world, config)
    fresh = init_params(5, vocab_size=tiny_world.vocab_size,
                        d_img=tiny_world.embeddings.dims, temperature=config.tau)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(p, name), getattr(fresh, name))


def test_stage1_bitwise_deterministic(tiny_world, tmp_path):
    config = default_config(1, seed=6)
    save_checkpoint(train_stage1(tiny_world, config), tmp_path / "a.ckpt")
    save_checkpoint(train_stage1(tiny_world, config), tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_stage1_loss_decreases_on_default_world():
    # The default world, where the recorded-curve contract is stated.
    world = generate_synthetic_world(0, 200, 8, n_triplets=500)
    log = []
    train_stage1(world, default_config(1, seed=0), loss_log=log)
    epochs = sorted({e["epoch"] for e in log})
    first = [e["l_info"] for e in log if e["epoch"] == epochs[0]]
    last = [e["l_info"] for e in log if e["epoch"] == epochs[-1]]
    assert sum(last) / len(last) < sum(first) / len(first)


def test_stage1_touches_text_side_only(tiny_world):
    config = default_config(1, seed=7, epochs=1)
    p = train_stage1(tiny_world, config)
    fresh = init_params(7, vocab_size=tiny_world.vocab_size,
                        d_img=tiny_world.embeddings.dims, temperature=config.tau)
    assert not np.array_equal(p.tok_emb, fresh.tok_emb)
    assert not np.array_equal(p.w_txt, fresh.w_txt)
    for name in ("w_img", "b_img", "w_comp", "b_comp", "w_hid", "b_hid", "w_out", "b_out"):
        np.testing.assert_array_equal(getattr(p, name), getattr(fresh, name))


def test_stage1_requires_stage1_config(tiny_world):
    with pytest.raises(TrainerError, match="stage-2"):
        train_stage1(tiny_world, default_config(2))


def test_stage1_requires_pairs(tiny_world):
    empty = dataclasses.replace(tiny_world, nli_pairs=[])
    with pytest.raises(TrainerError, match="no text pairs"):
        train_stage1(empty, default_config(1))


def test_stage2_zero_lambdas_leave_params_unchanged(tiny_world, tiny_accepted):
    init = init_params(0, vocab_size=tiny_world.vocab_size,
                       d_img=tiny_world.embeddings.dims)
    config = default_config(2, seed=0, epochs=2, lambda_txt=0.0, lambda_info=0.0)
    p = train_stage2(tiny_world, tiny_accepted, init, config)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(p, name), getattr(init, name))


def test_stage2_bitwise_deterministic(tiny_world, tiny_accepted, tmp_path):
    init = init_params(1, vocab_size=tiny_world.vocab_size,
                       d_img=tiny_world.embeddings.dims)
    config = default_config(2, seed=1, epochs=2)
    save_checkpoint(train_stage2(tiny_world, tiny_accepted, init, config),
                    tmp_path / "a.ckpt")
    save_checkpoint(train_stage2(tiny_world, tiny_accepted, init, config),
                    tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_stage2_rejects_no_accepted(tiny_world):
    init = init_params(0, vocab_size=tiny_world.vocab_size,
                       d_img=tiny_world.embeddings.dims)
    with pytest.raises(TrainerError, match="no accepted"):
        train_stage2(tiny_world, [], init, default_config(2))


def test_stage2_fast_mode_uses_fewer_tokens(tiny_world, tiny_accepted):
    from cirlite.trainer import build_training_items

    full_items = build_training_items(tiny_world, tiny_accepted, "full")
    fast_items = build_training_items(tiny_world, tiny_accepted, "fast")
    full_tokens = sum(len(i.target_toks) for i in full_items)
    fast_tokens = sum(len(i.target_toks) for i in fast_items)
    assert fast_tokens < full_tokens


def test_stage2_logs_both_loss_components(tiny_world, tiny_accepted):
    init = init_params(2, vocab_size=tiny_world.vocab_size,
                       d_img=tiny_world.embeddings.dims)
    log = []
    train_stage2(tiny_world, tiny_accepted, init,
                 default_config(2, seed=2, epochs=1), loss_log=log)
    assert log and all({"l_txt", "l_info", "combined"} <= set(e) for e in log)


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
    p = small_params(13)
    save_checkpoint(p, tmp_path / "p.ckpt")
    loaded = load_checkpoint(tmp_path / "p.ckpt")
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(
            getattr(loaded, name),
            getattr(p, name).astype("<f4").astype(np.float64),
        )
    assert loaded.temperature == p.temperature


def test_checkpoint_seed_recorded(tmp_path):
    save_checkpoint(small_params(), tmp_path / "p.ckpt", seed=42)
    assert checkpoint_seed(tmp_path / "p.ckpt") == 42


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
    for read in (load_checkpoint, checkpoint_seed):
        with pytest.raises(CheckpointError, match="not a JSON object"):
            read(path)


def test_batch_loss_components(tmp_path):
    p = small_params(14)
    batch = small_batch(14)
    combined, l_txt, l_info = batch_loss(p, batch, TrainConfig(stage=2))
    assert combined == pytest.approx(l_txt + l_info)
    combined2, _, _ = batch_loss(
        p, batch, TrainConfig(stage=2, lambda_txt=0.5, lambda_info=2.0)
    )
    assert combined2 == pytest.approx(0.5 * l_txt + 2.0 * l_info)
