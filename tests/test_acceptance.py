"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight learning criteria share one annotated default world
via module fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from cirlite.annotate import (
    MockGenerator,
    MockJudge,
    annotate_triplets,
    filter_annotations,
)
from cirlite.cli import main
from cirlite.data import generate_synthetic_world, save_world, write_triplets
from cirlite.evaluate import evaluate_queries
from cirlite.metrics import (
    ap_at_k,
    cirr_average,
    display_round,
    fiq_average,
    map_at_k,
    recall_at_k,
    subset_recall_at_k,
)
from cirlite.model import BatchItem, forward_batch, init_params
from cirlite.retrieval import build_index_from_vectors, search_topk
from cirlite.store import l2_normalize
from cirlite.trainer import (
    TrainConfig,
    backward,
    cross_entropy_seq,
    finite_diff_grad,
    info_nce,
    max_relative_error,
    train_stage1,
    train_stage2,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# Shared default world (criteria 6, 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_world():
    world = generate_synthetic_world(0, 200, 8, n_triplets=500)
    train_triplets, eval_triplets = world.triplets[:400], world.triplets[400:]
    anns, _ = annotate_triplets(
        train_triplets, MockGenerator(0), [MockJudge(i) for i in range(3)]
    )
    accepted, _ = filter_annotations([(a, a.judge_scores) for a in anns])
    train_world = dataclasses.replace(world, triplets=train_triplets)
    return world, train_world, accepted, eval_triplets


# ---------------------------------------------------------------------------
# Criterion 1: published aggregation arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_published_arithmetic():
    fast = cirr_average(85.04, 79.35)
    sprc = cirr_average(82.12, 80.65)
    r10 = fiq_average([50.82, 57.26, 60.79])
    r50 = fiq_average([74.57, 75.76, 78.94])
    ok = (
        fast == (85.04 + 79.35) / 2
        and abs(fast - 82.195) < 1e-12
        and display_round(fast) == "82.19"
        and sprc == (82.12 + 80.65) / 2
        and abs(sprc - 81.385) < 1e-12
        and display_round(sprc) == "81.39"
        and r10 == (50.82 + 57.26 + 60.79) / 3
        and abs(r10 - 56.29) < 1e-12
        and display_round(r10) == "56.29"
        and r50 == (74.57 + 75.76 + 78.94) / 3
        and abs(r50 - 76.42333333333333) < 1e-12
        and display_round(r50) == "76.42"
    )
    report("criterion-01 published-arithmetic", ok,
           f"fast={fast!r} sprc={sprc!r} r10={r10!r} r50={r50!r}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness, 10 random draws
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_correctness():
    start = time.time()
    config = TrainConfig(stage=2, seed=0)
    worst = 0.0
    for seed in range(10):
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
        _, _, _, trace = forward_batch(p, batch)
        analytic = backward(p, trace, batch, config)
        numeric = finite_diff_grad(p, batch, config, epsilon=1e-4)
        errors = max_relative_error(analytic, numeric)
        worst = max(worst, max(errors.values()))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("criterion-02 gradient-correctness", ok,
           f"max_rel_err={worst:.3e} elapsed={elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: loss oracles
# ---------------------------------------------------------------------------

def test_criterion_3_loss_oracles():
    # N=1: a single positive with no negatives.
    loss1, _, _ = info_nce(np.ones((1, 4)), np.ones((1, 4)), 0.07)

    # N=4, all pairwise cosines equal: uniform softmax forces log 4.
    q4 = np.tile([[0.2, -0.7, 0.4]], (4, 1))
    t4 = np.tile([[1.5, 0.3, -0.2]], (4, 1))
    loss4, _, _ = info_nce(q4, t4, 0.07)

    # Random N=8 against a from-scratch evaluation of the loss definition.
    rng = np.random.default_rng(42)
    q8, t8 = rng.standard_normal((8, 6)), rng.standard_normal((8, 6))
    tau = 0.07
    loss8, _, _ = info_nce(q8, t8, tau)
    hand = 0.0
    for j in range(8):
        row = []
        for k in range(8):
            cos = float(np.dot(q8[j], t8[k])) / float(
                np.linalg.norm(q8[j]) * np.linalg.norm(t8[k])
            )
            row.append(cos / tau)
        exps = [math.exp(v) for v in row]
        hand += -math.log(exps[j] / sum(exps))
    hand /= 8

    # Cross entropy against independent softmax evaluation.
    logits = [rng.standard_normal((3, 9)), rng.standard_normal((1, 9))]
    targets = [[2, 8, 0], [5]]
    ce, _ = cross_entropy_seq(logits, targets)
    ce_hand, positions = 0.0, 0
    for block, tgt in zip(logits, targets):
        for row, y in zip(block, tgt):
            exps = [math.exp(v) for v in row]
            ce_hand += -math.log(exps[y] / sum(exps))
            positions += 1
    ce_hand /= positions

    ok = (
        loss1 == 0.0
        and abs(loss4 - math.log(4)) < 1e-9
        and abs(loss8 - hand) < 1e-9
        and abs(ce - ce_hand) < 1e-9
    )
    report("criterion-03 loss-oracles", ok,
           f"n1={loss1} n4-log4={abs(loss4 - math.log(4)):.2e} "
           f"n8-hand={abs(loss8 - hand):.2e} ce-hand={abs(ce - ce_hand):.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: metric oracles on 100 randomized instances
# ---------------------------------------------------------------------------

def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(7)
    recall_exact = subset_exact = True
    map_worst = 0.0
    for _ in range(100):
        gallery = int(rng.integers(2, 201))
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, gallery + 1))

        ranks = [int(r) for r in rng.integers(1, gallery + 1, size=n)]
        brute = 100.0 * sum(1 for r in ranks if r <= k) / n
        recall_exact &= recall_at_k(ranks, k) == brute

        subset_n = int(rng.integers(1, 10))
        subset_ranks = [int(r) for r in rng.integers(1, 7, size=subset_n)]
        sk = int(rng.integers(1, 7))
        brute_subset = 100.0 * sum(1 for r in subset_ranks if r <= sk) / subset_n
        subset_exact &= subset_recall_at_k(subset_ranks, sk) == brute_subset

        ids = [f"i{j}" for j in range(gallery)]
        queries = int(rng.integers(1, 5))
        ranked = [[ids[i] for i in rng.permutation(gallery)] for _ in range(queries)]
        gts = [
            {ids[int(i)] for i in rng.choice(gallery, size=int(rng.integers(1, 6)), replace=False)}
            for _ in range(queries)
        ]
        # Brute AP: direct transcription of the truncated-AP definition.
        total = 0.0
        for ranked_ids, gt in zip(ranked, gts):
            score = 0.0
            for i in range(1, k + 1):
                if i <= len(ranked_ids) and ranked_ids[i - 1] in gt:
                    score += len([x for x in ranked_ids[:i] if x in gt]) / i
            total += score / min(len(gt), k)
        map_worst = max(map_worst, abs(map_at_k(ranked, gts, k) - total / queries))
        for ranked_ids, gt in zip(ranked, gts):
            sc = 0.0
            for i in range(1, k + 1):
                if ranked_ids[i - 1] in gt:
                    sc += len([x for x in ranked_ids[:i] if x in gt]) / i
            map_worst = max(map_worst, abs(ap_at_k(ranked_ids, gt, k) - sc / min(len(gt), k)))

    ok = recall_exact and subset_exact and map_worst <= 1e-12
    report("criterion-04 metric-oracles", ok,
           f"recall_exact={recall_exact} subset_exact={subset_exact} "
           f"map_worst={map_worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: retrieval against full-sort oracle
# ---------------------------------------------------------------------------

def test_criterion_5_retrieval_oracle():
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(100):
        count = int(rng.integers(2, 1001))
        dims = int(rng.integers(2, 9))
        if trial % 2:
            vectors = rng.choice([-1.0, 0.0, 1.0], size=(count, dims))
            vectors[np.all(vectors == 0, axis=1), 0] = 1.0
        else:
            vectors = rng.standard_normal((count, dims))
        ids = [f"g{i:04d}" for i in range(count)]
        index = build_index_from_vectors(ids, vectors)
        q = rng.standard_normal(dims)
        k = int(rng.integers(1, count + 1))

        scores = index.vectors @ l2_normalize(q)
        oracle = sorted(
            ((float(scores[i]), ids[i]) for i in range(count)),
            key=lambda pair: (-pair[0], pair[1]),
        )[:k]
        got = search_topk(index, q, k)
        if got.ids != [i for _, i in oracle] or got.scores != [s for s, _ in oracle]:
            ok = False
            break
    report("criterion-05 retrieval-oracle", ok)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end learning on the default world
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_learning(default_world):
    start = time.time()
    world, train_world, accepted, eval_triplets = default_world
    p1 = train_stage1(train_world, TrainConfig(stage=1, seed=0))
    p2 = train_stage2(train_world, accepted, p1, TrainConfig(stage=2, seed=0))
    result = evaluate_queries(p2, world.embeddings, eval_triplets)
    elapsed = time.time() - start
    r1, r5 = result.recall[1], result.recall[5]
    ok = r1 >= 90.0 and r5 >= 99.0 and elapsed < 120.0
    report("criterion-06 end-to-end-learning", ok,
           f"R@1={r1:.2f} R@5={r5:.2f} elapsed={elapsed:.0f}s")
    assert r1 >= 90.0
    assert r5 >= 99.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion 7: ablation trend over 5 seeds
# ---------------------------------------------------------------------------

def test_criterion_7_ablation_trend():
    start = time.time()
    sums = {"stage1_cot": 0.0, "stage1_only": 0.0, "neither": 0.0}
    n_seeds = 5
    for seed in range(n_seeds):
        world = generate_synthetic_world(seed, 200, 8, n_triplets=500)
        train_triplets, eval_triplets = world.triplets[:400], world.triplets[400:]
        anns, _ = annotate_triplets(
            train_triplets, MockGenerator(seed), [MockJudge(seed + i) for i in range(3)]
        )
        accepted, _ = filter_annotations([(a, a.judge_scores) for a in anns])
        train_world = dataclasses.replace(world, triplets=train_triplets)

        pretrained = train_stage1(train_world, TrainConfig(stage=1, seed=seed))
        fresh = init_params(seed, vocab_size=4096,
                            d_img=world.embeddings.dims)
        arms = (
            ("stage1_cot", pretrained, 1.0),
            ("stage1_only", pretrained, 0.0),
            ("neither", fresh, 0.0),
        )
        for name, init, lambda_txt in arms:
            config = TrainConfig(stage=2, seed=seed, lambda_txt=lambda_txt)
            params = train_stage2(train_world, accepted, init, config)
            result = evaluate_queries(params, world.embeddings, eval_triplets)
            sums[name] += result.recall[1]

    means = {name: value / n_seeds for name, value in sums.items()}
    elapsed = time.time() - start
    ok = (
        means["stage1_cot"] >= means["stage1_only"] >= means["neither"]
        and elapsed < 600.0
    )
    report("criterion-07 ablation-trend", ok,
           f"means: stage1+cot={means['stage1_cot']:.2f} >= "
           f"stage1={means['stage1_only']:.2f} >= neither={means['neither']:.2f} "
           f"elapsed={elapsed:.0f}s")
    assert means["stage1_cot"] >= means["stage1_only"] >= means["neither"]
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# Criterion 8: lambda sweep trend
# ---------------------------------------------------------------------------

def test_criterion_8_lambda_sweep():
    start = time.time()
    # Shipped default is the published optimum.
    ok_default = TrainConfig(stage=2).lambda_txt == 1.0

    # Exact-zero text-gradient contribution at lambda_txt = 0.
    p = init_params(0, vocab_size=64)
    rng = np.random.default_rng(0)
    batch = [
        BatchItem(
            img_vec=rng.standard_normal(64),
            mod_toks=[int(t) for t in rng.integers(1, 64, size=3)],
            target_img_vec=rng.standard_normal(64),
            target_toks=[int(t) for t in rng.integers(1, 64, size=3)],
        )
        for _ in range(4)
    ]
    _, _, _, trace = forward_batch(p, batch)
    grads0 = backward(p, trace, batch,
                      TrainConfig(stage=2, lambda_txt=0.0, lambda_info=1.0))
    ok_zero = (
        np.all(grads0.w_hid == 0.0)
        and np.all(grads0.b_hid == 0.0)
        and np.all(grads0.w_out == 0.0)
        and np.all(grads0.b_out == 0.0)
    )

    # Both sweep points train to completion and log both loss components.
    world = generate_synthetic_world(3, 80, 8,
                                     n_triplets=160, dims=32)
    anns, _ = annotate_triplets(
        world.triplets, MockGenerator(3), [MockJudge(3 + i) for i in range(3)]
    )
    accepted, _ = filter_annotations([(a, a.judge_scores) for a in anns])
    ok_logs = True
    for lambda_txt in (0.0, 1.0):
        init = init_params(3, vocab_size=512,
                           d_img=world.embeddings.dims)
        log = []
        train_stage2(world, accepted, init,
                     TrainConfig(stage=2, seed=3, epochs=4, lambda_txt=lambda_txt),
                     loss_log=log)
        ok_logs &= bool(log) and all(
            "l_txt" in entry and "l_info" in entry for entry in log
        )

    elapsed = time.time() - start
    ok = ok_default and ok_zero and ok_logs and elapsed < 300.0
    report("criterion-08 lambda-sweep", ok,
           f"default_1.0={ok_default} zero_text_grad={ok_zero} "
           f"logs={ok_logs} elapsed={elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: pipeline determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(default_world, tmp_path):
    start = time.time()
    world, train_world, _, eval_triplets = default_world
    paths = save_world(world, tmp_path / "world")
    write_triplets(train_world.triplets, tmp_path / "train.jsonl")
    write_triplets(eval_triplets, tmp_path / "eval.jsonl")

    def run(tag):
        out = tmp_path / tag
        out.mkdir()
        ann = str(out / "ann.jsonl")
        acc, rej = str(out / "acc.jsonl"), str(out / "rej.jsonl")
        ck1, ck2 = str(out / "s1.ckpt"), str(out / "s2.ckpt")
        rep = str(out / "report.json")
        steps = [
            ["ingest", "--embeddings", paths["embeddings"],
             "--triplets", paths["triplets"]],
            ["annotate", "--triplets", str(tmp_path / "train.jsonl"),
             "--annotations", ann, "--mock", "--seed", "42"],
            ["filter", "--annotations", ann, "--accepted", acc, "--rejected", rej],
            ["train", "--stage", "1", "--embeddings", paths["embeddings"],
             "--nli-pairs", paths["nli_pairs"], "--checkpoint", ck1, "--seed", "42"],
            ["train", "--stage", "2", "--embeddings", paths["embeddings"],
             "--triplets", str(tmp_path / "train.jsonl"), "--annotations", acc,
             "--init-checkpoint", ck1, "--checkpoint", ck2, "--seed", "42"],
            ["eval", "--checkpoint", ck2, "--embeddings", paths["embeddings"],
             "--triplets", str(tmp_path / "eval.jsonl"), "--report", rep,
             "--seed", "42"],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        return (out / "s2.ckpt").read_bytes(), (out / "report.json").read_bytes()

    ck_a, rep_a = run("a")
    ck_b, rep_b = run("b")
    elapsed = time.time() - start
    ok = ck_a == ck_b and rep_a == rep_b and elapsed < 180.0
    report("criterion-09 pipeline-determinism", ok,
           f"checkpoints_equal={ck_a == ck_b} reports_equal={rep_a == rep_b} "
           f"elapsed={elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: annotation filter contract
# ---------------------------------------------------------------------------

def test_criterion_10_filter_contract():
    from cirlite.data import CoTAnnotation

    def ann(i):
        return CoTAnnotation(f"p{i}", "cap", ["step"], "conclusion")

    accepted, rejected = filter_annotations(
        [(ann(0), [5, 5, 4]), (ann(1), [5, 5, 1]), (ann(2), [4, 4, 4])]
    )
    ok_examples = (
        [a.pair_id for a in accepted] == ["p0", "p2"]
        and [a.pair_id for a in rejected] == ["p1"]
    )

    rng = np.random.default_rng(1)
    ok_partition = True
    for _ in range(50):
        records = [
            (ann(i), [int(s) for s in rng.integers(1, 6, size=3)])
            for i in range(int(rng.integers(1, 30)))
        ]
        accepted, rejected = filter_annotations(records)
        ok_partition &= len(accepted) + len(rejected) == len(records)
        ok_partition &= all(a.accepted for a in accepted)
        ok_partition &= not any(r.accepted for r in rejected)

    ok = ok_examples and ok_partition
    report("criterion-10 filter-contract", ok,
           f"examples={ok_examples} partition={ok_partition}")
    assert ok
