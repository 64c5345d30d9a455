"""Self-tests of the benchmark's output checks, at small sizes.

Each check must accept the program's real output and reject a corrupted
copy of it. Run with: python3 -m pytest benchmarks -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cirlite import annotate, data, evaluate, model, store, trainer  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from stub_server import N_JUDGES  # noqa: E402


def _eval_outputs(tmp_path, matrix, triplets, params):
    path = tmp_path / "ranked.jsonl"
    report = evaluate.evaluate_queries(params, matrix, triplets, ranked_out=path)
    return json.loads(report.to_json()), reference.read_jsonl(path)


def _check_eval(params, matrix, triplets, report, ranked):
    tensors = {name: getattr(params, name) for name in reference.PARAM_ORDER}
    problems, _ = reference.check_eval(
        tensors, matrix.ids, matrix.values,
        [dataclasses.asdict(t) for t in triplets], report, ranked)
    return problems


@pytest.fixture(scope="module")
def small_eval(tmp_path_factory):
    world = data.generate_synthetic_world(0, 60, 6, n_triplets=40)
    params = model.init_params(0, vocab_size=64)
    report, ranked = _eval_outputs(tmp_path_factory.mktemp("eval"), world.embeddings,
                                   world.triplets, params)
    return params, world, report, ranked


def test_eval_check_accepts_program_output(small_eval):
    params, world, report, ranked = small_eval
    assert _check_eval(params, world.embeddings, world.triplets, report, ranked) == []


def test_eval_check_rejects_rank_off_by_one(small_eval):
    params, world, report, ranked = small_eval
    bad = copy.deepcopy(report)
    k = next(key for key, value in bad["recall"].items() if value < 100.0)
    bad["recall"][k] += 100.0 / bad["query_count"]
    assert _check_eval(params, world.embeddings, world.triplets, bad, ranked)


def test_eval_check_rejects_shifted_top_k(small_eval):
    params, world, report, ranked = small_eval
    bad = copy.deepcopy(ranked)
    ids = bad[0]["ranked_ids"]
    ids[0], ids[1] = ids[1], ids[0]
    assert _check_eval(params, world.embeddings, world.triplets, report, bad)


def test_eval_check_rejects_changed_map(small_eval):
    params, world, report, ranked = small_eval
    bad = copy.deepcopy(report)
    bad["map_at"]["10"] *= 0.99
    assert _check_eval(params, world.embeddings, world.triplets, bad, ranked)


def test_eval_check_rejects_tie_broken_the_wrong_way(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((12, 64)).astype(np.float32)
    values[1] = values[0]  # g00 and g01 score exactly the same for any query
    ids = [f"g{i:02d}" for i in range(12)]
    matrix = store.EmbeddingMatrix(ids=ids, values=values)
    triplets = [data.Triplet(
        pair_id="p0", reference_id="g05", modification_text="addred dropblue",
        target_id="g01", subset_ids=["g01", "g00", "g07"], gt_ids=["g01"])]
    params = model.init_params(3, vocab_size=64)
    report, ranked = _eval_outputs(tmp_path, matrix, triplets, params)
    assert _check_eval(params, matrix, triplets, report, ranked) == []

    # The id rule puts g00 before its exact twin g01: a list or a rank that
    # puts g01 first breaks the tie the wrong way.
    order = ranked[0]["ranked_ids"]
    i, j = order.index("g00"), order.index("g01")
    assert i + 1 == j
    bad_list = copy.deepcopy(ranked)
    bad_list[0]["ranked_ids"][i], bad_list[0]["ranked_ids"][j] = "g01", "g00"
    assert _check_eval(params, matrix, triplets, report, bad_list)
    bad_report = copy.deepcopy(report)
    assert bad_report["subset_recall"]["1"] == 0.0
    bad_report["subset_recall"]["1"] = 100.0
    assert _check_eval(params, matrix, triplets, bad_report, ranked)


@pytest.fixture(scope="module")
def filtered():
    world = data.generate_synthetic_world(1, 40, 6, n_triplets=60)
    annotated, _ = annotate.annotate_triplets(
        world.triplets, annotate.MockGenerator(1), [annotate.MockJudge(1 + i) for i in range(N_JUDGES)])
    accepted, rejected = annotate.filter_annotations([(a, a.judge_scores) for a in annotated])
    as_dicts = [[dataclasses.asdict(a) for a in group] for group in (annotated, accepted, rejected)]
    assert as_dicts[1] and as_dicts[2]
    return as_dicts


def test_filter_check_accepts_program_output(filtered):
    assert reference.check_filter(*filtered) == []


def test_filter_check_rejects_flipped_decision(filtered):
    annotated, accepted, rejected = copy.deepcopy(filtered)
    moved = accepted.pop(0)
    moved["accepted"] = False
    rejected.append(moved)
    assert reference.check_filter(annotated, accepted, rejected)


def test_filter_check_rejects_lost_record(filtered):
    annotated, accepted, rejected = copy.deepcopy(filtered)
    rejected.pop()
    assert reference.check_filter(annotated, accepted, rejected)


def test_loss_check_rejects_rising_loss():
    log = [{"stage": 2, "epoch": e, "combined": c}
           for e, c in ((0, 3.0), (0, 2.8), (1, 2.9), (1, 3.1))]
    assert reference.check_loss_decreases(log)
    log[-1]["combined"] = 2.0
    assert reference.check_loss_decreases(log) == []


def test_gradient_check_rejects_perturbed_gradient():
    rng = np.random.default_rng(0)
    p = model.init_params(0, vocab_size=8, d_tok=4, d_img=4, d_joint=4, d_hidden=4)
    batch = [model.BatchItem(img_vec=rng.standard_normal(4), mod_toks=[1, 2],
                             target_img_vec=rng.standard_normal(4), target_toks=[3])
             for _ in range(3)]
    config = trainer.TrainConfig(stage=2, seed=0)
    _, _, _, trace = model.forward_batch(p, batch)
    analytic = workloads._gradient_dict(trainer.backward(p, trace, batch, config))
    numeric = workloads._gradient_dict(trainer.finite_diff_grad(p, batch, config))
    assert reference.check_gradients(analytic, numeric) == []
    analytic["w_out"] = analytic["w_out"].copy()
    analytic["w_out"][0, 0] *= 1.001
    assert reference.check_gradients(analytic, numeric)
    analytic = dict(analytic, w_out=numeric["w_out"], temperature=numeric["temperature"] * 1.001)
    assert reference.check_gradients(analytic, numeric)


class _SmallAnnotateRemote(workloads.AnnotateRemote):
    N_TRIPLETS = 20


def test_annotate_remote_check_rejects_changed_annotation(tmp_path):
    workload = _SmallAnnotateRemote(2, tmp_path)
    try:
        workload.setup()
        assert workload.run_round(0) == (20, 0)
        assert workload.check_round(0) == []
        assert workload.run_round(1) == (20, 0)
        path = workload.outputs[1]["files"][0]
        records = reference.read_jsonl(path)
        records[3]["conclusion"] += " changed"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert workload.check_round(1)
        workload.first = None  # recheck round 1 against the in-process annotations
        assert workload.check_round(1)
    finally:
        workload.close()


def test_annotation_check_rejects_changed_score(filtered):
    annotated = filtered[0]
    bad = copy.deepcopy(annotated)
    bad[0]["judge_scores"][0] = 6 - bad[0]["judge_scores"][0]
    assert reference.check_annotations_equal(annotated, annotated) == []
    assert reference.check_annotations_equal(bad, annotated)


def test_report_text_check_rejects_wrong_rounding(small_eval):
    _, _, report, _ = small_eval
    text = "\n".join([f"queries: {report['query_count']}"]
                     + [f"R@{k}: {reference.display(v)}" for k, v in report["recall"].items()]
                     + [f"R_subset@{k}: {reference.display(v)}"
                        for k, v in report["subset_recall"].items()]
                     + [f"mAP@{k}: {reference.display(100 * v)}"
                        for k, v in report["map_at"].items()]
                     + [f"Avg (R@5, R_subset@1): {reference.display(report['cirr_avg'])}"])
    assert reference.check_report_text(text, report) == []
    assert reference.check_report_text(text.replace("R@1: ", "R@1: 1"), report)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    run = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gradcheck",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert run.stdout.strip() == ""
