"""Evaluation glue: report assembly, error paths, determinism."""

import importlib.util
from pathlib import Path

import pytest

from cirlite.data import Triplet, generate_synthetic_world
from cirlite.evaluate import EvalError, evaluate_queries, project_gallery
from cirlite.model import init_params


@pytest.fixture(scope="module")
def world():
    return generate_synthetic_world(0, 30, 5, vocab_size=256, n_triplets=40, dims=16)


@pytest.fixture(scope="module")
def params(world):
    return init_params(0, vocab_size=world.vocab_size, d_img=world.embeddings.dims)


def test_projected_gallery_shape(world, params):
    index = project_gallery(params, world.embeddings)
    assert index.count == 30 and index.dims == params.d_joint


def test_dim_mismatch_rejected(world):
    wrong = init_params(0, vocab_size=world.vocab_size, d_img=8)
    with pytest.raises(EvalError, match="dimensionality"):
        project_gallery(wrong, world.embeddings)


def test_empty_query_set_rejected(world, params):
    with pytest.raises(EvalError, match="empty query set"):
        evaluate_queries(params, world.embeddings, [])


def test_report_structure(world, params):
    report = evaluate_queries(
        params, world.embeddings, world.triplets,
        k_list=(1, 5, 10), subset_k_list=(1, 2, 3), map_k_list=(5, 10),
    )
    assert report.query_count == 40
    assert set(report.recall) == {1, 5, 10}
    assert set(report.subset_recall) == {1, 2, 3}
    assert set(report.map_at) == {5, 10}
    assert report.subset_query_count == 40
    assert report.cirr_avg == (report.recall[5] + report.subset_recall[1]) / 2
    values = [report.recall[k] for k in sorted(report.recall)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_report_without_subsets(world, params):
    stripped = [
        Triplet(t.pair_id, t.reference_id, t.modification_text, t.target_id)
        for t in world.triplets[:5]
    ]
    report = evaluate_queries(params, world.embeddings, stripped)
    assert report.subset_recall == {} and report.subset_query_count == 0
    assert report.cirr_avg is None


def test_multi_gt_changes_map(world, params):
    # gt sets include attribute near-duplicates, so mAP should not be below
    # the single-target variant.
    with_gt = evaluate_queries(params, world.embeddings, world.triplets)
    stripped = [
        Triplet(t.pair_id, t.reference_id, t.modification_text, t.target_id,
                subset_ids=t.subset_ids)
        for t in world.triplets
    ]
    without_gt = evaluate_queries(params, world.embeddings, stripped)
    for k in with_gt.map_at:
        assert with_gt.map_at[k] >= without_gt.map_at[k] - 1e-12


def test_evaluation_deterministic(world, params):
    a = evaluate_queries(params, world.embeddings, world.triplets)
    b = evaluate_queries(params, world.embeddings, world.triplets)
    assert a.to_json() == b.to_json()


def test_benchmark_tracer_wrap_points_resolve(world, params):
    # The benchmark's traced mode wraps program functions by name: each name
    # must resolve, and evaluation must score the gallery once per block.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [getattr(owner, attr) for owner, attr, *_ in tracing.WRAP_POINTS]
    tracer = tracing.Tracer(0.0)
    tracer.install()
    try:
        evaluate_queries(params, world.embeddings, world.triplets)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, *_ in tracing.WRAP_POINTS] == originals
    assert tracer.counts[("retrieval.gallery_scoring", "setup")] == 1
