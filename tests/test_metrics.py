"""Metric values against hand computation and brute-force oracles."""

import json
import random

import numpy as np
import pytest

from cirlite.metrics import (
    EvalReport,
    MetricError,
    ap_at_k,
    cirr_average,
    display_round,
    fiq_average,
    map_at_k,
    recall_at_k,
    subset_recall_at_k,
)


# ---------------------------------------------------------------------------
# recall_at_k
# ---------------------------------------------------------------------------

def test_recall_hand_case():
    value = recall_at_k([1, 7, 4], 5)
    assert value == 100.0 * 2 / 3
    assert display_round(value) == "66.67"


def test_recall_perfect():
    assert recall_at_k([1, 1, 1, 1], 1) == 100.0
    assert recall_at_k([1, 1], 50) == 100.0


def test_recall_no_hits():
    assert recall_at_k([6, 9, 12], 5) == 0.0


def test_recall_validation():
    with pytest.raises(MetricError):
        recall_at_k([], 5)
    with pytest.raises(MetricError):
        recall_at_k([1, 2], 0)
    with pytest.raises(MetricError):
        recall_at_k([0, 2], 5)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ranks = [int(r) for r in rng.integers(1, 30, size=20)]
        values = [recall_at_k(ranks, k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 100.0 for v in values)
        assert values[-1] == 100.0  # K >= max rank


def test_subset_recall_cases():
    assert subset_recall_at_k([1, 2, 6], 2) == 100.0 * 2 / 3
    assert subset_recall_at_k([1, 2, 6], 6) == 100.0
    assert subset_recall_at_k([1], 1) == 100.0


# ---------------------------------------------------------------------------
# ap_at_k / map_at_k
# ---------------------------------------------------------------------------

def test_ap_perfect_single_gt():
    assert ap_at_k(["g", "x", "y"], {"g"}, 5) == 1.0


def test_ap_hand_case():
    value = ap_at_k(["a", "x", "b"], {"a", "b"}, 3)
    assert abs(value - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-12


def test_ap_no_hits():
    assert ap_at_k(["x", "y"], {"g"}, 2) == 0.0


def test_ap_empty_gt():
    with pytest.raises(MetricError, match="ground-truth"):
        ap_at_k(["x"], set(), 3)


def test_ap_perfect_prefix_scores_one():
    # First min(|G|, k) positions all ground truths -> exactly 1.
    assert ap_at_k(["a", "b", "x"], {"a", "b"}, 3) == 1.0
    assert ap_at_k(["a", "b", "c"], {"a", "b", "c", "d"}, 3) == 1.0


def test_map_mean():
    assert map_at_k([["g", "x"], ["x", "y"]], [{"g"}, {"g"}], 2) == 0.5
    assert map_at_k([["g"]], [{"g"}], 1) == 1.0


def test_map_length_mismatch():
    with pytest.raises(MetricError):
        map_at_k([["a"]], [{"a"}, {"b"}], 1)


def test_map_matches_per_query_mean():
    rng = np.random.default_rng(1)
    ids = [f"i{j}" for j in range(30)]
    ranked, gts = [], []
    for _ in range(5):
        order = rng.permutation(30)
        ranked.append([ids[i] for i in order])
        gts.append({ids[int(i)] for i in rng.choice(30, size=4, replace=False)})
    got = map_at_k(ranked, gts, 10)
    expected = sum(ap_at_k(r, g, 10) for r, g in zip(ranked, gts)) / 5
    assert abs(got - expected) <= 1e-15


# ---------------------------------------------------------------------------
# Brute-force oracles on randomized instances
# ---------------------------------------------------------------------------

def brute_recall(ranks, k):
    hits = 0
    for r in ranks:
        if r <= k:
            hits += 1
    return 100.0 * hits / len(ranks)


def brute_ap(ranked, gt, k):
    # Direct transcription of the definition: P@i summed at relevant i.
    score = 0.0
    for i in range(1, min(k, len(ranked)) + 1):
        if ranked[i - 1] in gt:
            prefix_hits = len([x for x in ranked[:i] if x in gt])
            score += prefix_hits / i
    return score / min(len(gt), k)


def test_recall_against_oracle_100_instances():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        gallery = int(rng.integers(2, 200))
        ranks = [int(r) for r in rng.integers(1, gallery + 1, size=n)]
        k = int(rng.integers(1, gallery + 1))
        assert recall_at_k(ranks, k) == brute_recall(ranks, k)


def test_ap_against_oracle_100_instances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        gallery = int(rng.integers(5, 200))
        ids = [f"i{j}" for j in range(gallery)]
        ranked = [ids[i] for i in rng.permutation(gallery)]
        gt = {ids[int(i)] for i in rng.choice(gallery, size=int(rng.integers(1, 6)), replace=False)}
        k = int(rng.integers(1, gallery + 1))
        assert abs(ap_at_k(ranked, gt, k) - brute_ap(ranked, gt, k)) <= 1e-12


def test_map_against_oracle_100_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        queries = int(rng.integers(1, 8))
        gallery = int(rng.integers(5, 60))
        ids = [f"i{j}" for j in range(gallery)]
        ranked = [[ids[i] for i in rng.permutation(gallery)] for _ in range(queries)]
        gts = [
            {ids[int(i)] for i in rng.choice(gallery, size=int(rng.integers(1, 5)), replace=False)}
            for _ in range(queries)
        ]
        k = int(rng.integers(1, gallery + 1))
        expected = sum(brute_ap(r, g, k) for r, g in zip(ranked, gts)) / queries
        assert abs(map_at_k(ranked, gts, k) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# Published aggregation arithmetic
# ---------------------------------------------------------------------------

def test_cirr_average_published_rows():
    fast = cirr_average(85.04, 79.35)
    assert fast == (85.04 + 79.35) / 2
    assert abs(fast - 82.195) <= 1e-12
    assert display_round(fast) == "82.19"

    sprc = cirr_average(82.12, 80.65)
    assert sprc == (82.12 + 80.65) / 2
    assert abs(sprc - 81.385) <= 1e-12
    assert display_round(sprc) == "81.39"


def test_cirr_average_idempotent_and_bounded():
    assert cirr_average(70.0, 70.0) == 70.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(0, 100, size=2)
        avg = cirr_average(a, b)
        assert min(a, b) <= avg <= max(a, b)


def test_cirr_average_range_validation():
    with pytest.raises(MetricError):
        cirr_average(101.0, 50.0)
    with pytest.raises(MetricError):
        cirr_average(50.0, -0.1)


def test_fiq_average_published_rows():
    r10 = fiq_average([50.82, 57.26, 60.79])
    assert r10 == (50.82 + 57.26 + 60.79) / 3
    assert display_round(r10) == "56.29"

    r50 = fiq_average([74.57, 75.76, 78.94])
    assert r50 == (74.57 + 75.76 + 78.94) / 3
    assert abs(r50 - 76.42333333333333) <= 1e-12
    assert display_round(r50) == "76.42"


def test_fiq_average_arity_and_identity():
    assert fiq_average([3.0, 3.0, 3.0]) == 3.0
    with pytest.raises(MetricError, match="exactly 3"):
        fiq_average([1.0, 2.0])
    with pytest.raises(MetricError, match="exactly 3"):
        fiq_average([1.0, 2.0, 3.0, 4.0])


def test_display_round_half_even_on_exact_halves():
    # Dyadic halves hit the rule exactly.
    assert display_round(0.125) == "0.12"
    assert display_round(0.375) == "0.38"


# ---------------------------------------------------------------------------
# EvalReport
# ---------------------------------------------------------------------------

def make_report(**overrides):
    base = dict(
        query_count=10,
        recall={1: 50.0, 5: 80.0},
        subset_recall={1: 60.0},
        map_at={5: 0.4},
        subset_query_count=10,
        cirr_avg=70.0,
    )
    base.update(overrides)
    return EvalReport(**base)


def test_report_validates_ranges():
    with pytest.raises(MetricError):
        make_report(recall={1: 101.0})
    with pytest.raises(MetricError):
        make_report(map_at={5: 1.5})


def test_report_validates_monotone_recall():
    with pytest.raises(MetricError, match="non-decreasing"):
        make_report(recall={1: 80.0, 5: 50.0})


def random_k_map(rng: random.Random, top: float) -> dict[int, float]:
    """Values non-decreasing in k, inserted in shuffled k order."""
    ks = sorted(rng.sample(range(1, 60), rng.randint(0, 5)))
    pairs = list(zip(ks, sorted(rng.uniform(0.0, top) for _ in ks)))
    rng.shuffle(pairs)
    return dict(pairs)


def test_report_json_roundtrip_and_stability():
    rng = random.Random(0)
    reports = [make_report()] + [
        make_report(query_count=(n := rng.randint(1, 500)), subset_query_count=rng.randint(0, n),
                    recall=random_k_map(rng, 100.0), subset_recall=random_k_map(rng, 100.0),
                    map_at=random_k_map(rng, 1.0), cirr_avg=rng.choice([None, 12.5]))
        for _ in range(30)
    ]
    for report in reports:
        text = report.to_json()
        assert EvalReport.from_json(text) == report
        assert EvalReport.from_json(text.encode("utf-8")) == report
        assert report.to_json() == text  # stable serialization
        doc = json.loads(text)
        for name in ("recall", "subset_recall", "map_at"):
            ks = list(getattr(report, name))
            assert ks == sorted(ks) and list(doc[name]) == [str(k) for k in ks]
