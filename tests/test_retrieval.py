"""Exact retrieval: tie-rule ordering against a full-sort oracle."""

import numpy as np
import pytest

from cirlite import retrieval
from cirlite.retrieval import (
    RetrievalError,
    build_index,
    build_index_from_vectors,
    rank_of,
    search_queries,
    search_topk,
    search_topk_batch,
    subset_rank,
)
from cirlite.store import EmbeddingMatrix, ZeroVectorError, l2_normalize


def sorted_oracle(index, q):
    """Independent full ordering: score desc, id asc, via plain Python sort.

    Scores come from the same matrix product the index uses (a row-by-row
    dot differs in the last ulp and would manufacture fake tie disagreements);
    the selection and tie-break logic under test is reimplemented from scratch.
    """
    scores = index.vectors @ l2_normalize(q)
    scored = [(float(scores[i]), index.ids[i]) for i in range(index.count)]
    return sorted(scored, key=lambda pair: (-pair[0], pair[1]))


def random_gallery(rng, count, dims, tie_prone=False):
    if tie_prone:
        # Small discrete component set forces plenty of exact score ties.
        vectors = rng.choice([-1.0, 0.0, 1.0], size=(count, dims))
        zero = np.all(vectors == 0, axis=1)
        vectors[zero, 0] = 1.0
    else:
        vectors = rng.standard_normal((count, dims))
    ids = [f"g{i:04d}" for i in range(count)]
    return build_index_from_vectors(ids, vectors)


def basis_gallery(rng, count, dims):
    """Gallery of repeated basis vectors, for integer queries: every score is
    one query entry over the query norm, exact in any summation order, so
    one-row and block products agree bit for bit and ties are exact."""
    vectors = np.eye(dims)[rng.integers(dims, size=count)]
    return build_index_from_vectors([f"g{i:04d}" for i in rng.permutation(count)], vectors)


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------

def test_index_rows_unit_norm():
    rng = np.random.default_rng(0)
    matrix = EmbeddingMatrix(
        ids=["a", "b", "c"], values=rng.standard_normal((3, 4))
    )
    index = build_index(matrix)
    np.testing.assert_allclose(np.linalg.norm(index.vectors, axis=1), 1.0, atol=1e-6)


def test_index_zero_row_names_id():
    values = np.ones((3, 4))
    values[1] = 0.0
    with pytest.raises(ZeroVectorError, match="mid"):
        build_index_from_vectors(["a", "mid", "c"], values)


def test_index_rebuild_identical():
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((5, 3))
    a = build_index_from_vectors(list("abcde"), vectors)
    b = build_index_from_vectors(list("abcde"), vectors)
    np.testing.assert_array_equal(a.vectors, b.vectors)


# ---------------------------------------------------------------------------
# search_topk
# ---------------------------------------------------------------------------

def test_query_matching_row_ranks_first():
    rng = np.random.default_rng(2)
    index = random_gallery(rng, 20, 6)
    q = index.vectors[7] * 3.0
    top = search_topk(index, q, 1)
    assert top.ids == ["g0007"]
    assert abs(top.scores[0] - 1.0) <= 1e-6


def test_tie_breaks_by_ascending_id():
    # Items a and c share an identical vector (scores tie exactly); b and d
    # score lower. The spec example as vectors: scores 0.9, 0.2, 0.9, 0.5.
    shared = np.array([0.9, np.sqrt(1 - 0.81)])
    vectors = np.stack([shared, [0.2, np.sqrt(1 - 0.04)], shared, [0.5, np.sqrt(0.75)]])
    index = build_index_from_vectors(["a", "b", "c", "d"], vectors)
    top = search_topk(index, np.array([1.0, 0.0]), 2)
    assert top.ids == ["a", "c"]


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(3)
    for trial in range(100):
        count = int(rng.integers(2, 1000))
        dims = int(rng.integers(2, 8))
        index = random_gallery(rng, count, dims, tie_prone=bool(trial % 2))
        q = rng.standard_normal(dims)
        if np.linalg.norm(q) == 0:
            continue
        k = int(rng.integers(1, count + 1))
        expected = sorted_oracle(index, q)[:k]
        got = search_topk(index, q, k)
        assert got.ids == [item_id for _, item_id in expected]
        assert got.scores == [score for score, _ in expected]


def test_topk_full_k_equals_sorted_list():
    rng = np.random.default_rng(4)
    index = random_gallery(rng, 50, 4, tie_prone=True)
    q = rng.standard_normal(4)
    full = search_topk(index, q, 50)
    oracle = sorted_oracle(index, q)
    assert full.ids == [item_id for _, item_id in oracle]


def test_topk_k_bounds():
    rng = np.random.default_rng(5)
    index = random_gallery(rng, 10, 3)
    with pytest.raises(RetrievalError):
        search_topk(index, np.ones(3), 0)
    with pytest.raises(RetrievalError):
        search_topk(index, np.ones(3), 11)
    with pytest.raises(RetrievalError):
        search_topk(build_index_from_vectors([], np.empty((0, 3))), np.ones(3), 1)


def test_topk_zero_query_rejected():
    rng = np.random.default_rng(6)
    index = random_gallery(rng, 10, 3)
    with pytest.raises(ZeroVectorError):
        search_topk(index, np.zeros(3), 3)
    q_mat = rng.standard_normal((4, 3))
    q_mat[2] = 0.0
    with pytest.raises(ZeroVectorError):
        search_topk_batch(index, q_mat, 3)
    with pytest.raises(ZeroVectorError):
        search_queries(index, q_mat, ["g0000"] * 4, [None] * 4, 3)


def test_scaling_query_preserves_order_exactly():
    rng = np.random.default_rng(7)
    for _ in range(30):
        index = random_gallery(rng, 40, 5, tie_prone=True)
        q = rng.standard_normal(5)
        base = search_topk(index, q, 40).ids
        for c in (1e-3, 7.0, 1e4):
            assert search_topk(index, c * q, 40).ids == base


def test_batch_search_position_aligned():
    rng = np.random.default_rng(8)
    index = random_gallery(rng, 15, 4)
    q_mat = rng.standard_normal((3, 4))
    results = search_topk_batch(index, q_mat, 5)
    for j in range(3):
        assert results[j].ids == search_topk(index, q_mat[j], 5).ids


def test_batch_agrees_with_single_and_oracle_on_ties(monkeypatch):
    rng = np.random.default_rng(18)
    straddles = 0
    for trial in range(40):
        count, dims, n_q = int(rng.integers(3, 60)), int(rng.integers(2, 6)), 7
        index = basis_gallery(rng, count, dims)
        q_mat = rng.integers(-3, 4, size=(n_q, dims)).astype(np.float64)
        q_mat[np.all(q_mat == 0, axis=1), 0] = 1.0
        q_mat[2] = q_mat[1]  # one query on both sides of a block boundary
        # Blocks of two query rows: 7 queries give blocks 2, 2, 2, 1.
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 2 * 8 * count)
        k = int(rng.integers(1, count + 1))
        targets = [f"g{int(i):04d}" for i in rng.integers(count, size=n_q)]
        subsets = []
        for j, target in enumerate(targets):
            others = [f"g{int(i):04d}" for i in rng.choice(count, size=int(rng.integers(0, 4)))]
            subsets.append(None if j % 3 == 0 else [*others, target])
        ranks, subset_ranks, ranked = search_queries(index, q_mat, targets, subsets, k)
        assert [r.ids for r in ranked] == [r.ids for r in search_topk_batch(index, q_mat, k)]
        expected_subset_ranks = []
        for j, q in enumerate(q_mat):
            oracle = sorted_oracle(index, q)
            straddles += k < count and oracle[k - 1][0] == oracle[k][0]
            for got in (ranked[j], search_topk(index, q, k)):
                assert got.ids == [item_id for _, item_id in oracle[:k]]
                assert got.scores == [score for score, _ in oracle[:k]]
            order = [item_id for _, item_id in oracle]
            assert ranks[j] == rank_of(index, q, targets[j]) == 1 + order.index(targets[j])
            if subsets[j]:
                # Duplicate subset members count once per occurrence.
                restricted = [i for i in order for _ in range(subsets[j].count(i))]
                expected = 1 + restricted.index(targets[j])
                assert subset_rank(index, q, subsets[j], targets[j]) == expected
                expected_subset_ranks.append(expected)
        assert subset_ranks == expected_subset_ranks
    assert straddles > 0


def test_ranked_results_jsonl_export(tmp_path):
    import json

    from cirlite.retrieval import write_ranked_results

    rng = np.random.default_rng(17)
    index = random_gallery(rng, 12, 4)
    ranked = search_topk_batch(index, rng.standard_normal((2, 4)), 3)
    path = tmp_path / "ranked.jsonl"
    write_ranked_results(["q0", "q1"], ranked, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["pair_id"] for line in lines] == ["q0", "q1"]
    for line, result in zip(lines, ranked):
        assert line["ranked_ids"] == result.ids
        assert line["scores"] == result.scores


def test_ranked_results_alignment_validated(tmp_path):
    from cirlite.retrieval import write_ranked_results

    with pytest.raises(RetrievalError):
        write_ranked_results(["a", "b"], [], tmp_path / "x.jsonl")
    index = random_gallery(np.random.default_rng(19), 5, 3)
    with pytest.raises(RetrievalError, match="2 queries for 1 targets"):
        search_queries(index, np.ones((2, 3)), ["g0000"], [None], 3)


# ---------------------------------------------------------------------------
# rank_of
# ---------------------------------------------------------------------------

def test_rank_of_self_query():
    rng = np.random.default_rng(9)
    index = random_gallery(rng, 30, 8)
    assert rank_of(index, index.vectors[4], "g0004") == 1


def test_rank_of_unknown_target():
    rng = np.random.default_rng(10)
    index = random_gallery(rng, 5, 3)
    with pytest.raises(RetrievalError, match="unknown target"):
        rank_of(index, np.ones(3), "nope")


def test_rank_of_orthogonal_target_beaten_by_collinear_item():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
    index = build_index_from_vectors(["collinear", "target"], vectors)
    assert rank_of(index, np.array([1.0, 0.0]), "target") == 2


def test_rank_of_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        count = int(rng.integers(2, 200))
        index = random_gallery(rng, count, 4, tie_prone=bool(trial % 2))
        q = rng.standard_normal(4)
        target = f"g{int(rng.integers(count)):04d}"
        oracle_rank = 1 + [item_id for _, item_id in sorted_oracle(index, q)].index(target)
        assert rank_of(index, q, target) == oracle_rank


def test_rank_iff_topk_membership():
    rng = np.random.default_rng(12)
    for _ in range(30):
        index = random_gallery(rng, 60, 5, tie_prone=True)
        q = rng.standard_normal(5)
        target = f"g{int(rng.integers(60)):04d}"
        for k in (1, 3, 10, 60):
            in_topk = target in search_topk(index, q, k).ids
            assert (rank_of(index, q, target) <= k) == in_topk


# ---------------------------------------------------------------------------
# subset_rank
# ---------------------------------------------------------------------------

def test_subset_of_one():
    rng = np.random.default_rng(13)
    index = random_gallery(rng, 10, 3)
    assert subset_rank(index, np.ones(3), ["g0003"], "g0003") == 1


def test_subset_membership_validation():
    rng = np.random.default_rng(14)
    index = random_gallery(rng, 10, 3)
    with pytest.raises(RetrievalError, match="not in subset"):
        subset_rank(index, np.ones(3), ["g0001"], "g0002")
    with pytest.raises(RetrievalError, match="not in gallery"):
        subset_rank(index, np.ones(3), ["g0001", "missing"], "g0001")


def test_subset_rank_matches_restricted_oracle():
    rng = np.random.default_rng(15)
    for trial in range(100):
        count = int(rng.integers(4, 100))
        index = random_gallery(rng, count, 4, tie_prone=bool(trial % 2))
        q = rng.standard_normal(4)
        size = int(rng.integers(1, min(8, count) + 1))
        members = rng.choice(count, size=size, replace=False)
        subset = [f"g{int(i):04d}" for i in members]
        target = subset[int(rng.integers(size))]
        restricted = [
            (score, item_id)
            for score, item_id in sorted_oracle(index, q)
            if item_id in set(subset)
        ]
        oracle_rank = 1 + [item_id for _, item_id in restricted].index(target)
        assert subset_rank(index, q, subset, target) == oracle_rank
        assert subset_rank(index, q, subset, target) <= size


def test_subset_rank_never_exceeds_global_rank():
    # Dropping non-subset items can only improve (or keep) the target's rank.
    rng = np.random.default_rng(16)
    for _ in range(50):
        index = random_gallery(rng, 50, 4)
        q = rng.standard_normal(4)
        members = rng.choice(50, size=6, replace=False)
        subset = [f"g{int(i):04d}" for i in members]
        target = subset[0]
        assert subset_rank(index, q, subset, target) <= rank_of(index, q, target)
