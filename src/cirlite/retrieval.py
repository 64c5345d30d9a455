"""Exact cosine top-k retrieval over a normalized gallery.

Brute-force scoring only: galleries at this scale are small enough that
exactness is cheap, and exact scores make every downstream metric
oracle-checkable. Ordering is deterministic: score descending, ties broken
by ascending item id. One scoring path serves every call: query rows are
scored in blocks, and rank, subset rank and top-k all read the same block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CirliteError
from .store import EmbeddingMatrix, ZeroVectorError, l2_normalize, row_map, write_jsonl

# Score blocks hold at most this many bytes of float64 cosines, so scoring a
# batch of any size stays bounded in memory, at 65 535 gallery items too.
SCORE_BLOCK_BYTES = 16 * 2 ** 20


class RetrievalError(CirliteError):
    """Invalid query, k, or subset for a retrieval call."""


@dataclass
class GalleryIndex:
    """Unit-normalized gallery rows with an id -> row map. Immutable."""

    ids: list[str]
    vectors: np.ndarray  # (count, dims) float64, unit rows
    _row_of: dict[str, int] = field(init=False, repr=False)
    _id_rank: np.ndarray = field(init=False, repr=False)  # row -> place in id order

    def __post_init__(self):
        self._row_of = row_map(self.ids)
        self._id_rank = np.argsort(np.argsort(np.array(self.ids, dtype=str)))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dims(self) -> int:
        return self.vectors.shape[1]


@dataclass
class RankedList:
    """Ordered item ids and their cosine scores for one query."""

    ids: list[str]
    scores: list[float]


def build_index_from_vectors(ids, vectors) -> GalleryIndex:
    """Normalize raw gallery vectors into an index; zero rows are rejected."""
    vectors = np.asarray(vectors, dtype=np.float64)
    ids = list(ids)
    if vectors.ndim != 2 or vectors.shape[0] != len(ids):
        raise RetrievalError(
            f"expected ({len(ids)}, dims) vectors, got shape {vectors.shape}"
        )
    norms = np.linalg.norm(vectors, axis=1)
    zero_rows = np.flatnonzero(norms == 0)
    if zero_rows.size:
        raise ZeroVectorError(
            f"gallery item {ids[int(zero_rows[0])]!r} has a zero embedding"
        )
    return GalleryIndex(ids=ids, vectors=vectors / norms[:, None])


def build_index(m: EmbeddingMatrix) -> GalleryIndex:
    """Build a search index from a stored embedding matrix."""
    return build_index_from_vectors(m.ids, m.values)


def _scores(idx: GalleryIndex, q_rows) -> np.ndarray:
    """The one scoring function: cosines of a block of query rows against
    the gallery, one row per query and one column per gallery item."""
    if np.ndim(q_rows) != 2:
        raise ZeroVectorError("expected a non-empty 1-d vector")
    if np.shape(q_rows)[1] != idx.dims:
        raise RetrievalError(f"query width {np.shape(q_rows)[1]} != gallery width {idx.dims}")
    return l2_normalize(q_rows) @ idx.vectors.T


def _score_blocks(idx: GalleryIndex, q_mat):
    """Yield (first query row, score block) over blocks of query rows."""
    step = max(1, SCORE_BLOCK_BYTES // max(8 * idx.count, 1))
    for start in range(0, len(q_mat), step):
        yield start, _scores(idx, q_mat[start:start + step])


def _ahead(idx: GalleryIndex, scores, targets) -> np.ndarray:
    """ahead[j, i]: gallery row i comes before row targets[j] in score row j,
    by a higher score or an equal score and a smaller id. A rank is one plus
    the count of True over the gallery or over a subset's columns."""
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    return (scores > target_scores) | (
        (scores == target_scores) & (idx._id_rank < idx._id_rank[targets][:, None]))


def _top_k(idx: GalleryIndex, scores, k: int) -> list[RankedList]:
    """Top-k of each score row: every item scoring at least the k-th highest
    score is a candidate; candidates sort by (-score, id) and are cut at k."""
    if not 1 <= k <= idx.count:
        raise RetrievalError(f"k={k} outside [1, {idx.count}]")
    rows, cols = np.nonzero(scores >= np.partition(scores, -k, axis=1)[:, -k, None])
    cand_scores = scores[rows, cols]
    # lexsort uses the last key as primary: row, then -score, then id.
    order = np.lexsort((idx._id_rank[cols], -cand_scores, rows))
    # Each row's candidates are contiguous in order; take its first k.
    counts = np.bincount(rows, minlength=len(scores))
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return [RankedList([idx.ids[c] for c in row_cols], row_scores)
            for row_cols, row_scores in zip(cols[take].tolist(), cand_scores[take].tolist())]


def _rows(idx: GalleryIndex, item_ids, message: str) -> list[int]:
    """Gallery rows of item_ids; an unknown id raises message.format(id)."""
    try:
        return [idx._row_of[item_id] for item_id in item_ids]
    except KeyError as exc:
        raise RetrievalError(message.format(exc.args[0])) from None


def _subset_rows(idx: GalleryIndex, subset_ids, target_id: str) -> list[int]:
    if target_id not in subset_ids:
        raise RetrievalError(f"target {target_id!r} not in subset")
    return _rows(idx, subset_ids, "subset id {!r} not in gallery")


def search_queries(idx: GalleryIndex, q_mat, target_ids, subsets, k: int):
    """Rank, subset rank and top-k of every query, all read from one score
    block per block of query rows.

    Returns (ranks, subset_ranks, ranked_lists): each query's target rank in
    the gallery, its rank within subsets[j] for every query whose subset is
    non-empty (in query order), and each query's top-k list.
    """
    if not len(q_mat) == len(target_ids) == len(subsets):
        raise RetrievalError(f"{len(q_mat)} queries for {len(target_ids)} targets "
                             f"and {len(subsets)} subsets")
    targets = np.array(_rows(idx, target_ids, "unknown target id: {!r}"), dtype=np.int64)
    subset_rows = [_subset_rows(idx, list(subset), t) if subset else None
                   for subset, t in zip(subsets, target_ids)]
    ranks, subset_ranks, ranked_lists = [], [], []
    for start, scores in _score_blocks(idx, q_mat):
        ahead = _ahead(idx, scores, targets[start:start + len(scores)])
        ranks += (1 + np.count_nonzero(ahead, axis=1)).tolist()
        subset_ranks += [1 + int(np.count_nonzero(ahead[j - start, subset_rows[j]]))
                         for j in range(start, start + len(scores)) if subset_rows[j]]
        ranked_lists += _top_k(idx, scores, k)
    return ranks, subset_ranks, ranked_lists


def search_topk(idx: GalleryIndex, q, k: int) -> RankedList:
    """The k highest-cosine gallery items (score desc, ties by id asc)."""
    return _top_k(idx, _scores(idx, [q]), k)[0]


def rank_of(idx: GalleryIndex, q, target_id: str) -> int:
    """1-based rank of the target under the full ordering rule."""
    rows = _rows(idx, [target_id], "unknown target id: {!r}")
    return 1 + int(np.count_nonzero(_ahead(idx, _scores(idx, [q]), rows)))


def subset_rank(idx: GalleryIndex, q, subset_ids, target_id: str) -> int:
    """Rank of the target among the subset members only (same ordering)."""
    rows = _subset_rows(idx, list(subset_ids), target_id)
    ahead = _ahead(idx, _scores(idx, [q]), [idx._row_of[target_id]])
    return 1 + int(np.count_nonzero(ahead[0, rows]))


def write_ranked_results(pair_ids, ranked_lists, path) -> None:
    """Export per-query rankings as JSONL: {pair_id, ranked_ids, scores}."""
    pair_ids, ranked_lists = list(pair_ids), list(ranked_lists)
    if len(pair_ids) != len(ranked_lists):
        raise RetrievalError(
            f"{len(pair_ids)} pair ids for {len(ranked_lists)} ranked lists"
        )
    write_jsonl(({"pair_id": pair_id, "ranked_ids": ranked.ids, "scores": ranked.scores}
                 for pair_id, ranked in zip(pair_ids, ranked_lists)), path)
