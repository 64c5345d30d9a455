"""Evaluation glue: compose queries, rank the gallery, assemble the report.

The gallery is embedded through the model's image projection (the same path
used for training targets), so queries and gallery live in one space.
"""

from __future__ import annotations

import numpy as np

from .data import Triplet, tokenize
from .errors import CirliteError
from .metrics import EvalReport, cirr_average, map_at_k, recall_at_k
from .model import ParamSet, compose_query, encode_text, image_block
from .retrieval import (
    GalleryIndex,
    build_index_from_vectors,
    rank_of,
    search_topk,
    subset_rank,
    write_ranked_results,
)
from .store import EmbeddingMatrix, lookup


class EvalError(CirliteError):
    """Evaluation cannot proceed (empty queries, dimension mismatch)."""


def project_gallery(p: ParamSet, matrix: EmbeddingMatrix) -> GalleryIndex:
    """Project raw gallery embeddings into the joint space and index them."""
    if matrix.dims != p.d_img:
        raise EvalError(
            f"gallery dimensionality {matrix.dims} does not match the "
            f"checkpoint's image input {p.d_img}"
        )
    projected = image_block(p, matrix.values.astype(np.float64))
    return build_index_from_vectors(matrix.ids, projected)


def compose_query_for(p: ParamSet, matrix: EmbeddingMatrix, t: Triplet,
                      vocab_size: int) -> np.ndarray:
    """e_q for one triplet: encode the modification, fuse with the reference."""
    toks = tokenize(t.modification_text, vocab_size)
    if not toks:
        raise EvalError(f"pair {t.pair_id!r}: modification tokenizes to nothing")
    txt = encode_text(p, toks)
    return compose_query(p, lookup(matrix, t.reference_id).astype(np.float64), txt)


def evaluate_queries(
    p: ParamSet,
    matrix: EmbeddingMatrix,
    triplets,
    *,
    k_list=(1, 5, 10, 50),
    subset_k_list=(1, 2, 3),
    map_k_list=(5, 10, 25, 50),
    ranked_out=None,
) -> EvalReport:
    """Run retrieval for every query triplet and compute the full metric suite.

    Global recall uses the target's gallery rank; subset recall covers only
    triplets carrying candidate subsets; mAP uses each triplet's ground-truth
    set, falling back to the target alone. With ranked_out set, the per-query
    top-k lists are also written as JSONL.
    """
    triplets = list(triplets)
    if not triplets:
        raise EvalError("empty query set")
    index = project_gallery(p, matrix)
    max_map_k = max(map_k_list)

    ranks, subset_ranks = [], []
    ranked_lists, gt_sets = [], []
    for t in triplets:
        q = compose_query_for(p, matrix, t, p.vocab_size)
        ranks.append(rank_of(index, q, t.target_id))
        if t.subset_ids:
            subset_ranks.append(subset_rank(index, q, t.subset_ids, t.target_id))
        ranked_lists.append(search_topk(index, q, min(max_map_k, index.count)))
        gt_sets.append(set(t.gt_ids) if t.gt_ids else {t.target_id})
    ranked_ids = [ranked.ids for ranked in ranked_lists]
    if ranked_out is not None:
        write_ranked_results([t.pair_id for t in triplets], ranked_lists, ranked_out)

    recall = {k: recall_at_k(ranks, k) for k in k_list}
    subset_recall = (
        {k: recall_at_k(subset_ranks, k) for k in subset_k_list}
        if subset_ranks
        else {}
    )
    maps = {k: map_at_k(ranked_ids, gt_sets, k) for k in map_k_list}
    cirr = None
    if 5 in recall and 1 in subset_recall:
        cirr = cirr_average(recall[5], subset_recall[1])
    return EvalReport(
        query_count=len(triplets),
        recall=recall,
        subset_recall=subset_recall,
        map_at=maps,
        subset_query_count=len(subset_ranks),
        cirr_avg=cirr,
    )
