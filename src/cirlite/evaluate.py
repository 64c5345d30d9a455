"""Evaluation glue: compose queries, rank the gallery, assemble the report.

The gallery is embedded through the model's image projection (the same path
used for training targets), so queries and gallery live in one space.
"""

from __future__ import annotations

import numpy as np

from .data import query_inputs
from .errors import CirliteError
from .metrics import EvalReport, cirr_average, map_at_k, recall_at_k
from .model import ParamSet, image_block
from .retrieval import (
    GalleryIndex,
    build_index_from_vectors,
    search_queries,
    write_ranked_results,
)
from .store import EmbeddingMatrix

# benchmarks/tracing.py wraps these names in this module when its traced
# mode starts. evaluate_queries calls the batched query encoder by the name
# compose_query_for; the retrieval names stay bound although it no longer
# calls them: it scores the queries in blocks.
from .model import encode_queries as compose_query_for
from .retrieval import rank_of, search_topk, subset_rank  # noqa: F401


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

    refs, tok_lists = query_inputs(matrix, triplets, p.vocab_size)
    q_mat = compose_query_for(p, refs, tok_lists)[-1]
    ranks, subset_ranks, ranked_lists = search_queries(
        index, q_mat, [t.target_id for t in triplets],
        [t.subset_ids for t in triplets], min(max_map_k, index.count))
    gt_sets = [set(t.gt_ids) if t.gt_ids else {t.target_id} for t in triplets]
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
