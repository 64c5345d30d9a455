"""Desk-scale composed image retrieval.

A complete, verifiable pipeline: annotation generation and filtering, a
query-composer model trained with a combined text-generation + InfoNCE
objective in two stages, exact cosine retrieval, and the standard CIR
evaluation metric suite.
"""

__version__ = "0.1.0"

from .annotate import (
    MockGenerator,
    MockJudge,
    RemoteGenerator,
    RemoteJudge,
    annotate_triplets,
    build_annotation_prompt,
    filter_annotations,
    judge_annotation,
    mock_generate,
    parse_structured_output,
)
from .data import (
    CoTAnnotation,
    SynthWorld,
    Triplet,
    batch_iter,
    generate_synthetic_world,
    load_annotations,
    load_triplets,
    oracle_query_vector,
    save_world,
    tokenize,
    write_annotations,
    write_triplets,
)
from .errors import CirliteError
from .evaluate import evaluate_queries
from .metrics import (
    EvalReport,
    ap_at_k,
    cirr_average,
    fiq_average,
    map_at_k,
    recall_at_k,
    subset_recall_at_k,
)
from .model import (
    BatchItem,
    ParamSet,
    encode_queries,
    forward_batch,
    greedy_decode,
    init_params,
)
from .retrieval import (
    build_index,
    build_index_from_vectors,
    rank_of,
    search_topk,
    subset_rank,
    write_ranked_results,
)
from .store import (
    EmbeddingMatrix,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from .trainer import (
    TrainConfig,
    backward,
    combined_loss,
    cross_entropy_seq,
    finite_diff_grad,
    info_nce,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_stage1,
    train_stage2,
)
