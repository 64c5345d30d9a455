"""Retrieval evaluation metrics and their published aggregation formulas.

Recall@K is the percentage of queries whose target ranks within the top K.
AP@k for multi-ground-truth queries is

    AP@k = (1 / min(|G|, k)) * sum_{i=1..k} P@i * rel_i

with P@i the precision at cut i and rel_i = 1 iff position i is a ground
truth; the min(|G|, k) normalizer is the one under which a perfect prefix
scores exactly 1. All percentages carry full precision internally; display
rounding (2 decimals, half to even) is a presentation step only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_EVEN, Decimal

from .errors import CirliteError
from .store import check_field_types, parse_json, read_record


class MetricError(CirliteError):
    """Invalid metric inputs (empty lists, bad K, arity violations)."""


def _check_ranks(ranks) -> list[int]:
    ranks = list(ranks)
    if not ranks:
        raise MetricError("empty rank list")
    for r in ranks:
        if r < 1:
            raise MetricError(f"ranks are 1-based, got {r}")
    return ranks


def recall_at_k(ranks, k: int) -> float:
    """Percent of queries with rank <= k."""
    ranks = _check_ranks(ranks)
    if k < 1:
        raise MetricError(f"K must be >= 1, got {k}")
    return 100.0 * sum(1 for r in ranks if r <= k) / len(ranks)


def subset_recall_at_k(subset_ranks, k: int) -> float:
    """Recall@K over subset ranks (the curated-candidate protocol)."""
    return recall_at_k(subset_ranks, k)


def ap_at_k(ranked_ids, gt_ids, k: int) -> float:
    """Average precision at cut k against a set of ground-truth ids."""
    if k < 1:
        raise MetricError(f"k must be >= 1, got {k}")
    gt = set(gt_ids)
    if not gt:
        raise MetricError("empty ground-truth set")
    hits = 0
    score = 0.0
    for i, item_id in enumerate(list(ranked_ids)[:k], start=1):
        if item_id in gt:
            hits += 1
            score += hits / i
    return score / min(len(gt), k)


def map_at_k(ranked_lists, gt_sets, k: int) -> float:
    """Mean of per-query AP@k over aligned ranked lists and ground truths."""
    ranked_lists = list(ranked_lists)
    gt_sets = list(gt_sets)
    if len(ranked_lists) != len(gt_sets):
        raise MetricError(
            f"{len(ranked_lists)} ranked lists for {len(gt_sets)} ground-truth sets"
        )
    if not ranked_lists:
        raise MetricError("no queries")
    return sum(ap_at_k(r, g, k) for r, g in zip(ranked_lists, gt_sets)) / len(ranked_lists)


def _check_percent(name: str, value: float) -> None:
    if not 0.0 <= value <= 100.0:
        raise MetricError(f"{name} must be in [0, 100], got {value}")


def cirr_average(r5: float, rs1: float) -> float:
    """The CIRR summary score: (R@5 + R_subset@1) / 2, full precision."""
    _check_percent("R@5", r5)
    _check_percent("R_subset@1", rs1)
    return (r5 + rs1) / 2.0


def fiq_average(per_category) -> float:
    """Mean over exactly three Fashion-IQ category values."""
    values = list(per_category)
    if len(values) != 3:
        raise MetricError(f"expected exactly 3 category values, got {len(values)}")
    return sum(values) / 3.0


def display_round(value: float, places: int = 2) -> str:
    """Render a metric for display: half-to-even rounding on the exact
    binary value, fixed decimal places."""
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(value).quantize(quantum, rounding=ROUND_HALF_EVEN))


@dataclass
class EvalReport:
    """Full-precision evaluation results for one query set.

    recall and subset_recall map K to percentages; map_at maps k to mAP in
    [0, 1]; each map's keys are ints in ascending order. subset_recall
    covers only queries that carry candidate subsets (subset_query_count of
    them). cirr_avg is present when both of its inputs are (R@5 and
    R_subset@1). The fields are in the order the JSON document lists them.
    """

    query_count: int
    subset_query_count: int
    recall: dict[int, float]
    subset_recall: dict[int, float]
    map_at: dict[int, float]
    cirr_avg: float | None = None

    def __post_init__(self):
        for name in ("recall", "subset_recall", "map_at"):  # JSON keys are decimal strings
            values = getattr(self, name)
            if isinstance(values, dict) and all(
                    type(k) is int or type(k) is str and k.isdecimal() for k in values):
                setattr(self, name, dict(sorted({int(k): v for k, v in values.items()}.items())))
        check_field_types(self, MetricError)
        if self.query_count < 1:  # evaluate_queries rejects an empty query set
            raise MetricError(f"query_count must be >= 1, got {self.query_count}")
        if not 0 <= self.subset_query_count <= self.query_count:
            raise MetricError(f"subset_query_count must be in [0, query_count], "
                              f"got {self.subset_query_count}")
        if self.cirr_avg is not None:
            _check_percent("cirr_avg", self.cirr_avg)
        for name, top in (("recall", 100), ("subset_recall", 100), ("map_at", 1)):
            for k, value in getattr(self, name).items():
                if k < 1:
                    raise MetricError(f"{name} keys must be >= 1, got {k}")
                if not 0.0 <= value <= top:
                    raise MetricError(f"{name}@{k} must be in [0, {top}], got {value}")
        ks = list(self.recall)
        for lo, hi in zip(ks, ks[1:]):
            if self.recall[lo] > self.recall[hi]:
                raise MetricError(
                    f"recall must be non-decreasing in K: "
                    f"R@{lo}={self.recall[lo]} > R@{hi}={self.recall[hi]}"
                )

    def to_json(self) -> str:
        """Stable-key-order JSON document (full precision)."""
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, raw) -> "EvalReport":
        """Read a report document from UTF-8 bytes or text."""
        return read_record(cls, parse_json(raw, MetricError, "report"), MetricError, "report")
