"""Independent output checks for the benchmark workloads.

Nothing here imports cirlite. Files are read from their documented formats
(README "File formats"), the tokenizer is re-implemented from its documented
sha256 rule, the query composer and gallery projection are written from the
model formulas, and ranking applies the documented tie rule (score
descending, then item id ascending). Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import re
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np

# Two scores closer than this (but not equal) may be ordered differently by
# the program's arithmetic and by the recomputation; such queries are
# reported as ambiguous rather than failed.
AMBIGUITY_GAP = 1e-12
# Tolerance for mAP, whose float sums may be taken in another order.
MAP_TOLERANCE = 1e-12
# Tolerance for the scores the program writes next to its top-k lists.
SCORE_TOLERANCE = 1e-9
# Queries composed and scored together in one matrix product.
QUERY_BLOCK = 200
# The documented filter rule: accept when the judges' mean score is at least
# this and their range at most that.
FILTER_MEAN_THRESHOLD = 4.0
FILTER_MAX_RANGE = 2
# Criterion 2's bound on the analytic-vs-finite-difference relative error.
GRADIENT_BOUND = 1e-4

PARAM_ORDER = (
    "tok_emb", "w_txt", "b_txt", "w_img", "b_img",
    "w_comp", "b_comp", "w_hid", "b_hid", "w_out", "b_out",
)

_WORD_RE = re.compile(r"[a-z0-9]+")


# ---------------------------------------------------------------------------
# Readers for the documented file formats
# ---------------------------------------------------------------------------

def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_embeddings(manifest_path) -> tuple[list[str], np.ndarray]:
    """(ids, float32 values) from a manifest, verifying its sha256 checksum."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    raw = (manifest_path.parent / manifest["values_file"]).read_bytes()
    if "sha256:" + hashlib.sha256(raw).hexdigest() != manifest["checksum"]:
        raise ValueError(f"{manifest_path}: checksum does not match the values file")
    ids = (manifest_path.parent / manifest["ids_file"]).read_text(
        encoding="utf-8").splitlines()
    values = np.frombuffer(raw, dtype="<f4").reshape(manifest["count"], manifest["dims"])
    return ids, values


def read_checkpoint(path) -> dict:
    """Parameter tensors (float64) and temperature from a checkpoint file."""
    data = Path(path).read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline].decode("utf-8"))
    v, d_tok, d_img = header["vocab_size"], header["d_tok"], header["d_img"]
    d, h = header["d_joint"], header["d_hidden"]
    shapes = {
        "tok_emb": (v + 1, d_tok), "w_txt": (d_tok, d), "b_txt": (d,),
        "w_img": (d_img, d), "b_img": (d,), "w_comp": (2 * d, d), "b_comp": (d,),
        "w_hid": (d + d_tok, h), "b_hid": (h,), "w_out": (h, v), "b_out": (v,),
    }
    params = {"temperature": float(header["temperature"])}
    offset = newline + 1
    for name in PARAM_ORDER:
        size = int(np.prod(shapes[name]))
        block = np.frombuffer(data, dtype="<f4", count=size, offset=offset)
        params[name] = block.astype(np.float64).reshape(shapes[name])
        offset += 4 * size
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return params


# ---------------------------------------------------------------------------
# The model formulas, from scratch
# ---------------------------------------------------------------------------

def tokenize(text: str, vocab_size: int) -> list[int]:
    """1 + (first 8 bytes of sha256(word), big-endian) mod (vocab_size - 1)."""
    return [
        1 + int.from_bytes(hashlib.sha256(w.encode("utf-8")).digest()[:8], "big")
        % (vocab_size - 1)
        for w in _WORD_RE.findall(text.lower())
    ]


def project_images(params: dict, images) -> np.ndarray:
    return np.tanh(np.asarray(images, dtype=np.float64) @ params["w_img"] + params["b_img"])


def compose_queries(params: dict, ref_images, mod_texts) -> np.ndarray:
    """e_q = tanh([tanh(W_img x + b), tanh(W_txt mean(E[toks]) + b)] W_comp + b)."""
    vocab_size = params["w_out"].shape[1]
    pooled = np.stack([
        params["tok_emb"][tokenize(text, vocab_size)].mean(axis=0) for text in mod_texts
    ])
    txt = np.tanh(pooled @ params["w_txt"] + params["b_txt"])
    img = project_images(params, ref_images)
    return np.tanh(np.concatenate([img, txt], axis=1) @ params["w_comp"] + params["b_comp"])


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1)[:, None]


# ---------------------------------------------------------------------------
# Exact retrieval with the documented tie rule, and the metric formulas
# ---------------------------------------------------------------------------

def _rank(scores, row, id_rank, rows) -> tuple[int, bool]:
    """1-based rank of `row` among `rows`, and whether a competitor's score
    lies within AMBIGUITY_GAP of it without being equal."""
    s = scores[rows]
    st = scores[row]
    others = rows != row
    gap = np.abs(s - st)[others]
    ambiguous = bool(np.any((gap > 0) & (gap <= AMBIGUITY_GAP)))
    better = int(np.sum(s > st))
    tied_before = int(np.sum((s == st) & others & (id_rank[rows] < id_rank[row])))
    return 1 + better + tied_before, ambiguous


def _top_k(scores, id_rank, k: int) -> np.ndarray:
    kth = np.partition(scores, -k)[-k]
    candidates = np.flatnonzero(scores >= kth)
    return candidates[np.lexsort((id_rank[candidates], -scores[candidates]))][:k]


def recall(ranks, k: int) -> float:
    return 100.0 * sum(1 for r in ranks if r <= k) / len(ranks)


def average_precision(ranked_ids, gt: set, k: int) -> float:
    hits, total = 0, 0.0
    for i, item_id in enumerate(ranked_ids[:k], start=1):
        if item_id in gt:
            hits += 1
            total += hits / i
    return total / min(len(gt), k)


def display(value: float) -> str:
    return str(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _same_order(got: list[str], want: list[str], scores, row_of) -> bool:
    """Equal lists, or lists that differ only where scores are ambiguous."""
    if got == want:
        return True
    if len(got) != len(want) or any(i not in row_of for i in got):
        return False
    for a, b in zip(got, want):
        if a != b:
            gap = abs(scores[row_of[a]] - scores[row_of[b]])
            if gap == 0 or gap > AMBIGUITY_GAP:
                return False
    return True


def check_eval(params: dict, gallery_ids, gallery_values, triplets: list[dict],
               report: dict, ranked: list[dict]) -> tuple[list[str], int]:
    """Recompute an evaluation and compare the program's report and top-k lists.

    `triplets` are dicts in the documented triplet format, `report` the
    report JSON document, `ranked` the records written by --ranked-out.
    Returns (problems, number of ambiguous queries).
    """
    n = len(triplets)
    if report["query_count"] != n or len(ranked) != n:
        return [f"report covers {report['query_count']} queries and "
                f"{len(ranked)} ranked lists, expected {n}"], 0
    ids = list(gallery_ids)
    row_of = {item_id: i for i, item_id in enumerate(ids)}
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[np.argsort(np.array(ids), kind="stable")] = np.arange(len(ids))
    all_rows = np.arange(len(ids))
    values = np.asarray(gallery_values, dtype=np.float64)
    gallery = _unit_rows(project_images(params, values))
    k = min(max(int(key) for key in report["map_at"]), len(ids))
    map_ks = [int(key) for key in report["map_at"]]

    problems = []
    ranks, subset_ranks = [], []
    ambiguous = 0
    ap_ref = {key: 0.0 for key in map_ks}
    ap_prog = {key: 0.0 for key in map_ks}
    for start in range(0, n, QUERY_BLOCK):
        chunk = triplets[start:start + QUERY_BLOCK]
        refs = values[[row_of[t["reference_id"]] for t in chunk]]
        queries = _unit_rows(compose_queries(params, refs, [t["modification_text"] for t in chunk]))
        for t, prog, scores in zip(chunk, ranked[start:start + QUERY_BLOCK], queries @ gallery.T):
            target = row_of[t["target_id"]]
            rank, amb = _rank(scores, target, id_rank, all_rows)
            ranks.append(rank)
            if t.get("subset_ids"):
                rows = np.array([row_of[i] for i in t["subset_ids"]])
                subset, sub_amb = _rank(scores, target, id_rank, rows)
                subset_ranks.append(subset)
                amb = amb or sub_amb
            ambiguous += amb
            top = [ids[i] for i in _top_k(scores, id_rank, k)]
            if prog["pair_id"] != t["pair_id"]:
                problems.append(f"ranked list for {prog['pair_id']} where {t['pair_id']} was expected")
                continue
            if not _same_order(prog["ranked_ids"], top, scores, row_of):
                problems.append(f"{t['pair_id']}: top-{k} list differs from the recomputation")
                continue
            shown = np.array(prog["scores"])
            expected = scores[[row_of[i] for i in prog["ranked_ids"]]]
            if shown.shape != expected.shape or np.max(np.abs(shown - expected)) > SCORE_TOLERANCE:
                problems.append(f"{t['pair_id']}: reported scores differ from the recomputation")
            gt = set(t.get("gt_ids") or [t["target_id"]])
            for key in map_ks:
                ap_ref[key] += average_precision(top, gt, key)
                ap_prog[key] += average_precision(prog["ranked_ids"], gt, key)

    slack = 100.0 * ambiguous / n
    for key, value in report["recall"].items():
        expected = recall(ranks, int(key))
        if abs(value - expected) > slack or (not ambiguous and value != expected):
            problems.append(f"R@{key} = {value}, recomputed {expected}")
    if report["subset_query_count"] != len(subset_ranks):
        problems.append(f"subset_query_count = {report['subset_query_count']}, "
                        f"expected {len(subset_ranks)}")
    elif subset_ranks:
        for key, value in report["subset_recall"].items():
            expected = recall(subset_ranks, int(key))
            if abs(value - expected) > slack or (not ambiguous and value != expected):
                problems.append(f"R_subset@{key} = {value}, recomputed {expected}")
    for key in map_ks:
        value = report["map_at"][str(key)]
        if abs(value - ap_prog[key] / n) > MAP_TOLERANCE:
            problems.append(f"mAP@{key} = {value} but its own top-k lists give {ap_prog[key] / n}")
        if not ambiguous and abs(value - ap_ref[key] / n) > MAP_TOLERANCE:
            problems.append(f"mAP@{key} = {value}, recomputed {ap_ref[key] / n}")
    r5, rs1 = report["recall"].get("5"), report["subset_recall"].get("1")
    if r5 is not None and rs1 is not None and report["cirr_avg"] != (r5 + rs1) / 2.0:
        problems.append(f"cirr_avg = {report['cirr_avg']}, expected {(r5 + rs1) / 2.0}")
    return problems, ambiguous


def check_report_text(text: str, report: dict) -> list[str]:
    """The `report` command's lines show the report values, rounded half-even."""
    expected = [f"queries: {report['query_count']}"]
    expected += [f"R@{k}: {display(v)}" for k, v in report["recall"].items()]
    expected += [f"R_subset@{k}: {display(v)}" for k, v in report["subset_recall"].items()]
    expected += [f"mAP@{k}: {display(100.0 * v)}" for k, v in report["map_at"].items()]
    if report["cirr_avg"] is not None:
        expected.append(f"Avg (R@5, R_subset@1): {display(report['cirr_avg'])}")
    shown = text.splitlines()
    return [] if shown == expected else [f"report text {shown} != expected {expected}"]


def passes_filter(scores) -> bool:
    return (sum(scores) / len(scores) >= FILTER_MEAN_THRESHOLD
            and max(scores) - min(scores) <= FILTER_MAX_RANGE)


def check_filter(annotated: list[dict], accepted: list[dict], rejected: list[dict]) -> list[str]:
    """Accepted and rejected partition the annotated records by the filter rule."""
    problems = []
    if len(accepted) + len(rejected) != len(annotated):
        problems.append(f"{len(accepted)} accepted + {len(rejected)} rejected "
                        f"!= {len(annotated)} annotated")
    scores_of = {a["pair_id"]: a["judge_scores"] for a in annotated}
    seen = [a["pair_id"] for a in accepted + rejected]
    if sorted(seen) != sorted(scores_of):
        problems.append("accepted and rejected do not partition the annotated pair ids")
    for records, flag in ((accepted, True), (rejected, False)):
        for a in records:
            if a["judge_scores"] != scores_of.get(a["pair_id"]):
                problems.append(f"{a['pair_id']}: judge scores changed by the filter")
            if a["accepted"] is not flag or passes_filter(a["judge_scores"]) is not flag:
                problems.append(f"{a['pair_id']}: scores {a['judge_scores']} "
                                f"{'accepted' if flag else 'rejected'}")
    return problems


def check_loss_decreases(loss_log: list[dict]) -> list[str]:
    """Stage 2's last-epoch mean combined loss is below its first epoch's."""
    by_epoch: dict[int, list[float]] = {}
    for entry in loss_log:
        if entry["stage"] == 2:
            by_epoch.setdefault(entry["epoch"], []).append(entry["combined"])
    if len(by_epoch) < 2:
        return [f"stage 2 logged {len(by_epoch)} epochs"]
    first = by_epoch[min(by_epoch)]
    last = by_epoch[max(by_epoch)]
    first_mean, last_mean = sum(first) / len(first), sum(last) / len(last)
    if not last_mean < first_mean:
        return [f"stage 2 last-epoch mean loss {last_mean} >= first {first_mean}"]
    return []


def max_relative_errors(analytic: dict, numeric: dict) -> dict[str, float]:
    """Per-tensor max |a - n| / max(|a| + |n|, 1e-6) (criterion 2's measure)."""
    errors = {}
    for name in analytic:
        a = np.asarray(analytic[name], dtype=np.float64)
        b = np.asarray(numeric[name], dtype=np.float64)
        errors[name] = float((np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-6)).max())
    return errors


def check_gradients(analytic: dict, numeric: dict) -> list[str]:
    """Every tensor and the temperature agree with finite differences within
    GRADIENT_BOUND."""
    if set(analytic) != set(numeric):
        return [f"gradient tensors differ: {sorted(set(analytic) ^ set(numeric))}"]
    return [f"{name}: max relative error {err:.3e} >= {GRADIENT_BOUND}"
            for name, err in max_relative_errors(analytic, numeric).items()
            if not err < GRADIENT_BOUND]


def check_annotations_equal(got: list[dict], expected: list[dict]) -> list[str]:
    """Annotations that came over HTTP equal the in-process ones, field by field."""
    if len(got) != len(expected):
        return [f"{len(got)} annotations, expected {len(expected)}"]
    return [f"{e['pair_id']}: annotation differs from the in-process one"
            for g, e in zip(got, expected) if g != e]
