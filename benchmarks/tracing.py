"""Span and counter recording for the benchmark's traced mode.

The program itself has no tracing yet, so the benchmark wraps public
functions (and the few named wrapper points listed in README.md) in the
module namespaces where the program looks them up. Spans are kept in memory
and written as JSONL at the end; only the main thread is traced, so the
loopback stub server's calls into the mock clients are not counted.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from cirlite import annotate, cli, data, evaluate, model, retrieval, trainer


def _filter_outcome(tracer, result):
    accepted, rejected = result
    tracer.count("annotate.accepted", len(accepted))
    tracer.count("annotate.filtered", len(accepted) + len(rejected))


def _decoder_positions(tracer, result):
    tracer.count("model.decoder_positions", int(result[3].targets_flat.size))


# (namespace, attribute, recorded name, kind, hook on the result).
# kind "span" records a timed span; "count" only counts calls; "sample"
# records each call's duration without making it a span, so the caller's
# self time keeps it.
WRAP_POINTS = [
    (data, "generate_synthetic_world", "data.generate_world", "span", None),
    (data, "save_embeddings", "store.save_embeddings", "span", None),
    (cli, "load_embeddings", "store.load_embeddings", "span", None),
    (data, "load_triplets", "data.jsonl_read", "span", None),
    (data, "load_annotations", "data.jsonl_read", "span", None),
    (data, "load_nli_pairs", "data.jsonl_read", "span", None),
    (data, "write_triplets", "data.jsonl_write", "span", None),
    (data, "write_annotations", "data.jsonl_write", "span", None),
    (data, "write_nli_pairs", "data.jsonl_write", "span", None),
    (annotate, "annotate_triplets", "annotate.annotate_triplets", "span", None),
    (annotate.MockGenerator, "generate", "annotate.generate", "span", None),
    (annotate.RemoteGenerator, "generate", "annotate.generate", "span", None),
    (annotate.MockJudge, "score", "annotate.judge", "span", None),
    (annotate.RemoteJudge, "score", "annotate.judge", "span", None),
    (annotate, "_post_json", "annotate.request", "sample", None),
    (annotate, "filter_annotations", "annotate.filter", "span", _filter_outcome),
    (trainer, "train_stage1", "trainer.stage1", "span", None),
    (trainer, "train_stage2", "trainer.stage2", "span", None),
    (trainer, "forward_batch", "model.forward_batch", "span", _decoder_positions),
    (model, "forward_batch", "model.forward_batch", "span", _decoder_positions),
    (trainer, "_backward_with_losses", "trainer.backward", "span", None),
    (trainer, "sgd_step", "trainer.sgd_step", "span", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint", "span", None),
    (trainer, "load_checkpoint", "trainer.load_checkpoint", "span", None),
    (trainer, "finite_diff_grad", "trainer.finite_diff_grad", "span", None),
    (trainer, "central_difference", "trainer.central_difference", "count", None),
    (cli, "evaluate_queries", "evaluate.evaluate_queries", "span", None),
    (evaluate, "evaluate_queries", "evaluate.evaluate_queries", "span", None),
    (evaluate, "project_gallery", "evaluate.project_gallery", "span", None),
    (evaluate, "compose_query_for", "evaluate.compose_query", "span", None),
    (evaluate, "rank_of", "retrieval.rank_of", "span", None),
    (evaluate, "subset_rank", "retrieval.subset_rank", "span", None),
    (evaluate, "search_topk", "retrieval.search_topk", "span", None),
    (retrieval, "_scores", "retrieval.gallery_scoring", "count", None),
    (evaluate, "map_at_k", "metrics.map_at_k", "span", None),
    (cli, "main", "cli.main", "span", None),
]

# Per-layer metrics: (metric name, unit, how it is derived).
LAYER_METRICS = [
    ("data.generate_world_ms", "ms", ("self_ms", "data.generate_world")),
    ("store.save_embeddings_ms", "ms", ("self_ms", "store.save_embeddings")),
    ("store.load_embeddings_ms", "ms", ("self_ms", "store.load_embeddings")),
    ("data.jsonl_read_ms", "ms", ("self_ms", "data.jsonl_read")),
    ("data.jsonl_write_ms", "ms", ("self_ms", "data.jsonl_write")),
    ("annotate.generate_ms", "ms", ("self_ms", "annotate.generate")),
    ("annotate.judge_ms", "ms", ("self_ms", "annotate.judge")),
    ("annotate.requests", "count", ("count", "annotate.request")),
    ("annotate.request_p50_ms", "ms", ("percentile", "annotate.request", 50)),
    ("annotate.request_p99_ms", "ms", ("percentile", "annotate.request", 99)),
    ("annotate.server_requests_per_call", "ratio",
     ("ratio", "annotate.server_requests", "annotate.request")),
    ("annotate.filter_ms", "ms", ("self_ms", "annotate.filter")),
    ("annotate.accepted_ratio", "ratio", ("ratio", "annotate.accepted", "annotate.filtered")),
    ("trainer.stage1_ms", "ms", ("self_ms", "trainer.stage1")),
    ("model.forward_batch_ms", "ms", ("self_ms", "model.forward_batch")),
    ("model.forward_batch_calls", "count", ("count", "model.forward_batch")),
    ("model.decoder_positions", "count", ("count", "model.decoder_positions")),
    ("trainer.backward_ms", "ms", ("self_ms", "trainer.backward")),
    ("trainer.sgd_step_ms", "ms", ("self_ms", "trainer.sgd_step")),
    ("trainer.save_checkpoint_ms", "ms", ("self_ms", "trainer.save_checkpoint")),
    ("trainer.load_checkpoint_ms", "ms", ("self_ms", "trainer.load_checkpoint")),
    ("trainer.finite_diff_grad_ms", "ms", ("self_ms", "trainer.finite_diff_grad")),
    ("trainer.central_difference_calls", "count", ("count", "trainer.central_difference")),
    ("evaluate.project_gallery_ms", "ms", ("self_ms", "evaluate.project_gallery")),
    ("evaluate.compose_query_ms", "ms", ("self_ms", "evaluate.compose_query")),
    ("retrieval.rank_of_ms", "ms", ("self_ms", "retrieval.rank_of")),
    ("retrieval.subset_rank_ms", "ms", ("self_ms", "retrieval.subset_rank")),
    ("retrieval.search_topk_ms", "ms", ("self_ms", "retrieval.search_topk")),
    ("retrieval.gallery_scorings", "count", ("count", "retrieval.gallery_scoring")),
    ("metrics.map_at_k_ms", "ms", ("self_ms", "metrics.map_at_k")),
]


class Tracer:
    """Records spans, counts and duration samples, tagged by phase.

    The caller sets `phase` ("setup", "round" or "check") and `round`.
    Layer metrics are given per run of one set-up and one average round:
    set-up totals plus round totals divided by the number of rounds; the
    output checks' "check" phase is left out.
    """

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[list] = []     # [name, start, end, parent, phase, round]
        self.counts: Counter = Counter()  # (name, phase) -> count
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase = "setup"
        self.round = -1
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._installed: list[tuple] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(name, self.phase)] += n

    def _wrap(self, fn, name: str, kind: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            tracer.count(name)
            if kind == "count":
                result = fn(*args, **kwargs)
            elif kind == "sample":
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                tracer.samples[name].append(time.perf_counter() - start)
            else:
                record = [name, time.perf_counter(), None,
                          tracer._stack[-1] if tracer._stack else None,
                          tracer.phase, tracer.round]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    tracer._stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, kind, hook in WRAP_POINTS:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[tuple[str, str], float]:
        """(name, phase) -> total self time: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, _, phase, _) in enumerate(self.spans):
            totals[(name, phase)] += (end - start) - child[i]
        return totals

    def layer_metrics(self, rounds: int, extra_counts: dict[str, int]) -> dict:
        """Every per-layer metric; layers the workload does not reach read 0."""
        selfs = self.self_seconds()
        counts = Counter(self.counts)
        for name, n in extra_counts.items():
            counts[(name, "round")] += n

        def per_run(table, name):
            return table.get((name, "setup"), 0) + table.get((name, "round"), 0) / rounds

        out = {}
        for metric, unit, rule in LAYER_METRICS:
            if rule[0] == "self_ms":
                value = 1000.0 * per_run(selfs, rule[1])
            elif rule[0] == "count":
                value = per_run(counts, rule[1])
            elif rule[0] == "percentile":
                samples = self.samples.get(rule[1])
                value = 1000.0 * float(np.percentile(samples, rule[2])) if samples else 0.0
            else:
                den = per_run(counts, rule[2])
                value = per_run(counts, rule[1]) / den if den else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def summary_lines(self) -> list[str]:
        """Self time and calls per span name and phase, largest first."""
        selfs = self.self_seconds()
        rows = sorted(selfs.items(), key=lambda item: -item[1])
        return [f"{name:32s} {phase:6s} self {1000 * seconds:10.1f} ms  "
                f"calls {self.counts[(name, phase)]}"
                for (name, phase), seconds in rows]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, phase, rnd) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "phase": phase, "round": rnd,
                }) + "\n")
