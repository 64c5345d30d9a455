"""Three-stage annotation pipeline: prompts, parsing, judging, filtering.

The generator is asked for a caption of the reference, a step-by-step
reasoning chain, and a conclusion describing the target, each under a
bracketed uppercase marker so parsing is unambiguous. Multiple judges score
how well a conclusion matches the true target; records whose scores are low
on average or spread too far apart are discarded.

Remote generator and judge clients speak a minimal JSON-over-HTTP contract:

    POST {"prompt": ...}                 -> {"text": ...}
    POST {"conclusion": ..., "target": ...} -> {"score": 1..5}
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import Protocol

from .data import CoTAnnotation, Triplet, words
from .errors import CirliteError
from .store import parse_json

CAPTION_MARKER = "[CAPTION]"
REASONING_MARKER = "[REASONING]"
CONCLUSION_MARKER = "[CONCLUSION]"
_MARKERS = (CAPTION_MARKER, REASONING_MARKER, CONCLUSION_MARKER)

DEFAULT_MEAN_THRESHOLD = 4.0
DEFAULT_MAX_RANGE = 2

# Per-request timeout and retry count of a remote endpoint, for library
# clients and the CLI alike.
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_RETRIES = 2

_PROMPT_TEMPLATE = """You are annotating one composed-retrieval query.

Reference: {reference}
Modification: {modification}

Answer in exactly three sections, each starting with its marker on its own
line. Emit the markers verbatim.

{caption_marker}
Describe the reference item, capturing all visible objects, attributes, and
context. Do not omit details.

{reasoning_marker}
Think step by step, as numbered lines:
1. Comprehend the instruction: extract what must be added, removed, or changed.
2. Align the instruction with the reference item's attributes and layout.
3. Determine the concrete adjustments and the entities they apply to.
4. Form a clear reasoning chain explaining how the adjustments turn the
   reference into the target and why each one is needed.

{conclusion_marker}
Give a clear and comprehensive description of the resulting target item.
"""

_BULLET_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s*)")


class AnnotateError(CirliteError):
    """Annotation pipeline failure (prompting, judging, filtering)."""


class ParseError(AnnotateError):
    """Generator output does not follow the three-section format."""


class JudgeError(AnnotateError):
    """A judge call failed or returned an out-of-range score."""


class EndpointError(AnnotateError):
    """Remote generator or judge endpoint unreachable or malformed reply."""


class GeneratorClient(Protocol):
    def generate(self, prompt: str) -> str: ...


class JudgeClient(Protocol):
    def score(self, conclusion: str, target_descriptor: str) -> int: ...


def build_annotation_prompt(t: Triplet) -> str:
    """Build the deterministic three-stage prompt from a triplet's reference
    descriptor and modification; it holds each stage marker exactly once."""
    if not t.modification_text.strip():
        raise AnnotateError(f"pair {t.pair_id!r}: empty modification text")
    if not t.reference_descriptor or not t.reference_descriptor.strip():
        raise AnnotateError(f"pair {t.pair_id!r}: empty reference descriptor")
    text = _PROMPT_TEMPLATE.format(
        reference=t.reference_descriptor.strip(),
        modification=t.modification_text.strip(),
        caption_marker=CAPTION_MARKER,
        reasoning_marker=REASONING_MARKER,
        conclusion_marker=CONCLUSION_MARKER,
    )
    for marker in _MARKERS:
        if text.count(marker) != 1:
            raise AnnotateError(f"pair {t.pair_id!r}: prompt must contain {marker} exactly once")
    return text


def parse_structured_output(raw: str, pair_id: str = "") -> CoTAnnotation:
    """Split raw generator text on the three markers into an annotation.

    Text before the caption marker is discarded (generators chat). Each
    marker must appear exactly once and in order; the conclusion must be
    non-empty. Reasoning is split into steps on lines, with leading numbers
    or bullets stripped. The returned annotation has no scores and is not
    accepted; those are set by judging and filtering.
    """
    positions = []
    for marker in _MARKERS:
        count = raw.count(marker)
        if count == 0:
            raise ParseError(f"missing section marker {marker}")
        if count > 1:
            raise ParseError(f"section marker {marker} appears {count} times")
        positions.append(raw.index(marker))
    if not positions[0] < positions[1] < positions[2]:
        raise ParseError("section markers out of order")

    caption = raw[positions[0] + len(CAPTION_MARKER):positions[1]].strip()
    reasoning = raw[positions[1] + len(REASONING_MARKER):positions[2]]
    conclusion = raw[positions[2] + len(CONCLUSION_MARKER):].strip()
    if not conclusion:
        raise ParseError("empty conclusion section")

    steps = []
    for line in reasoning.splitlines():
        step = _BULLET_RE.sub("", line).strip()
        if step:
            steps.append(step)

    return CoTAnnotation(
        pair_id=pair_id,
        caption=caption,
        reasoning_steps=steps,
        conclusion=conclusion,
    )


def _extract_field(prompt: str, label: str) -> str:
    for line in prompt.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    return ""


@dataclass(frozen=True)
class MockGenerator:
    """Deterministic stand-in for a remote annotation model.

    Reads the reference descriptor and modification out of the prompt,
    applies add/drop edits word by word, and emits well-formed three-section
    text. A short hash of (prompt, seed) is appended to the conclusion so
    different seeds give different conclusions.
    """

    seed: int

    def generate(self, prompt: str) -> str:
        reference = _extract_field(prompt, "Reference:") or "item"
        modification = _extract_field(prompt, "Modification:") or "unchanged"
        tag = hashlib.sha256(f"{self.seed}\x1f{prompt}".encode("utf-8")).hexdigest()[:10]

        attrs = [w for w in words(reference) if w not in ("item", "with")]
        adds, drops = [], []
        for word in words(modification):
            if word.startswith("add") and len(word) > 3:
                attr = word[3:]
                adds.append(attr)
                if attr not in attrs:
                    attrs.append(attr)
            elif word.startswith("drop") and len(word) > 4:
                attr = word[4:]
                drops.append(attr)
                if attr in attrs:
                    attrs.remove(attr)

        described = "item with " + " ".join(attrs) if attrs else "plain item"
        return (
            f"{CAPTION_MARKER}\n"
            f"reference is {reference}\n"
            f"{REASONING_MARKER}\n"
            f"1. instruction asks {modification}\n"
            f"2. now add {' '.join(adds) or 'nothing'} remove {' '.join(drops) or 'nothing'}\n"
            f"3. other attributes unchanged\n"
            f"{CONCLUSION_MARKER}\n"
            f"{described} {tag}\n"
        )


@dataclass(frozen=True)
class MockJudge:
    """Deterministic judge scoring how well a conclusion covers the target.

    The base score is coverage of the target descriptor's words by the
    conclusion, mapped onto 1..5. A hash-derived per-judge deduction makes
    distinct judges disagree occasionally, like real scorer ensembles.
    """

    seed: int

    def score(self, conclusion: str, target_descriptor: str) -> int:
        target_words = set(words(target_descriptor))
        if not target_words:
            coverage = 1.0
        else:
            coverage = len(target_words & set(words(conclusion))) / len(target_words)
        base = 1 + int(coverage * 4 + 1e-9)
        digest = hashlib.sha256(
            f"{self.seed}\x1f{conclusion}\x1f{target_descriptor}".encode("utf-8")
        ).digest()
        if digest[0] % 5 == 0:
            base -= 1
        if digest[1] % 50 == 0:
            base -= 3
        return max(1, min(5, base))


class _RemoteClient:
    """An endpoint URL with the timeout and retry count of its requests."""

    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT_S,
                 retries: int = DEFAULT_RETRIES):
        if not 0 < timeout < math.inf:
            raise EndpointError(f"endpoint timeout must be finite and > 0, got {timeout}")
        if retries < 0:
            raise EndpointError(f"endpoint retries must be >= 0, got {retries}")
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries


class RemoteGenerator(_RemoteClient):
    """GeneratorClient talking JSON-over-HTTP to an annotation endpoint."""

    def generate(self, prompt: str) -> str:
        reply = _post_json(self.endpoint, {"prompt": prompt}, self.timeout, self.retries)
        if "text" not in reply or not isinstance(reply["text"], str):
            raise EndpointError(f"generator reply missing 'text': {reply!r}")
        return reply["text"]


class RemoteJudge(_RemoteClient):
    """JudgeClient talking JSON-over-HTTP to a scoring endpoint."""

    def score(self, conclusion: str, target_descriptor: str) -> int:
        reply = _post_json(self.endpoint, {"conclusion": conclusion, "target": target_descriptor},
                           self.timeout, self.retries)
        if "score" not in reply or type(reply["score"]) is not int:
            raise EndpointError(f"judge reply has no integer 'score': {reply!r}")
        return reply["score"]


# Request Timeout and Too Many Requests: the request was fine, the server
# was slow or busy.
_RETRIED_4XX = (408, 429)

# Retry n (from 0) waits min(RETRY_CAP_S, RETRY_BASE_S * 2**n) seconds first,
# unless a 429 or 503 reply named its own wait.
RETRY_BASE_S = 0.05
RETRY_CAP_S = 1.0
_RETRY_AFTER_STATUS = (429, 503)
_SECONDS_RE = re.compile(r"[0-9]+")


def _retry_after(exc: urllib.error.HTTPError) -> float | None:
    """The wait a 429 or 503 reply asks for in a Retry-After of whole
    seconds, capped at RETRY_CAP_S; None for any other reply or header."""
    if exc.code not in _RETRY_AFTER_STATUS:
        return None
    value = (exc.headers.get("Retry-After") or "").strip()
    # float, not int: digits past Python's int-string limit are just a long wait.
    return min(RETRY_CAP_S, float(value)) if _SECONDS_RE.fullmatch(value) else None


def _post_json(endpoint: str, payload: dict, timeout: float, retries: int) -> dict:
    """POST payload as JSON and parse the JSON reply.

    Connection errors, HTTP protocol errors (a bad status line, a body cut
    short), HTTP 5xx, 408, 429 and replies that are not a UTF-8 JSON object
    are retried up to `retries` times, after a growing wait, or after the
    Retry-After of a 429 or 503 reply; any other HTTP 4xx means the request
    itself is wrong, so it fails at once. Every failure raises EndpointError.
    """
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        endpoint, data=body, headers={"Content-Type": "application/json"}
    )
    last_error = None
    wait = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(min(RETRY_CAP_S, RETRY_BASE_S * 2 ** (attempt - 1))
                       if wait is None else wait)
            wait = None
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                reply = parse_json(response.read(), EndpointError, "reply")
            if isinstance(reply, dict):
                return reply
            last_error = EndpointError(f"reply is not a JSON object: {reply!r:.80}")
        except urllib.error.HTTPError as exc:
            if 400 <= exc.code < 500 and exc.code not in _RETRIED_4XX:
                raise EndpointError(
                    f"endpoint {endpoint} rejected the request: HTTP {exc.code} {exc.reason}"
                ) from exc
            last_error = exc
            wait = _retry_after(exc)
        except http.client.HTTPException as exc:
            # repr: a bad status line is kept raw, line break included.
            last_error = EndpointError(repr(exc))
        except (urllib.error.URLError, OSError, EndpointError) as exc:
            last_error = exc
    raise EndpointError(f"endpoint {endpoint} failed: {last_error}") from last_error


def judge_annotation(
    a: CoTAnnotation, target_descriptor: str, judges
) -> list[int]:
    """Collect one score per judge, order-aligned with the judge list."""
    judges = list(judges)
    if not judges:
        raise JudgeError("at least one judge is required")
    scores = []
    for i, judge in enumerate(judges):
        try:
            score = judge.score(a.conclusion, target_descriptor)
        except AnnotateError:
            raise
        except Exception as exc:
            raise JudgeError(f"judge {i} failed: {exc}") from exc
        if type(score) is not int:
            raise JudgeError(f"judge {i} returned a score that is not an int: {score!r}")
        if not 1 <= score <= 5:
            raise JudgeError(f"judge {i} returned out-of-range score {score}")
        scores.append(score)
    return scores


def filter_annotations(
    records,
    mean_threshold: float = DEFAULT_MEAN_THRESHOLD,
    max_range: int = DEFAULT_MAX_RANGE,
):
    """Partition (annotation, scores) records into accepted and rejected.

    A record is accepted iff mean(scores) >= mean_threshold and
    max(scores) - min(scores) <= max_range: the mean captures consistency
    with the target, the range captures inter-judge disagreement. Returned
    annotations carry their scores and the accepted flag.
    """
    if not 1.0 <= mean_threshold <= 5.0:
        raise AnnotateError(f"mean_threshold must be in [1, 5], got {mean_threshold}")
    if max_range < 0:
        raise AnnotateError(f"max_range must be >= 0, got {max_range}")
    accepted, rejected = [], []
    for annotation, scores in records:
        scores = list(scores)
        if not scores:
            raise AnnotateError(
                f"pair {annotation.pair_id!r}: empty score list"
            )
        ok = (
            sum(scores) / len(scores) >= mean_threshold
            and max(scores) - min(scores) <= max_range
        )
        updated = replace(annotation, judge_scores=scores, accepted=ok)
        (accepted if ok else rejected).append(updated)
    return accepted, rejected


def annotate_triplets(triplets, generator: GeneratorClient, judges: list[JudgeClient]):
    """Run prompt -> generate -> parse -> judge for a list of triplets.

    Returns (annotations, n_unparseable). Unparseable generator outputs are
    counted and skipped rather than fatal; descriptors must be present on
    every triplet (the prompt checks the reference descriptor).
    """
    annotations = []
    n_unparseable = 0
    for t in triplets:
        if t.target_descriptor is None:
            raise AnnotateError(f"pair {t.pair_id!r}: missing target descriptor")
        raw = generator.generate(build_annotation_prompt(t))
        try:
            annotation = parse_structured_output(raw, pair_id=t.pair_id)
        except ParseError:
            n_unparseable += 1
            continue
        scores = judge_annotation(annotation, t.target_descriptor, judges)
        annotations.append(replace(annotation, judge_scores=scores))
    return annotations, n_unparseable
