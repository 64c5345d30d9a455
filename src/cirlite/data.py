"""Triplets, annotations, tokenization, batching, and synthetic worlds.

A triplet is one composed-retrieval query: a reference item, a modification
instruction, and the target item the modified reference should retrieve.
Triplets and annotations travel as JSONL, one object per line.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import CirliteError
from .store import (MANIFEST_FILENAME, EmbeddingMatrix, check_field_types, parse_json,
                    read_record, save_embeddings, write_jsonl)

DEFAULT_VOCAB = 4096

# Token id 0 is reserved for end-of-sequence; tokenize() never emits it.
EOS_TOKEN = 0

_WORD_RE = re.compile(r"[a-z0-9]+")

# Fixed attribute vocabulary for synthetic worlds (fashion-flavored).
_ATTR_WORDS = [
    "red", "blue", "striped", "wooden", "round", "glossy", "tall", "floral",
    "dark", "sleeveless", "leather", "checked", "metallic", "pleated",
    "hooded", "quilted",
]


class DatasetError(CirliteError):
    """Malformed triplet, annotation, or generator parameters."""


@dataclass
class Triplet:
    """One composed-retrieval query (reference item, modification, target).

    ``subset_ids`` is an optional curated candidate subset containing the
    target; ``gt_ids`` an optional multi-ground-truth set containing the
    target. Descriptors are short text stand-ins for the images, used by the
    annotation pipeline.
    """

    pair_id: str
    reference_id: str
    modification_text: str
    target_id: str
    subset_ids: list[str] | None = None
    gt_ids: list[str] | None = None
    reference_descriptor: str | None = None
    target_descriptor: str | None = None

    def __post_init__(self):
        check_field_types(self, DatasetError, f"pair {self.pair_id!r}")
        if self.reference_id == self.target_id:
            raise DatasetError(
                f"pair {self.pair_id!r}: reference_id equals target_id "
                f"({self.reference_id!r})"
            )
        for name in ("subset_ids", "gt_ids"):
            ids = getattr(self, name)
            if ids is None:
                continue
            if len(set(ids)) != len(ids):
                raise DatasetError(f"pair {self.pair_id!r}: duplicate ids in {name}")
            if self.target_id not in ids:
                raise DatasetError(f"pair {self.pair_id!r}: target_id not in {name}")


@dataclass
class CoTAnnotation:
    """Structured three-stage annotation: caption, reasoning steps, conclusion."""

    pair_id: str
    caption: str
    reasoning_steps: list[str]
    conclusion: str
    judge_scores: list[int] = field(default_factory=list)
    accepted: bool = False

    def __post_init__(self):
        check_field_types(self, DatasetError, f"pair {self.pair_id!r}")
        for score in self.judge_scores:
            if not 1 <= score <= 5:
                raise DatasetError(
                    f"pair {self.pair_id!r}: judge score {score!r} outside 1..5"
                )
        if self.accepted:
            if not self.caption.strip() or not self.conclusion.strip():
                raise DatasetError(
                    f"pair {self.pair_id!r}: accepted annotation with empty "
                    "caption or conclusion"
                )
            if len(self.reasoning_steps) < 1:
                raise DatasetError(
                    f"pair {self.pair_id!r}: accepted annotation with no "
                    "reasoning steps"
                )


def _load_jsonl(path, kind: str, cls) -> list:
    """One cls record per non-blank JSONL line; every error names the file and line."""
    if not Path(path).is_file():
        raise DatasetError(f"{kind} file not found: {path}")
    items = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                doc = parse_json(line, DatasetError, f"{path}:{lineno}: {kind}")
                items.append(read_record(cls, doc, DatasetError, f"{path}:{lineno}"))
    return items


def load_triplets(path) -> list[Triplet]:
    """Load triplets from JSONL, validating invariants with line numbers."""
    return _load_jsonl(path, "triplet", Triplet)


def write_triplets(triplets, path) -> None:
    write_jsonl([{k: v for k, v in asdict(t).items() if v is not None} for t in triplets], path)


def load_annotations(path) -> list[CoTAnnotation]:
    """Load annotations from JSONL (same validation discipline as triplets)."""
    return _load_jsonl(path, "annotation", CoTAnnotation)


def write_annotations(annotations, path) -> None:
    write_jsonl(map(asdict, annotations), path)


def words(text: str) -> list[str]:
    """The one word-split rule: lowercase, then maximal [a-z0-9]+ runs, so
    punctuation and whitespace both separate."""
    return _WORD_RE.findall(text.lower())


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB) -> list[int]:
    """Hash words into token ids in [1, vocab_size).

    The rule, fixed for reproducibility across platforms: split text into
    words(text), then map each word w to

        1 + (first 8 bytes of sha256(w), big-endian) mod (vocab_size - 1)

    Id 0 stays reserved for EOS. Empty text gives an empty sequence.
    """
    if vocab_size < 2:
        raise DatasetError(f"vocab_size must be >= 2, got {vocab_size}")
    return [
        1 + int.from_bytes(hashlib.sha256(w.encode("utf-8")).digest()[:8], "big")
        % (vocab_size - 1)
        for w in words(text)
    ]


def query_inputs(matrix: EmbeddingMatrix, triplets, vocab_size: int):
    """Each triplet's query input, for training and evaluation alike: its
    reference embedding as a float64 row, and its modification tokens under
    vocab_size, the vocabulary of the parameters that read them."""
    tok_lists = [tokenize(t.modification_text, vocab_size) for t in triplets]
    for t, toks in zip(triplets, tok_lists):
        if not toks:
            raise DatasetError(f"pair {t.pair_id!r}: modification tokenizes to nothing")
    # Per-row copies, then one stack, on purpose: the allocation shape sets peak RSS.
    rows = [matrix.values[matrix.row_index(t.reference_id)].copy() for t in triplets]
    return np.stack(rows).astype(np.float64), tok_lists


def batch_iter(items, batch_size: int, seed: int):
    """Yield batches after a seeded shuffle; the last short batch is kept."""
    if batch_size < 1:
        raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = [items[i] for i in order]
    for start in range(0, len(shuffled), batch_size):
        yield shuffled[start:start + batch_size]


@dataclass
class SynthWorld:
    """A self-contained composed-retrieval dataset: data only, no training setting.

    Synthetic worlds additionally carry their generative rule (attribute
    names, per-item attribute vectors, and the attribute basis) so tests can
    build oracle queries. Worlds assembled from external files leave those
    fields as None.
    """

    embeddings: EmbeddingMatrix
    triplets: list[Triplet]
    nli_pairs: list[tuple[str, str]]
    attr_names: list[str] | None = None
    item_attrs: np.ndarray | None = None   # (count, n_attrs) in {0, 1}
    attr_basis: np.ndarray | None = None   # (n_attrs, dims), orthonormal rows

    def __post_init__(self):
        known = set(self.embeddings.ids)
        for t in self.triplets:
            referenced = {t.reference_id, t.target_id}
            referenced.update(t.subset_ids or ())
            referenced.update(t.gt_ids or ())
            missing = referenced - known
            if missing:
                raise DatasetError(
                    f"pair {t.pair_id!r} references unknown ids: {sorted(missing)}"
                )


def _descriptor(names, attr_row) -> str:
    present = [names[i] for i in range(len(names)) if attr_row[i]]
    return "item with " + " ".join(present)


def _modification_text(names, ref_row, tgt_row) -> str:
    words = []
    for i in range(len(names)):
        if ref_row[i] == tgt_row[i]:
            continue
        words.append(("add" if tgt_row[i] else "drop") + names[i])
    return " ".join(words)


def generate_synthetic_world(
    seed: int,
    n_items: int,
    n_attrs: int,
    *,
    n_triplets: int | None = None,
    subset_size: int = 6,
    noise_scale: float = 0.05,
    dims: int = 64,
    nli_per_item: int = 3,
) -> SynthWorld:
    """Build a deterministic attribute world for desk-scale experiments.

    Every item gets a distinct nonzero binary attribute vector; its embedding
    is the attribute vector mapped through a random orthonormal basis plus
    small Gaussian noise. Each triplet's modification text names exactly the
    attribute flips that turn the reference into the target ("addred",
    "dropwooden", ...), so a composer applying the true flips retrieves the
    target perfectly. Also emits premise/paraphrase text pairs for the
    text-only pretraining stage.
    """
    if n_items < 4:
        raise DatasetError(f"n_items must be >= 4, got {n_items}")
    if n_attrs < 2:
        raise DatasetError(f"n_attrs must be >= 2, got {n_attrs}")
    if n_attrs > len(_ATTR_WORDS):
        raise DatasetError(f"n_attrs must be <= {len(_ATTR_WORDS)}, got {n_attrs}")
    if n_items > 2 ** n_attrs - 1:
        raise DatasetError(
            f"n_items={n_items} exceeds the {2 ** n_attrs - 1} distinct nonzero "
            f"attribute vectors available with n_attrs={n_attrs}"
        )
    if dims < n_attrs:
        raise DatasetError(f"dims must be >= n_attrs, got {dims} < {n_attrs}")
    if subset_size < 1:
        raise DatasetError(f"subset_size must be >= 1, got {subset_size}")

    rng = np.random.default_rng(seed)
    names = _ATTR_WORDS[:n_attrs]

    codes = rng.choice(np.arange(1, 2 ** n_attrs), size=n_items, replace=False)
    attrs = (
        (codes[:, None] >> np.arange(n_attrs)[None, :]) & 1
    ).astype(np.int8)

    basis, _ = np.linalg.qr(rng.standard_normal((dims, n_attrs)))
    basis = basis.T  # (n_attrs, dims), orthonormal rows
    values = attrs @ basis + noise_scale * rng.standard_normal((n_items, dims))
    ids = [f"item{i:04d}" for i in range(n_items)]
    embeddings = EmbeddingMatrix(ids=ids, values=values.astype(np.float32))

    if n_triplets is None:
        n_triplets = max(n_items, 500)
    triplets = []
    for t in range(n_triplets):
        ref = int(rng.integers(n_items))
        # Hamming distances from one item's attribute vector to every item's,
        # computed only for the rows a triplet samples.
        ham_ref = np.bitwise_count(codes ^ codes[ref])
        near = np.flatnonzero((ham_ref > 0) & (ham_ref <= 2))
        if near.size:
            tgt = int(rng.choice(near))
        else:
            tgt = int(rng.choice([j for j in range(n_items) if j != ref]))
        ham_tgt = np.bitwise_count(codes ^ codes[tgt])
        mod = _modification_text(names, attrs[ref], attrs[tgt])

        n_distract = min(subset_size, n_items) - 1
        # Prefer attribute-similar distractors, like the curated subsets of
        # real benchmarks; random jitter breaks ties deterministically. Only
        # the n_distract + 1 smallest keys are needed, in key order.
        keys = ham_tgt + rng.uniform(0, 0.5, size=n_items)
        order = np.argpartition(keys, n_distract)[:n_distract + 1]
        order = order[np.argsort(keys[order])]
        distractors = [int(j) for j in order if j != tgt][:n_distract]
        subset = [ids[tgt]] + [ids[j] for j in distractors]
        subset = [subset[k] for k in rng.permutation(len(subset))]

        gt = sorted(ids[j] for j in np.flatnonzero(ham_tgt <= 1))

        triplets.append(
            Triplet(
                pair_id=f"pair{t:05d}",
                reference_id=ids[ref],
                modification_text=mod,
                target_id=ids[tgt],
                subset_ids=subset,
                gt_ids=gt,
                reference_descriptor=_descriptor(names, attrs[ref]),
                target_descriptor=_descriptor(names, attrs[tgt]),
            )
        )

    nli_pairs = []
    for k in range(nli_per_item * n_items):
        if rng.random() < 0.5:
            sentence = _descriptor(names, attrs[int(rng.integers(n_items))])
        else:
            a, b = rng.choice(n_items, size=2, replace=False)
            mod = _modification_text(names, attrs[a], attrs[b])
            sentence = "change the item " + mod
        words = sentence.split()
        kept = [w for w in words if rng.random() >= 0.3]
        if not kept:
            kept = [words[int(rng.integers(len(words)))]]
        nli_pairs.append((sentence, " ".join(kept)))

    return SynthWorld(
        embeddings=embeddings,
        triplets=triplets,
        nli_pairs=nli_pairs,
        attr_names=names,
        item_attrs=attrs,
        attr_basis=basis,
    )


def oracle_query_vector(world: SynthWorld, triplet: Triplet) -> np.ndarray:
    """Ground-truth-rule composed query: reference embedding plus true flips.

    Requires a synthetic world (generative rule present). The result lands on
    the target's attribute point up to the reference's noise, so exact
    retrieval against the raw gallery ranks the target first.
    """
    if world.attr_basis is None or world.item_attrs is None:
        raise DatasetError("oracle queries need a synthetic world")
    ref = world.embeddings.row_index(triplet.reference_id)
    tgt = world.embeddings.row_index(triplet.target_id)
    delta = (world.item_attrs[tgt] - world.item_attrs[ref]).astype(np.float64)
    return world.embeddings.values[ref].astype(np.float64) + delta @ world.attr_basis


@dataclass
class _NLIPair:
    """One JSONL line of premise/positive text pairs."""

    premise: str
    positive: str

    def __post_init__(self):
        check_field_types(self, DatasetError)


def load_nli_pairs(path) -> list[tuple[str, str]]:
    """Load premise/positive text pairs from JSONL."""
    return [(r.premise, r.positive) for r in _load_jsonl(path, "nli pair", _NLIPair)]


def write_nli_pairs(pairs, path) -> None:
    write_jsonl([asdict(_NLIPair(a, b)) for a, b in pairs], path)


def save_world(world: SynthWorld, out_dir) -> dict[str, str]:
    """Write a world's embeddings, triplets, and text pairs under out_dir.

    Returns the paths the CLI needs: the embeddings manifest, the triplet
    JSONL, and the text-pair JSONL.
    """
    out = Path(out_dir)
    emb_dir = out / "embeddings"
    save_embeddings(world.embeddings, emb_dir)
    triplet_path = out / "triplets.jsonl"
    write_triplets(world.triplets, triplet_path)
    nli_path = out / "nli_pairs.jsonl"
    write_nli_pairs(world.nli_pairs, nli_path)
    return {
        "embeddings": str(emb_dir / MANIFEST_FILENAME),
        "triplets": str(triplet_path),
        "nli_pairs": str(nli_path),
    }
