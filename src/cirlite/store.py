"""Embedding matrices stored as raw float32 binaries with a JSON manifest.

The on-disk layout is deliberately dumb: a little-endian float32 row-major
blob, a UTF-8 ids file with one id per line, and a JSON manifest tying them
together with a checksum. Dumb formats are easy to verify bit for bit and
to produce from any language.

Manifest fields: ``dims``, ``count``, ``dtype`` (always ``"f32le"``),
``values_file``, ``ids_file``, ``checksum`` (``"sha256:<hex>"`` over the raw
values file). File paths are relative to the manifest's directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CirliteError

DTYPE_TAG = "f32le"

VALUES_FILENAME = "embeddings.f32"
IDS_FILENAME = "ids.txt"
MANIFEST_FILENAME = "manifest.json"

_MANIFEST_KEYS = ("dims", "count", "dtype", "values_file", "ids_file", "checksum")


class StoreError(CirliteError):
    """Base for embedding-store failures."""


class ManifestError(StoreError):
    """Manifest or data file missing, unreadable, or malformed."""


class ChecksumMismatchError(StoreError):
    """Binary payload does not match the manifest checksum."""


class CountMismatchError(StoreError):
    """Manifest count disagrees with the ids file or the binary size."""


class NonFiniteValueError(StoreError):
    """Embedding payload contains NaN or Inf."""


class DuplicateIdError(StoreError):
    """Item ids are not pairwise distinct."""


class UnknownIdError(StoreError):
    """Requested item id is not present in the matrix."""


class ZeroVectorError(StoreError):
    """A zero (or empty) vector where a direction is required."""


@dataclass(frozen=True)
class Manifest:
    """Sidecar metadata for one stored embedding matrix."""

    dims: int
    count: int
    dtype: str
    values_file: str
    ids_file: str
    checksum: str

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _MANIFEST_KEYS}


@dataclass
class EmbeddingMatrix:
    """Row-major float32 item embeddings with a parallel unique id list.

    Immutable by convention after construction; loaders hand out copies of
    rows so shared matrices are safe across concurrent readers.
    """

    ids: list[str]
    values: np.ndarray
    _row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        if values.ndim != 2:
            raise StoreError(f"values must be a 2-d array, got shape {values.shape}")
        if values.shape[1] < 1:
            raise StoreError("embedding dimensionality must be at least 1")
        if len(self.ids) != values.shape[0]:
            raise CountMismatchError(
                f"{len(self.ids)} ids for {values.shape[0]} embedding rows"
            )
        for item_id in self.ids:
            if not item_id or "\n" in item_id or "\r" in item_id:
                raise StoreError(f"invalid item id: {item_id!r}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValueError("embedding values contain NaN or Inf")
        row_of: dict[str, int] = {}
        for i, item_id in enumerate(self.ids):
            if item_id in row_of:
                raise DuplicateIdError(f"duplicate item id: {item_id!r}")
            row_of[item_id] = i
        self.values = values
        self._row_of = row_of

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def row_index(self, item_id: str) -> int:
        try:
            return self._row_of[item_id]
        except KeyError:
            raise UnknownIdError(f"unknown item id: {item_id!r}") from None


def lookup(matrix: EmbeddingMatrix, item_id: str) -> np.ndarray:
    """Return a copy of the embedding row for ``item_id``."""
    return matrix.values[matrix.row_index(item_id)].copy()


def l2_normalize(v) -> np.ndarray:
    """Scale a nonzero vector, or each row of a matrix, to unit L2 norm
    (float64 result).

    Cosine similarity throughout the package is the dot product of vectors
    normalized by this function.
    """
    vec = np.asarray(v, dtype=np.float64)
    if vec.ndim not in (1, 2) or vec.shape[-1] == 0:
        raise ZeroVectorError("expected a non-empty 1-d vector or 2-d row block")
    norms = np.sqrt(np.vecdot(vec, vec))[..., None]
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ZeroVectorError("cannot normalize a zero or non-finite vector")
    return vec / norms


def _checksum(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def save_embeddings(matrix: EmbeddingMatrix, out_dir) -> Manifest:
    """Write the matrix to ``out_dir`` and return its manifest.

    Deterministic: saving the same matrix twice produces identical bytes
    and therefore identical checksums.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        raw = np.ascontiguousarray(matrix.values, dtype="<f4").tobytes()
        (out / VALUES_FILENAME).write_bytes(raw)
        ids_text = "".join(item_id + "\n" for item_id in matrix.ids)
        (out / IDS_FILENAME).write_text(ids_text, encoding="utf-8")
        manifest = Manifest(
            dims=matrix.dims,
            count=matrix.count,
            dtype=DTYPE_TAG,
            values_file=VALUES_FILENAME,
            ids_file=IDS_FILENAME,
            checksum=_checksum(raw),
        )
        (out / MANIFEST_FILENAME).write_text(
            json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise StoreError(f"cannot write embeddings to {out}: {exc}") from exc
    return manifest


def load_embeddings(manifest_path) -> EmbeddingMatrix:
    """Load and validate a stored embedding matrix.

    Raises a distinct error per failure mode: ManifestError for missing or
    malformed files, ChecksumMismatchError for corrupted payloads,
    CountMismatchError for count disagreements, NonFiniteValueError for
    NaN/Inf values, DuplicateIdError for repeated ids.
    """
    path = Path(manifest_path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    missing = [key for key in _MANIFEST_KEYS if key not in payload]
    if missing:
        raise ManifestError(f"manifest {path} missing fields: {missing}")
    if payload["dtype"] != DTYPE_TAG:
        raise ManifestError(
            f"unsupported dtype tag {payload['dtype']!r}; only {DTYPE_TAG!r} is supported"
        )
    dims, count = int(payload["dims"]), int(payload["count"])
    if dims < 1 or count < 0:
        raise ManifestError(f"manifest {path} has invalid dims/count: {dims}/{count}")

    values_path = path.parent / payload["values_file"]
    ids_path = path.parent / payload["ids_file"]
    if not values_path.is_file():
        raise ManifestError(f"values file not found: {values_path}")
    if not ids_path.is_file():
        raise ManifestError(f"ids file not found: {ids_path}")

    raw = values_path.read_bytes()
    if _checksum(raw) != payload["checksum"]:
        raise ChecksumMismatchError(
            f"checksum mismatch for {values_path}: expected {payload['checksum']}"
        )
    ids = ids_path.read_text(encoding="utf-8").splitlines()
    if len(ids) != count:
        raise CountMismatchError(
            f"manifest count={count} but ids file has {len(ids)} lines"
        )
    if len(raw) != 4 * count * dims:
        raise CountMismatchError(
            f"values file holds {len(raw)} bytes, expected {4 * count * dims} "
            f"for {count}x{dims} float32"
        )
    values = np.frombuffer(raw, dtype="<f4").reshape(count, dims).copy()
    if not np.all(np.isfinite(values)):
        raise NonFiniteValueError(f"values file {values_path} contains NaN or Inf")
    return EmbeddingMatrix(ids=ids, values=values)
