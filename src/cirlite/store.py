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

import functools
import hashlib
import json
import os
import secrets
import stat
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CirliteError

DTYPE_TAG = "f32le"

VALUES_FILENAME = "embeddings.f32"
IDS_FILENAME = "ids.txt"
MANIFEST_FILENAME = "manifest.json"


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

    def __post_init__(self):
        check_field_types(self, ManifestError)
        if self.dtype != DTYPE_TAG:
            raise ManifestError(
                f"unsupported dtype tag {self.dtype!r}; only {DTYPE_TAG!r} is supported")
        if self.dims < 1 or self.count < 0:
            raise ManifestError(f"invalid dims/count: {self.dims}/{self.count}")


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
            # The ids file is read back with str.splitlines.
            if item_id.splitlines() != [item_id]:
                raise StoreError(f"invalid item id: {item_id!r}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValueError("embedding values contain NaN or Inf")
        self._row_of = row_map(self.ids)
        self.values = values

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


def row_map(ids) -> dict[str, int]:
    """id -> row of distinct ids; the first repeated id raises DuplicateIdError."""
    row_of: dict[str, int] = {}
    for i, item_id in enumerate(ids):
        if row_of.setdefault(item_id, i) != i:
            raise DuplicateIdError(f"duplicate item id: {item_id!r}")
    return row_of


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


def write_atomic(path, data: bytes) -> None:
    """Write data to path so that path holds either its previous contents or
    all of data, never a part: the bytes go to a temp file in the same
    directory, are flushed to disk, then os.replace moves them into place.
    A symlink at path is followed, and an existing file keeps its
    permissions. On failure the temp file is removed and the error
    propagates."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(records, path) -> None:
    """Write records as JSONL, one json.dumps object per line, atomically."""
    write_atomic(path, "".join(json.dumps(r) + "\n" for r in records).encode("utf-8"))


def parse_json(raw, error: type[CirliteError], where: str):
    """Decode one JSON document from UTF-8 bytes or from text. Bad UTF-8,
    bad JSON, an integer past Python's digit limit and nesting past the
    recursion limit raise error."""
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:  # ValueError covers the first three
        raise error(f"{where} is malformed JSON: {exc}") from exc


@functools.cache
def _field_names(cls) -> tuple[frozenset, frozenset]:
    """All field names of the dataclass cls, and those without a default."""
    all_fields = fields(cls)
    return (frozenset(f.name for f in all_fields),
            frozenset(f.name for f in all_fields
                      if f.default is MISSING and f.default_factory is MISSING))


def read_record(cls, doc, error: type[CirliteError], where: str):
    """Build the dataclass cls from a decoded JSON document, which must be
    an object naming every required field of cls and no other. The class
    checks its own values; every error is error, prefixed by where."""
    if not isinstance(doc, dict):
        raise error(f"{where}: not a JSON object")
    names, required = _field_names(cls)
    unknown = doc.keys() - names
    if unknown:
        raise error(f"{where}: unknown field {', '.join(map(repr, sorted(unknown)))}")
    missing = required - doc.keys()
    if missing:
        raise error(f"{where}: missing field {', '.join(map(repr, sorted(missing)))}")
    try:
        return cls(**doc)
    except error as exc:
        raise error(f"{where}: {exc}") from exc


# Value checks for dataclass fields by annotation; the annotations are
# strings under the __future__ import. Every field of a record read through
# read_record has an entry. A bool is not an int, and an int is a float.
_IS_TYPE = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "list[str]": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "list[int]": lambda v: isinstance(v, list) and all(_IS_TYPE["int"](s) for s in v),
    "dict[int, float]": lambda v: isinstance(v, dict) and all(
        _IS_TYPE["int"](k) and _IS_TYPE["float"](x) for k, x in v.items()),
}


def check_field_types(record, error: type[CirliteError], where: str = "") -> None:
    """Raise error, prefixed by where if given, unless each checked field of
    the dataclass record holds its annotated type (None only for `| None`)."""
    for f in fields(record):
        value = getattr(record, f.name)
        optional = f.type.endswith(" | None")
        check = _IS_TYPE.get(f.type.removesuffix(" | None"))
        if check and not (optional and value is None) and not check(value):
            prefix = f"{where}: " if where else ""
            raise error(f"{prefix}{f.name} must be {f.type}, got {value!r}")


def save_embeddings(matrix: EmbeddingMatrix, out_dir) -> Manifest:
    """Write the matrix to ``out_dir`` and return its manifest.

    Deterministic: saving the same matrix twice produces identical bytes
    and therefore identical checksums. Blob, ids and manifest are each
    written atomically, in that order, so a failure part-way leaves the old
    manifest, which fails its checksum or count check against the new data.
    """
    out = Path(out_dir)
    raw = np.ascontiguousarray(matrix.values, dtype="<f4").tobytes()
    manifest = Manifest(
        dims=matrix.dims,
        count=matrix.count,
        dtype=DTYPE_TAG,
        values_file=VALUES_FILENAME,
        ids_file=IDS_FILENAME,
        checksum=_checksum(raw),
    )
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / VALUES_FILENAME, raw)
        write_atomic(out / IDS_FILENAME,
                     "".join(item_id + "\n" for item_id in matrix.ids).encode("utf-8"))
        write_atomic(out / MANIFEST_FILENAME,
                     (json.dumps(asdict(manifest), indent=2) + "\n").encode("utf-8"))
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
        raw = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    where = f"manifest {path}"
    manifest = read_record(Manifest, parse_json(raw, ManifestError, where), ManifestError, where)
    count, dims = manifest.count, manifest.dims

    values_path = path.parent / manifest.values_file
    ids_path = path.parent / manifest.ids_file
    if not values_path.is_file():
        raise ManifestError(f"values file not found: {values_path}")
    if not ids_path.is_file():
        raise ManifestError(f"ids file not found: {ids_path}")

    raw = values_path.read_bytes()
    if _checksum(raw) != manifest.checksum:
        raise ChecksumMismatchError(
            f"checksum mismatch for {values_path}: expected {manifest.checksum}"
        )
    try:
        ids = ids_path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"ids file {ids_path} is not UTF-8: {exc}") from exc
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
