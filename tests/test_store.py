"""Embedding store: file format roundtrips, validation errors, normalization."""

import dataclasses
import hashlib
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from cirlite.data import (
    CoTAnnotation,
    Triplet,
    write_annotations,
    write_nli_pairs,
    write_triplets,
)
from cirlite.retrieval import RankedList, write_ranked_results
from cirlite.store import (
    ChecksumMismatchError,
    CountMismatchError,
    DuplicateIdError,
    _IS_TYPE,
    EmbeddingMatrix,
    Manifest,
    ManifestError,
    NonFiniteValueError,
    StoreError,
    UnknownIdError,
    ZeroVectorError,
    l2_normalize,
    load_embeddings,
    parse_json,
    read_record,
    save_embeddings,
    write_atomic,
)
from cirlite.trainer import write_loss_log


def random_matrix(seed, count, dims):
    rng = np.random.default_rng(seed)
    ids = [f"item{i:03d}" for i in range(count)]
    return EmbeddingMatrix(ids=ids, values=rng.standard_normal((count, dims)))


# ---------------------------------------------------------------------------
# EmbeddingMatrix invariants
# ---------------------------------------------------------------------------

def test_matrix_validates_duplicate_ids():
    with pytest.raises(DuplicateIdError, match="dup"):
        EmbeddingMatrix(ids=["a", "dup", "dup"], values=np.zeros((3, 2)))


def test_matrix_validates_count():
    with pytest.raises(CountMismatchError):
        EmbeddingMatrix(ids=["a", "b"], values=np.zeros((3, 2)))


def test_matrix_rejects_nan():
    values = np.zeros((2, 2))
    values[1, 1] = np.nan
    with pytest.raises(NonFiniteValueError):
        EmbeddingMatrix(ids=["a", "b"], values=values)


def test_matrix_rejects_newline_ids():
    # Every line break of str.splitlines, with which the ids file is read.
    for item_id in ["a\nb", "a\rb", "a\r\nb", "ab\n", "", "a\x85b", "a\u2028b",
                    "a\u2029b", "a\vb", "a\fb", "a\x1cb", "a\x1db", "a\x1eb"]:
        with pytest.raises(StoreError, match="invalid item id"):
            EmbeddingMatrix(ids=["ok", item_id], values=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# save / load roundtrips
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_bitwise(tmp_path):
    for seed in range(5):
        matrix = random_matrix(seed, count=10, dims=8)
        if seed % 2:  # ids with spaces, tabs and non-ASCII text
            rng = random.Random(seed)
            ids = [f"{i} " + "".join(rng.choices(" a\té漢😀", k=rng.randint(0, 6)))
                   for i in range(10)]
            matrix = EmbeddingMatrix(ids=ids, values=matrix.values)
        manifest = save_embeddings(matrix, tmp_path / f"m{seed}")
        loaded = load_embeddings(tmp_path / f"m{seed}" / "manifest.json")
        assert loaded.ids == matrix.ids
        assert loaded.values.tobytes() == matrix.values.tobytes()
        assert manifest.count == 10 and manifest.dims == 8
        doc = json.loads((tmp_path / f"m{seed}" / "manifest.json").read_text())
        assert read_record(Manifest, doc, ManifestError, "manifest") == manifest


def test_simple_manifest_loads(tmp_path):
    matrix = random_matrix(0, count=3, dims=4)
    save_embeddings(matrix, tmp_path)
    loaded = load_embeddings(tmp_path / "manifest.json")
    assert loaded.count == 3 and len(loaded.ids) == 3


def test_empty_matrix_roundtrip(tmp_path):
    matrix = EmbeddingMatrix(ids=[], values=np.zeros((0, 4), dtype=np.float32))
    save_embeddings(matrix, tmp_path)
    loaded = load_embeddings(tmp_path / "manifest.json")
    assert loaded.count == 0 and loaded.dims == 4


def test_two_saves_identical_checksums(tmp_path):
    matrix = random_matrix(1, count=6, dims=5)
    m1 = save_embeddings(matrix, tmp_path / "a")
    m2 = save_embeddings(matrix, tmp_path / "b")
    assert m1.checksum == m2.checksum


def test_load_is_idempotent(tmp_path):
    matrix = random_matrix(2, count=4, dims=3)
    save_embeddings(matrix, tmp_path)
    first = load_embeddings(tmp_path / "manifest.json")
    second = load_embeddings(tmp_path / "manifest.json")
    assert first.ids == second.ids
    assert first.values.tobytes() == second.values.tobytes()


# ---------------------------------------------------------------------------
# Distinct load errors
# ---------------------------------------------------------------------------

def test_missing_manifest():
    with pytest.raises(ManifestError, match="not found"):
        load_embeddings("/nonexistent/manifest.json")


def test_count_mismatch_with_ids_file(tmp_path):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["count"] = 4
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CountMismatchError, match="ids file has 3 lines"):
        load_embeddings(tmp_path / "manifest.json")


def test_checksum_mismatch(tmp_path):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    raw = bytearray((tmp_path / "embeddings.f32").read_bytes())
    raw[0] ^= 0xFF
    (tmp_path / "embeddings.f32").write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatchError):
        load_embeddings(tmp_path / "manifest.json")


def test_truncated_values_file(tmp_path):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    raw = (tmp_path / "embeddings.f32").read_bytes()[:-4]
    (tmp_path / "embeddings.f32").write_bytes(raw)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["checksum"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CountMismatchError, match="bytes"):
        load_embeddings(tmp_path / "manifest.json")


def test_non_finite_payload(tmp_path):
    save_embeddings(random_matrix(0, count=2, dims=2), tmp_path)
    values = np.array([[1.0, np.inf], [0.0, 1.0]], dtype="<f4")
    raw = values.tobytes()
    (tmp_path / "embeddings.f32").write_bytes(raw)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["checksum"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(NonFiniteValueError):
        load_embeddings(tmp_path / "manifest.json")


@pytest.mark.parametrize("key, value", [
    ("dims", "abc"),
    ("dims", 4.0),
    ("dims", True),
    ("count", None),
    ("count", "3"),
    ("values_file", 5),
    ("ids_file", None),
    ("checksum", ["sha256:"]),
    ("note", "an unknown field"),
])
def test_manifest_field_of_wrong_type(tmp_path, key, value):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=f"manifest {tmp_path}"):
        load_embeddings(tmp_path / "manifest.json")


def test_unsupported_dtype_tag(tmp_path):
    save_embeddings(random_matrix(0, count=2, dims=2), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["dtype"] = "f64le"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="dtype"):
        load_embeddings(tmp_path / "manifest.json")


def test_ids_file_not_utf8(tmp_path):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    (tmp_path / "ids.txt").write_bytes(b"item000\nitem\xff01\nitem002\n")
    with pytest.raises(ManifestError, match="not UTF-8"):
        load_embeddings(tmp_path / "manifest.json")


def test_manifest_keys_in_format_order(tmp_path):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    assert list(json.loads((tmp_path / "manifest.json").read_text())) == [
        "dims", "count", "dtype", "values_file", "ids_file", "checksum"]


# ---------------------------------------------------------------------------
# The JSON reader
# ---------------------------------------------------------------------------

class _ReaderError(StoreError):
    pass


@dataclasses.dataclass
class _Pair:
    name: str
    size: int = 1

    def __post_init__(self):
        if self.size < 0:
            raise _ReaderError("size must be >= 0")


def test_parse_json_accepts_bytes_and_text():
    assert parse_json(b'{"a": [1, "\xc3\xa9"]}', _ReaderError, "doc") == {"a": [1, "\u00e9"]}
    assert parse_json('{"a": 1}', _ReaderError, "doc") == {"a": 1}


@pytest.mark.parametrize("raw", [b"\xff", b'"\xc3"', "{", "[1,]", "1" * 5001, "[" * 100_000])
def test_parse_json_failures_raise_the_given_error(raw):
    with pytest.raises(_ReaderError, match="^doc is malformed JSON: "):
        parse_json(raw, _ReaderError, "doc")


def test_every_field_read_by_read_record_is_type_checked():
    from cirlite.cli import RunConfig
    from cirlite.data import _NLIPair
    from cirlite.metrics import EvalReport
    from cirlite.trainer import _CheckpointHeader

    for cls in (Manifest, _CheckpointHeader, RunConfig, EvalReport, Triplet, CoTAnnotation,
                _NLIPair):
        for f in dataclasses.fields(cls):
            assert f.type.removesuffix(" | None") in _IS_TYPE, (cls.__name__, f.name, f.type)


def test_read_record_builds_the_class():
    assert read_record(_Pair, {"name": "a"}, _ReaderError, "f:1") == _Pair("a")
    assert read_record(_Pair, {"name": "a", "size": 3}, _ReaderError, "f:1") == _Pair("a", 3)


@pytest.mark.parametrize("doc, message", [
    ([1], "f:1: not a JSON object"),
    ("x", "f:1: not a JSON object"),
    ({"name": "a", "colour": 1, "age": 2}, "f:1: unknown field 'age', 'colour'"),
    ({"size": 2}, "f:1: missing field 'name'"),
    ({"name": "a", "size": -1}, "f:1: size must be >= 0"),
])
def test_read_record_failures_name_where(doc, message):
    with pytest.raises(_ReaderError, match=f"^{message}$"):
        read_record(_Pair, doc, _ReaderError, "f:1")


# ---------------------------------------------------------------------------
# l2_normalize
# ---------------------------------------------------------------------------

def test_normalize_345_triangle():
    np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)


def test_normalize_unit_vector_identity():
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(l2_normalize(v), v, atol=1e-6)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        l2_normalize([0.0, 0.0])


def test_normalize_empty_rejected():
    with pytest.raises(ZeroVectorError):
        l2_normalize([])


def test_normalize_norm_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 20)))
        if np.linalg.norm(v) == 0:
            continue
        assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) <= 1e-6


def test_normalize_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.standard_normal(6) + 0.1
        c = float(rng.uniform(1e-3, 1e3))
        np.testing.assert_allclose(l2_normalize(c * v), l2_normalize(v), atol=1e-6)


def test_cosine_matches_textbook_formula():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        via_normalized = float(l2_normalize(a) @ l2_normalize(b))
        textbook = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(via_normalized - textbook) <= 1e-6


# ---------------------------------------------------------------------------
# row_index
# ---------------------------------------------------------------------------

def test_row_index_known_id():
    matrix = random_matrix(3, count=5, dims=4)
    assert matrix.row_index("item002") == 2


def test_row_index_unknown_id():
    with pytest.raises(UnknownIdError):
        random_matrix(3, count=5, dims=4).row_index("nope")


def test_row_index_survives_roundtrip(tmp_path):
    matrix = random_matrix(4, count=5, dims=4)
    save_embeddings(matrix, tmp_path)
    loaded = load_embeddings(tmp_path / "manifest.json")
    assert loaded.row_index("item003") == matrix.row_index("item003") == 3
    np.testing.assert_array_equal(loaded.values[3], matrix.values[3])


# ---------------------------------------------------------------------------
# write_atomic
# ---------------------------------------------------------------------------

def test_write_atomic_follows_symlink_and_keeps_mode(tmp_path):
    real = tmp_path / "real.json"
    real.write_bytes(b"old")
    os.chmod(real, 0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_atomic(link, b"new")
    assert link.is_symlink()
    assert real.read_bytes() == b"new"
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_write_atomic_creates_missing_file(tmp_path):
    write_atomic(tmp_path / "out.bin", b"\x00\x01")
    assert (tmp_path / "out.bin").read_bytes() == b"\x00\x01"
    assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]


# ---------------------------------------------------------------------------
# Every pipeline writer: atomic, and its bytes pinned
# ---------------------------------------------------------------------------

def _write_triplets(out, n):
    write_triplets([
        Triplet(f"p{n}", "a", "addred", "b", subset_ids=["b", "c"], gt_ids=["b"],
                reference_descriptor="item with blue", target_descriptor="item with red"),
        Triplet("p1", "c", "dropblue \u00e9", "a"),
    ], out / "t.jsonl")


def _write_annotations(out, n):
    write_annotations([
        CoTAnnotation(f"p{n}", "cap", ["s1", "s2"], "conc", [5, 4], True),
        CoTAnnotation("p1", "c", [], "x"),
    ], out / "a.jsonl")


def _write_nli_pairs(out, n):
    write_nli_pairs([("a red item", "red item"), ("x", "y" * (n + 1))], out / "n.jsonl")


def _write_loss_log(out, n):
    write_loss_log([{"step": n, "l_txt": 1.5, "combined": 0.25, "epoch": 0},
                    {"step": 1, "l_txt": 1.0, "combined": 0.1, "epoch": 0}], out / "l.jsonl")


def _write_ranked_results(out, n):
    write_ranked_results(["p0", "p1"], [RankedList(["b", "a"], [0.5, -0.25 * (n + 1)]),
                                        RankedList(["a", "c"], [1.0, 0.125])], out / "r.jsonl")


def _save_embeddings(out, n):
    values = np.arange(6, dtype=np.float32).reshape(3, 2) / 4 + n
    save_embeddings(EmbeddingMatrix(["x", "y", "z"], values), out / "emb")


# Each writer's output for n = 0, with sha256 digests of the bytes the
# per-writer open(path, "w") loops produced before write_jsonl replaced them.
WRITERS = {
    "triplets": (_write_triplets, {
        "t.jsonl": "c4c1df32866b57037d894bf6a2d9a314b1b59bb373d88cae1944cf4940083da8"}),
    "annotations": (_write_annotations, {
        "a.jsonl": "cc25f6148a5734112ba2ef9ef304a1eb09177fc0daea6654c6846ff427ee6751"}),
    "nli_pairs": (_write_nli_pairs, {
        "n.jsonl": "f79ce085a6d9705948771749f4dd2516ce2bfd902df9c4b45409ec135a35c886"}),
    "loss_log": (_write_loss_log, {
        "l.jsonl": "958fec3342e8adb510171ce8e806c9e0a19a8e7d1aec3cf245aba5cbfbe5f226"}),
    "ranked_results": (_write_ranked_results, {
        "r.jsonl": "2d3c5f2dbbab21e853db55ead51ccc8b548fb402ac04e1974aed2c21d7daa366"}),
    "embeddings": (_save_embeddings, {
        "emb/embeddings.f32": "b1290cd43eac8e2fa4ad8d45d9f79f8868fc8a6e08c627c33557814743ffdf3e",
        "emb/ids.txt": "81884b5f2cb68edc6286363dcc4699a913a2d5ba05818d0fdc43ba68bb990bd8",
        "emb/manifest.json": "0e73acc1476d2f3a36c63dbc699366b2f51a1092074e43414c1c730a5f5b7112"}),
}


def _tree(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_bytes_match_golden_hash(tmp_path, name):
    write, digests = WRITERS[name]
    write(tmp_path, 0)
    assert {path: hashlib.sha256(raw).hexdigest()
            for path, raw in _tree(tmp_path).items()} == digests


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_failed_replace_keeps_every_earlier_file(tmp_path, monkeypatch, name):
    write, _ = WRITERS[name]
    write(tmp_path, 0)
    before = _tree(tmp_path)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises((OSError, StoreError), match="disk full"):
        write(tmp_path, 1)
    assert _tree(tmp_path) == before
    monkeypatch.undo()
    write(tmp_path, 1)
    assert _tree(tmp_path) != before


def test_embeddings_failed_manifest_write_fails_checksum(tmp_path, monkeypatch):
    save_embeddings(random_matrix(0, count=3, dims=4), tmp_path)
    real_replace = os.replace

    def replace_all_but_manifest(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr("os.replace", replace_all_but_manifest)
    with pytest.raises(StoreError, match="disk full"):
        save_embeddings(random_matrix(1, count=3, dims=4), tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "embeddings.f32", "ids.txt", "manifest.json"]
    with pytest.raises(ChecksumMismatchError):
        load_embeddings(tmp_path / "manifest.json")
