"""Embedding store: file format roundtrips, validation errors, normalization."""

import hashlib
import json
import os

import numpy as np
import pytest

from cirlite.store import (
    ChecksumMismatchError,
    CountMismatchError,
    DuplicateIdError,
    EmbeddingMatrix,
    ManifestError,
    NonFiniteValueError,
    UnknownIdError,
    ZeroVectorError,
    l2_normalize,
    load_embeddings,
    lookup,
    save_embeddings,
    write_atomic,
)


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
    with pytest.raises(Exception, match="invalid item id"):
        EmbeddingMatrix(ids=["a\nb"], values=np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# save / load roundtrips
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_bitwise(tmp_path):
    for seed in range(5):
        matrix = random_matrix(seed, count=10, dims=8)
        manifest = save_embeddings(matrix, tmp_path / f"m{seed}")
        loaded = load_embeddings(tmp_path / f"m{seed}" / "manifest.json")
        assert loaded.ids == matrix.ids
        assert loaded.values.tobytes() == matrix.values.tobytes()
        assert manifest.count == 10 and manifest.dims == 8


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


def test_unsupported_dtype_tag(tmp_path):
    save_embeddings(random_matrix(0, count=2, dims=2), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["dtype"] = "f64le"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="dtype"):
        load_embeddings(tmp_path / "manifest.json")


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
# lookup
# ---------------------------------------------------------------------------

def test_lookup_known_id():
    matrix = random_matrix(3, count=5, dims=4)
    np.testing.assert_array_equal(lookup(matrix, "item002"), matrix.values[2])


def test_lookup_unknown_id():
    with pytest.raises(UnknownIdError):
        lookup(random_matrix(3, count=5, dims=4), "nope")


def test_lookup_survives_roundtrip(tmp_path):
    matrix = random_matrix(4, count=5, dims=4)
    save_embeddings(matrix, tmp_path)
    loaded = load_embeddings(tmp_path / "manifest.json")
    np.testing.assert_array_equal(lookup(loaded, "item003"), lookup(matrix, "item003"))


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
