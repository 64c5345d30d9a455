"""Dataset layer: triplet io, tokenization, batching, synthetic worlds."""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from cirlite.data import (
    CoTAnnotation,
    DatasetError,
    SynthWorld,
    Triplet,
    batch_iter,
    generate_synthetic_world,
    load_annotations,
    load_nli_pairs,
    load_triplets,
    oracle_query_vector,
    query_inputs,
    save_world,
    tokenize,
    write_annotations,
    write_nli_pairs,
    write_triplets,
)
from cirlite.retrieval import build_index, rank_of
from cirlite.store import EmbeddingMatrix, UnknownIdError, load_embeddings


def make_triplet(**overrides):
    base = dict(
        pair_id="p0", reference_id="a", modification_text="addred", target_id="b"
    )
    base.update(overrides)
    return Triplet(**base)


# ---------------------------------------------------------------------------
# Triplet invariants and JSONL io
# ---------------------------------------------------------------------------

def test_reference_equals_target_rejected():
    with pytest.raises(DatasetError, match="reference_id equals target_id"):
        make_triplet(target_id="a")


def test_subset_must_contain_target():
    with pytest.raises(DatasetError, match="subset_ids"):
        make_triplet(subset_ids=["a", "c"])


def test_subset_ids_distinct():
    with pytest.raises(DatasetError, match="duplicate"):
        make_triplet(subset_ids=["b", "b"])


def test_gt_must_contain_target():
    with pytest.raises(DatasetError, match="gt_ids"):
        make_triplet(gt_ids=["c"])


def test_load_valid_two_line_file(tmp_path):
    path = tmp_path / "t.jsonl"
    write_triplets([make_triplet(), make_triplet(pair_id="p1", target_id="c")], path)
    loaded = load_triplets(path)
    assert [t.pair_id for t in loaded] == ["p0", "p1"]


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    good = '{"pair_id": "p0", "reference_id": "a", "modification_text": "m", "target_id": "b"}'
    bad = '{"pair_id": "p1", "reference_id": "a", "modification_text": "m", "target_id": "a"}'
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(DatasetError, match=":2:"):
        load_triplets(path)


def test_load_rejects_repeated_pair_id_naming_both_lines(tmp_path):
    # Training joins annotations to triplets by pair_id: a repeated one would
    # join an annotation to another triplet's images.
    path = tmp_path / "t.jsonl"
    write_triplets([make_triplet(), make_triplet(pair_id="p1"),
                    make_triplet(target_id="c")], path)
    with pytest.raises(DatasetError, match=f"{path}:3: pair_id 'p0' repeats line 1"):
        load_triplets(path)


def test_world_rejects_repeated_pair_id():
    matrix = EmbeddingMatrix(ids=["a", "b", "c"], values=np.eye(3, dtype=np.float32))
    with pytest.raises(DatasetError, match="pair_id 'p0' names two triplets"):
        SynthWorld(matrix, [make_triplet(), make_triplet(target_id="c")], [])


def test_load_annotations_keeps_repeated_pair_id(tmp_path):
    # Several rationales for one triplet: each joins that triplet.
    path = tmp_path / "a.jsonl"
    annotations = [CoTAnnotation("p0", "cap", ["s"], f"conc {i}") for i in range(2)]
    write_annotations(annotations, path)
    assert load_annotations(path) == annotations


def test_load_reports_malformed_json_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"pair_id": "p0"\n')
    with pytest.raises(DatasetError, match=":1:.*malformed JSON"):
        load_triplets(path)


# Text for seeded random records: spaces, JSON escapes, non-ASCII and
# astral characters.
_CHARS = 'aZ9 \t"\\éß漢字😀'
_IDS = ["item 1", "ïtem 2", "項目 3", "😀 4", "x"]


def random_text(rng: random.Random) -> str:
    return "".join(rng.choices(_CHARS, k=rng.randint(0, 8)))


def random_triplet(rng: random.Random, i: int) -> Triplet:
    ref, tgt, *rest = rng.sample(_IDS, len(_IDS))
    return Triplet(
        f"p {i} ü", ref, random_text(rng), tgt,
        subset_ids=rng.choice([None, [tgt, *rest[:rng.randint(0, len(rest))]]]),
        gt_ids=rng.choice([None, [*rest[:rng.randint(0, 1)], tgt]]),
        reference_descriptor=rng.choice([None, random_text(rng)]),
        target_descriptor=rng.choice([None, random_text(rng)]),
    )


def random_annotation(rng: random.Random, i: int) -> CoTAnnotation:
    accepted = rng.random() < 0.5
    return CoTAnnotation(
        f"p {i} ü", "cap " + random_text(rng),
        [random_text(rng) for _ in range(rng.randint(1 if accepted else 0, 3))],
        "conc " + random_text(rng), [rng.randint(1, 5) for _ in range(rng.randint(0, 3))],
        accepted,
    )


def test_triplet_roundtrip(tmp_path):
    rng = random.Random(0)
    triplets = [
        make_triplet(subset_ids=["b", "c", "d"], gt_ids=["b", "e"],
                     reference_descriptor="item with red",
                     target_descriptor="item with blue"),
        make_triplet(pair_id="p1"),
        *(random_triplet(rng, i) for i in range(40)),
    ]
    path = tmp_path / "t.jsonl"
    write_triplets(triplets, path)
    assert load_triplets(path) == triplets


def test_annotation_roundtrip(tmp_path):
    rng = random.Random(1)
    annotations = [
        CoTAnnotation("p0", "cap", ["s1", "s2"], "conc", [5, 4, 5], True),
        CoTAnnotation("p1", "", [], "conc", [1, 1, 1], False),
        *(random_annotation(rng, i) for i in range(40)),
    ]
    path = tmp_path / "a.jsonl"
    write_annotations(annotations, path)
    assert load_annotations(path) == annotations


def test_nli_pairs_roundtrip(tmp_path):
    rng = random.Random(2)
    pairs = [(random_text(rng), random_text(rng)) for _ in range(40)]
    write_nli_pairs(pairs, tmp_path / "n.jsonl")
    assert load_nli_pairs(tmp_path / "n.jsonl") == pairs


def test_accepted_annotation_needs_content():
    with pytest.raises(DatasetError, match="empty"):
        CoTAnnotation("p0", "", ["s"], "conc", [5], True)
    with pytest.raises(DatasetError, match="reasoning"):
        CoTAnnotation("p0", "cap", [], "conc", [5], True)


def test_judge_scores_validated():
    with pytest.raises(DatasetError, match="outside 1..5"):
        CoTAnnotation("p0", "cap", ["s"], "conc", [6], False)


@pytest.mark.parametrize("field, value", [
    ("pair_id", None),
    ("reference_id", ["x"]),
    ("modification_text", 5),
    ("target_id", 7),
    ("subset_ids", "b"),
    ("subset_ids", ["b", 5]),
    ("gt_ids", {"b": 1}),
    ("reference_descriptor", 3),
    ("target_descriptor", ["item"]),
])
def test_triplet_field_types_checked(field, value):
    with pytest.raises(DatasetError, match=f"{field} must be"):
        make_triplet(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("pair_id", 0),
    ("caption", None),
    ("conclusion", None),
    ("reasoning_steps", "one step"),
    ("reasoning_steps", ["s", None]),
    ("accepted", 1),
    ("judge_scores", [5, True]),
    ("judge_scores", [4.0]),
])
def test_annotation_field_types_checked(field, value):
    fields = dict(pair_id="p0", caption="cap", reasoning_steps=["s"], conclusion="conc",
                  judge_scores=[5], accepted=True)
    fields[field] = value
    with pytest.raises(DatasetError, match=f"{field} must be"):
        CoTAnnotation(**fields)


def test_load_tags_field_type_error_with_line(tmp_path):
    path = tmp_path / "t.jsonl"
    good = '{"pair_id": "p0", "reference_id": "a", "modification_text": "m", "target_id": "b"}'
    bad = '{"pair_id": "p1", "reference_id": "a", "modification_text": 5, "target_id": "b"}'
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(DatasetError, match=":2: .*modification_text must be str"):
        load_triplets(path)


def test_load_nli_pairs_missing_field_names_line(tmp_path):
    path = tmp_path / "n.jsonl"
    path.write_text('{"premise": "a", "positive": "b"}\n{"premise": "c"}\n')
    with pytest.raises(DatasetError, match=":2: missing field 'positive'"):
        load_nli_pairs(path)


def test_load_nli_pairs_rejects_unknown_field(tmp_path):
    path = tmp_path / "n.jsonl"
    path.write_text('{"premise": "a", "positive": "b", "negative": "c"}\n')
    with pytest.raises(DatasetError, match=":1: unknown field 'negative'"):
        load_nli_pairs(path)


@pytest.mark.parametrize("line", [
    b'{"pair_id": "p\xff1", "reference_id": "a", "modification_text": "m", "target_id": "b"}',
    b'{"pair_id": 1' + b"0" * 5000 + b', "reference_id": "a"}',
])
def test_load_undecodable_line_names_line(tmp_path, line):
    path = tmp_path / "t.jsonl"
    good = b'{"pair_id": "p0", "reference_id": "a", "modification_text": "m", "target_id": "b"}'
    path.write_bytes(good + b"\n\n" + line + b"\n")
    with pytest.raises(DatasetError, match=":3: triplet is malformed JSON"):
        load_triplets(path)


def test_load_line_that_is_not_an_object_names_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('["p0", "cap"]\n')
    with pytest.raises(DatasetError, match=":1: not a JSON object"):
        load_annotations(path)


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_empty_text():
    assert tokenize("", 64) == []


def test_tokenize_deterministic():
    assert tokenize("a dog runs fast", 4096) == tokenize("a dog runs fast", 4096)


def test_tokenize_case_and_punctuation_folding():
    toks = tokenize("A dog. a DOG", 4096)
    assert len(toks) == 4
    assert toks[0] == toks[2] and toks[1] == toks[3]


def test_tokenize_matches_published_hash_rule():
    # Recompute the documented rule by hand for a few words.
    for word, vocab in [("dog", 4096), ("red", 64), ("sleeveless", 101)]:
        expected = 1 + int.from_bytes(
            hashlib.sha256(word.encode()).digest()[:8], "big"
        ) % (vocab - 1)
        assert tokenize(word, vocab) == [expected]


def test_tokenize_range_reserves_eos():
    toks = tokenize(" ".join(f"w{i}" for i in range(500)), 17)
    assert toks and all(1 <= t < 17 for t in toks)


def test_tokenize_vocab_too_small():
    with pytest.raises(DatasetError):
        tokenize("hello", 1)


# ---------------------------------------------------------------------------
# query_inputs
# ---------------------------------------------------------------------------

def test_query_inputs_rows_and_tokens():
    matrix = EmbeddingMatrix(ids=["a", "b", "c"], values=np.arange(6.0).reshape(3, 2) / 7)
    triplets = [Triplet("p0", "c", "addred dropblue", "a"), Triplet("p1", "a", "addtall", "b")]
    refs, toks = query_inputs(matrix, triplets, 64)
    assert refs.dtype == np.float64
    np.testing.assert_array_equal(refs, matrix.values[[2, 0]].astype(np.float64))
    assert toks == [tokenize("addred dropblue", 64), tokenize("addtall", 64)]
    assert query_inputs(matrix, triplets, 4096)[1][1] == tokenize("addtall", 4096)


def test_query_inputs_rejects_empty_modification_and_unknown_reference():
    matrix = EmbeddingMatrix(ids=["a", "b"], values=np.eye(2))
    with pytest.raises(DatasetError, match="pair 'p1': modification tokenizes to nothing"):
        query_inputs(matrix, [Triplet("p0", "a", "addred", "b"),
                              Triplet("p1", "a", " ,. ", "b")], 64)
    with pytest.raises(UnknownIdError, match="'ghost'"):
        query_inputs(matrix, [Triplet("p0", "ghost", "addred", "b")], 64)


# ---------------------------------------------------------------------------
# batch_iter
# ---------------------------------------------------------------------------

def test_batch_sizes():
    batches = list(batch_iter(list(range(5)), 2, seed=0))
    assert [len(b) for b in batches] == [2, 2, 1]


def test_batch_seed_determinism():
    a = list(batch_iter(list(range(20)), 4, seed=7))
    b = list(batch_iter(list(range(20)), 4, seed=7))
    assert a == b


def test_batch_multiset_equality():
    rng = np.random.default_rng(0)
    for trial in range(20):
        items = [int(x) for x in rng.integers(0, 10, size=int(rng.integers(1, 40)))]
        size = int(rng.integers(1, 8))
        flat = [x for batch in batch_iter(items, size, seed=trial) for x in batch]
        assert sorted(flat) == sorted(items)


def test_batch_size_zero_rejected():
    with pytest.raises(DatasetError):
        list(batch_iter([1, 2], 0, seed=0))


# ---------------------------------------------------------------------------
# Synthetic worlds
# ---------------------------------------------------------------------------

def test_world_deterministic_per_seed():
    a = generate_synthetic_world(3, 30, 6, n_triplets=40)
    b = generate_synthetic_world(3, 30, 6, n_triplets=40)
    assert a.embeddings.values.tobytes() == b.embeddings.values.tobytes()
    assert a.triplets == b.triplets
    assert a.nli_pairs == b.nli_pairs


def world_digest(world):
    h = hashlib.sha256()
    h.update(json.dumps(world.embeddings.ids).encode())
    h.update(np.ascontiguousarray(world.embeddings.values).tobytes())
    h.update(json.dumps([dataclasses.asdict(t) for t in world.triplets]).encode())
    h.update(json.dumps(world.nli_pairs).encode())
    return h.hexdigest()


@pytest.mark.parametrize("args, digest", [
    ((0, 30, 5), "f44f2635ce3579b0541752865633048cff6f4c9f8f5f9bd2957c127e2a0fac8d"),
    ((0, 200, 8), "3dfb74ff5f4255a0ee79356bde744289a0766fed963ed280100d7be3ea0f5d9d"),
])
def test_world_bytes_match_golden_hash(args, digest):
    # The hashes pin worlds byte for byte: how the generator computes its
    # attribute distances may change, its RNG draws and outputs may not.
    assert world_digest(generate_synthetic_world(*args)) == digest


def test_world_subsets_covering_the_gallery_match_golden_hash():
    # SUBSET_SIZE >= n_items: every subset is the whole gallery, and the
    # distractor pick partitions at the last index, keeping every item.
    world = generate_synthetic_world(4, 5, 4)
    assert world_digest(world) == (
        "1fce97dd06afb7584da36945f6177c315e568e1a3d760e99244d3046219ee767"
    )
    for t in world.triplets:
        assert sorted(t.subset_ids) == sorted(world.embeddings.ids)


def test_world_counts():
    world = generate_synthetic_world(0, 50, 8)
    assert world.embeddings.count == 50
    assert len(world.triplets) >= 50


def test_world_parameter_bounds():
    with pytest.raises(DatasetError):
        generate_synthetic_world(0, 3, 8)
    with pytest.raises(DatasetError):
        generate_synthetic_world(0, 10, 1)
    with pytest.raises(DatasetError):
        generate_synthetic_world(0, 100, 2)  # only 3 distinct nonzero codes


def test_world_structure():
    world = generate_synthetic_world(1, 40, 6, n_triplets=60)
    assert world.item_attrs.shape == (40, 6)
    # Attribute vectors are distinct and nonzero.
    codes = {tuple(row) for row in world.item_attrs}
    assert len(codes) == 40 and tuple([0] * 6) not in codes
    for t in world.triplets:
        assert len(t.subset_ids) == 6 and t.target_id in t.subset_ids
        assert t.target_id in t.gt_ids
        assert t.reference_descriptor and t.target_descriptor
        assert t.modification_text


def test_world_oracle_composer_perfect_recall():
    # The generative rule, applied as a composer, must solve the world.
    world = generate_synthetic_world(0, 60, 8, n_triplets=120)
    index = build_index(world.embeddings)
    ranks = [
        rank_of(index, oracle_query_vector(world, t), t.target_id)
        for t in world.triplets
    ]
    assert all(r == 1 for r in ranks)


def test_world_files_roundtrip(tmp_path):
    world = generate_synthetic_world(5, 20, 5, n_triplets=25)
    paths = save_world(world, tmp_path)
    matrix = load_embeddings(paths["embeddings"])
    assert matrix.values.tobytes() == world.embeddings.values.tobytes()
    assert load_triplets(paths["triplets"]) == world.triplets
    assert load_nli_pairs(paths["nli_pairs"]) == world.nli_pairs
