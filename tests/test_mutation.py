"""Seeded mutations of CLI input files: every run ends in an exit code.

Each case starts from a well-formed input file (a config, NLI pairs,
triplets, annotations, an embeddings manifest, a checkpoint's header line,
a report, or the embeddings' ids file), applies one mutation (delete a
field, swap a value for one of another type, truncate the file, flip the
bits of one byte, or put in an integer past Python's 4300-digit limit) and
runs the command that reads it through cli.main. The command may succeed
or fail, but it must return 0, 1 or 2 and never raise. A mutated checkpoint
header is written before the unchanged float32 payload. A truncated or
bit-flipped float32 embeddings blob must fail its manifest checksum.
"""

import json
import random
import shutil
from dataclasses import asdict
from pathlib import Path

import pytest

from cirlite.annotate import MockGenerator, MockJudge, annotate_triplets
from cirlite.cli import main
from cirlite.data import generate_synthetic_world, save_world
from cirlite.model import init_params
from cirlite.trainer import save_checkpoint

MUTATIONS_PER_KIND = 40
BYTE_FLIPS_PER_KIND = 10
HUGE_INT = "1" + "0" * 5000
SWAP_VALUES = [0, 7, -1, 2.5, "", "x", None, True, [], ["x"], [2], {}, {"k": 1}]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    world = generate_synthetic_world(7, 40, 6, n_triplets=30, dims=16)
    paths = save_world(world, root)
    save_checkpoint(init_params(0, vocab_size=64, d_img=16), root / "p.ckpt", seed=0)
    header, payload = (root / "p.ckpt").read_bytes().split(b"\n", 1)
    annotations, _ = annotate_triplets(world.triplets[:10], MockGenerator(7),
                                       [MockJudge(7 + i) for i in range(3)])
    assert main(["eval", "--checkpoint", str(root / "p.ckpt"), "--embeddings",
                 paths["embeddings"], "--triplets", paths["triplets"],
                 "--report", str(root / "report.json")]) == 0
    return {
        "root": root,
        "embeddings": paths["embeddings"],
        "triplets": paths["triplets"],
        "checkpoint": str(root / "p.ckpt"),
        "payload": payload,
        "records": {
            "config": [{"seed": 3, "epochs": 1, "batch_size": 16, "learning_rate": 0.05,
                        "tau": 0.07, "vocab_size": 64, "lambda_info": 1.0,
                        "annotation_mode": "full", "k_list": [1, 5]}],
            "nli_pairs": [{"premise": a, "positive": b} for a, b in world.nli_pairs],
            "triplets": [json.loads(line) for line in
                         Path(paths["triplets"]).read_text().splitlines()[:20]],
            "annotations": [asdict(a) for a in annotations],
            "manifest": [json.loads(Path(paths["embeddings"]).read_text())],
            "checkpoint": [json.loads(header)],
            "report": [json.loads((root / "report.json").read_text())],
        },
    }


def mutate(rng: random.Random, records: list[dict]) -> tuple[str, str]:
    """One seeded mutation of JSON records written one per line; returns
    the file text and a description of the mutation."""
    records = json.loads(json.dumps(records))
    kind = rng.choice(["delete", "swap", "truncate"])
    if kind == "truncate":
        text = "".join(json.dumps(r) + "\n" for r in records)
        cut = rng.randrange(len(text))
        return text[:cut], f"truncated at byte {cut}"
    j = rng.randrange(len(records))
    key = rng.choice(sorted(records[j]))
    if kind == "delete":
        del records[j][key]
        what = f"record {j}: {key} deleted"
    else:
        records[j][key] = rng.choice(SWAP_VALUES)
        what = f"record {j}: {key} = {records[j][key]!r}"
    return "".join(json.dumps(r) + "\n" for r in records), what


def damage(rng: random.Random, text: str, how: str) -> bytes:
    """text with one byte's bits flipped, or with one line's first value
    (or, for a line without one, the line itself) replaced by HUGE_INT."""
    if how == "flip":
        data = bytearray(text.encode("utf-8"))
        data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        return bytes(data)
    lines = text.splitlines(keepends=True)
    j = rng.randrange(len(lines))
    head, sep, tail = lines[j].partition('": ')
    lines[j] = head + sep + HUGE_INT + tail[tail.find(","):] if sep else HUGE_INT + "\n"
    return "".join(lines).encode("utf-8")


def write_input(kind: str, inputs, data: bytes) -> str:
    """Write a damaged or mutated input where its command reads it."""
    if kind in ("ids", "blob"):
        # These files are named by a manifest beside them: use a copy of the store.
        folder = inputs["root"] / f"{kind}-store"
        shutil.copytree(Path(inputs["embeddings"]).parent, folder, dirs_exist_ok=True)
        (folder / ("ids.txt" if kind == "ids" else "embeddings.f32")).write_bytes(data)
        return str(folder / "manifest.json")
    # A manifest names its blob and ids files relative to its own directory.
    folder = Path(inputs["embeddings"]).parent if kind == "manifest" else inputs["root"]
    path = folder / f"mutated-{kind}.json"
    path.write_bytes(data + inputs["payload"] if kind == "checkpoint" else data)
    return str(path)


def command(kind: str, inputs, path: str) -> list[str]:
    out = str(inputs["root"] / "out")
    if kind == "config":
        return ["train", "--stage", "1", "--embeddings", inputs["embeddings"],
                "--nli-pairs", str(inputs["root"] / "nli_pairs.jsonl"),
                "--checkpoint", out + ".ckpt", "--config", path]
    if kind == "nli_pairs":
        return ["train", "--stage", "1", "--embeddings", inputs["embeddings"],
                "--nli-pairs", path, "--checkpoint", out + ".ckpt",
                "--epochs", "1", "--vocab-size", "64"]
    if kind == "triplets":
        return ["eval", "--checkpoint", inputs["checkpoint"],
                "--embeddings", inputs["embeddings"], "--triplets", path,
                "--report", out + ".json", "--k-list", "1,5", "--map-k-list", "5"]
    if kind == "annotations":
        return ["filter", "--annotations", path, "--accepted", out + ".acc.jsonl",
                "--rejected", out + ".rej.jsonl"]
    if kind in ("manifest", "ids", "blob"):
        return ["ingest", "--embeddings", path, "--triplets", inputs["triplets"]]
    if kind == "checkpoint":
        return ["eval", "--checkpoint", path, "--embeddings", inputs["embeddings"],
                "--triplets", inputs["triplets"], "--report", out + ".json"]
    return ["report", "--report", path]


def run(kind: str, inputs, capsys, data: bytes, what: str) -> None:
    code = main(command(kind, inputs, write_input(kind, inputs, data)))
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (kind, what, code)
    assert (code == 0) == (err == ""), (kind, what, err)


@pytest.mark.parametrize("kind", ["config", "nli_pairs", "triplets", "annotations",
                                  "manifest", "checkpoint", "report"])
def test_mutated_input_ends_in_exit_code(inputs, capsys, kind):
    rng = random.Random(f"cirlite-mutation-{kind}")
    for _ in range(MUTATIONS_PER_KIND):
        text, what = mutate(rng, inputs["records"][kind])
        run(kind, inputs, capsys, text.encode("utf-8"), what)


@pytest.mark.parametrize("kind", ["config", "nli_pairs", "triplets", "annotations",
                                  "manifest", "checkpoint", "report", "ids"])
def test_damaged_input_ends_in_exit_code(inputs, capsys, kind):
    rng = random.Random(f"cirlite-damage-{kind}")
    if kind == "ids":
        text = (Path(inputs["embeddings"]).parent / "ids.txt").read_text()
    else:
        text = "".join(json.dumps(r) + "\n" for r in inputs["records"][kind])
    for how in ["flip"] * BYTE_FLIPS_PER_KIND + ["huge_int"]:
        data = damage(rng, text, how)
        run(kind, inputs, capsys, data, f"{how}: {data[:200]!r}")


def test_damaged_blob_fails_its_checksum(inputs, capsys):
    rng = random.Random("cirlite-damage-blob")
    blob = (Path(inputs["embeddings"]).parent / "embeddings.f32").read_bytes()
    for how in ["truncate"] * BYTE_FLIPS_PER_KIND + ["flip"] * BYTE_FLIPS_PER_KIND:
        data = bytearray(blob)
        if how == "truncate":
            del data[rng.randrange(len(data)):]
        else:
            data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        assert main(command("blob", inputs, write_input("blob", inputs, bytes(data)))) == 1, how
        err = capsys.readouterr().err
        assert err.startswith("error: checksum mismatch") and err.count("\n") == 1, (how, err)
