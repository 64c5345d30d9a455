"""Seeded mutations of CLI input files: every run ends in an exit code.

Each case starts from a well-formed input file (a config, NLI pairs,
triplets, annotations, an embeddings manifest, a checkpoint's header line
or a report), applies one mutation (delete a field, swap a value for one
of another type, or truncate the file) and runs the command that reads it
through cli.main. The command may succeed or fail, but it must return 0, 1
or 2 and never raise. A mutated checkpoint header is written before the
unchanged float32 payload.
"""

import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from cirlite.annotate import MockGenerator, MockJudge, annotate_triplets
from cirlite.cli import main
from cirlite.data import generate_synthetic_world, save_world
from cirlite.model import init_params
from cirlite.trainer import save_checkpoint

MUTATIONS_PER_KIND = 40
SWAP_VALUES = [0, 7, -1, 2.5, "", "x", None, True, [], ["x"], [2], {}, {"k": 1}]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    world = generate_synthetic_world(7, 40, 6, vocab_size=64, n_triplets=30, dims=16)
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
    if kind == "manifest":
        return ["ingest", "--embeddings", path, "--triplets", inputs["triplets"]]
    if kind == "checkpoint":
        return ["eval", "--checkpoint", path, "--embeddings", inputs["embeddings"],
                "--triplets", inputs["triplets"], "--report", out + ".json"]
    return ["report", "--report", path]


@pytest.mark.parametrize("kind", ["config", "nli_pairs", "triplets", "annotations",
                                  "manifest", "checkpoint", "report"])
def test_mutated_input_ends_in_exit_code(inputs, capsys, kind):
    rng = random.Random(f"cirlite-mutation-{kind}")
    # A manifest names its blob and ids files relative to its own directory.
    folder = Path(inputs["embeddings"]).parent if kind == "manifest" else inputs["root"]
    path = folder / f"mutated-{kind}.json"
    for _ in range(MUTATIONS_PER_KIND):
        text, what = mutate(rng, inputs["records"][kind])
        if kind == "checkpoint":
            path.write_bytes(text.encode("utf-8") + inputs["payload"])
        else:
            path.write_text(text, encoding="utf-8")
        code = main(command(kind, inputs, str(path)))
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (kind, what, code)
        assert (code == 0) == (err == ""), (kind, what, err)
