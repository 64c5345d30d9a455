"""CLI contract: exit codes, file outputs, determinism, config resolution."""

import json

import pytest

from cirlite.cli import main
from cirlite.data import (
    CoTAnnotation,
    generate_synthetic_world,
    load_annotations,
    save_world,
    write_annotations,
    write_triplets,
)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    world = generate_synthetic_world(42, 40, 6, vocab_size=512, n_triplets=80, dims=16)
    paths = save_world(world, root)
    write_triplets(world.triplets[:60], root / "train.jsonl")
    write_triplets(world.triplets[60:], root / "eval.jsonl")
    paths["train"] = str(root / "train.jsonl")
    paths["eval"] = str(root / "eval.jsonl")
    paths["root"] = root
    return paths


def run_pipeline(world_dir, out_dir, seed=42, epochs=4, extra_train=()):
    """ingest -> annotate -> filter -> train(1) -> train(2) -> eval."""
    out_dir.mkdir(parents=True, exist_ok=True)
    emb = world_dir["embeddings"]
    ann = str(out_dir / "ann.jsonl")
    acc = str(out_dir / "acc.jsonl")
    rej = str(out_dir / "rej.jsonl")
    ck1 = str(out_dir / "s1.ckpt")
    ck2 = str(out_dir / "s2.ckpt")
    rep = str(out_dir / "report.json")
    steps = [
        ["ingest", "--embeddings", emb, "--triplets", world_dir["triplets"]],
        ["annotate", "--triplets", world_dir["train"], "--annotations", ann,
         "--mock", "--seed", str(seed)],
        ["filter", "--annotations", ann, "--accepted", acc, "--rejected", rej],
        ["train", "--stage", "1", "--embeddings", emb,
         "--nli-pairs", world_dir["nli_pairs"], "--checkpoint", ck1,
         "--seed", str(seed), "--vocab-size", "512"],
        ["train", "--stage", "2", "--embeddings", emb,
         "--triplets", world_dir["train"], "--annotations", acc,
         "--init-checkpoint", ck1, "--checkpoint", ck2, "--seed", str(seed),
         "--epochs", str(epochs), *extra_train],
        ["eval", "--checkpoint", ck2, "--embeddings", emb,
         "--triplets", world_dir["eval"], "--report", rep, "--seed", str(seed)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return ck2, rep


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--bogus-flag", "x"])
    assert exc.value.code == 2


def test_missing_manifest_exits_1(world_dir, capsys):
    code = main(["ingest", "--embeddings", "/nope/manifest.json",
                 "--triplets", world_dir["triplets"]])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_ok(world_dir, capsys):
    code = main(["ingest", "--embeddings", world_dir["embeddings"],
                 "--triplets", world_dir["triplets"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "items=40" in out and "triplets=80" in out


def test_ingest_unknown_id_named(world_dir, tmp_path, capsys):
    from cirlite.data import Triplet

    bad = Triplet("px", "item0000", "addred", "ghost9999")
    write_triplets([bad], tmp_path / "bad.jsonl")
    code = main(["ingest", "--embeddings", world_dir["embeddings"],
                 "--triplets", str(tmp_path / "bad.jsonl")])
    assert code == 1
    assert "ghost9999" in capsys.readouterr().err


def test_stage2_requires_init_or_from_scratch(world_dir, tmp_path, capsys):
    code = main(["train", "--stage", "2", "--embeddings", world_dir["embeddings"],
                 "--triplets", world_dir["train"],
                 "--annotations", str(tmp_path / "missing.jsonl"),
                 "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 1


@pytest.mark.parametrize("flag, message", [
    ("--batch-size", "batch_size must be >= 1, got 0"),
    ("--learning-rate", "learning_rate must be > 0, got 0.0"),
])
def test_train_zero_flag_value_rejected(world_dir, tmp_path, capsys, flag, message):
    # A zero flag is an explicit value, not "unset": TrainConfig rejects it.
    ckpt = tmp_path / "s1.ckpt"
    code = main(["train", "--stage", "1", "--embeddings", world_dir["embeddings"],
                 "--nli-pairs", world_dir["nli_pairs"], "--checkpoint", str(ckpt),
                 flag, "0"])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


def test_eval_empty_queries_exits_1(world_dir, tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    # Need some checkpoint first
    code = main(["train", "--stage", "1", "--embeddings", world_dir["embeddings"],
                 "--nli-pairs", world_dir["nli_pairs"],
                 "--checkpoint", str(tmp_path / "s1.ckpt"), "--seed", "1",
                 "--vocab-size", "512"])
    assert code == 0
    code = main(["eval", "--checkpoint", str(tmp_path / "s1.ckpt"),
                 "--embeddings", world_dir["embeddings"],
                 "--triplets", str(tmp_path / "empty.jsonl"),
                 "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "empty query set" in capsys.readouterr().err


def test_eval_dim_mismatch_exits_1(world_dir, tmp_path, capsys):
    from cirlite.model import init_params
    from cirlite.trainer import save_checkpoint

    save_checkpoint(init_params(0, vocab_size=512, d_img=99), tmp_path / "bad.ckpt")
    code = main(["eval", "--checkpoint", str(tmp_path / "bad.ckpt"),
                 "--embeddings", world_dir["embeddings"],
                 "--triplets", world_dir["eval"],
                 "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "dimensionality" in capsys.readouterr().err


def test_eval_checkpoint_header_not_object_exits_1(world_dir, tmp_path, capsys):
    (tmp_path / "bad.ckpt").write_bytes(b"[1]\n")
    code = main(["eval", "--checkpoint", str(tmp_path / "bad.ckpt"),
                 "--embeddings", world_dir["embeddings"],
                 "--triplets", world_dir["eval"],
                 "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "not a JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Annotation and filtering via CLI
# ---------------------------------------------------------------------------

def test_annotate_mock_deterministic(world_dir, tmp_path):
    for name in ("a", "b"):
        code = main(["annotate", "--triplets", world_dir["train"],
                     "--annotations", str(tmp_path / f"{name}.jsonl"),
                     "--mock", "--seed", "7"])
        assert code == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_annotate_without_mock_or_endpoint(world_dir, tmp_path):
    code = main(["annotate", "--triplets", world_dir["train"],
                 "--annotations", str(tmp_path / "x.jsonl")])
    assert code == 1


def test_filter_all_ones_rejects_everything(tmp_path, capsys):
    annotations = [
        CoTAnnotation(f"p{i}", "cap", ["s"], "conc", [1, 1, 1]) for i in range(8)
    ]
    write_annotations(annotations, tmp_path / "ann.jsonl")
    code = main(["filter", "--annotations", str(tmp_path / "ann.jsonl"),
                 "--accepted", str(tmp_path / "acc.jsonl"),
                 "--rejected", str(tmp_path / "rej.jsonl")])
    assert code == 0
    out = capsys.readouterr().out
    assert "acceptance_rate=0.00%" in out
    assert load_annotations(tmp_path / "acc.jsonl") == []
    assert len(load_annotations(tmp_path / "rej.jsonl")) == 8


def test_filter_partition_sizes(world_dir, tmp_path):
    main(["annotate", "--triplets", world_dir["train"],
          "--annotations", str(tmp_path / "ann.jsonl"), "--mock", "--seed", "3"])
    main(["filter", "--annotations", str(tmp_path / "ann.jsonl"),
          "--accepted", str(tmp_path / "acc.jsonl"),
          "--rejected", str(tmp_path / "rej.jsonl")])
    total = len(load_annotations(tmp_path / "ann.jsonl"))
    n_acc = len(load_annotations(tmp_path / "acc.jsonl"))
    n_rej = len(load_annotations(tmp_path / "rej.jsonl"))
    assert n_acc + n_rej == total > 0


# ---------------------------------------------------------------------------
# Training and evaluation via CLI
# ---------------------------------------------------------------------------

def test_full_pipeline_and_determinism(world_dir, tmp_path):
    ck_a, rep_a = run_pipeline(world_dir, tmp_path / "a")
    ck_b, rep_b = run_pipeline(world_dir, tmp_path / "b")
    with open(ck_a, "rb") as fa, open(ck_b, "rb") as fb:
        assert fa.read() == fb.read()
    with open(rep_a, "rb") as fa, open(rep_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_report_command_prints_metrics(world_dir, tmp_path, capsys):
    _, rep = run_pipeline(world_dir, tmp_path / "r", epochs=1)
    capsys.readouterr()
    assert main(["report", "--report", rep]) == 0
    out = capsys.readouterr().out
    assert "R@1:" in out and "mAP@5:" in out and "Avg (R@5, R_subset@1):" in out


def test_train_seed_recorded_in_checkpoint(world_dir, tmp_path):
    from cirlite.trainer import checkpoint_seed

    ck, _ = run_pipeline(world_dir, tmp_path / "s", seed=42, epochs=1)
    assert checkpoint_seed(ck) == 42


def test_fast_mode_trains_on_fewer_tokens(world_dir, tmp_path):
    from cirlite.data import SynthWorld, load_triplets
    from cirlite.store import load_embeddings
    from cirlite.trainer import build_training_items

    main(["annotate", "--triplets", world_dir["train"],
          "--annotations", str(tmp_path / "ann.jsonl"), "--mock", "--seed", "1"])
    main(["filter", "--annotations", str(tmp_path / "ann.jsonl"),
          "--accepted", str(tmp_path / "acc.jsonl"),
          "--rejected", str(tmp_path / "rej.jsonl")])
    world = SynthWorld(
        embeddings=load_embeddings(world_dir["embeddings"]),
        triplets=load_triplets(world_dir["train"]),
        nli_pairs=[],
        vocab_size=512,
    )
    accepted = load_annotations(tmp_path / "acc.jsonl")
    full = sum(len(i.target_toks) for i in build_training_items(world, accepted, "full"))
    fast = sum(len(i.target_toks) for i in build_training_items(world, accepted, "fast"))
    assert fast < full


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def test_print_config_dumps_resolved_json(world_dir, capsys):
    code = main(["eval", "--print-config", "--seed", "9",
                 "--k-list", "1,5", "--report", "r.json"])
    assert code == 0
    config = json.loads(capsys.readouterr().out)
    assert config["seed"] == 9
    assert config["k_list"] == [1, 5]
    assert config["report"] == "r.json"
    assert config["lambda_txt"] == 1.0


def test_config_file_with_flag_override(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 5, "epochs": 7}))
    code = main(["train", "--print-config", "--config", str(config_path),
                 "--seed", "11"])
    assert code == 0
    config = json.loads(capsys.readouterr().out)
    assert config["seed"] == 11      # flag wins
    assert config["epochs"] == 7     # file survives


def test_config_unknown_key_rejected(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"learning_rat": 0.1}))
    assert main(["train", "--print-config", "--config", str(config_path)]) == 1


def test_config_bad_k_list_rejected():
    assert main(["eval", "--print-config", "--k-list", "5,1"]) == 1


def test_malformed_k_list_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--print-config", "--k-list", "5,abc"])
    assert exc.value.code == 2
