"""CLI contract: exit codes, file outputs, determinism, config resolution."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cirlite
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
    world = generate_synthetic_world(42, 40, 6, n_triplets=80, dims=16)
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
    ("--learning-rate", "learning_rate must be finite and > 0, got 0.0"),
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


@pytest.mark.parametrize("flag, value", [
    ("--lambda-txt", "nan"), ("--lambda-info", "inf"), ("--learning-rate", "nan"),
    ("--tau", "inf"),
])
def test_train_non_finite_flag_value_rejected(world_dir, tmp_path, capsys, flag, value):
    # NaN passes every "< 0" test: TrainConfig rejects it before training.
    ckpt = tmp_path / "s1.ckpt"
    code = main(["train", "--stage", "1", "--embeddings", world_dir["embeddings"],
                 "--nli-pairs", world_dir["nli_pairs"], "--checkpoint", str(ckpt),
                 flag, value])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{flag[2:].replace('-', '_')} must be finite" in err[0]
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


@pytest.mark.parametrize("change", [
    {"vocab_size": 16.0}, {"d_hidden": None}, {"d_hidden": ["x"]}, {"temperature": "0.07"},
])
def test_eval_checkpoint_header_field_of_wrong_type_exits_1(world_dir, tmp_path, capsys,
                                                            change):
    from cirlite.model import init_params
    from cirlite.trainer import save_checkpoint

    path = tmp_path / "p.ckpt"
    save_checkpoint(init_params(0, vocab_size=512, d_img=16), path, seed=0)
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = {**json.loads(data[:newline]), **change}
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    code = main(["eval", "--checkpoint", str(path), "--embeddings", world_dir["embeddings"],
                 "--triplets", world_dir["eval"], "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert f"header: {next(iter(change))} must be" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_failed_report_write_keeps_previous_report(world_dir, tmp_path, monkeypatch,
                                                       capsys):
    from cirlite.model import init_params
    from cirlite.trainer import save_checkpoint

    for seed in (0, 1):
        save_checkpoint(init_params(seed, vocab_size=512, d_img=16),
                        tmp_path / f"p{seed}.ckpt")

    def run_eval(seed):
        return main(["eval", "--checkpoint", str(tmp_path / f"p{seed}.ckpt"),
                     "--embeddings", world_dir["embeddings"],
                     "--triplets", world_dir["eval"],
                     "--report", str(tmp_path / "r.json")])

    assert run_eval(0) == 0
    before = (tmp_path / "r.json").read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    assert run_eval(1) == 1
    assert "disk full" in capsys.readouterr().err
    assert (tmp_path / "r.json").read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p0.ckpt", "p1.ckpt", "r.json"]


# ---------------------------------------------------------------------------
# Malformed inputs: exit 1 with an error line, never a traceback
# ---------------------------------------------------------------------------

def _write_with_bad_second_record(src_lines, change, path):
    records = [json.loads(line) for line in src_lines[:2]]
    records[1].update(change)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize("command, change", [
    ("eval", {"modification_text": 5}),
    ("eval", {"reference_id": ["x"]}),
    ("eval", {"pair_id": None}),
    ("filter", {"conclusion": None}),
    ("ingest", {"dims": "abc"}),
    ("ingest", {"count": None}),
    ("ingest", {"values_file": 5}),
    ("train", {"premise": 5}),
    ("train", {"positive": None}),
])
def test_malformed_field_exits_1(world_dir, tmp_path, capsys, command, change):
    from cirlite.model import init_params
    from cirlite.trainer import save_checkpoint

    bad = tmp_path / "bad.jsonl"
    if command == "eval":
        save_checkpoint(init_params(0, vocab_size=512, d_img=16), tmp_path / "p.ckpt")
        _write_with_bad_second_record(Path(world_dir["eval"]).read_text().splitlines(),
                                      change, bad)
        argv = ["eval", "--checkpoint", str(tmp_path / "p.ckpt"),
                "--embeddings", world_dir["embeddings"], "--triplets", str(bad),
                "--report", str(tmp_path / "r.json")]
    elif command == "filter":
        accepted = CoTAnnotation("p0", "cap", ["s"], "conc", [5, 5, 5], True)
        write_annotations([accepted, accepted], tmp_path / "ann.jsonl")
        _write_with_bad_second_record((tmp_path / "ann.jsonl").read_text().splitlines(),
                                      change, bad)
        argv = ["filter", "--annotations", str(bad),
                "--accepted", str(tmp_path / "acc.jsonl"),
                "--rejected", str(tmp_path / "rej.jsonl")]
    elif command == "train":
        _write_with_bad_second_record(Path(world_dir["nli_pairs"]).read_text().splitlines(),
                                      change, bad)
        argv = ["train", "--stage", "1", "--embeddings", world_dir["embeddings"],
                "--nli-pairs", str(bad), "--checkpoint", str(tmp_path / "s1.ckpt"),
                "--vocab-size", "512"]
    else:
        emb = Path(world_dir["embeddings"]).parent
        for f in emb.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest.update(change)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["ingest", "--embeddings", str(tmp_path / "manifest.json"),
                "--triplets", world_dir["triplets"]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if command != "ingest":
        assert f"{bad}:2: " in err
        assert f"{next(iter(change))} must be" in err
    for output in ("r.json", "acc.jsonl", "s1.ckpt"):
        assert not (tmp_path / output).exists()


_HUGE_INT = b"1" + b"0" * 5000


@pytest.mark.parametrize("target, damage", [
    ("triplets", "byte"), ("config", "byte"), ("manifest", "byte"), ("ids", "byte"),
    ("triplets", "int"), ("config", "int"), ("manifest", "int"),
])
def test_undecodable_input_exits_1(world_dir, tmp_path, capsys, target, damage):
    # A \xff byte (not UTF-8) or an integer past Python's 4300-digit limit.
    emb = Path(world_dir["embeddings"]).parent
    for f in emb.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    (tmp_path / "t.jsonl").write_bytes(Path(world_dir["triplets"]).read_bytes())
    (tmp_path / "c.json").write_bytes(b'{"seed": 3}')
    path, old = {"triplets": ("t.jsonl", b'"pair00001"'), "config": ("c.json", b"3"),
                 "manifest": ("manifest.json", b'"f32le"' if damage == "byte" else b"40"),
                 "ids": ("ids.txt", b"item0001")}[target]
    new = old[:2] + b"\xff" + old[2:] if damage == "byte" else _HUGE_INT
    data = (tmp_path / path).read_bytes()
    assert old in data
    (tmp_path / path).write_bytes(data.replace(old, new, 1))
    code = main(["ingest", "--embeddings", str(tmp_path / "manifest.json"),
                 "--triplets", str(tmp_path / "t.jsonl"), "--config", str(tmp_path / "c.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("not UTF-8" if target == "ids" else "is malformed JSON") in err


_GOOD_REPORT = {"query_count": 2, "subset_query_count": 2, "recall": {"5": 50.0},
                "subset_recall": {"1": 50.0}, "map_at": {"5": 0.5}, "cirr_avg": 50.0}
# Report documents whose error names a field, and the name it shows.
_BAD_REPORT_FIELDS = {
    json.dumps({k: v for k, v in _GOOD_REPORT.items() if k != "recall"}): "'recall'",
    json.dumps({**_GOOD_REPORT, "extra": 1}): "'extra'",
    json.dumps({**_GOOD_REPORT, "recall": {"5": True}}): "recall must be",
    json.dumps({**_GOOD_REPORT, "recall": {"5": "50"}}): "recall must be",
    json.dumps({**_GOOD_REPORT, "subset_recall": {"1.5": 50.0}}): "subset_recall must be",
    json.dumps({**_GOOD_REPORT, "map_at": [0.5]}): "map_at must be",
    json.dumps({**_GOOD_REPORT, "map_at": {"5": None}}): "map_at must be",
    json.dumps({**_GOOD_REPORT, "query_count": 0}): "query_count must be >= 1",
    json.dumps({**_GOOD_REPORT, "query_count": -3, "subset_query_count": 7,
                "recall": {"0": 50.0}}): "query_count must be >= 1",
    json.dumps({**_GOOD_REPORT, "subset_query_count": -1}): "subset_query_count must be",
    json.dumps({**_GOOD_REPORT, "subset_query_count": 3}): "subset_query_count must be",
    json.dumps({**_GOOD_REPORT, "recall": {"0": 50.0}}): " recall keys must be >= 1",
    json.dumps({**_GOOD_REPORT, "subset_recall": {"0": 50.0}}): "subset_recall keys must be",
    json.dumps({**_GOOD_REPORT, "map_at": {"0": 0.5}}): "map_at keys must be >= 1",
}


@pytest.mark.parametrize("text", [
    "[1, 2]\n",
    '{"query_count": 1, "recall": [], "subset_recall": {}, "map_at": {}, '
    '"subset_query_count": 0, "cirr_avg": null}\n',
    '{"query_count": 1, "recall": {"x": 50.0}, "subset_recall": {}, "map_at": {}, '
    '"subset_query_count": 0, "cirr_avg": null}\n',
    *(json.dumps({"query_count": 2, "recall": {"5": 50.0}, "subset_recall": {"1": 50.0},
                  "map_at": {}, "subset_query_count": 2, "cirr_avg": 50.0, **change})
      for change in ({"cirr_avg": "x"}, {"cirr_avg": []}, {"cirr_avg": {}},
                     {"cirr_avg": 250.0}, {"query_count": "x"}, {"subset_query_count": True})),
    *_BAD_REPORT_FIELDS,
])
def test_report_malformed_document_exits_1(tmp_path, capsys, text):
    path = tmp_path / "r.json"
    path.write_text(text)
    assert main(["report", "--report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read report {path}: ") and err.count("\n") == 1
    assert _BAD_REPORT_FIELDS.get(text, "") in err


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


@pytest.mark.parametrize("flag, value, setting", [
    ("--endpoint-timeout", "-1", "timeout"), ("--endpoint-timeout", "nan", "timeout"),
    ("--endpoint-timeout", "0", "timeout"), ("--endpoint-timeout", "inf", "timeout"),
    ("--endpoint-retries", "-1", "retries"),
])
def test_annotate_bad_endpoint_setting_rejected_before_any_request(
        world_dir, tmp_path, capsys, monkeypatch, flag, value, setting):
    def no_request(*args):
        raise AssertionError("a request was sent")

    monkeypatch.setattr("cirlite.annotate._post_json", no_request)
    out = tmp_path / "x.jsonl"
    code = main(["annotate", "--triplets", world_dir["train"], "--annotations", str(out),
                 "--generator-endpoint", "http://127.0.0.1:9/generate",
                 "--judge-endpoints", "http://127.0.0.1:9/judge", flag, value])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: endpoint {setting} must be")
    assert not out.exists()


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


def test_initialised_stage2_ignores_tau_and_vocab_size(world_dir, tmp_path):
    # --tau and --vocab-size size a fresh start only: with --init-checkpoint
    # the checkpoint's temperature and vocabulary are used.
    ck_a, _ = run_pipeline(world_dir, tmp_path / "a", epochs=1)
    ck_b, _ = run_pipeline(world_dir, tmp_path / "b", epochs=1,
                           extra_train=("--tau", "0.5", "--vocab-size", "64"))
    assert Path(ck_a).read_bytes() == Path(ck_b).read_bytes()


def test_report_command_prints_metrics(world_dir, tmp_path, capsys):
    _, rep = run_pipeline(world_dir, tmp_path / "r", epochs=1)
    capsys.readouterr()
    assert main(["report", "--report", rep]) == 0
    out = capsys.readouterr().out
    assert "R@1:" in out and "mAP@5:" in out and "Avg (R@5, R_subset@1):" in out


def test_train_seed_recorded_in_checkpoint(world_dir, tmp_path):
    ck, _ = run_pipeline(world_dir, tmp_path / "s", seed=42, epochs=1)
    with open(ck, "rb") as handle:
        assert json.loads(handle.readline())["seed"] == 42


def test_stage1_with_zero_lambda_info_writes_the_initialisation(world_dir, tmp_path):
    # InfoNCE is stage 1's only loss term, so weighting it by zero leaves
    # the seeded initialisation, which zero epochs also write.
    def train(name, *flags):
        assert main(["train", "--stage", "1", "--embeddings", world_dir["embeddings"],
                     "--nli-pairs", world_dir["nli_pairs"], "--vocab-size", "256",
                     "--seed", "3", "--checkpoint", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name).read_bytes()

    init = train("init.ckpt", "--epochs", "0")
    assert train("zero.ckpt", "--lambda-info", "0", "--epochs", "1") == init
    assert train("one.ckpt", "--lambda-info", "1", "--epochs", "1") != init


def test_from_scratch_checkpoint_is_stage2_from_stage1_initialization(world_dir, tmp_path):
    # --from-scratch starts stage 2 where train_stage1 would: init_params of
    # the seed, the vocabulary, the embedding dims and --tau.
    from cirlite.data import SynthWorld, load_triplets
    from cirlite.model import init_params
    from cirlite.store import load_embeddings
    from cirlite.trainer import TrainConfig, save_checkpoint, train_stage2

    main(["annotate", "--triplets", world_dir["train"],
          "--annotations", str(tmp_path / "ann.jsonl"), "--mock", "--seed", "5"])
    main(["filter", "--annotations", str(tmp_path / "ann.jsonl"),
          "--accepted", str(tmp_path / "acc.jsonl"),
          "--rejected", str(tmp_path / "rej.jsonl")])
    assert main(["train", "--stage", "2", "--embeddings", world_dir["embeddings"],
                 "--triplets", world_dir["train"], "--annotations", str(tmp_path / "acc.jsonl"),
                 "--from-scratch", "--epochs", "1", "--seed", "5", "--tau", "0.05",
                 "--vocab-size", "512", "--checkpoint", str(tmp_path / "cli.ckpt")]) == 0
    embeddings = load_embeddings(world_dir["embeddings"])
    world = SynthWorld(embeddings=embeddings, triplets=load_triplets(world_dir["train"]),
                       nli_pairs=[])
    config = TrainConfig(stage=2, seed=5, epochs=1, tau=0.05)
    init = init_params(5, vocab_size=512, d_img=embeddings.dims, temperature=0.05)
    params = train_stage2(world, load_annotations(tmp_path / "acc.jsonl"), init, config)
    save_checkpoint(params, tmp_path / "api.ckpt", seed=5)
    assert (tmp_path / "cli.ckpt").read_bytes() == (tmp_path / "api.ckpt").read_bytes()


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
    )
    accepted = load_annotations(tmp_path / "acc.jsonl")
    full = sum(len(i.target_toks) for i in build_training_items(world, accepted, "full", 512))
    fast = sum(len(i.target_toks) for i in build_training_items(world, accepted, "fast", 512))
    assert fast < full


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def test_train_config_takes_every_training_setting_by_name():
    import dataclasses

    from cirlite.cli import RunConfig, _train_config

    cfg = RunConfig(stage=1, learning_rate=0.2, batch_size=8, lambda_txt=0.5, lambda_info=2.0,
                    tau=0.1, seed=7, annotation_mode="fast", vocab_size=100)
    assert dataclasses.asdict(_train_config(cfg)) == {
        "stage": 1, "learning_rate": 0.2, "batch_size": 8, "epochs": 2, "lambda_txt": 0.5,
        "lambda_info": 2.0, "tau": 0.1, "seed": 7, "annotation_mode": "fast", "vocab_size": 100}
    assert _train_config(RunConfig(stage=2, epochs=3)).epochs == 3


def test_print_config_dumps_resolved_json(world_dir, capsys, tmp_path):
    code = main(["eval", "--print-config", "--seed", "9", "--k-list", "1,5",
                 "--report", "r.json", "--ranked-out", "rän ked 漢😀.jsonl"])
    assert code == 0
    printed = capsys.readouterr().out
    config = json.loads(printed)
    assert config["seed"] == 9
    assert config["k_list"] == [1, 5]
    assert config["report"] == "r.json"
    assert config["ranked_out"] == "rän ked 漢😀.jsonl"
    assert config["judge_endpoints"] == []
    assert config["lambda_txt"] == 1.0
    # Read back through --config, the printed config prints the same.
    (tmp_path / "config.json").write_text(printed)
    assert main(["eval", "--print-config", "--config", str(tmp_path / "config.json")]) == 0
    assert capsys.readouterr().out == printed


def test_config_file_with_flag_override(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 5, "epochs": 7}))
    code = main(["train", "--print-config", "--config", str(config_path),
                 "--seed", "11"])
    assert code == 0
    config = json.loads(capsys.readouterr().out)
    assert config["seed"] == 11      # flag wins
    assert config["epochs"] == 7     # file survives


def test_every_flag_parses_to_its_field_type(capsys):
    from cirlite.cli import _COMMANDS, _FIELD_TYPES

    # A float flag given "2" must give 2.0, not the int 2.
    samples = {"int": ["2"], "float": ["2"], "bool": [], "str": ["fast"],
               "list[int]": ["1,2"], "list[str]": ["a", "b"]}
    python_types = {"int": int, "float": float, "bool": bool, "str": str,
                    "list[int]": list, "list[str]": list}
    for command, (_, _, names) in _COMMANDS.items():
        for name in ("seed", *names):
            kind = _FIELD_TYPES[name].removesuffix(" | None")
            flag = "--" + name.replace("_", "-")
            assert main([command, "--print-config", flag, *samples[kind]]) == 0, flag
            value = json.loads(capsys.readouterr().out)[name]
            assert type(value) is python_types[kind], (command, flag, value)
            if kind.startswith("list["):
                assert value == ([1, 2] if kind == "list[int]" else ["a", "b"])


def test_config_unknown_key_rejected(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"learning_rat": 0.1}))
    assert main(["train", "--print-config", "--config", str(config_path)]) == 1


@pytest.mark.parametrize("command, document", [
    ("ingest", {"seed": "x"}),
    ("ingest", {"seed": True}),
    ("ingest", {"endpoint_retries": None}),
    ("ingest", {"mock": 1}),
    ("ingest", {"judge_endpoints": ["http://a", 5]}),
    ("ingest", {"k_list": "1,5"}),
    ("ingest", ["seed"]),
    ("ingest", 3),
    ("train", {"learning_rate": "0.1"}),
])
def test_config_value_of_wrong_type_exits_1(world_dir, tmp_path, capsys, command, document):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document))
    if command == "ingest":
        argv = ["ingest", "--embeddings", world_dir["embeddings"],
                "--triplets", world_dir["triplets"]]
    else:
        argv = ["train", "--stage", "1", "--embeddings", world_dir["embeddings"],
                "--nli-pairs", world_dir["nli_pairs"], "--vocab-size", "512",
                "--checkpoint", str(tmp_path / "s1.ckpt")]
    assert main(argv + ["--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if isinstance(document, dict):
        assert f"config: {next(iter(document))} must be" in err
    else:
        assert "not a JSON object" in err
    assert not (tmp_path / "s1.ckpt").exists()


def test_config_int_for_float_and_null_for_optional(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"learning_rate": 1, "tau": 1, "epochs": None,
                                       "checkpoint": None}))
    assert main(["train", "--print-config", "--config", str(config_path)]) == 0
    config = json.loads(capsys.readouterr().out)
    assert (config["learning_rate"], config["tau"], config["epochs"]) == (1, 1, None)


def test_config_bad_k_list_rejected():
    assert main(["eval", "--print-config", "--k-list", "5,1"]) == 1


def test_malformed_k_list_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--print-config", "--k-list", "5,abc"])
    assert exc.value.code == 2


def test_module_entry_point_runs_the_cli():
    # `python -m cirlite.cli` dispatches to main: --help prints the usage and
    # exits 0, an unknown command is a usage error.
    src = str(Path(cirlite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "cirlite.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    helped = run("--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: cirlite")
    bad = run("no-such-command")
    assert bad.returncode == 2
    assert "invalid choice" in bad.stderr
