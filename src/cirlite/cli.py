"""Command-line pipeline: ingest -> annotate -> filter -> train -> eval -> report.

Exit codes: 0 success, 1 operational failure (bad data, missing files,
endpoint errors), 2 usage error. All randomness flows from --seed; two
identical invocations produce byte-identical outputs.

Configuration comes from an optional JSON file (--config) with command-line
flags taking precedence; --print-config dumps the fully resolved
configuration and exits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import annotate as annotate_mod
from . import data as data_mod
from . import trainer as trainer_mod
from .errors import CirliteError
from .evaluate import evaluate_queries
from .metrics import EvalReport, MetricError, display_round
from .store import check_field_types, load_embeddings, parse_json, read_record, write_atomic


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation."""

    # Paths
    embeddings: str | None = None
    triplets: str | None = None
    nli_pairs: str | None = None
    annotations: str | None = None
    accepted: str | None = None
    rejected: str | None = None
    checkpoint: str | None = None
    init_checkpoint: str | None = None
    report: str | None = None
    loss_log: str | None = None
    ranked_out: str | None = None
    # Training
    stage: int = 2
    learning_rate: float | None = None
    batch_size: int | None = None
    epochs: int | None = None
    lambda_txt: float = trainer_mod.TrainConfig.lambda_txt
    lambda_info: float = trainer_mod.TrainConfig.lambda_info
    tau: float = trainer_mod.TrainConfig.tau
    seed: int = 0
    annotation_mode: str = trainer_mod.TrainConfig.annotation_mode
    from_scratch: bool = False
    vocab_size: int = trainer_mod.TrainConfig.vocab_size
    # Annotation
    mock: bool = False
    n_judges: int = 3
    mean_threshold: float = annotate_mod.DEFAULT_MEAN_THRESHOLD
    max_range: int = annotate_mod.DEFAULT_MAX_RANGE
    generator_endpoint: str | None = None
    judge_endpoints: list[str] = dataclasses.field(default_factory=list)
    endpoint_timeout: float = annotate_mod.DEFAULT_TIMEOUT_S
    endpoint_retries: int = annotate_mod.DEFAULT_RETRIES
    # Evaluation
    k_list: list[int] = dataclasses.field(default_factory=lambda: [1, 5, 10, 50])
    subset_k_list: list[int] = dataclasses.field(default_factory=lambda: [1, 2, 3])
    map_k_list: list[int] = dataclasses.field(default_factory=lambda: [5, 10, 25, 50])

    def __post_init__(self):
        check_field_types(self, CirliteError, "config")
        for name in ("k_list", "subset_k_list", "map_k_list"):
            values = getattr(self, name)
            if not values or any(v < 1 for v in values) or sorted(set(values)) != values:
                raise CirliteError(
                    f"{name} must be strictly increasing positive integers, got {values}"
                )


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_int_list(text: str) -> list[int]:
    # argparse type= callable: raise ArgumentTypeError so bad values exit 2.
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# How a flag parses its value, by the annotation of its RunConfig field.
_FLAG_PARSERS = {"int": dict(type=int), "float": dict(type=float), "str": {},
                 "bool": dict(action="store_const", const=True),
                 "list[int]": dict(type=_parse_int_list), "list[str]": dict(nargs="+")}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the JSON config file, then explicit flags."""
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            raw = Path(config_path).read_bytes()
        except OSError as exc:
            raise CirliteError(f"cannot read config {config_path}: {exc}") from exc
        where = str(config_path)
        cfg = read_record(RunConfig, parse_json(raw, CirliteError, where), CirliteError, where)
    return dataclasses.replace(cfg, **{name: value for name in _FIELD_TYPES
                                       if (value := getattr(args, name, None)) is not None})


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise CirliteError(f"missing required setting: {name}")


def _load_world(cfg: RunConfig, *, with_triplets: bool, with_pairs: bool) -> data_mod.SynthWorld:
    _require(cfg, "embeddings")
    matrix = load_embeddings(cfg.embeddings)
    triplets = []
    if with_triplets:
        _require(cfg, "triplets")
        triplets = data_mod.load_triplets(cfg.triplets)
    pairs = []
    if with_pairs:
        _require(cfg, "nli_pairs")
        pairs = data_mod.load_nli_pairs(cfg.nli_pairs)
    return data_mod.SynthWorld(embeddings=matrix, triplets=triplets, nli_pairs=pairs)


def cmd_ingest(cfg: RunConfig) -> int:
    world = _load_world(cfg, with_triplets=True, with_pairs=False)
    n_subset = sum(1 for t in world.triplets if t.subset_ids)
    n_gt = sum(1 for t in world.triplets if t.gt_ids)
    print(
        f"ingest ok: items={world.embeddings.count} dims={world.embeddings.dims} "
        f"triplets={len(world.triplets)} with_subset={n_subset} with_gt={n_gt}"
    )
    return 0


def _build_clients(cfg: RunConfig):
    if cfg.mock:
        generator = annotate_mod.MockGenerator(cfg.seed)
        judges = [annotate_mod.MockJudge(cfg.seed + i) for i in range(cfg.n_judges)]
        return generator, judges
    if not cfg.generator_endpoint:
        raise CirliteError("annotate needs --mock or a generator endpoint")
    if not cfg.judge_endpoints:
        raise CirliteError("annotate needs --mock or judge endpoints")
    generator = annotate_mod.RemoteGenerator(
        cfg.generator_endpoint, cfg.endpoint_timeout, cfg.endpoint_retries
    )
    judges = [
        annotate_mod.RemoteJudge(url, cfg.endpoint_timeout, cfg.endpoint_retries)
        for url in cfg.judge_endpoints
    ]
    return generator, judges


def cmd_annotate(cfg: RunConfig) -> int:
    _require(cfg, "triplets", "annotations")
    triplets = data_mod.load_triplets(cfg.triplets)
    generator, judges = _build_clients(cfg)
    annotations, n_unparseable = annotate_mod.annotate_triplets(
        triplets, generator, judges
    )
    data_mod.write_annotations(annotations, cfg.annotations)
    print(
        f"annotate ok: triplets={len(triplets)} annotated={len(annotations)} "
        f"unparseable={n_unparseable}"
    )
    return 0


def cmd_filter(cfg: RunConfig) -> int:
    _require(cfg, "annotations", "accepted", "rejected")
    annotations = data_mod.load_annotations(cfg.annotations)
    records = [(a, a.judge_scores) for a in annotations]
    accepted, rejected = annotate_mod.filter_annotations(
        records, cfg.mean_threshold, cfg.max_range
    )
    data_mod.write_annotations(accepted, cfg.accepted)
    data_mod.write_annotations(rejected, cfg.rejected)
    rate = 100.0 * len(accepted) / len(annotations) if annotations else 0.0
    print(
        f"filter ok: total={len(annotations)} accepted={len(accepted)} "
        f"rejected={len(rejected)} acceptance_rate={display_round(rate)}%"
    )
    return 0


def _train_config(cfg: RunConfig) -> trainer_mod.TrainConfig:
    # Every TrainConfig setting by name; unset ones (None) take TrainConfig's defaults.
    names = [f.name for f in dataclasses.fields(trainer_mod.TrainConfig)]
    return trainer_mod.TrainConfig(
        **{name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None})


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint")
    train_config = _train_config(cfg)
    log: list = []
    if cfg.stage == 1:
        world = _load_world(cfg, with_triplets=False, with_pairs=True)
        params = trainer_mod.train_stage1(world, train_config, loss_log=log)
    else:
        world = _load_world(cfg, with_triplets=True, with_pairs=False)
        _require(cfg, "annotations")
        annotations = data_mod.load_annotations(cfg.annotations)
        init = None  # --from-scratch: train_stage2 starts where train_stage1 would
        if cfg.init_checkpoint:
            init = trainer_mod.load_checkpoint(cfg.init_checkpoint)
        elif not cfg.from_scratch:
            raise CirliteError(
                "stage 2 needs --init-checkpoint (the stage-1 output) or --from-scratch"
            )
        params = trainer_mod.train_stage2(
            world, annotations, init, train_config, loss_log=log
        )
    trainer_mod.save_checkpoint(params, cfg.checkpoint, seed=cfg.seed)
    if cfg.loss_log:
        trainer_mod.write_loss_log(log, cfg.loss_log)
    final = log[-1] if log else {}
    print(
        f"train ok: stage={cfg.stage} steps={len(log)} "
        f"final_combined={final.get('combined', float('nan')):.6f} "
        f"checkpoint={cfg.checkpoint}"
    )
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "embeddings", "triplets", "report")
    params = trainer_mod.load_checkpoint(cfg.checkpoint)
    matrix = load_embeddings(cfg.embeddings)
    triplets = data_mod.load_triplets(cfg.triplets)
    report = evaluate_queries(
        params, matrix, triplets,
        k_list=cfg.k_list, subset_k_list=cfg.subset_k_list,
        map_k_list=cfg.map_k_list, ranked_out=cfg.ranked_out,
    )
    write_atomic(cfg.report, report.to_json().encode("utf-8"))
    r1 = report.recall.get(1)
    print(
        f"eval ok: queries={report.query_count} "
        f"R@1={display_round(r1) if r1 is not None else 'n/a'} report={cfg.report}"
    )
    return 0


def cmd_report(cfg: RunConfig) -> int:
    _require(cfg, "report")
    try:
        report = EvalReport.from_json(Path(cfg.report).read_bytes())
    except (OSError, MetricError) as exc:
        raise CirliteError(f"cannot read report {cfg.report}: {exc}") from exc
    print(f"queries: {report.query_count}")
    for k, value in report.recall.items():
        print(f"R@{k}: {display_round(value)}")
    for k, value in report.subset_recall.items():
        print(f"R_subset@{k}: {display_round(value)}")
    for k, value in report.map_at.items():
        print(f"mAP@{k}: {display_round(100.0 * value, 2)}")
    if report.cirr_avg is not None:
        print(f"Avg (R@5, R_subset@1): {display_round(report.cirr_avg)}")
    return 0


# Each command: its handler, its help line, and the RunConfig fields it takes
# as flags (besides --seed).
_COMMANDS = {
    "ingest": (cmd_ingest, "validate embeddings and triplets", ("embeddings", "triplets")),
    "annotate": (cmd_annotate, "generate and judge annotations",
                 ("triplets", "annotations", "mock", "n_judges", "generator_endpoint",
                  "judge_endpoints", "endpoint_timeout", "endpoint_retries")),
    "filter": (cmd_filter, "partition annotations by judge scores",
               ("annotations", "accepted", "rejected", "mean_threshold", "max_range")),
    "train": (cmd_train, "run one training stage",
              ("stage", "embeddings", "triplets", "nli_pairs", "annotations", "checkpoint",
               "init_checkpoint", "from_scratch", "loss_log", "learning_rate", "batch_size",
               "epochs", "lambda_txt", "lambda_info", "tau", "annotation_mode", "vocab_size")),
    "eval": (cmd_eval, "rank the gallery and write the report",
             ("checkpoint", "embeddings", "triplets", "report", "ranked_out", "k_list",
              "subset_k_list", "map_k_list")),
    "report": (cmd_report, "pretty-print an evaluation report", ("report",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirlite",
        description="Desk-scale composed image retrieval pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved config and exit")
        for name in ("seed", *names):
            kwargs = dict(_FLAG_PARSERS[_FIELD_TYPES[name].removesuffix(" | None")])
            if name == "annotation_mode":
                kwargs["choices"] = trainer_mod.ANNOTATION_MODES
            p.add_argument("--" + name.replace("_", "-"), default=None, dest=name, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if getattr(args, "print_config", False):
            print(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True))
            return 0
        return _COMMANDS[args.command][0](cfg)
    except (CirliteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
