"""The four benchmark workloads.

Each workload builds its inputs from the seed in setup(), runs one round of
user-facing operations per run_round() call (the timed part), and checks the
round's outputs in check_round() with the independent checks of
reference.py. Workloads call into cirlite through module attributes, so the
traced mode's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
from pathlib import Path

import numpy as np

from cirlite import annotate, cli, data, evaluate, model, retrieval, trainer
from cirlite.errors import CirliteError

import reference
from stub_server import N_JUDGES, StubServer


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cirlite.cli.main in-process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Base: subclasses set `name` and fill in the four phases."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.details: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> tuple[int, int]:
        """Run one round; return (operations attempted, operations failed)."""
        raise NotImplementedError

    def check_round(self, index: int) -> list[str]:
        raise NotImplementedError

    def items(self, index: int) -> int:
        """Work items a completed round processed, for items_per_s."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def extra_counts(self) -> dict[str, int]:
        return {}

    def close(self) -> None:
        pass


class PipelineDefault(Workload):
    """The README CLI walkthrough on the default world, in-process."""

    name = "pipeline-default"
    # Criterion 6 establishes R@1 >= 90 and R@5 >= 99 on world seed 0 only.
    FLOOR_SEED = 0

    def setup(self) -> None:
        world = data.generate_synthetic_world(self.seed, 200, 8, n_triplets=500)
        self.paths = data.save_world(world, self.workdir / "world")
        self.train = str(self.workdir / "train.jsonl")
        self.eval = str(self.workdir / "eval.jsonl")
        data.write_triplets(world.triplets[:400], self.train)
        data.write_triplets(world.triplets[400:], self.eval)
        self.details["command_s"] = {}
        self.outputs: dict[int, dict] = {}

    def _commands(self, d: Path) -> list[tuple[str, list[str]]]:
        s = str(self.seed)
        emb = self.paths["embeddings"]
        return [
            ("ingest", ["ingest", "--embeddings", emb, "--triplets", self.paths["triplets"]]),
            ("annotate", ["annotate", "--triplets", self.train, "--annotations",
                          str(d / "ann.jsonl"), "--mock", "--seed", s]),
            ("filter", ["filter", "--annotations", str(d / "ann.jsonl"),
                        "--accepted", str(d / "acc.jsonl"), "--rejected", str(d / "rej.jsonl")]),
            ("train1", ["train", "--stage", "1", "--embeddings", emb,
                        "--nli-pairs", self.paths["nli_pairs"],
                        "--checkpoint", str(d / "s1.ckpt"), "--seed", s]),
            ("train2", ["train", "--stage", "2", "--embeddings", emb, "--triplets", self.train,
                        "--annotations", str(d / "acc.jsonl"),
                        "--init-checkpoint", str(d / "s1.ckpt"),
                        "--checkpoint", str(d / "s2.ckpt"), "--seed", s,
                        "--loss-log", str(d / "loss.jsonl")]),
            ("eval", ["eval", "--checkpoint", str(d / "s2.ckpt"), "--embeddings", emb,
                      "--triplets", self.eval, "--report", str(d / "report.json"),
                      "--ranked-out", str(d / "ranked.jsonl")]),
            ("report", ["report", "--report", str(d / "report.json")]),
        ]

    def run_round(self, index: int) -> tuple[int, int]:
        d = self.workdir / f"round{index}"
        d.mkdir()
        commands = self._commands(d)
        stdout = {}
        for done, (name, argv) in enumerate(commands):
            start = time.perf_counter()
            code, stdout[name] = _run_cli(argv)
            self.details["command_s"].setdefault(name, []).append(time.perf_counter() - start)
            if code != 0:
                return len(commands), len(commands) - done
        self.outputs[index] = {"dir": d, "stdout": stdout}
        return len(commands), 0

    def items(self, index: int) -> int:
        """Stage-2 training examples: accepted annotations times epochs."""
        if index not in self.outputs:
            return 0
        accepted = reference.read_jsonl(self.outputs[index]["dir"] / "acc.jsonl")
        return len(accepted) * trainer.STAGE2_DEFAULTS["epochs"]

    def check_round(self, index: int) -> list[str]:
        if index not in self.outputs:
            return []
        d, stdout = self.outputs[index]["dir"], self.outputs[index]["stdout"]
        annotated = reference.read_jsonl(d / "ann.jsonl")
        problems = reference.check_filter(
            annotated, reference.read_jsonl(d / "acc.jsonl"), reference.read_jsonl(d / "rej.jsonl"))
        problems += reference.check_loss_decreases(reference.read_jsonl(d / "loss.jsonl"))
        ids, values = reference.read_embeddings(self.paths["embeddings"])
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        eval_problems, ambiguous = reference.check_eval(
            reference.read_checkpoint(d / "s2.ckpt"), ids, values,
            reference.read_jsonl(self.eval), report, reference.read_jsonl(d / "ranked.jsonl"))
        problems += eval_problems
        problems += reference.check_report_text(stdout["report"], report)
        self.details["ambiguous_queries"] = ambiguous
        self.details["report"] = report
        if self.seed == self.FLOOR_SEED and not (
                report["recall"]["1"] >= 90.0 and report["recall"]["5"] >= 99.0):
            problems.append(f"seed {self.seed}: R@1 = {report['recall']['1']}, "
                            f"R@5 = {report['recall']['5']} below criterion 6's floor")
        return problems


class EvalLargeGallery(Workload):
    """evaluate_queries for 2000 queries over a 6000-item, 13-attribute world."""

    name = "eval-large-gallery"
    N_ITEMS, N_ATTRS, N_QUERIES = 6000, 13, 2000

    def setup(self) -> None:
        self.world = data.generate_synthetic_world(
            self.seed, self.N_ITEMS, self.N_ATTRS, n_triplets=self.N_QUERIES)
        self.params = model.init_params(self.seed, d_img=self.world.embeddings.dims)
        self.ranked_path = self.workdir / "ranked.jsonl"
        self.first: tuple[str, bytes] | None = None
        self.last = None

    def run_round(self, index: int) -> tuple[int, int]:
        try:
            report = evaluate.evaluate_queries(
                self.params, self.world.embeddings, self.world.triplets,
                ranked_out=self.ranked_path)
        except CirliteError:
            self.last = None
            return self.N_QUERIES, self.N_QUERIES
        self.last = report
        return self.N_QUERIES, 0

    def items(self, index: int) -> int:
        return self.N_QUERIES if self.last is not None else 0

    def check_round(self, index: int) -> list[str]:
        if self.last is None:
            return []
        outputs = (self.last.to_json(), self.ranked_path.read_bytes())
        if self.first is not None:
            # Evaluation is deterministic: later rounds must repeat the
            # first round's outputs byte for byte.
            return [] if outputs == self.first else [
                f"round {index}: report or top-k lists differ from round 0"]
        self.first = outputs
        report = json.loads(outputs[0])
        p = self.params
        params = {name: getattr(p, name) for name in reference.PARAM_ORDER}
        problems, ambiguous = reference.check_eval(
            params, self.world.embeddings.ids, self.world.embeddings.values,
            [dataclasses.asdict(t) for t in self.world.triplets], report,
            reference.read_jsonl(self.ranked_path))
        self.details["ambiguous_queries"] = ambiguous
        self.details["report"] = report
        return problems

    def final_checks(self) -> list[str]:
        """Oracle queries against the raw gallery rank every target first."""
        index = retrieval.build_index(self.world.embeddings)
        missed = [t.pair_id for t in self.world.triplets
                  if retrieval.rank_of(index, data.oracle_query_vector(self.world, t),
                                       t.target_id) != 1]
        return [f"oracle query not ranked first for {len(missed)} pairs, e.g. {missed[:3]}"
                ] if missed else []


class GradCheck(Workload):
    """Criterion 2's analytic-vs-finite-difference check on a fixed set of draws."""

    name = "gradcheck"
    # Criterion 2 establishes its 1e-4 bound on draws 0..9; the seed picks a
    # pair of them. (Other draws can exceed it: see CHANGES.md.)
    ESTABLISHED_DRAWS = 10
    DRAWS = 2

    def setup(self) -> None:
        self.config = trainer.TrainConfig(stage=2, seed=0)
        self.draws = []
        first = self.DRAWS * self.seed % self.ESTABLISHED_DRAWS
        for draw in range(first, first + self.DRAWS):
            rng = np.random.default_rng(draw)
            p = model.init_params(draw, vocab_size=64)
            batch = [
                model.BatchItem(
                    img_vec=rng.standard_normal(64),
                    mod_toks=[int(t) for t in rng.integers(1, 64, size=int(rng.integers(1, 5)))],
                    target_img_vec=rng.standard_normal(64),
                    target_toks=[int(t) for t in rng.integers(1, 64, size=int(rng.integers(0, 5)))],
                )
                for _ in range(4)
            ]
            self.draws.append((p, batch))
        self.results: list = []

    def run_round(self, index: int) -> tuple[int, int]:
        self.results = []
        for p, batch in self.draws:
            _, _, _, trace = model.forward_batch(p, batch)
            analytic = trainer.backward(p, trace, batch, self.config)
            numeric = trainer.finite_diff_grad(p, batch, self.config, epsilon=1e-4)
            self.results.append((analytic, numeric))
        return len(self.draws), 0

    def items(self, index: int) -> int:
        return len(self.draws)

    def check_round(self, index: int) -> list[str]:
        problems = []
        for analytic, numeric in self.results:
            a, n = _gradient_dict(analytic), _gradient_dict(numeric)
            problems += reference.check_gradients(a, n)
            worst = max(reference.max_relative_errors(a, n).values())
            self.details["max_relative_error"] = max(
                worst, self.details.get("max_relative_error", 0.0))
        return problems


def _gradient_dict(g) -> dict:
    out = {name: getattr(g, name) for name in reference.PARAM_ORDER}
    out["temperature"] = g.d_temperature
    return out


class AnnotateRemote(Workload):
    """CLI annotate against loopback HTTP endpoints, then filter."""

    name = "annotate-remote"
    N_TRIPLETS = 1000

    def setup(self) -> None:
        world = data.generate_synthetic_world(self.seed, 200, 8, n_triplets=self.N_TRIPLETS)
        self.triplets_path = str(self.workdir / "triplets.jsonl")
        data.write_triplets(world.triplets, self.triplets_path)
        self.server = StubServer(self.seed)
        self.server.start()
        self.round_requests: dict[int, int] = {}
        self.outputs: dict[int, dict] = {}
        self.first: list[bytes] | None = None

    def run_round(self, index: int) -> tuple[int, int]:
        d = self.workdir / f"round{index}"
        d.mkdir()
        files = [d / "ann.jsonl", d / "acc.jsonl", d / "rej.jsonl"]
        before = sum(self.server.requests.values())
        code, out = _run_cli(["annotate", "--triplets", self.triplets_path,
                              "--annotations", str(files[0]),
                              "--generator-endpoint", self.server.generator_url(),
                              "--judge-endpoints", *self.server.judge_urls()])
        if code == 0:
            code, _ = _run_cli(["filter", "--annotations", str(files[0]),
                                "--accepted", str(files[1]), "--rejected", str(files[2])])
        self.round_requests[index] = sum(self.server.requests.values()) - before
        if code != 0:
            return self.N_TRIPLETS, self.N_TRIPLETS
        self.outputs[index] = {"files": files, "stdout": out}
        return self.N_TRIPLETS, 0

    def items(self, index: int) -> int:
        return self.N_TRIPLETS if index in self.outputs else 0

    def check_round(self, index: int) -> list[str]:
        problems = []
        expected_requests = (1 + N_JUDGES) * self.N_TRIPLETS
        if self.round_requests[index] != expected_requests:
            problems.append(f"round {index}: the stub received {self.round_requests[index]} "
                            f"requests, expected {expected_requests}")
        if index not in self.outputs:
            return problems
        files, out = self.outputs[index]["files"], self.outputs[index]["stdout"]
        contents = [f.read_bytes() for f in files]
        if self.first is not None:
            if contents != self.first:
                problems.append(f"round {index}: annotation files differ from round 0")
            return problems
        self.first = contents
        expected_line = (f"annotate ok: triplets={self.N_TRIPLETS} "
                         f"annotated={self.N_TRIPLETS} unparseable=0")
        if out.strip() != expected_line:
            problems.append(f"annotate printed {out.strip()!r}, expected {expected_line!r}")
        got = reference.read_jsonl(files[0])
        problems += reference.check_annotations_equal(got, self._in_process())
        problems += reference.check_filter(
            got, reference.read_jsonl(files[1]), reference.read_jsonl(files[2]))
        return problems

    def _in_process(self) -> list[dict]:
        """The same triplets annotated by calling the mock clients directly."""
        triplets = data.load_triplets(self.triplets_path)
        judges = [annotate.MockJudge(self.seed + i) for i in range(N_JUDGES)]
        annotations, _ = annotate.annotate_triplets(
            triplets, annotate.MockGenerator(self.seed), judges)
        return [dataclasses.asdict(a) for a in annotations]

    def extra_counts(self) -> dict[str, int]:
        return {"annotate.server_requests": sum(self.round_requests.values())}

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


WORKLOADS = {w.name: w for w in (PipelineDefault, EvalLargeGallery, GradCheck, AnnotateRemote)}
