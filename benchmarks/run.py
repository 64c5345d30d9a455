"""cirlite benchmark: one workload per invocation, one JSON result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. The
run builds the workload's inputs from the seed (set-up, timed from the start
of this script), then runs whole rounds of the workload until the next one
would end past --seconds (at least one round), checking every round's
outputs. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A fuller record (machine,
round times, details) goes to .bench_runs/, with the spans of a traced run.
"""

import time

_T0 = time.perf_counter()
_START = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on a shared 2-core machine a second thread that loses
# its core stalls every matmul, which made timings far less steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("pipeline-default", "eval-large-gallery", "gradcheck", "annotate-remote")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "machine": platform.machine()}


def _checked(fn, *args) -> list[str]:
    """Run one output check; a check that raises counts as a failed check."""
    try:
        return fn(*args)
    except Exception as exc:  # the run must still report its result
        traceback.print_exc()
        return [f"{fn.__qualname__} raised {exc!r}"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cirlite" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'cirlite'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(_T0)
        tracer.install()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    problems: list[str] = []
    round_s: list[float] = []
    round_cpu_s: list[float] = []
    items_per_s: list[float] = []
    attempted = failed = 0
    try:
        workload.setup()
        setup_s = time.perf_counter() - _T0
        begin = time.perf_counter()
        while True:
            if tracer:
                tracer.phase, tracer.round = "round", len(round_s)
            start, cpu_start = time.perf_counter(), time.process_time()
            ops, bad = workload.run_round(len(round_s))
            round_s.append(time.perf_counter() - start)
            round_cpu_s.append(time.process_time() - cpu_start)
            attempted += ops
            failed += bad
            if tracer:
                tracer.phase = "check"
            items_per_s.append(workload.items(len(round_s) - 1) / round_s[-1])
            problems += _checked(workload.check_round, len(round_s) - 1)
            cost = time.perf_counter() - start
            if time.perf_counter() - begin + cost > args.seconds:
                break
        problems += _checked(workload.final_checks)
    finally:
        workload.close()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        metrics = tracer.layer_metrics(len(round_s), workload.extra_counts())
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": statistics.median(items_per_s), "unit": "items/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    # The start time and pid in the name keep earlier runs' records.
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.localtime(_START))}-{os.getpid()}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "setup_s": setup_s,
              "round_s": round_s, "round_cpu_s": round_cpu_s, "items_per_s": items_per_s,
              "peak_rss_mb": peak_rss_mb, "problems": problems,
              "details": workload.details, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n",
                                      encoding="utf-8")
    if tracer:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
        print(f"per-layer self time, {len(round_s)} round(s):")
        for line in tracer.summary_lines():
            print("  " + line)
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
