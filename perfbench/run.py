"""qptomo benchmark: one workload per process, metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload pgdb_noisy --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout the script sits in
and the ``qptomo`` commands run as ``python -m qptomo.cli`` with that
``src`` on ``PYTHONPATH``, so nothing needs installing. The run:

1. sets up three times (imports are timed once and added to each); a
   set-up draws the first round's inputs and runs one warm-up operation on
   a fixed input; ``setup_s`` is the median;
2. runs whole rounds of the workload's operations, each on fresh inputs
   drawn from the seed and the round number, at least ``MIN_ROUNDS`` and
   then while the next round is expected to end within ``--seconds``
   (with ``--trace 1`` each round runs both untraced and traced);
3. checks every output against ``oracle`` and prints the environment and,
   as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBES = 3
#: Timings are medians over at least this many rounds.
MIN_ROUNDS = 3


@dataclass
class Record:
    op: object
    seconds: float
    output: object
    failed: bool


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _execute(op, tracer=None, traced=False) -> Record:
    traced = traced and not op.probe
    if traced:
        tracer.begin_op()
        tracer.active = True
    t0 = time.perf_counter()
    try:
        raw = op.run()
        error = None
    except Exception:  # noqa: BLE001 - an operation that raises has failed
        raw, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    if traced:
        tracer.active = False
    if error is not None:
        print(f"operation {op.label} failed:\n{error}", file=sys.stderr)
        return Record(op, seconds, None, True)
    output = op.capture(raw)
    return Record(op, seconds, output, op.failed(output))


def _round(ops, tracer=None, traced=False) -> tuple[list[Record], float]:
    t0 = time.perf_counter()
    records = [_execute(op, tracer, traced) for op in ops]
    return records, time.perf_counter() - t0


def _median_time(records, wanted) -> float:
    """Median time of the successful operations ``wanted`` selects."""
    return statistics.median(
        rec.seconds for rec in records if wanted(rec.op) and not rec.failed
    )


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qptomo").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _import_seconds(env) -> float:
    """Median time for a fresh interpreter to import qptomo.cli."""
    code = "import time; t = time.perf_counter(); import qptomo.cli; " \
           "print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qptomo" / "__init__.py").is_file():
        print(f"error: no qptomo sources under {SRC}", file=sys.stderr)
        return 2
    # The benchmark measures the program as users run it: the thread pool
    # switch of ``qptomo benchmark`` stays unset, BLAS keeps its default.
    os.environ.pop("QPTOMO_BENCH_THREADS", None)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: part of set-up)
    import qptomo  # noqa: F401
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.PLANS)}", file=sys.stderr)
        return 2
    cli_workload = args.workload == "cli_pipeline"
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(work, env, args.seed, in_process_cli=bool(args.trace))
        setup_times = []
        for k in range(SETUP_REPEATS):
            t = time.perf_counter()
            if tracer:
                tracer.begin_phase(f"setup{k}")
                tracer.active = True
            plan = workloads.PLANS[args.workload](ctx)
            ops = plan.round(0)
            if tracer:
                tracer.active = False
            _execute(plan.warm_up)
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        records, plain_rounds, traced_rounds = [], [], []
        t_start = time.perf_counter()
        while True:
            if plain_rounds:
                ops = plan.round(len(plain_rounds))
            # With tracing, the same operations run once untraced and once
            # traced, so that the two rounds differ only by the tracing; which
            # goes first alternates, so that neither always finds the other's
            # caches warm.
            order = [False, True] if tracer else [False]
            if len(plain_rounds) % 2:
                order.reverse()
            for traced in order:
                if traced:
                    tracer.begin_phase(f"round{len(traced_rounds)}")
                recs, dt = _round(ops, tracer, traced)
                records += recs
                (traced_rounds if traced else plain_rounds).append(dt)
            elapsed = time.perf_counter() - t_start
            if (len(plain_rounds) >= MIN_ROUNDS
                    and elapsed + elapsed / len(plain_rounds) > args.seconds):
                break
        timed_s = time.perf_counter() - t_start

        correct, js = True, []
        for rec in records:
            if rec.failed:
                continue
            reason, j = rec.op.check(rec.output)
            if reason is not None:
                correct = False
                print(f"wrong output from {rec.op.label}: {reason}", file=sys.stderr)
            if j is not None and not rec.op.probe:
                js.append(j)

        if tracer:
            metrics = tracing.layer_metrics(tracer)
            extra = [t - p for t, p in zip(traced_rounds, plain_rounds)]
            metrics["cli.import_s"] = {
                "value": _import_seconds(env) if cli_workload else 0.0, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": statistics.median(extra), "unit": "s"}
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * statistics.median(
                    e / p for e, p in zip(extra, plain_rounds)),
                "unit": "%"}
            tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            who = resource.RUSAGE_CHILDREN if cli_workload else resource.RUSAGE_SELF
            n_recon = sum(1 for r in records if r.op.recon and not r.failed)
            work_s = sum(r.seconds for r in records if not r.op.probe)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "recon_s_p50": {"value": _median_time(records, lambda o: o.recon),
                                "unit": "s"},
                "recon_per_s": {"value": n_recon / work_s, "unit": "1/s"},
                "project_s_p50": {"value": _median_time(records, lambda o: o.project),
                                  "unit": "s"},
                "cli_cmd_s_p50": {"value": _median_time(records, lambda o: o.cli),
                                  "unit": "s"},
                "j_distance_mean": {"value": statistics.fmean(js), "unit": "1"},
                "peak_rss_mib": {"value": resource.getrusage(who).ru_maxrss / 1024,
                                 "unit": "MiB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("# env " + json.dumps(_environment(), sort_keys=True))
    print(f"# {args.workload}: {len(plain_rounds)} rounds"
          + (f" + {len(traced_rounds)} traced" if tracer else "")
          + f" in {timed_s:.2f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
