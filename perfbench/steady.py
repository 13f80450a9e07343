"""Steadiness check: run workloads over several seeds, compare spreads to bounds.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads pgdb_noisy,dia_exact] [--runs 10]
                                [--trace 0|1]

Each run is a fresh ``perfbench/run.py`` process of BENCHMARK.json's
``run_seconds``, with seeds 1, 2, ... in turn. For each end-to-end metric
the table gives the median and quartiles over the runs
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
the metric's bound from BENCHMARK.json; a spread above a third of the bound
is flagged. With ``--trace 1`` it prints the per-layer figures instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            results.append(_run(workload, 1 + k, seconds, args.trace))
        walls = [r["wall_s"] for r in results]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, --seconds {seconds}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {all(r['correct'] for r in results)}, "
              f"failed/attempted {', '.join(f'{f}/{a}' for f, a in shares)}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values):
                print(f"  {name:28s} absent")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <- spread above bound/3"
            bound_s = f"{bound:6.2f}" if bound is not None else f"{'':6s}"
            print(f"  {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{bound_s}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
