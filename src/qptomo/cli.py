"""Command-line front end.

Subcommands: ``gen-map`` (draw a random CPTP map), ``simulate`` (sample
measurement counts), ``reconstruct`` (estimate a map from counts),
``project`` (apply a constraint-set projection to a stored matrix) and
``benchmark`` (sweep dimensions, sample sizes and methods into a CSV).

Exit codes: 0 success, 1 data or domain error, 2 usage error, 3 iteration
cap reached (the best iterate is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .channel import cptp_residuals
from .ensembles import (
    EnsembleSpec,
    SimulationSpec,
    j_distance,
    minimal_setup,
    random_cptp,
    random_quasi_pure,
    simulate_counts,
)
from .errors import ConvergenceError, QptError, StalledStepError
from .projections import (
    project_cp,
    project_cptp_dykstra,
    project_tni,
    project_tp,
    project_us_p,
)
from .solvers import (
    DiaConfig,
    PgdbConfig,
    solve_dia,
    solve_lifp,
    solve_pgdb,
)

METHODS = ("pgdb", "dia", "lifp")


def _positive_dim(value: str) -> int:
    d = int(value)
    if d < 2:
        raise argparse.ArgumentTypeError(f"dimension must be at least 2, got {d}")
    return d


def _samples(value: str):
    if value.lower() == "inf":
        return None
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"sample size must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qptomo",
        description="Quantum process tomography with CPTP projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-map", help="draw a random CPTP map")
    gen.add_argument("--d", type=_positive_dim, required=True)
    gen.add_argument("--kind", choices=("full", "quasipure"), required=True)
    gen.add_argument("--kraus-rank", type=int, default=None,
                     help="Kraus rank for --kind full (default d^2)")
    gen.add_argument("--purity-sum", type=float, default=0.9,
                     help="target sum of squared mixture weights for quasipure")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True)

    sim = sub.add_parser("simulate", help="simulate measurement counts")
    sim.add_argument("--map", dest="map_file", type=Path, required=True)
    sim.add_argument("--N", dest="n_samples", type=_samples, required=True,
                     help="samples per preparation, or 'inf'")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--setup", type=Path, default=None,
                     help="setup file overriding the minimal setup")
    sim.add_argument("--out", type=Path, required=True)

    rec = sub.add_parser("reconstruct", help="estimate a map from counts")
    rec.add_argument("--counts", type=Path, required=True)
    rec.add_argument("--method", choices=METHODS, required=True)
    rec.add_argument("--out", type=Path, required=True)
    rec.add_argument("--report", type=Path, default=None,
                     help="report path (default: <out>.report.json)")
    rec.add_argument("--setup", type=Path, default=None)
    rec.add_argument("--mu", type=float, default=None)
    rec.add_argument("--gamma", type=float, default=0.3)
    rec.add_argument("--ftol", type=float, default=1e-10)
    rec.add_argument("--max-iters", type=int, default=None)

    proj = sub.add_parser("project", help="project a matrix onto a constraint set")
    proj.add_argument("--in", dest="in_file", type=Path, required=True)
    proj.add_argument("--set", dest="target_set", required=True,
                      choices=("cptp", "cp", "tp", "tni", "us_p"))
    proj.add_argument("--p-success", type=float, default=None,
                      help="success probability for --set us_p")
    proj.add_argument("--out", type=Path, required=True)

    bench = sub.add_parser("benchmark", help="sweep d, N and methods into a CSV")
    bench.add_argument("--d-list", required=True,
                       help="comma separated dimensions, e.g. 2,3")
    bench.add_argument("--N-list", dest="n_list", required=True,
                       help="comma separated sample sizes, 'inf' allowed")
    bench.add_argument("--methods", default="pgdb,dia,lifp")
    bench.add_argument("--trials", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--timings", action="store_true",
                       help="record wall times (makes the CSV non-reproducible)")
    bench.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_gen_map(args) -> int:
    if args.kind == "full":
        rank = args.kraus_rank if args.kraus_rank is not None else args.d**2
        spec = EnsembleSpec(d=args.d, kraus_rank=rank, kind="full_rank",
                            rng_seed=args.seed)
        choi = random_cptp(spec)
        meta = {"kind": "full", "kraus_rank": rank, "seed": args.seed}
    else:
        spec = EnsembleSpec(d=args.d, kraus_rank=1, kind="quasi_pure",
                            target_purity_sum=args.purity_sum, rng_seed=args.seed)
        choi = random_quasi_pure(spec)
        meta = {"kind": "quasipure", "purity_sum": args.purity_sum, "seed": args.seed}
    purity = float(np.trace(choi @ choi).real) / args.d**2
    min_eig, _ = cptp_residuals(choi, args.d)
    meta["purity"] = io._fmt(purity)
    args.out.write_text(io.dump_choi(choi, args.d, meta))
    print(f"purity {purity:.6f}  min eigenvalue {min_eig:.3e}")
    return 0


def _load_setup_for(d: int, setup_path: Path | None):
    if setup_path is None:
        return minimal_setup(d)
    setup = io.load_setup(setup_path.read_text())
    if setup.d != d:
        raise QptError(f"setup dimension {setup.d} does not match data dimension {d}")
    return setup


def _cmd_simulate(args) -> int:
    choi, d, _ = io.load_choi(args.map_file.read_text())
    setup = _load_setup_for(d, args.setup)
    counts = simulate_counts(choi, setup, SimulationSpec(args.n_samples, args.seed))
    args.out.write_text(io.dump_counts(counts, d, args.n_samples, args.seed))
    return 0


def _cmd_reconstruct(args) -> int:
    counts, info = io.load_counts(args.counts.read_text())
    setup = _load_setup_for(info["d"], args.setup)
    report_path = args.report or args.out.parent / (args.out.name + ".report.json")

    def write(est, report, exit_code):
        meta = {"method": args.method, "status": report.status}
        args.out.write_text(io.dump_choi(est, setup.d, meta))
        report_path.write_text(
            json.dumps(dataclasses.asdict(report), indent=1, default=np.ndarray.tolist)
            + "\n"
        )
        print(f"{args.method}: {report.status}, {report.iterations} iterations, "
              f"final cost {report.final_cost:.12g}")
        return exit_code

    # Passed to the constructor, so that the config checks the cap too.
    cap = {} if args.max_iters is None else {"max_outer_iterations": args.max_iters}
    try:
        if args.method == "pgdb":
            cfg = PgdbConfig(mu=args.mu, gamma=args.gamma, f_tol=args.ftol, **cap)
            est, report = solve_pgdb(setup, counts, cfg)
        elif args.method == "dia":
            est, report = solve_dia(setup, counts, DiaConfig(f_tol=args.ftol, **cap))
        else:
            est, report = solve_lifp(setup, counts)
    except (ConvergenceError, StalledStepError) as err:
        if err.report is None or getattr(err, "last_iterate", None) is None:
            raise
        return write(err.last_iterate, err.report, 3)
    return write(est, report, 0)


def _cmd_project(args) -> int:
    if args.target_set == "us_p" and args.p_success is None:
        print("error: --set us_p requires --p-success", file=sys.stderr)
        return 2
    mat, d, _ = io.load_choi(args.in_file.read_text())
    if args.target_set == "us_p":
        projected = project_us_p(mat, args.p_success)
    elif args.target_set == "cp":
        projected = project_cp(mat)
    elif args.target_set == "tp":
        projected = project_tp(mat, d)
    elif args.target_set == "tni":
        projected = project_tni(mat)
    else:
        projected = project_cptp_dykstra(mat)
    moved = float(np.linalg.norm(projected - mat))
    args.out.write_text(io.dump_choi(projected, d, {"projected_onto": args.target_set}))
    print(f"distance moved {moved:.12g}")
    return 0


def _benchmark_trial(d: int, n_samples, trial: int, base_seed: int,
                     methods: list[str], timings: bool) -> list[str]:
    n_key = 0 if n_samples is None else int(n_samples)
    seq = np.random.SeedSequence([base_seed, d, n_key, trial])
    map_seed, counts_seed = (int(s) for s in seq.generate_state(2, dtype=np.uint64))

    def failed(method, err):
        status = {
            ConvergenceError: "iteration_cap",
            StalledStepError: "stalled",
        }.get(type(err), "error")
        return io.benchmark_row(
            d, n_samples, method, trial, map_seed,
            None, None, None, None, None, status)

    setup = minimal_setup(d)
    try:
        truth = random_quasi_pure(
            EnsembleSpec(d=d, kraus_rank=1, kind="quasi_pure", rng_seed=map_seed)
        )
        counts = simulate_counts(truth, setup, SimulationSpec(n_samples, counts_seed))
    except QptError as err:
        return [failed(method, err) for method in methods]
    rows = []
    for method in methods:
        try:
            if method == "pgdb":
                est, report = solve_pgdb(setup, counts)
            elif method == "dia":
                est, report = solve_dia(setup, counts)
            else:
                est, report = solve_lifp(setup, counts)
            rows.append(io.benchmark_row(
                d, n_samples, method, trial, map_seed,
                j_distance(est, truth), report.final_cost, report.iterations,
                report.wall_time_s if timings else None,
                report.conditioning_heralded, "ok"))
        except QptError as err:
            rows.append(failed(method, err))
    return rows


def _cmd_benchmark(args) -> int:
    try:
        d_list = [int(x) for x in args.d_list.split(",") if x]
        n_list = [_samples(x) for x in args.n_list.split(",") if x]
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise QptError(f"bad sweep list: {err}") from err
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise QptError(f"unknown method {m!r}")
    rows = [
        row
        for d in d_list
        for n in n_list
        for trial in range(args.trials)
        for row in _benchmark_trial(d, n, trial, args.seed, methods, args.timings)
    ]
    args.out.write_text(io.dump_benchmark(rows))
    ok = sum(1 for row in rows if row.endswith(",ok"))
    print(f"{ok}/{len(rows)} rows succeeded")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "gen-map": _cmd_gen_map,
        "simulate": _cmd_simulate,
        "reconstruct": _cmd_reconstruct,
        "project": _cmd_project,
        "benchmark": _cmd_benchmark,
    }[args.command]
    try:
        return handler(args)
    except QptError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
