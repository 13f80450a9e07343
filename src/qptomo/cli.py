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
from .errors import ConvergenceError, DomainError, QptError, StalledStepError
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

#: Each method's config class; lifp takes none. Its solver is ``solve_<method>``.
METHODS = {"pgdb": PgdbConfig, "dia": DiaConfig, "lifp": None}
#: ``project --set`` choices and their projections; us_p takes ``--p-success``.
PROJECTIONS = {"cptp": project_cptp_dykstra, "cp": project_cp, "tp": project_tp,
               "tni": project_tni, "us_p": project_us_p}


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
    # Each tuning flag's dest is its config field; unset flags keep the
    # config's default.
    rec.add_argument("--mu", type=float, default=None)
    rec.add_argument("--gamma", type=float, default=None)
    rec.add_argument("--ftol", dest="f_tol", type=float, default=None)
    rec.add_argument("--max-iters", dest="max_outer_iterations", type=int, default=None)

    proj = sub.add_parser("project", help="project a matrix onto a constraint set")
    proj.add_argument("--in", dest="in_file", type=Path, required=True)
    proj.add_argument("--set", dest="target_set", required=True,
                      choices=PROJECTIONS)
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
    min_eig, _ = cptp_residuals(choi)
    meta["purity"] = io._fmt(purity)
    args.out.write_text(io.dump_choi(choi, args.d, meta))
    print(f"purity {purity:.6f}  min eigenvalue {min_eig:.3e}")
    return 0


def _read(path: Path) -> str:
    """The text of an input file; bytes that are not UTF-8 are a data error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DomainError(f"{path}: not UTF-8 text: {err}") from err


def _load_setup_for(d: int, setup_path: Path | None):
    if setup_path is None:
        return minimal_setup(d)
    setup = io.load_setup(_read(setup_path))
    if setup.d != d:
        raise QptError(f"setup dimension {setup.d} does not match data dimension {d}")
    return setup


def _cmd_simulate(args) -> int:
    choi, d, _ = io.load_choi(_read(args.map_file))
    setup = _load_setup_for(d, args.setup)
    counts = simulate_counts(choi, setup, SimulationSpec(args.n_samples, args.seed))
    args.out.write_text(io.dump_counts(counts, d, args.n_samples, args.seed))
    return 0


def _solve(method: str, setup, counts, flags):
    """Run ``method`` with its config from the ``flags`` set (None: defaults).

    The solver is found at call time: a wrapper on ``qptomo.cli.solve_<method>`` sees it.
    """
    solve, cls = globals()[f"solve_{method}"], METHODS[method]
    if cls is None:
        return solve(setup, counts)
    given = {f.name: getattr(flags, f.name, None) for f in dataclasses.fields(cls)}
    return solve(setup, counts, cls(**{k: v for k, v in given.items() if v is not None}))


def _cmd_reconstruct(args) -> int:
    counts, info = io.load_counts(_read(args.counts))
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

    try:
        est, report = _solve(args.method, setup, counts, args)
    except (ConvergenceError, StalledStepError) as err:
        if err.report is None or getattr(err, "last_iterate", None) is None:
            raise
        return write(err.last_iterate, err.report, 3)
    return write(est, report, 0)


def _cmd_project(args) -> int:
    us_p = args.target_set == "us_p"
    if us_p != (args.p_success is not None):
        print("error: --set us_p takes --p-success, and no other set does",
              file=sys.stderr)
        return 2
    mat, d, _ = io.load_choi(_read(args.in_file))
    extra = (args.p_success,) if us_p else ()
    projected = PROJECTIONS[args.target_set](mat, *extra)
    moved = float(np.linalg.norm(projected - mat))
    args.out.write_text(io.dump_choi(projected, d, {"projected_onto": args.target_set}))
    print(f"distance moved {moved:.12g}")
    return 0


def _benchmark_trial(setup, n_samples, trial: int, base_seed: int,
                     methods: list[str], timings: bool) -> list[str]:
    d = setup.d
    n_key = 0 if n_samples is None else int(n_samples)
    seq = np.random.SeedSequence([base_seed, d, n_key, trial])
    map_seed, counts_seed = (int(s) for s in seq.generate_state(2, dtype=np.uint64))
    key = {"d": d, "N": "inf" if n_samples is None else n_samples, "trial": trial,
           "seed": map_seed}

    def failed(method, err):
        status = getattr(err, "status", "error")
        return io.benchmark_row(**key, method=method, status=status)

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
            est, report = _solve(method, setup, counts, flags=None)
            rows.append(io.benchmark_row(
                **key, method=method, j_distance=j_distance(est, truth),
                final_cost=report.final_cost, iterations=report.iterations,
                wall_time_s=report.wall_time_s if timings else None,
                heralded=report.conditioning_heralded, status="ok"))
        except QptError as err:
            rows.append(failed(method, err))
    return rows


def _cmd_benchmark(args) -> int:
    try:
        d_list = [_positive_dim(x) for x in args.d_list.split(",") if x]
        n_list = [_samples(x) for x in args.n_list.split(",") if x]
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise QptError(f"bad sweep list: {err}") from err
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise QptError(f"unknown method {m!r}")
    if not (d_list and n_list and methods):
        raise QptError("--d-list, --N-list and --methods each need at least one entry")
    if args.trials < 1 or args.seed < 0:
        raise QptError(f"need --trials >= 1 and --seed >= 0, got {args.trials} "
                       f"and {args.seed}")
    # One setup per dimension, so its cached pseudo-inverses serve every trial.
    rows = [
        row
        for setup in map(minimal_setup, d_list)
        for n in n_list
        for trial in range(args.trials)
        for row in _benchmark_trial(setup, n, trial, args.seed, methods, args.timings)
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
    except (QptError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
