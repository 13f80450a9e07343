"""The four workloads: inputs drawn from the seed, operations, output checks.

A workload's set-up builds what every round shares (the minimal setups,
the malformed command-line inputs) and a warm-up operation on a fixed
input. Round ``r`` then draws its own inputs from ``(--seed, r)``: every
round runs the same operations on fresh inputs, so a run's timings are
medians over many inputs rather than over a few repeated ones, while
``failed / attempted`` stays the same in every round and every run.

Probes exist because every end-to-end metric is reported on every
workload. An in-process workload has no command of its own, so its rounds
also run two ``qptomo reconstruct --method lifp`` commands on its cheapest
inputs; pgdb_noisy and dia_exact have no standalone projection of their own,
so their rounds also run some at their own dimensions. Probes are spread
between the operations, their times stay out of ``recon_per_s`` and they
are not traced.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

CLI_TIMEOUT_S = 150
#: ``qptomo reconstruct --method lifp`` probes in one round.
CLI_PROBES = 2
#: Standalone projections per dimension in one round.
PROJECTIONS_PER_D = 10


@dataclass
class Op:
    """One operation of a round, with how to check what it produced.

    ``run`` does the timed work and returns its raw result; ``capture``
    (untimed) turns that into the output to keep; ``check`` returns
    (reason the output is wrong or None, J distance to the truth or None).
    ``failed`` tells whether the operation failed rather than produced an
    output. The flags say which metrics its time counts in.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, float | None]]
    capture: Callable[[object], object] = lambda raw: raw
    failed: Callable[[object], bool] = lambda out: False
    recon: bool = False
    project: bool = False
    cli: bool = False
    probe: bool = False


@dataclass
class Plan:
    """``round(r)`` draws round r's inputs and returns its operations."""

    round: Callable[[int], list[Op]]
    warm_up: Op


@dataclass
class Context:
    work: Path
    env: dict
    seed: int
    in_process_cli: bool


def _seeds(seed: int, tag: int, round_no: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, tag, round_no])
    return [int(s) for s in ss.generate_state(count)]


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """GUE-style operator with Frobenius norm d, far from the CPTP set."""
    x = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    h = oracle.hermitian(x)
    return h * (d / np.linalg.norm(h))


# -- in-process operations ----------------------------------------------------


def _solve_op(method: str, cell: str, setup, counts, truth, n_samples) -> Op:
    from qptomo import solvers

    d = setup.d
    preps, povm = oracle.minimal_operators(d)
    solve = {"pgdb": "solve_pgdb", "dia": "solve_dia", "lifp": "solve_lifp"}[method]

    def run():
        # Looked up at call time so that the traced run's wrappers apply.
        return getattr(solvers, solve)(setup, counts)

    def check(result):
        est = np.asarray(result[0])
        reason = oracle.estimate_failure(
            est, truth, method, n_samples, preps, povm, counts.n
        )
        return reason, oracle.j_distance(est, truth)

    return Op(cell, run, check, recon=True)


def _project_op(cell: str, x: np.ndarray, seed: int) -> Op:
    from qptomo import projections

    def check(p):
        rng = np.random.default_rng(seed)
        samples = oracle.projection_samples(rng, oracle.side(x))
        return oracle.projection_failure(x, np.asarray(p), samples, rng), None

    return Op(cell, lambda: projections.project_cptp_dykstra(x), check, project=True)


def _draw(setups, cells, seeds):
    """Per cell (d, N, maps): quasi-pure true maps and simulated counts."""
    from qptomo import ensembles

    seeds = iter(seeds)
    inputs = []
    for d, n_samples, maps in cells:
        for _ in range(maps):
            spec = ensembles.EnsembleSpec(
                d=d, kraus_rank=1, kind="quasi_pure", rng_seed=next(seeds)
            )
            truth = ensembles.random_quasi_pure(spec)
            sim = ensembles.SimulationSpec(n_samples, next(seeds))
            counts = ensembles.simulate_counts(truth, setups[d], sim)
            inputs.append((d, n_samples, setups[d], counts, truth))
    return inputs


def _cell(method: str, d: int, n_samples) -> str:
    return f"{method} d={d} N={'inf' if n_samples is None else n_samples}"


def _solver_plan(ctx: Context, method: str, cells, tag: int, project_dims,
                 probe_projections: bool) -> Plan:
    """Solves over ``cells`` (d, N, maps), standalone projections at each of
    ``project_dims`` and the command-line probes.

    With ``probe_projections`` the projections are probes, like the
    command-line ones: spread between the solves, left out of ``recon_per_s``
    and not traced. Otherwise they follow the solves as operations of the
    workload.
    """
    from qptomo import ensembles

    setups = {d: ensembles.minimal_setup(d) for d in dict.fromkeys(c[0] for c in cells)}
    n_maps = sum(m for _, _, m in cells)

    def round_ops(r: int) -> list[Op]:
        seeds = _seeds(ctx.seed, tag, r, 2 * n_maps + 1 + PROJECTIONS_PER_D * len(project_dims))
        inputs = _draw(setups, cells, seeds[: 2 * n_maps])
        ops = [_solve_op(method, _cell(method, d, n), s, c, t, n) for d, n, s, c, t in inputs]
        rng = np.random.default_rng(seeds[2 * n_maps])
        check_seeds = iter(seeds[2 * n_maps + 1:])
        projections = [
            _project_op(f"project d={d}", _random_hermitian(rng, d), next(check_seeds))
            for _ in range(PROJECTIONS_PER_D)
            for d in project_dims
        ]
        # Command-line probes: ``reconstruct --method lifp`` on the first
        # cell's inputs. lifp keeps the solve small, so the probe times the
        # command line.
        probes = [_lifp_probe(ctx, k, inputs[k]) for k in range(CLI_PROBES)]
        if probe_projections:
            probes += projections
        else:
            ops += projections
        for op in probes:
            op.probe = True
        return _spread(ops, probes)

    # The warm-up solves a fixed small input, the same for every seed.
    fixed = [int(x) for x in np.random.SeedSequence(tag).generate_state(2)]
    warm = _draw({2: ensembles.minimal_setup(2)}, [(2, 1000, 1)], fixed)
    d, n, setup, counts, truth = warm[0]
    return Plan(round_ops, _solve_op(method, "warm-up", setup, counts, truth, n))


def _lifp_probe(ctx: Context, k: int, inputs) -> Op:
    d, n, setup, counts, truth = inputs
    path, truth_path = ctx.work / f"probe{k}.txt", ctx.work / f"probe{k}_map.json"
    path.write_text(_counts_doc(counts.n, n))
    truth_path.write_text(_choi_doc(truth))
    out = ctx.work / f"probe{k}.json"
    report = ctx.work / f"probe{k}.json.report.json"
    return _cli_op(
        ctx, "cli reconstruct lifp",
        ["reconstruct", "--counts", str(path), "--method", "lifp", "--out", str(out)],
        [out, report], _estimate_check("lifp", n, truth_path, path, report),
        inputs=[truth_path, path],
    )


def _spread(ops: list[Op], extra: list[Op]) -> list[Op]:
    """Insert ``extra`` evenly between ``ops``, so that their timings sample
    the whole round rather than one stretch of it."""
    after = [[] for _ in ops]
    for j, op in enumerate(extra):
        after[j * len(ops) // len(extra)].append(op)
    return [x for op, more in zip(ops, after) for x in (op, *more)]


def plan_pgdb_noisy(ctx: Context) -> Plan:
    # d = 3 at N = 1e5, whose solve times vary least from input to input
    # (coefficient of variation 0.28, against 0.47 at N = 1e3), and one
    # d = 4 map at N = 1e3 (at N = 1e5 a d = 4 solve takes 50 to 150 outer
    # steps depending on its input, so a single one would swing a run).
    cells = [(3, 100_000, 6), (4, 1000, 1)]
    return _solver_plan(ctx, "pgdb", cells, 1, (3, 4), probe_projections=True)


def plan_dia_exact(ctx: Context) -> Plan:
    cells = [(2, None, 4), (3, None, 2), (3, 100_000, 3)]
    return _solver_plan(ctx, "dia", cells, 2, (2, 3), probe_projections=True)


def plan_oneshot_lifp(ctx: Context) -> Plan:
    cells = [(4, 100_000, 3), (5, 100_000, 2), (6, 100_000, 1)]
    return _solver_plan(ctx, "lifp", cells, 3, (2, 3, 4, 5), probe_projections=False)


# -- command-line operations --------------------------------------------------


@dataclass
class CliResult:
    code: int | None
    stderr: str
    outputs: dict


def _cli_failed(expect_code: int):
    def failed(res: CliResult) -> bool:
        if res.code is None or "Traceback" in res.stderr:
            return True
        if res.code != expect_code:
            return True
        return expect_code == 1 and not any(
            line.startswith("error:") for line in res.stderr.splitlines()
        )

    return failed


def _cli_op(ctx: Context, cell: str, argv: list[str], outputs, check,
            expect_code: int = 0, recon=False, project=False, inputs=()) -> Op:
    """A ``qptomo`` command; its ``outputs`` (removed before each run) and
    ``inputs`` are read back after it for the check."""

    def clear():
        for path in outputs:
            path.unlink(missing_ok=True)

    if ctx.in_process_cli:
        def run():
            from qptomo import cli

            clear()

            err = textio.StringIO()
            with contextlib.redirect_stdout(textio.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # noqa: BLE001 - recorded as a failed command
                    traceback.print_exc()
                    code = None
            return code, err.getvalue()
    else:
        def run():
            clear()
            proc = subprocess.run(
                [sys.executable, "-m", "qptomo.cli", *argv],
                cwd=ctx.work, env=ctx.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S,
            )
            return proc.returncode, proc.stderr

    def capture(raw) -> CliResult:
        code, stderr = raw
        files = {}
        for path in (*outputs, *inputs):
            files[path.name] = path.read_bytes() if path.exists() else None
        return CliResult(code, stderr, files)

    return Op(cell, run, check, capture=capture, failed=_cli_failed(expect_code),
              recon=recon, project=project, cli=True)


def _choi_from_json(data: bytes) -> np.ndarray:
    doc = json.loads(data)
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def _counts_from_text(data: bytes) -> tuple[np.ndarray, dict]:
    lines = data.decode().splitlines()
    header = dict(item.split("=", 1) for item in lines[1].lstrip("# ").split())
    n = np.full((int(header["n_prep"]), int(header["n_povm"])), np.nan)
    for line in lines[3:]:
        i, j, v = line.split(",")
        n[int(i), int(j)] = float(v)
    return n, header


def _estimate_check(method, n_samples, truth_file: Path, counts_file: Path, report: Path):
    """Check a ``reconstruct`` estimate and report against its map and counts files."""

    def check(res: CliResult):
        name = next(iter(res.outputs))
        if res.outputs[name] is None or res.outputs[report.name] is None:
            return f"{name} or its report not written", None
        rep = json.loads(res.outputs[report.name])
        if rep.get("method") != method or rep.get("status") != "converged":
            return f"report says {rep.get('method')}/{rep.get('status')}", None
        truth = _choi_from_json(res.outputs[truth_file.name])
        counts, _ = _counts_from_text(res.outputs[counts_file.name])
        est = _choi_from_json(res.outputs[name])
        preps, povm = oracle.minimal_operators(oracle.side(truth))
        reason = oracle.estimate_failure(est, truth, method, n_samples, preps, povm, counts)
        return reason, oracle.j_distance(est, truth)

    return check


def _map_check(res: CliResult):
    data = next(iter(res.outputs.values()))
    if data is None:
        return "map not written", None
    return oracle.cptp_failure(_choi_from_json(data)), None


def _counts_check(n_samples: int, twin: Path | None = None):
    def check(res: CliResult):
        name = next(iter(res.outputs))
        data = res.outputs[name]
        if data is None:
            return f"{name} not written", None
        if twin is not None and data != res.outputs[twin.name]:
            return f"{name} differs from {twin.name} under the same seed", None
        n, header = _counts_from_text(data)
        if header.get("N") != str(n_samples) or not np.all(np.isfinite(n)):
            return f"{name}: bad header or missing rows", None
        if np.abs(n.sum(axis=1) - 1).max() > 1e-9:
            return f"{name}: rows not normalized", None
        if np.abs(n * n_samples - np.round(n * n_samples)).max() > 1e-6:
            return f"{name}: frequencies are not counts / N", None
        return None, None

    return check


def _projection_file_check(x: np.ndarray, seed: int):
    def check(res: CliResult):
        data = next(iter(res.outputs.values()))
        if data is None:
            return "projection not written", None
        rng = np.random.default_rng(seed)
        samples = oracle.projection_samples(rng, oracle.side(x))
        return oracle.projection_failure(x, _choi_from_json(data), samples, rng), None

    return check


def _bench_check(methods, n_list):
    """The sweep's CSV has one row per (method, N) at d = 2, each ``ok``.

    Its J column is the package's own figure, which the oracle cannot
    recompute without the estimates, so it is not checked.
    """

    def check(res: CliResult):
        data = next(iter(res.outputs.values()))
        if data is None:
            return "benchmark CSV not written", None
        lines = data.decode().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        if any(len(r) != 11 for r in rows) or sorted((r[0], r[2], r[1]) for r in rows) != \
                sorted(("2", m, n) for m in methods for n in n_list):
            return f"benchmark CSV rows {rows} are not one per method and N", None
        for r in rows:
            if r[10] != "ok":
                return f"benchmark row {','.join(r)} failed", None
        return None, None

    return check


def _choi_doc(mat: np.ndarray) -> str:
    d = oracle.side(mat)
    return json.dumps({
        "format": "choi-v1", "d": d, "re": mat.real.tolist(), "im": mat.imag.tolist(),
        "metadata": {},
    })


def _counts_doc(freqs: np.ndarray, n_samples) -> str:
    """A counts-v1 file of normalized frequencies, written without qptomo.io
    so that the in-process workloads leave the io layer idle."""
    n_prep, n_povm = freqs.shape
    d = round(n_prep**0.5)
    rows = [f"{i},{j},{float(freqs[i, j])!r}" for i in range(n_prep) for j in range(n_povm)]
    return (f"# counts-v1\n# d={d} n_prep={n_prep} n_povm={n_povm} "
            f"N={'inf' if n_samples is None else n_samples} seed=none\ni,j,n\n"
            + "\n".join(rows) + "\n")


def _fault_inputs(work: Path) -> tuple[Path, Path]:
    """Malformed inputs that do not depend on the seed: a counts file holding
    ``nan`` and a Choi file holding ``NaN``. Both should be rejected with exit
    code 1 and an ``error:`` line."""
    counts = work / "nan_counts.txt"
    freqs = np.full((4, 8), 0.125)
    freqs[0, 0] = np.nan
    counts.write_text(_counts_doc(freqs, None))
    choi = work / "nan_choi.json"
    bad = oracle.identity_choi(2)
    bad[0, 0] = np.nan
    choi.write_text(_choi_doc(bad))
    return counts, choi


#: cli_pipeline's true maps at d = 3 in one round: (name, gen-map kind,
#: reconstruct methods). The first is simulated twice with one seed.
CLI_MAPS = (("a", "quasipure", ("lifp", "pgdb")), ("b", "full", ("lifp",)))
#: ``project --set cptp`` commands per round, each on its own random input.
CLI_PROJECTIONS = 2


def plan_cli_pipeline(ctx: Context) -> Plan:
    w = ctx.work
    n_samples = 10_000
    bench = w / "bench.csv"
    nan_counts, nan_choi = _fault_inputs(w)

    def cli(cell, argv, outputs, check, **kw):
        return _cli_op(ctx, cell, argv, outputs, check, **kw)

    def round_ops(r: int) -> list[Op]:
        seeds = iter(_seeds(ctx.seed, 4, r, 2 * len(CLI_MAPS) + 2 + CLI_PROJECTIONS))
        rng = np.random.default_rng(next(seeds))
        noisy = []
        for k in range(CLI_PROJECTIONS):
            x = _random_hermitian(rng, 3)
            (w / f"noisy{k}.json").write_text(_choi_doc(x))
            noisy.append((w / f"noisy{k}.json", w / f"projected{k}.json", x))
        ops, recons = [], []
        for name, kind, methods in CLI_MAPS:
            map_file, counts = w / f"map_{name}.json", w / f"counts_{name}.txt"
            sim = ["simulate", "--map", str(map_file), "--N", str(n_samples),
                   "--seed", str(next(seeds))]
            ops.append(cli("gen-map", ["gen-map", "--d", "3", "--kind", kind, "--seed",
                                       str(next(seeds)), "--out", str(map_file)],
                           [map_file], _map_check))
            ops.append(cli("simulate", sim + ["--out", str(counts)], [counts],
                           _counts_check(n_samples)))
            if name == "a":
                twin = w / "counts_a2.txt"
                ops.append(cli("simulate", sim + ["--out", str(twin)], [twin],
                               _counts_check(n_samples, twin=counts), inputs=[counts]))
            for method in methods:
                out = w / f"est_{name}_{method}.json"
                report = w / f"est_{name}_{method}.json.report.json"
                recons.append(cli(
                    f"reconstruct {method}",
                    ["reconstruct", "--counts", str(counts), "--method", method,
                     "--out", str(out)],
                    [out, report],
                    _estimate_check(method, n_samples, map_file, counts, report),
                    recon=True, inputs=[map_file, counts],
                ))
        ops += recons
        ops += [
            cli("project", ["project", "--in", str(path), "--set", "cptp", "--out", str(out)],
                [out], _projection_file_check(x, next(seeds)), project=True)
            for path, out, x in noisy
        ]
        ops += [
            cli("benchmark", ["benchmark", "--d-list", "2", "--N-list", "1000,inf",
                              "--methods", "pgdb,lifp", "--trials", "1", "--seed",
                              str(next(seeds)), "--out", str(bench)],
                [bench], _bench_check(["pgdb", "lifp"], ["1000", "inf"])),
            cli("reconstruct nan", ["reconstruct", "--counts", str(nan_counts), "--method",
                                    "lifp", "--out", str(w / "nan_est.json")],
                [], lambda res: (None, None), expect_code=1),
            cli("project nan", ["project", "--in", str(nan_choi), "--set", "cptp",
                                "--out", str(w / "nan_proj.json")],
                [], lambda res: (None, None), expect_code=1),
        ]
        return ops

    warm = cli("gen-map", ["gen-map", "--d", "2", "--kind", "quasipure", "--out",
                           str(w / "warm.json")], [w / "warm.json"], _map_check)
    return Plan(round_ops, warm)


PLANS = {
    "pgdb_noisy": plan_pgdb_noisy,
    "dia_exact": plan_dia_exact,
    "oneshot_lifp": plan_oneshot_lifp,
    "cli_pipeline": plan_cli_pipeline,
}
