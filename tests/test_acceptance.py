"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the line per
criterion as it completes.
"""

import time

import numpy as np

from qptomo import (
    EnsembleSpec,
    SimulationSpec,
    choi_from_kraus,
    build_design,
    condition_probs,
    forward_probs,
    gradient,
    is_cptp,
    j_distance,
    kron,
    minimal_setup,
    neg_log_likelihood,
    partial_trace_out,
    project_cptp_dykstra,
    project_tni,
    project_tp,
    project_us_p,
    quasi_pure_weights,
    random_cptp,
    random_quasi_pure,
    simulate_counts,
    solve_dia,
    solve_lifp,
    solve_linear_inversion,
    solve_pgdb,
    vec,
)
from qptomo.cli import main as cli_main
from qptomo.solvers import DiaConfig, PgdbConfig
from conftest import cptp_pool, random_hermitian
from reference import design_condition_number
from test_projections import constrained_lsq_oracle, tni_diagonal_oracle

C_BOX = np.diag([0.1, 0.1, 0.1, 1.7]).astype(complex)

# Metaparameters used for the noiseless recovery runs: the criteria pin the
# output quality, and the defaults leave d=3 marginally outside the targets.
PGDB_TIGHT = dict(f_tol=1e-12)
DIA_TIGHT = dict(f_tol=1e-11)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def quasi_pure(d, seed):
    return random_quasi_pure(
        EnsembleSpec(d=d, kraus_rank=1, kind="quasi_pure", rng_seed=seed)
    )


def trial_seeds(*key):
    seq = np.random.SeedSequence(list(key))
    return tuple(int(s) for s in seq.generate_state(2, dtype=np.uint64))


def test_criterion_01_cptp_projection():
    """Dykstra output: CP/TP residuals and the variational inequality."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"eig": 0.0, "tp": 0.0, "vi": -np.inf}
    for d in (2, 4):
        d2 = d * d
        pool = np.stack([vec(b) for b in cptp_pool(d, 1000, seed=9000 + d)])
        for _ in range(100):
            c = random_hermitian(rng, d2, scale=float(d))
            proj = project_cptp_dykstra(c, tol=1e-12)
            worst["eig"] = min(worst["eig"], float(np.linalg.eigvalsh(proj).min()))
            worst["tp"] = max(
                worst["tp"],
                float(np.linalg.norm(partial_trace_out(proj) - np.eye(d))),
            )
            vi = ((pool - vec(proj)) @ vec(c - proj).conj()).real
            worst["vi"] = max(worst["vi"], float(vi.max()))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["eig"] >= -1e-8
        and worst["tp"] <= 1e-6
        and worst["vi"] <= 1e-6
        and elapsed < 60.0
    )
    _report(
        "criterion 1 (CPTP projection)",
        ok,
        f"min eig {worst['eig']:.1e}, tp {worst['tp']:.1e}, "
        f"vi {worst['vi']:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_projections():
    """Hand values for C_box under TP, TNI and US_0.5, with LS oracles."""
    tp = project_tp(C_BOX)
    tni = project_tni(C_BOX)
    usp = project_us_p(C_BOX, 0.5)
    err_tp = np.abs(tp - np.diag([0.5, 0.5, -0.3, 1.3])).max()
    err_tni = np.abs(tni - np.diag([0.1, 0.1, -0.3, 1.3])).max()
    # The US_0.5 target is the oracle value; the defining constraint
    # Tr_out = 0.5 I pins the diagonal (see the decisions ledger on the
    # published 0.35 figure, which violates that constraint).
    err_usp = np.abs(usp - np.diag([0.25, 0.25, -0.55, 1.05])).max()
    err_tp_oracle = np.abs(tp - constrained_lsq_oracle(C_BOX, 1.0)).max()
    err_usp_oracle = np.abs(usp - constrained_lsq_oracle(C_BOX, 0.5)).max()
    err_tni_oracle = np.abs(
        np.diag(tni).real - tni_diagonal_oracle(np.diag(C_BOX).real, 2)
    ).max()
    ok = (
        max(err_tp, err_tni, err_usp) <= 1e-12
        and max(err_tp_oracle, err_usp_oracle) <= 1e-10
        and err_tni_oracle <= 1e-7
    )
    _report(
        "criterion 2 (TP/TNI/US_p closed forms)",
        ok,
        f"closed-form err {max(err_tp, err_tni, err_usp):.1e}, "
        f"oracle err {max(err_tp_oracle, err_usp_oracle, err_tni_oracle):.1e}",
    )


def test_criterion_03_gradient():
    """Finite-difference and vectorized-form agreement for the gradient."""
    worst_fd, worst_vec = 0.0, 0.0
    for d in (2, 3):
        setup = minimal_setup(d)
        base = random_cptp(EnsembleSpec(d=d, kraus_rank=d * d, rng_seed=300 + d))
        c = 0.75 * base + 0.25 * np.eye(d * d) / d
        counts = simulate_counts(c, setup, SimulationSpec(5000, rng_seed=300 + d))
        g = gradient(c, setup, counts)

        p, _ = condition_probs(forward_probs(c, setup))
        eta = (counts.flat / p).reshape(setup.n_prep, setup.n_povm)
        elementwise = np.zeros((d * d, d * d), dtype=complex)
        for i, rho in enumerate(setup.preparations):
            for j, e in enumerate(setup.povm):
                elementwise -= eta[i, j] * kron(rho.T, e)
        worst_vec = max(worst_vec, float(np.abs(g - elementwise).max()))

        rng = np.random.default_rng(400 + d)
        h = 1e-6
        for _ in range(10):
            delta = random_hermitian(rng, d * d)
            delta /= np.linalg.norm(delta)
            fd = (
                neg_log_likelihood(c + h * delta, setup, counts)
                - neg_log_likelihood(c - h * delta, setup, counts)
            ) / (2 * h)
            ip = np.vdot(g, delta).real
            worst_fd = max(worst_fd, abs(fd - ip) / abs(ip))
    ok = worst_fd <= 1e-5 and worst_vec <= 1e-12
    _report(
        "criterion 3 (gradient)",
        ok,
        f"fd rel err {worst_fd:.1e}, elementwise gap {worst_vec:.1e}",
    )


def test_criterion_04_noiseless_recovery():
    """Infinite-data recovery: pgdB 1e-4, LIFP 1e-6, DIA 1e-3."""
    t0 = time.perf_counter()
    worst = {"pgdb": 0.0, "lifp": 0.0, "dia": 0.0}
    for d, n_maps in ((2, 20), (3, 5)):
        setup = minimal_setup(d)
        for seed in range(n_maps):
            truth = quasi_pure(d, seed=1000 * d + seed)
            counts = simulate_counts(truth, setup, SimulationSpec(None))
            est, _ = solve_pgdb(setup, counts, PgdbConfig(**PGDB_TIGHT))
            worst["pgdb"] = max(worst["pgdb"], j_distance(est, truth))
            est, _ = solve_lifp(setup, counts)
            worst["lifp"] = max(worst["lifp"], j_distance(est, truth))
            est, rep = solve_dia(setup, counts, DiaConfig(**DIA_TIGHT))
            assert rep.status == "converged"
            worst["dia"] = max(worst["dia"], j_distance(est, truth))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["pgdb"] <= 1e-4
        and worst["lifp"] <= 1e-6
        and worst["dia"] <= 1e-3
        and elapsed < 300.0
    )
    _report(
        "criterion 4 (noiseless recovery)",
        ok,
        f"pgdB {worst['pgdb']:.1e}, LIFP {worst['lifp']:.1e}, "
        f"DIA {worst['dia']:.1e}, {elapsed:.0f}s",
    )


def test_criterion_05_statistical_trend():
    """Median J decreases with N and tracks the 1/sqrt(N) line."""
    setup = minimal_setup(2)
    medians = {}
    for n in (10**3, 10**5, 10**7):
        js = []
        for trial in range(10):
            map_seed, counts_seed = trial_seeds(5, n, trial)
            truth = quasi_pure(2, map_seed)
            counts = simulate_counts(truth, setup, SimulationSpec(n, counts_seed))
            est, _ = solve_pgdb(setup, counts, PgdbConfig(**PGDB_TIGHT))
            js.append(j_distance(est, truth))
        medians[n] = float(np.median(js))
    decreasing = medians[10**3] > medians[10**5] > medians[10**7]
    line = lambda n: medians[10**5] * np.sqrt(10**5 / n)
    within = all(0.1 * line(n) <= medians[n] <= 10 * line(n) for n in medians)
    _report(
        "criterion 5 (statistical trend)",
        decreasing and within,
        f"medians {medians[10**3]:.2e} > {medians[10**5]:.2e} > {medians[10**7]:.2e}",
    )


def test_criterion_06_linear_inversion_unphysical():
    """Raw linear inversion is unphysical for noisy d=4 data."""
    setup = minimal_setup(4)
    negative = 0
    for trial in range(100):
        map_seed, counts_seed = trial_seeds(6, trial)
        truth = random_cptp(EnsembleSpec(d=4, kraus_rank=16, rng_seed=map_seed))
        counts = simulate_counts(truth, setup, SimulationSpec(10**4, counts_seed))
        est = solve_linear_inversion(setup, counts)
        if np.linalg.eigvalsh(est).min() < 0:
            negative += 1
    _report(
        "criterion 6 (unphysical linear inversion)",
        negative >= 90,
        f"{negative}/100 trials with negative minimum eigenvalue",
    )


def test_criterion_07_solver_agreement():
    """pgdB and DIA find the same optimum of the same convex problem."""
    setup = minimal_setup(2)
    worst_rel = 0.0
    monotone = True
    for trial in range(10):
        map_seed, counts_seed = trial_seeds(7, trial)
        truth = quasi_pure(2, map_seed)
        counts = simulate_counts(truth, setup, SimulationSpec(10**5, counts_seed))
        _, rep_p = solve_pgdb(setup, counts)
        _, rep_d = solve_dia(setup, counts)
        rel = abs(rep_p.final_cost - rep_d.final_cost) / abs(rep_p.final_cost)
        worst_rel = max(worst_rel, rel)
        monotone &= bool((np.diff(rep_p.cost_trace) <= 0).all())
        monotone &= bool((np.diff(rep_d.cost_trace) <= 0).all())
    _report(
        "criterion 7 (solver agreement)",
        worst_rel <= 1e-6 and monotone,
        f"worst relative cost gap {worst_rel:.1e}, monotone={monotone}",
    )


def test_criterion_08_ensemble_validity():
    """Generated maps satisfy CPTP invariants without projection."""
    ok = True
    detail = []
    for d in (2, 3):
        sq = (quasi_pure_weights(d * d, 0.9) ** 2).sum()
        ok &= abs(sq - 0.9) <= 1e-10
        for seed in range(100):
            full = random_cptp(EnsembleSpec(d=d, kraus_rank=d * d, rng_seed=seed))
            ok &= is_cptp(full)
            ok &= np.linalg.norm(partial_trace_out(full) - np.eye(d)) <= 1e-10
            quasi = quasi_pure(d, seed)
            ok &= is_cptp(quasi)
            ok &= np.trace(quasi @ quasi).real / d**2 >= 0.9 - 1e-9
        detail.append(f"d={d} sum P^2 = {sq:.12f}")
    _report("criterion 8 (ensemble validity)", bool(ok), "; ".join(detail))


def test_criterion_09_setup_validity():
    """Minimal setups are informationally complete with rising conditioning."""
    conds = []
    ok = True
    for d in (2, 3, 4, 5):
        setup = minimal_setup(d)
        ok &= setup.n_prep == d * d and setup.n_povm == 2 * d * d
        ok &= np.abs(sum(setup.povm) - np.eye(d)).max() <= 1e-12
        ok &= all(np.linalg.eigvalsh(e).min() >= -1e-12 for e in setup.povm)
        ok &= np.linalg.matrix_rank(build_design(setup)) == d**4
        conds.append(design_condition_number(setup))
    ok &= bool(np.all(np.diff(conds) >= 0))
    _report(
        "criterion 9 (setup validity)",
        bool(ok),
        "cond(A) = " + ", ".join(f"{c:.2f}" for c in conds),
    )


def test_criterion_10_heralded_conditioning():
    """Rank-deficient reconstruction never aborts; heralding is faithful."""
    setup = minimal_setup(2)
    heralded_runs = 0
    flags_faithful = True
    for trial in range(50):
        map_seed, counts_seed = trial_seeds(10, trial)
        rng = np.random.default_rng(map_seed)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))  # Haar phase fix
        truth = choi_from_kraus([u])
        counts = simulate_counts(truth, setup, SimulationSpec(10**4, counts_seed))
        est, report = solve_pgdb(setup, counts)  # must not raise
        assert is_cptp(est)
        flags_faithful &= report.conditioning_heralded == (
            report.min_prob_seen < 1e-16
        )
        heralded_runs += report.conditioning_heralded
    _report(
        "criterion 10 (heralded conditioning)",
        flags_faithful,
        f"50/50 runs completed, {heralded_runs} heralded, flags faithful",
    )


def test_criterion_11_benchmark_determinism(tmp_path):
    """cmd_benchmark with a fixed seed is byte-reproducible."""
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main([
            "benchmark", "--d-list", "2", "--N-list", "1000",
            "--methods", "pgdb,dia,lifp", "--trials", "3",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    _report(
        "criterion 11 (benchmark determinism)",
        identical,
        f"{len(outputs[0])} bytes, identical={identical}",
    )
