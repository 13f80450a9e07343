"""The three estimators and their reports."""

import sys
from dataclasses import fields

import numpy as np
import pytest

from qptomo import (
    ConvergenceError,
    CountsTable,
    DomainError,
    EnsembleSpec,
    SimulationSpec,
    StalledStepError,
    TomographySetup,
    choi_from_kraus,
    cptp_residuals,
    is_cptp,
    j_distance,
    minimal_setup,
    random_cptp,
    random_quasi_pure,
    simulate_counts,
    solve_dia,
    solve_lifp,
    solve_linear_inversion,
    solve_pgdb,
)
from qptomo import projections, solvers
from qptomo.channel import EPS_CP, build_design, forward_probs
from qptomo.linalg import hermitize, kron, partial_trace_out, psd_sqrt_inv
from qptomo.solvers import DiaConfig, PgdbConfig, gradient
from reference import (
    apply_channel,
    design_condition_number,
    dia_trials_kron,
    dia_update_kron,
    linear_inversion_dense,
    newton_direction_dense,
    vec,
)


def quasi_pure(d, seed):
    return random_quasi_pure(
        EnsembleSpec(d=d, kraus_rank=1, kind="quasi_pure", rng_seed=seed)
    )


def overcomplete_setup():
    """The d=3 minimal setup plus 3 random states and a random 4-element POVM."""
    d = 3
    rng = np.random.default_rng(60)
    base = minimal_setup(d)
    states, gram = [], []
    for _ in range(3):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        states.append(x @ x.conj().T / np.trace(x @ x.conj().T).real)
    for _ in range(4):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gram.append(x @ x.conj().T)
    norm = psd_sqrt_inv(sum(gram))
    povm = [e / 2 for e in base.povm] + [norm @ g @ norm / 2 for g in gram]
    return TomographySetup([*base.preparations, *states], povm)


def factor(c):
    """A factor X of a PSD matrix C = X X^dagger, from its eigendecomposition."""
    w, v = np.linalg.eigh(c)
    return v * np.sqrt(np.clip(w, 0.0, None))


def gram(x):
    return hermitize(x @ x.conj().T)


def two_preparation_setup():
    """|0> and |1> only: the design has a null space."""
    preps = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    povm = [rho / 2 for rho in preps] + [(np.eye(2) - rho) / 2 for rho in preps]
    return TomographySetup(preps, povm)


@pytest.fixture(scope="module")
def infinite_data(setup2):
    truth = quasi_pure(2, seed=7)
    counts = simulate_counts(truth, setup2, SimulationSpec(None))
    return truth, counts


@pytest.fixture(scope="module")
def noisy_data(setup2):
    truth = quasi_pure(2, seed=8)
    counts = simulate_counts(truth, setup2, SimulationSpec(10**5, rng_seed=8))
    return truth, counts


class TestPgdb:
    def test_recovers_infinite_data(self, setup2, infinite_data):
        truth, counts = infinite_data
        est, report = solve_pgdb(setup2, counts)
        assert report.status == "converged"
        assert j_distance(est, truth) <= 1e-4
        assert is_cptp(est)

    def test_identity_channel_recovery(self, setup2):
        truth = choi_from_kraus([np.eye(2)])
        counts = simulate_counts(truth, setup2, SimulationSpec(None))
        est, _ = solve_pgdb(setup2, counts)
        for rho in setup2.preparations:
            assert np.abs(apply_channel(est, rho) - rho).max() <= 1e-4

    def test_cost_trace_monotone_with_margin(self, setup2, noisy_data):
        _, counts = noisy_data
        _, report = solve_pgdb(setup2, counts)
        decreases = -np.diff(report.cost_trace)
        assert (decreases >= 0).all()
        assert (decreases[:-1] > PgdbConfig().f_tol).all()
        assert report.final_cost == report.cost_trace[-1]

    def test_stationarity_at_termination(self, setup2, infinite_data):
        _, counts = infinite_data
        cfg = PgdbConfig(f_tol=1e-12)
        est, report = solve_pgdb(setup2, counts, cfg)
        assert report.status == "converged"
        mu = 3.0 / (2.0 * 4.0)
        step = est - gradient(est, setup2, counts) / mu
        mapped = projections._dykstra(step, 1e-10, projections.MAX_INNER_ITERATIONS)[0]
        assert np.linalg.norm(mapped - est) <= 1e-5

    def test_iterates_stay_cptp(self, setup2, noisy_data):
        _, counts = noisy_data
        for cap in (1, 3, 7):
            cfg = PgdbConfig(max_outer_iterations=cap)
            with pytest.raises(ConvergenceError) as excinfo:
                solve_pgdb(setup2, counts, cfg)
            assert is_cptp(excinfo.value.last_iterate)

    def test_projection_failure_carries_report(self, setup2, noisy_data, monkeypatch):
        monkeypatch.setattr(projections, "MAX_NEWTON_STEPS", 0)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_pgdb(setup2, noisy_data[1])
        assert excinfo.value.report.status == "iteration_cap"
        assert is_cptp(excinfo.value.last_iterate)

    def test_iteration_cap_error_carries_report(self, setup2, noisy_data):
        _, counts = noisy_data
        with pytest.raises(ConvergenceError) as excinfo:
            solve_pgdb(setup2, counts, PgdbConfig(max_outer_iterations=2))
        assert excinfo.value.report.status == "iteration_cap"
        assert len(excinfo.value.report.cost_trace) == 3

    def test_stalled_step_error(self, setup2, noisy_data, monkeypatch):
        # With GAMMA almost 1 the Armijo bound is tighter than the convexity
        # lower bound allows, and MIN_ALPHA just below 1 forbids halving.
        _, counts = noisy_data
        monkeypatch.setattr(solvers, "MIN_ALPHA", 0.9)
        monkeypatch.setattr(solvers, "GAMMA", 1 - 1e-9)
        with pytest.raises(StalledStepError) as excinfo:
            solve_pgdb(setup2, counts)
        assert excinfo.value.report is not None
        assert excinfo.value.last_iterate is not None

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_trajectory_on_the_dense_jacobian(self, d, monkeypatch):
        setup = minimal_setup(d)
        truth = quasi_pure(d, seed=30 + d)
        counts = simulate_counts(truth, setup, SimulationSpec(10**5, rng_seed=30 + d))
        est, report = solve_pgdb(setup, counts)
        monkeypatch.setattr(projections, "_newton_direction", newton_direction_dense)
        ref_est, ref_report = solve_pgdb(setup, counts)
        assert report.iterations == ref_report.iterations
        assert report.projection_steps == ref_report.projection_steps
        assert np.abs(est - ref_est).max() < 1e-10

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PgdbConfig(f_tol=0.0)


CONFIG_FIELDS = [
    (PgdbConfig, "f_tol"),
    (PgdbConfig, "max_outer_iterations"),
    (DiaConfig, "f_tol"),
    (DiaConfig, "max_outer_iterations"),
]


# An iteration cap must also be an integer: range() rejects 2.5, and a bool
# is not a count.
@pytest.mark.parametrize("config, name, value", [
    (config, name, value)
    for config, name in CONFIG_FIELDS
    for value in [np.nan, np.inf, -np.inf, 0.0, -1.0]
] + [
    (config, "max_outer_iterations", value)
    for config in (PgdbConfig, DiaConfig)
    for value in [2.5, 3.0, True, False, "5"]
])
def test_config_rejects_non_finite_or_non_positive(config, name, value):
    with pytest.raises(DomainError):
        config(**{name: value})


@pytest.mark.parametrize("config, cap", [(PgdbConfig, 5000), (DiaConfig, 20000)])
def test_config_is_the_stopping_rule(config, cap):
    # mu and GAMMA are constants of pgdB; only the stopping rule is set.
    assert [f.name for f in fields(config)] == ["f_tol", "max_outer_iterations"]
    assert config() == config(f_tol=1e-10, max_outer_iterations=cap)


@pytest.mark.parametrize("config", [PgdbConfig, DiaConfig])
def test_config_accepts_numpy_integer_cap(config):
    assert config(max_outer_iterations=np.int64(7)).max_outer_iterations == 7


class TestDia:
    def test_zero_dilution_is_fixed_point(self):
        # With epsilon = 0 the update reduces to the identity on TP iterates.
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=11))
        r = np.eye(4, dtype=complex)  # epsilon -> 0 limit of eps G + (1-eps) I
        rcr = r @ c @ r
        lam_inv = kron(psd_sqrt_inv(partial_trace_out(rcr)), np.eye(2))
        assert np.abs(lam_inv @ rcr @ lam_inv - c).max() < 1e-10

    def test_dilution_operator_is_psd(self, setup2, noisy_data):
        # Sign convention: R is built from -grad f, which must be PSD.
        truth, counts = noisy_data
        for c in (np.eye(4) / 2, truth):
            g = -gradient(c, setup2, counts)
            assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_iterates_stay_cptp(self, setup2, noisy_data):
        _, counts = noisy_data
        for cap in (1, 4, 16):
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dia(setup2, counts, DiaConfig(max_outer_iterations=cap))
            min_eig, tp_dist = cptp_residuals(excinfo.value.last_iterate)
            assert min_eig >= -EPS_CP and tp_dist <= 1e-8

    def test_matches_pgdb_cost(self, setup2, infinite_data):
        # Same convex optimum. Tight stopping narrows the absolute gap to
        # ~2e-8; pushing DIA further hits the iteration cap.
        truth, counts = infinite_data
        est_p, rep_p = solve_pgdb(setup2, counts, PgdbConfig(f_tol=1e-12))
        est_d, rep_d = solve_dia(setup2, counts, DiaConfig(f_tol=1e-11))
        assert rep_d.status == "converged"
        assert abs(rep_p.final_cost - rep_d.final_cost) <= 1e-6 * abs(rep_p.final_cost)
        assert abs(rep_p.final_cost - rep_d.final_cost) <= 1e-7
        assert j_distance(est_d, truth) <= 1e-3
        decreases = -np.diff(rep_d.cost_trace)
        assert (decreases >= 0).all()

    def test_stalled_step_error_carries_last_accepted_iterate(
        self, setup2, noisy_data, monkeypatch
    ):
        # After three real steps every trial returns the costlier start I/d,
        # so the dilution halves below MIN_EPSILON.
        update = solvers._dia_update
        accepted = []

        def regressing(x, g, epsilon):
            if len(accepted) == 3:
                return np.eye(4, dtype=complex) / np.sqrt(2)
            accepted.append(update(x, g, epsilon))
            return accepted[-1]

        monkeypatch.setattr(solvers, "_dia_update", regressing)
        with pytest.raises(StalledStepError) as excinfo:
            solve_dia(setup2, noisy_data[1])
        report = excinfo.value.report
        assert report.status == "stalled"
        assert np.array_equal(excinfo.value.last_iterate, gram(accepted[-1]))
        assert report.cost_trace.dtype == np.float64
        assert report.step_trace.dtype == np.float64
        assert len(report.cost_trace) == report.iterations + 1 == 4

    def test_dilution_trace_recorded(self, setup2, noisy_data):
        _, counts = noisy_data
        _, report = solve_dia(setup2, counts)
        assert len(report.step_trace) == report.iterations
        assert all(0 < e <= 1 for e in report.step_trace)

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 2.0**-10])
    def test_update_matches_kron_form(self, setup3, epsilon):
        # On every input tried, DIA accepts eps = 1 at each step, so eps < 1
        # is checked on the update itself.
        truth = quasi_pure(3, seed=21)
        counts = simulate_counts(truth, setup3, SimulationSpec(1000, rng_seed=21))
        start = random_cptp(EnsembleSpec(d=3, kraus_rank=2, rng_seed=21))
        for x in (np.eye(9, dtype=complex) / np.sqrt(3), factor(start)):
            c = gram(x)
            g = -gradient(c, setup3, counts)
            update = gram(solvers._dia_update(x, g, epsilon))
            assert np.abs(update - dia_update_kron(c, g, epsilon)).max() < 1e-12

    def test_unit_dilution_is_the_general_formula_exactly(self, setup3):
        # At epsilon = 1 the update uses G as R; the general
        # R = eps G + (1 - eps) I gives the same bits there.
        counts = simulate_counts(quasi_pure(3, seed=23), setup3, SimulationSpec(None))
        start = random_cptp(EnsembleSpec(d=3, kraus_rank=2, rng_seed=23))
        for x in (np.eye(9, dtype=complex) / np.sqrt(3), factor(start)):
            g = -gradient(gram(x), setup3, counts)
            r = 1.0 * g + (1.0 - 1.0) * np.eye(9)
            y = (r @ x).reshape(3, -1)
            expected = (psd_sqrt_inv(y @ y.conj().T) @ y).reshape(9, -1)
            assert np.array_equal(gram(solvers._dia_update(x, g, 1.0)), gram(expected))

    @pytest.mark.parametrize("d", [2, 3])
    def test_first_iterates_match_kron_loop(self, d, monkeypatch):
        setup = minimal_setup(d)
        counts = simulate_counts(quasi_pure(d, seed=22), setup, SimulationSpec(None))
        update = solvers._dia_update
        trials = []

        def recording(x, g, epsilon):
            x_new = update(x, g, epsilon)
            trials.append((epsilon, gram(x_new)))
            return x_new

        monkeypatch.setattr(solvers, "_dia_update", recording)
        with pytest.raises(ConvergenceError):
            solve_dia(setup, counts, DiaConfig(max_outer_iterations=200))
        expected = dia_trials_kron(setup, counts, 200)
        assert [e for e, _ in trials] == [e for e, _ in expected]
        gaps = [np.abs(a - b).max() for (_, a), (_, b) in zip(trials, expected)]
        assert max(gaps) < 1e-12

    def test_one_normalization_per_trial_update(self, setup2, noisy_data, monkeypatch):
        # perfbench counts linalg.psd_sqrt_inv_calls under this name.
        calls = []

        def counting(w):
            calls.append(w.shape)
            return psd_sqrt_inv(w)

        monkeypatch.setattr(solvers, "psd_sqrt_inv", counting)
        _, report = solve_dia(setup2, noisy_data[1])
        trials = sum(1 - np.log2(report.step_trace))
        assert report.iterations > 0
        assert calls == [(2, 2)] * round(trials)


class TestLinearInversion:
    def test_exact_infinite_data(self, setup2, infinite_data):
        truth, counts = infinite_data
        est = solve_linear_inversion(setup2, counts)
        assert np.abs(est - truth).max() < 1e-11

    def test_recovers_arbitrary_hermitian_in_row_space(self, setup2):
        # A TP but non-CP Hermitian target with admissible probabilities:
        # the design has full column rank, so inversion must return it.
        cptp = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=12))
        rng = np.random.default_rng(13)
        bump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        bump = (bump + bump.conj().T) / 2
        from qptomo import project_tp

        target = project_tp(0.8 * cptp + 0.2 * bump)
        p = forward_probs(target, setup2)
        assert p.min() > 0  # valid frequencies even though target is not CP
        assert np.linalg.eigvalsh(target).min() < -1e-6
        counts = CountsTable(p.reshape(4, 8))
        est = solve_linear_inversion(setup2, counts)
        assert np.abs(est - target).max() < 1e-10

    def test_minimum_norm_for_rank_deficient_design(self):
        # Two preparations cannot identify a qubit channel; the solver must
        # still return the least-squares solution of minimum norm.
        ket0 = np.array([1.0, 0.0])
        ket1 = np.array([0.0, 1.0])
        preps = [np.outer(k, k) for k in (ket0, ket1)]
        povm = [rho / 2 for rho in preps] + [(np.eye(2) - rho) / 2 for rho in preps]
        setup = TomographySetup(preps, povm)
        truth = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=14))
        counts = CountsTable(forward_probs(truth, setup).reshape(2, 4))
        est = solve_linear_inversion(setup, counts)
        resid = np.linalg.norm(build_design(setup) @ vec(est) - counts.flat)
        assert resid < 1e-10
        assert np.linalg.norm(vec(est)) <= np.linalg.norm(vec(truth)) + 1e-10

    @pytest.mark.parametrize(
        "setup",
        [*(minimal_setup(d) for d in (2, 3, 4, 5)), overcomplete_setup(),
         two_preparation_setup()],
        ids=["minimal2", "minimal3", "minimal4", "minimal5", "overcomplete",
             "two_preparations"],
    )
    def test_matches_dense_lstsq(self, setup):
        truth = quasi_pure(setup.d, seed=50)
        counts = simulate_counts(truth, setup, SimulationSpec(1000, rng_seed=50))
        expected = linear_inversion_dense(setup, counts)
        assert np.abs(solve_linear_inversion(setup, counts) - expected).max() < 1e-12

    def test_noisy_estimates_are_unphysical(self, setup2):
        truth = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=15))
        counts = simulate_counts(truth, setup2, SimulationSpec(500, rng_seed=15))
        est = solve_linear_inversion(setup2, counts)
        assert np.abs(est - est.conj().T).max() < 1e-12  # Hermitized
        assert np.linalg.eigvalsh(est).min() < 0


class TestLifp:
    def test_infinite_data_projection_is_noop(self, setup2, infinite_data):
        truth, counts = infinite_data
        est, report = solve_lifp(setup2, counts)
        assert j_distance(est, truth) <= 1e-6
        assert report.pre_projection_min_eigenvalue > -1e-6

    def test_noisy_output_is_cptp_with_diagnostics(self, setup2):
        truth = quasi_pure(2, seed=16)
        counts = simulate_counts(truth, setup2, SimulationSpec(1000, rng_seed=16))
        est, report = solve_lifp(setup2, counts)
        assert is_cptp(est)
        assert report.pre_projection_min_eigenvalue < 0
        assert report.pre_projection_tp_distance >= 0
        assert report.method == "lifp"

    def test_not_more_likely_than_ml(self, setup2):
        truth = quasi_pure(2, seed=17)
        counts = simulate_counts(truth, setup2, SimulationSpec(10**4, rng_seed=17))
        _, rep_l = solve_lifp(setup2, counts)
        _, rep_p = solve_pgdb(setup2, counts)
        assert rep_l.final_cost >= rep_p.final_cost - 1e-9

    @staticmethod
    def noisy_inputs(d, count):
        setup = minimal_setup(d)
        for seed in range(count):
            truth = quasi_pure(d, seed)
            yield setup, simulate_counts(truth, setup, SimulationSpec(1000, 50 + seed))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_the_zero_start_projection(self, d):
        for setup, counts in self.noisy_inputs(d, 3):
            zero_start, _, _ = solvers._project_cptp_dual(
                solve_linear_inversion(setup, counts), np.zeros((d, d)))
            est, _ = solve_lifp(setup, counts)
            assert np.abs(est - zero_start).max() < 1e-10

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_scalar_start_saves_newton_steps(self, d):
        zero_start = scalar_start = 0
        for setup, counts in self.noisy_inputs(d, 10):
            raw = solve_linear_inversion(setup, counts)
            zero_start += solvers._project_cptp_dual(raw, np.zeros((d, d)))[2]
            scalar_start += solve_lifp(setup, counts)[1].iterations
        assert scalar_start < zero_start

    def test_pseudo_inverses_computed_once(self, setup2, monkeypatch):
        calls = []
        pinv = np.linalg.pinv

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting)
        setup = TomographySetup(setup2.preparations, setup2.povm)
        counts = simulate_counts(quasi_pure(2, 18), setup, SimulationSpec(1000, 18))
        first, _ = solve_lifp(setup, counts)
        second, _ = solve_lifp(setup, counts)
        assert calls == [setup.prep_rows.shape, setup.povm_rows.shape]
        assert np.array_equal(first, second)

    def test_sacrifices_accuracy_on_noisy_d4_data(self):
        # Median over 20 matched noisy datasets: the projected inversion is
        # not the ML solution and cannot beat it.
        setup = minimal_setup(4)
        j_pgdb, j_lifp = [], []
        for trial in range(20):
            seq = np.random.SeedSequence([40, trial])
            map_seed, counts_seed = (int(s) for s in seq.generate_state(2, dtype=np.uint64))
            truth = quasi_pure(4, map_seed)
            counts = simulate_counts(truth, setup, SimulationSpec(10**5, counts_seed))
            est_p, _ = solve_pgdb(setup, counts)
            est_l, _ = solve_lifp(setup, counts)
            j_pgdb.append(j_distance(est_p, truth))
            j_lifp.append(j_distance(est_l, truth))
        assert np.median(j_lifp) >= np.median(j_pgdb) - 1e-6

    def test_three_qubits(self):
        # d=8: the dense design would take 512 MiB; the factored inversion
        # needs only the 64 x 64 and 128 x 64 stacks.
        setup = minimal_setup(8)
        truth = quasi_pure(8, seed=62)
        counts = simulate_counts(truth, setup, SimulationSpec(10**5, rng_seed=62))
        est, report = solve_lifp(setup, counts)
        assert is_cptp(est)
        assert j_distance(est, truth) < 0.2
        assert report.status == "converged"


class TestReports:
    def test_fields_populated(self, setup2, noisy_data):
        _, counts = noisy_data
        est, report = solve_pgdb(setup2, counts)
        assert report.method == "pgdb"
        assert report.iterations == len(report.cost_trace) - 1
        assert report.iterations == len(report.step_trace)
        assert report.wall_time_s > 0
        assert isinstance(report.conditioning_heralded, bool)
        assert np.isfinite(report.min_prob_seen)

    @pytest.mark.parametrize("solve", [solve_pgdb, solve_dia])
    def test_traces_are_arrays(self, setup2, noisy_data, solve):
        _, report = solve(setup2, noisy_data[1])
        assert report.cost_trace.dtype == np.float64
        assert report.step_trace.dtype == np.float64
        assert len(report.cost_trace) == report.iterations + 1
        assert report.final_cost == report.cost_trace[-1]

    def test_lifp_trace_is_an_array(self, setup2, noisy_data):
        _, report = solve_lifp(setup2, noisy_data[1])
        assert report.cost_trace.dtype == np.float64
        assert report.final_cost == report.cost_trace[-1]

    @pytest.mark.parametrize("solve, config", [
        (solve_pgdb, PgdbConfig(max_outer_iterations=3)),
        (solve_dia, DiaConfig(max_outer_iterations=3)),
    ])
    def test_capped_report_carries_arrays(self, setup2, noisy_data, solve, config):
        with pytest.raises(ConvergenceError) as excinfo:
            solve(setup2, noisy_data[1], config)
        report = excinfo.value.report
        assert report.cost_trace.dtype == np.float64
        assert report.step_trace.dtype == np.float64
        assert len(report.cost_trace) == report.iterations + 1 == 4

    def test_no_herald_on_benign_data(self, setup2):
        truth = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=18))
        counts = simulate_counts(truth, setup2, SimulationSpec(10**4, rng_seed=18))
        _, report = solve_pgdb(setup2, counts)
        assert report.min_prob_seen > 1e-6
        assert not report.conditioning_heralded

    def test_herald_fires_at_rank_deficient_point(self, setup2):
        # Evaluating the cost at a pure unitary Choi hits exact zeros of p.
        truth = choi_from_kraus([np.diag([1.0, 1j])])
        counts = simulate_counts(truth, setup2, SimulationSpec(None))
        from qptomo.solvers import _Cost

        cost = _Cost(setup2, counts)
        cost(truth)
        assert cost.heralded
        assert cost.min_prob < 1e-16

    def test_projection_steps_one_per_projection(self, setup2, noisy_data, monkeypatch):
        _, counts = noisy_data
        project = solvers._project_cptp_dual
        calls = []

        def recording(c, y0=None):
            result = project(c, y0)
            calls.append((c, result[2]))
            return result

        monkeypatch.setattr(solvers, "_project_cptp_dual", recording)
        _, report = solve_pgdb(setup2, counts)
        assert report.projection_steps == [steps for _, steps in calls]
        assert report.iterations <= len(calls) <= report.iterations + 1
        # Warm-started from the previous multiplier: few steps, and fewer
        # in total than the same projections started cold.
        warm = report.projection_steps[1:]
        cold = [project(c)[2] for c, _ in calls[1:]]
        assert max(warm) <= 10
        assert sum(warm) < sum(cold)

    def test_lifp_reports_its_one_projection(self, setup2, noisy_data):
        _, counts = noisy_data
        _, report = solve_lifp(setup2, counts)
        assert report.projection_steps == [report.iterations]

    def test_solvers_do_not_build_the_design(self, monkeypatch):
        def failing(setup):
            raise AssertionError("the dense design was built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qptomo" and hasattr(module, "build_design"):
                monkeypatch.setattr(module, "build_design", failing)
        setup = minimal_setup(2)
        truth = quasi_pure(2, seed=19)
        counts = simulate_counts(truth, setup, SimulationSpec(1000, rng_seed=19))
        solve_pgdb(setup, counts)
        solve_dia(setup, counts)
        solve_lifp(setup, counts)
        solve_linear_inversion(setup, counts)
        design_condition_number(setup)
