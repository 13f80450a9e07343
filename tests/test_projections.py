"""Single-set projections, the trace-out operator and the composite projection."""

import numpy as np
import pytest
import scipy.linalg

from qptomo import (
    ConvergenceError,
    DomainError,
    EnsembleSpec,
    choi_from_kraus,
    project_cp,
    project_tni,
    project_tp,
    project_us_p,
    random_cptp,
)
from qptomo import projections
from qptomo.channel import EPS_TP
from qptomo.linalg import hermitize, kron, partial_trace_out
from qptomo.projections import (
    _dykstra,
    _newton_direction,
    _newton_jacobian,
    _project_cptp_dual,
    _scalar_multiplier,
    project_cptp_dykstra,
)
from conftest import cptp_pool, random_hermitian
from reference import (
    dykstra_textbook,
    frobenius_inner,
    identity_choi,
    m_operator,
    newton_direction_dense,
    newton_jacobian_dense,
    project_cptp_averaged,
    project_tp_m_form,
    vec,
)

RNG = np.random.default_rng(31)

C_BOX = np.diag([0.1, 0.1, 0.1, 1.7]).astype(complex)


def constrained_lsq_oracle(c, p_success=1.0):
    """Generic equality-constrained least squares for the TP / US_p sets.

    Minimizes ||x - vec(C)|| subject to M x = p vec(I) through a particular
    solution plus the SVD null space of M, independent of the closed form.
    """
    d = round(c.shape[0] ** 0.5)
    m = m_operator(d).toarray()
    b = p_success * vec(np.eye(d)).astype(complex)
    x0, *_ = np.linalg.lstsq(m, b, rcond=None)
    z = scipy.linalg.null_space(m)
    target = vec(c)
    x = x0 + z @ (z.conj().T @ (target - x0))
    return x.reshape((d * d, d * d), order="F")


def tni_diagonal_oracle(diag_entries, d):
    """Inequality-constrained least squares for TNI, restricted to diagonals.

    For a diagonal input the minimizer is diagonal (the feasible set and the
    objective are invariant under conjugation by diagonal unitaries), so the
    projection reduces to a small quadratic program solved by SLSQP.
    """
    from scipy.optimize import minimize

    c = np.asarray(diag_entries, dtype=float)

    def objective(x):
        return ((x - c) ** 2).sum()

    constraints = [
        {"type": "ineq", "fun": (lambda x, i=i: 1.0 - x[i * d : (i + 1) * d].sum())}
        for i in range(d)
    ]
    res = minimize(objective, c, method="SLSQP", constraints=constraints,
                   options={"ftol": 1e-14, "maxiter": 500})
    assert res.success
    return res.x


class TestProjectCp:
    def test_clips_negative_eigenvalue(self):
        out = project_cp(np.diag([1.0, -1.0]))
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12

    def test_fixed_point_on_psd(self):
        x = random_hermitian(RNG, 4)
        psd = project_cp(x)
        assert np.abs(project_cp(psd) - psd).max() < 1e-12

    def test_pauli_x_example(self):
        out = project_cp(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.abs(out - np.full((2, 2), 0.5)).max() < 1e-12

    def test_frobenius_optimality_against_psd_samples(self):
        c = random_hermitian(RNG, 4, scale=2.0)
        proj = project_cp(c)
        base = np.linalg.norm(c - proj)
        for _ in range(1000):
            z = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
            q = z @ z.conj().T / 4
            assert base <= np.linalg.norm(c - q) + 1e-12


class TestProjectTp:
    def test_closed_form_value(self):
        out = project_tp(C_BOX)
        assert np.abs(out - np.diag([0.5, 0.5, -0.3, 1.3])).max() < 1e-12

    def test_constrained_lsq_oracle_agrees(self):
        for n in (2, 3):
            c = random_hermitian(RNG, n * n)
            assert np.abs(project_tp(c) - constrained_lsq_oracle(c)).max() < 1e-10

    def test_fixed_point(self):
        c = identity_choi(2)
        assert np.abs(project_tp(c) - c).max() < 1e-12

    def test_zero_matrix(self):
        out = project_tp(np.zeros((4, 4)))
        assert np.abs(out - np.eye(4) / 2).max() < 1e-15

    def test_idempotent_and_feasible(self):
        c = random_hermitian(RNG, 9)
        out = project_tp(c)
        assert np.abs(partial_trace_out(out) - np.eye(3)).max() < 1e-12
        assert np.abs(project_tp(out) - out).max() < 1e-10

    def test_orthogonality_of_affine_projection(self):
        c = random_hermitian(RNG, 4, scale=3.0)
        proj = project_tp(c)
        for _ in range(25):
            b = project_tp(random_hermitian(RNG, 4, scale=3.0))
            assert abs(frobenius_inner(c - proj, b - proj)) < 1e-9

    def test_m_form_equivalence(self):
        for n in (2, 3):
            c = random_hermitian(RNG, n * n)
            assert np.abs(project_tp(c) - project_tp_m_form(c)).max() < 1e-12


class TestProjectUsP:
    def test_reduces_to_tp_at_one(self):
        c = random_hermitian(RNG, 4)
        assert np.abs(project_us_p(c, 1.0) - project_tp(c)).max() < 1e-14

    def test_zero_matrix_half(self):
        out = project_us_p(np.zeros((4, 4)), 0.5)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-15

    def test_closed_form_value(self):
        # The defining constraint pins the diagonal: Tr_out must equal 0.5 I.
        out = project_us_p(C_BOX, 0.5)
        assert np.abs(out - np.diag([0.25, 0.25, -0.55, 1.05])).max() < 1e-12
        assert np.abs(partial_trace_out(out) - 0.5 * np.eye(2)).max() < 1e-12

    def test_constrained_lsq_oracle_agrees(self):
        c = random_hermitian(RNG, 4)
        oracle = constrained_lsq_oracle(c, p_success=0.5)
        assert np.abs(project_us_p(c, 0.5) - oracle).max() < 1e-10

    def test_m_form_equivalence(self):
        c = random_hermitian(RNG, 4)
        assert np.abs(project_us_p(c, 0.7) - project_tp_m_form(c, 0.7)).max() < 1e-12

    @pytest.mark.parametrize("p", [0.0, -0.2, 1.3])
    def test_domain_error(self, p):
        with pytest.raises(DomainError):
            project_us_p(np.eye(4), p)


class TestProjectTni:
    def test_tp_input_is_fixed(self):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=2))
        assert np.abs(project_tni(c) - c).max() < 1e-10

    def test_hand_value(self):
        out = project_tni(C_BOX)
        assert np.abs(out - np.diag([0.1, 0.1, -0.3, 1.3])).max() < 1e-12

    def test_subnormalized_input_unchanged(self):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=3)) * 0.5
        assert np.abs(project_tni(c) - c).max() < 1e-10

    def test_feasibility_and_idempotence(self):
        c = random_hermitian(RNG, 9, scale=5.0)
        out = project_tni(c)
        evals = np.linalg.eigvalsh(hermitize(partial_trace_out(out)))
        assert evals.max() <= 1 + 1e-10
        assert np.abs(project_tni(out) - out).max() < 1e-10

    def test_diagonal_qp_oracle(self):
        oracle = tni_diagonal_oracle(np.diag(C_BOX).real, 2)
        assert np.abs(np.diag(project_tni(C_BOX)).real - oracle).max() < 1e-7


class TestMOperator:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_literal_construction(self, d):
        literal = np.zeros((d * d, d**4))
        for k in range(d):
            bra = np.zeros((1, d))
            bra[0, k] = 1.0
            literal += kron(kron(np.eye(d), bra), kron(np.eye(d), bra))
        assert np.abs(m_operator(d).toarray() - literal).max() == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_vectorizes_partial_trace(self, d):
        c = random_hermitian(RNG, d * d)
        lhs = m_operator(d) @ vec(c)
        assert np.abs(lhs - vec(partial_trace_out(c))).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_mm_dagger(self, d):
        m = m_operator(d).toarray()
        assert np.abs(m @ m.conj().T - d * np.eye(d * d)).max() < 1e-12

    def test_m_dagger_m_structure(self):
        d = 2
        m = m_operator(d).toarray()
        literal = np.zeros((d**4, d**4))
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d))
                unit[j, i] = 1.0
                literal += kron(kron(np.eye(d), unit), kron(np.eye(d), unit))
        assert np.abs(m.conj().T @ m - literal).max() < 1e-12


@pytest.fixture
def dykstra_at(monkeypatch):
    """``_dykstra`` with its stopping bound ``DYKSTRA_TOL`` set to ``tol``."""

    def run(c, tol):
        monkeypatch.setattr(projections, "DYKSTRA_TOL", tol)
        return _dykstra(c)

    return run


class TestDykstra:
    def test_fixed_points(self):
        for c in (identity_choi(2), np.eye(4) / 2):
            out = project_cptp_dykstra(c)
            assert np.abs(out - c).max() < 1e-6

    def test_runs_the_core_loop_at_the_defaults(self):
        c = random_hermitian(np.random.default_rng(840), 9, scale=3.0)
        want = _dykstra(c)[0]
        assert project_cptp_dykstra(c).tobytes() == want.tobytes()

    def test_output_is_cptp(self, dykstra_at):
        out = dykstra_at(C_BOX, 1e-10)[0]
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        assert np.abs(partial_trace_out(out) - np.eye(2)).max() < 1e-6

    def test_closest_point_by_sampling(self, dykstra_at):
        out = dykstra_at(C_BOX, 1e-10)[0]
        dist = np.linalg.norm(C_BOX - out)
        for b in cptp_pool(2, 1000, seed=5000):
            assert dist <= np.linalg.norm(C_BOX - b) + 1e-3

    def test_variational_inequality(self, dykstra_at):
        c = random_hermitian(RNG, 4, scale=2.0)
        out = dykstra_at(c, 1e-12)[0]
        for b in cptp_pool(2, 200, seed=6000):
            assert frobenius_inner(c - out, b - out) <= 1e-6

    def test_iteration_cap_raises(self, dykstra_at, monkeypatch):
        monkeypatch.setattr(projections, "MAX_INNER_ITERATIONS", 3)
        with pytest.raises(ConvergenceError) as excinfo:
            dykstra_at(C_BOX, 1e-10)
        assert excinfo.value.last_iterate is not None
        assert excinfo.value.residual is not None
        # The stopping sum is formed only once TP holds, so the message
        # names the TP residual, which the error also carries.
        assert f"TP residual {excinfo.value.residual:.3e}" in str(excinfo.value)
        assert excinfo.value.residual > EPS_TP
        last = excinfo.value.last_iterate
        assert np.linalg.eigvalsh(last).min() >= -1e-12
        tp_res = np.linalg.norm(partial_trace_out(last) - np.eye(2))
        assert abs(tp_res - excinfo.value.residual) <= 1e-12

    def test_positive_part_formed_only_once_tp_holds(self, monkeypatch):
        # An iteration costs one eigendecomposition and the d x d partial
        # trace from its eigenpairs; P_+ is formed for the stopping sum only,
        # of the three kept iterations on an iteration that passes the TP
        # test. At DYKSTRA_TOL the first such iteration stops the loop.
        d = 3
        formed = []
        residuals = []
        positive_part = projections._positive_part
        tr_out_positive = projections._tr_out_positive

        def counting_positive_part(w, v):
            formed.append(1)
            return positive_part(w, v)

        def recording_tr_out(w, v, d):
            out = tr_out_positive(w, v, d)
            residuals.append(np.linalg.norm(np.eye(d) - out))
            return out

        monkeypatch.setattr(projections, "_positive_part", counting_positive_part)
        monkeypatch.setattr(projections, "_tr_out_positive", recording_tr_out)
        rng = np.random.default_rng(830)
        for _ in range(20):
            formed.clear()
            residuals.clear()
            _, iterations, _ = _dykstra(random_hermitian(rng, d * d, scale=float(d)))
            assert len(residuals) == iterations
            passing = sum(1 for res in residuals[1:] if res <= EPS_TP)
            assert 1 <= len(formed) <= passing + 2


class TestDykstraAgainstTextbook:
    """The d x d TP correction against the loop with the full correction."""

    @staticmethod
    def assert_same_run(dykstra_at, c, tol):
        mat, iterations, stop_sum = dykstra_at(c, tol)
        ref_mat, ref_iterations, ref_stop_sum = dykstra_textbook(c, tol)
        assert iterations == ref_iterations
        assert np.abs(mat - ref_mat).max() < 1e-12
        assert abs(stop_sum - ref_stop_sum) < 1e-12

    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_hermitians(self, dykstra_at, d, tol):
        rng = np.random.default_rng(800 + d)
        for _ in range(20):
            self.assert_same_run(dykstra_at, random_hermitian(rng, d * d, scale=float(d)), tol)

    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    def test_c_box(self, dykstra_at, tol):
        self.assert_same_run(dykstra_at, C_BOX, tol)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDualNewton:
    """The solvers' CPTP projection, checked against Dykstra."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_closest_cptp_point(self, d):
        rng = np.random.default_rng(700 + d)
        pool = np.stack([vec(b) for b in cptp_pool(d, 200, seed=7000 + 100 * d)])
        for _ in range(4):
            c = random_hermitian(rng, d * d, scale=float(d))
            out, _, _ = _project_cptp_dual(c)
            assert np.abs(out - dykstra_textbook(c, 1e-12)[0]).max() < 1e-6
            assert np.linalg.eigvalsh(out).min() >= -1e-12
            assert np.linalg.norm(partial_trace_out(out) - np.eye(d)) <= 1e-12
            vi = ((pool - vec(out)) @ vec(c - out).conj()).real
            assert vi.max() <= 1e-6

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_independent_of_warm_start(self, d):
        rng = np.random.default_rng(710 + d)
        c = random_hermitian(rng, d * d, scale=float(d))
        out, y, _ = _project_cptp_dual(c)
        for y0 in (np.zeros((d, d)), y, random_hermitian(rng, d)):
            again, _, _ = _project_cptp_dual(c, y0)
            assert np.abs(again - out).max() < 1e-10
        assert _project_cptp_dual(c, y)[2] == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitary_channel_is_a_fixed_point(self, d):
        # Rank one: C + Y (x) I has a (nearly) degenerate non-positive
        # eigenspace of dimension d^2 - 1 along the way.
        rng = np.random.default_rng(720 + d)
        c = choi_from_kraus([random_unitary(rng, d)])
        out, _, steps = _project_cptp_dual(c)
        assert steps == 0 and np.abs(out - c).max() < 1e-12
        out, _, steps = _project_cptp_dual(c, random_hermitian(rng, d))
        assert steps > 0 and np.abs(out - c).max() < 1e-10

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(projections, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            _project_cptp_dual(C_BOX)
        err = excinfo.value
        true = np.linalg.norm(partial_trace_out(err.last_iterate) - np.eye(2))
        assert err.residual > projections.NEWTON_TOL
        assert err.residual == pytest.approx(true, rel=1e-4)


class TestScalarMultiplier:
    """The cold start -alpha I, the best multiple of the identity for theta."""

    @staticmethod
    def cases(d):
        rng = np.random.default_rng(760 + d)
        n = d * d
        h = random_hermitian(rng, n, scale=float(d))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return {
            "mixed": h,
            "negative definite": -(h @ h) - 0.1 * np.eye(n),
            "rank one": 3.0 * np.outer(v, v.conj()) / np.vdot(v, v).real,
            "cptp": cptp_pool(d, 1, seed=7600 + d)[0],
            "unitary channel": choi_from_kraus([random_unitary(rng, d)]),
        }

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_positive_parts_sum_to_d(self, d):
        eye = np.eye(d * d)
        for c in self.cases(d).values():
            w = np.linalg.eigvalsh(c)
            alpha = _scalar_multiplier(w[::-1], d)
            shifted = np.linalg.eigvalsh(c - alpha * eye)
            assert abs(np.maximum(shifted, 0.0).sum() - d) < 1e-12
            # Stationary on the identity line: theta rises on either side.
            theta = [0.5 * np.sum(np.maximum(w - a, 0.0) ** 2) + d * a
                     for a in (alpha - 1e-3, alpha, alpha + 1e-3)]
            assert theta[1] <= min(theta[0], theta[2])

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_cptp_input_starts_at_the_solution(self, d):
        for label in ("cptp", "unitary channel"):
            c = self.cases(d)[label]
            alpha = _scalar_multiplier(np.linalg.eigvalsh(c), d)
            assert abs(alpha) < 1e-12
            out, _, steps = _project_cptp_dual(c, -alpha * np.eye(d))
            assert steps == 0 and np.abs(out - c).max() < 1e-12


def jacobian_cases(d):
    """(label, ascending eigenvalues, eigenvectors) spanning the positive ranks."""
    rng = np.random.default_rng(740 + d)
    n = d * d
    w, v = np.linalg.eigh(random_hermitian(rng, n, scale=float(d)))
    zero = w.copy()
    zero[np.argmin(np.abs(w))] = 0.0
    unitary = choi_from_kraus([random_unitary(rng, d)])
    w_u, v_u = np.linalg.eigh(unitary)
    exact = np.zeros(n)
    exact[-1] = float(d)
    return [
        ("mixed", w, v),
        ("negative definite", np.sort(-np.abs(w)) - 0.1, v),
        ("positive definite", np.sort(np.abs(w)) + 0.1, v),
        ("exact zero eigenvalue", zero, v),
        ("unitary channel", w_u, v_u),
        ("unitary channel, exact spectrum", exact, v_u),
    ]


class TestNewtonJacobian:
    """The index-split Jacobian against K diag(Omega) K^dagger over all pairs."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_dense(self, d):
        ranks = set()
        for label, w, v in jacobian_cases(d):
            ranks.add(int((w > 0).sum()))
            split = _newton_jacobian(w, v, d)
            assert np.abs(split - newton_jacobian_dense(w, v, d)).max() < 1e-12, label
        assert {0, d * d} <= ranks

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_direction_matches_dense(self, d):
        rng = np.random.default_rng(750 + d)
        for label, w, v in jacobian_cases(d):
            residual = random_hermitian(rng, d)
            res_norm = float(np.linalg.norm(residual))
            step = _newton_direction(w, v, residual, res_norm, d)
            ref = newton_direction_dense(w, v, residual, res_norm, d)
            assert np.abs(step - ref).max() < 1e-10, label


class TestAveragedProjection:
    def test_fixed_point_on_cptp(self):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=7))
        out = project_cptp_averaged(c)
        assert np.abs(out - c).max() < 1e-7

    def test_zero_matrix_reaches_feasibility(self):
        out = project_cptp_averaged(np.zeros((4, 4)))
        assert np.linalg.eigvalsh(out).min() >= -1e-8
        assert np.abs(partial_trace_out(out) - np.eye(2)).max() < 1e-6

    def test_dykstra_is_at_least_as_close(self):
        averaged = project_cptp_averaged(C_BOX, tol=1e-10)
        dykstra = dykstra_textbook(C_BOX, 1e-10)[0]
        d_avg = np.linalg.norm(C_BOX - averaged)
        d_dyk = np.linalg.norm(C_BOX - dykstra)
        assert d_avg >= d_dyk - 1e-6
