"""Vectorization, partial traces, eigendecompositions and matrix functions."""

import numpy as np
import pytest

from qptomo import (
    CountsTable,
    DimensionError,
    LapackError,
    SingularMatrixError,
    TomographySetup,
    cptp_residuals,
    is_cptp,
    j_distance,
    project_cptp,
    project_cptp_dykstra,
)
from qptomo.linalg import (
    eigh,
    hermitize,
    kron,
    partial_trace_out,
    psd_sqrt_inv,
    trace_norm,
)
from qptomo.projections import _project_cptp_dual
from qptomo.solvers import _dia_update, solve_linear_inversion
from conftest import random_hermitian
from reference import frobenius_inner, partial_trace_in, vec, vec_inv

RNG = np.random.default_rng(11)


def crandom(rows, cols):
    return RNG.normal(size=(rows, cols)) + 1j * RNG.normal(size=(rows, cols))


class TestVec:
    def test_column_stacking_convention(self):
        m = np.array([[1, 3], [2, 4]])
        assert np.array_equal(vec(m), [1, 2, 3, 4])

    def test_zero_matrix(self):
        assert np.array_equal(vec(np.zeros((2, 2))), np.zeros(4))

    def test_trace_identity(self):
        a, b = crandom(3, 3), crandom(3, 3)
        lhs = np.vdot(vec(a), vec(b))
        assert abs(lhs - np.trace(a.conj().T @ b)) < 1e-12

    def test_frobenius_inner_matches_vec_form(self):
        a, b = crandom(4, 4), crandom(4, 4)
        assert abs(frobenius_inner(a, b) - np.vdot(vec(a), vec(b)).real) < 1e-12

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (4, 1)])
    def test_round_trip(self, rows, cols):
        m = crandom(rows, cols)
        assert np.array_equal(vec_inv(vec(m), rows, cols), m)

    def test_vec_inv_identity(self):
        assert np.array_equal(vec_inv([1, 0, 0, 1], 2, 2), np.eye(2))

    def test_vec_inv_order(self):
        assert np.array_equal(vec_inv([1, 2, 3, 4], 2, 2), [[1, 3], [2, 4]])

    def test_vec_inv_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            vec_inv([1, 2, 3], 2, 2)


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        assert np.array_equal(kron(np.diag([1, 2]), np.eye(2)), np.diag([1, 1, 2, 2]))

    def test_mixed_product(self):
        a, b, c, d = (crandom(2, 2) for _ in range(4))
        assert np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)).max() < 1e-12


class TestPartialTrace:
    def test_out_diagonal_example(self):
        c = np.diag([0.1, 0.1, 0.1, 1.7])
        assert np.abs(partial_trace_out(c) - np.diag([0.2, 1.8])).max() < 1e-15

    def test_in_diagonal_example(self):
        c = np.diag([0.1, 0.1, 0.1, 1.7])
        assert np.abs(partial_trace_in(c) - np.diag([0.2, 1.8])).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_mixed(self, d):
        c = np.eye(d * d) / d
        assert np.abs(partial_trace_out(c) - np.eye(d) / d * d).max() < 1e-15
        assert np.abs(partial_trace_in(c) - np.eye(d) / d * d).max() < 1e-15

    def test_identity_channel_choi(self):
        d = 2
        c = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = 1
                c += kron(e, e)
        assert np.abs(partial_trace_out(c) - np.eye(d)).max() < 1e-15

    def test_kron_factorization(self):
        a, b = crandom(3, 3), crandom(3, 3)
        out = partial_trace_out(kron(a, b))
        assert np.abs(out - a * np.trace(b)).max() < 1e-12

    def test_trace_preserved(self):
        c = random_hermitian(RNG, 9)
        assert abs(np.trace(partial_trace_in(c)) - np.trace(c)) < 1e-12
        assert abs(np.trace(partial_trace_out(c)) - np.trace(c)) < 1e-12

    def test_linearity(self):
        a, b = random_hermitian(RNG, 4), random_hermitian(RNG, 4)
        lhs = partial_trace_out(2.0 * a + b)
        rhs = 2.0 * partial_trace_out(a) + partial_trace_out(b)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace_out(np.eye(5))
        with pytest.raises(DimensionError):
            partial_trace_in(np.eye(5))


@pytest.mark.parametrize(
    "call, x",
    [
        (project_cptp_dykstra, np.ones((4, 3))),
        (project_cptp, np.ones((4, 3))),
        (is_cptp, np.ones((4, 3))),
        (is_cptp, np.zeros((0, 0))),
        (cptp_residuals, np.ones((4, 3))),
        (lambda x: j_distance(x, x), np.ones((4, 3))),
        (_project_cptp_dual, np.ones((4, 3))),
        (_project_cptp_dual, np.eye(5)),
    ],
    ids=["dykstra-4x3", "cptp-4x3", "is_cptp-4x3", "is_cptp-0x0", "residuals-4x3",
         "j_distance-4x3", "dual-4x3", "dual-5x5"],
)
def test_non_choi_shape_is_a_dimension_error(call, x):
    # The shape is checked before hermitize or LAPACK sees the input.
    with pytest.raises(DimensionError):
        call(x)


class TestEigh:
    def test_identity(self):
        w, _ = eigh(np.eye(2))
        assert np.allclose(w, [1, 1])

    def test_pauli_x(self):
        w, _ = eigh(np.array([[0, 1], [1, 0]]))
        assert np.allclose(w, [-1, 1])

    def test_reconstruction_and_unitarity(self):
        x = random_hermitian(RNG, 8)
        w, v = eigh(x)
        resid = np.linalg.norm((v * w) @ v.conj().T - x)
        assert resid / max(1.0, np.linalg.norm(x)) <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-10

    def test_ascending(self):
        w, _ = eigh(random_hermitian(RNG, 6))
        assert np.all(np.diff(w) >= 0)

    def test_non_square(self):
        with pytest.raises(DimensionError):
            eigh(np.ones((2, 3)))


class TestTraceNorm:
    def test_examples(self):
        assert trace_norm(np.diag([1, -1])) == pytest.approx(2.0)
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_hermitian_dilation_oracle(self):
        x = crandom(4, 4)
        dilation = np.block([[np.zeros((4, 4)), x], [x.conj().T, np.zeros((4, 4))]])
        oracle = np.abs(np.linalg.eigvalsh(dilation)).sum() / 2
        assert abs(trace_norm(x) - oracle) < 1e-10

    def test_triangle_inequality(self):
        for _ in range(20):
            a, b = crandom(3, 3), crandom(3, 3)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


class TestPsdSqrtInv:
    def test_identity(self):
        assert np.abs(psd_sqrt_inv(np.eye(3)) - np.eye(3)).max() < 1e-12

    def test_diagonal(self):
        out = psd_sqrt_inv(np.diag([4.0, 9.0]))
        assert np.abs(out - np.diag([0.5, 1 / 3])).max() < 1e-12

    def test_round_trip(self):
        x = crandom(4, 4)
        pd = hermitize(x @ x.conj().T) + 0.5 * np.eye(4)
        y = psd_sqrt_inv(pd)
        assert np.abs(np.linalg.inv(y @ y) - pd).max() < 1e-8

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            psd_sqrt_inv(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            psd_sqrt_inv(np.diag([1.0, 5e-13]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_one_sided_update_matches_kron(d):
    # DIA's factor update (W^{-1/2} (x) I) R X, W = Tr_out(R X X^dagger R),
    # against the explicit Kronecker product.
    r = random_hermitian(RNG, d * d)
    x = crandom(d * d, d * d)
    rx = r @ x
    s = kron(psd_sqrt_inv(partial_trace_out(rx @ rx.conj().T)), np.eye(d))
    assert np.abs(_dia_update(x, r, 1.0) - s @ rx).max() < 1e-13


def rebuild_setup(setup):
    return TomographySetup(setup.preparations, setup.povm)


class TestLapackFailures:
    """A LinAlgError from LAPACK leaves the package as a QptError."""

    @pytest.mark.parametrize(
        "routine, message, call, error",
        [
            ("eigh", "Eigenvalues did not converge",
             lambda s: eigh(np.eye(4)), LapackError),
            ("eigvalsh", "Eigenvalues did not converge",
             lambda s: cptp_residuals(np.eye(4) / 2), LapackError),
            ("svd", "SVD did not converge",
             lambda s: trace_norm(np.eye(4)), LapackError),
            ("eigvalsh", "Eigenvalues did not converge", rebuild_setup, LapackError),
            # A fresh setup: a used one keeps its pseudo-inverses.
            ("pinv", "SVD did not converge",
             lambda s: solve_linear_inversion(rebuild_setup(s), uniform_counts(s)),
             LapackError),
            # From zero: the start -alpha I is already the projection of 2 I.
            ("solve", "Singular matrix",
             lambda s: _project_cptp_dual(2 * np.eye(4), np.zeros((2, 2))),
             SingularMatrixError),
        ],
    )
    def test_converted_at_the_call(self, monkeypatch, setup2, routine, message,
                                   call, error):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError(message)

        monkeypatch.setattr(np.linalg, routine, failing)
        with pytest.raises(error, match=message):
            call(setup2)


def uniform_counts(setup):
    return CountsTable(np.full((setup.n_prep, setup.n_povm), 1.0 / setup.n_povm))


def test_hermitize_projects_onto_hermitian_part():
    x = crandom(3, 3)
    h = hermitize(x)
    assert np.abs(h - h.conj().T).max() < 1e-15
