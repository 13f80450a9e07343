"""Reference implementations that exist only to check the package.

* ``vec_inv``: the inverse of column-stacking ``vec``, which the dense
  references use to read a vectorized Choi operator back as a matrix.
* ``partial_trace_in``: the trace over the input factor, checked against
  ``partial_trace_out``; the package itself only traces out the output.
* ``m_operator`` and ``project_tp_m_form``: the TP / US_p projection in its
  vectorized form through the sparse trace-out operator M, checked against
  the closed form the package uses.
* ``project_cptp_averaged``: averaged projections, which reach the CPTP set
  but not its closest point, checked against Dykstra.
* ``dia_update_kron`` and ``dia_trials_kron``: the DIA step with
  W^{-1/2} (x) I formed by ``kron`` and the dilution loop around it,
  checked against the one-sided factor update the solver uses.
* ``linear_inversion_dense``: minimum-norm least squares on the dense
  design, checked against the Kronecker-factored inversion.
* ``dykstra_textbook``: Dykstra's loop with the full d^2 x d^2 TP
  correction and the stopping sum formed every iteration, checked against
  the d x d correction the package keeps.
* ``newton_jacobian_dense`` and ``newton_direction_dense``: the dual Newton
  Jacobian K diag(Omega) K^dagger over all n^2 eigenpair columns, checked
  against the index-split Jacobian.
* ``design_condition_number``: the design's condition number from the
  singular values of the stacks, which the tests check on the minimal
  setup; the package has no caller for it.
"""

import numpy as np
import scipy.sparse

from qptomo import (
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
    DomainError,
    build_design,
    hermitize,
    kron,
    partial_trace_out,
    project_cp,
    project_tp,
    psd_sqrt_inv,
    vec,
)
from qptomo.channel import EPS_CP, EPS_TP, tp_distance
from qptomo.linalg import choi_dim
from qptomo.projections import MAX_INNER_ITERATIONS
from qptomo.solvers import _Cost


def vec_inv(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild a ``rows x cols`` matrix."""
    v = np.asarray(v).reshape(-1)
    if cols is None:
        if v.size % rows:
            raise DimensionError(f"cannot split length {v.size} into {rows} rows")
        cols = v.size // rows
    if v.size != rows * cols:
        raise DimensionError(f"length {v.size} != {rows})x({cols}")
    return v.reshape((rows, cols), order="F")


def partial_trace_in(c: np.ndarray) -> np.ndarray:
    """Trace out the first (input) tensor factor of a d^2 x d^2 operator."""
    d = choi_dim(c)
    return np.einsum("kikj->ij", np.asarray(c).reshape(d, d, d, d))


def m_operator(d: int) -> scipy.sparse.csr_matrix:
    """Sparse d^2 x d^4 operator with M vec(C) = vec(Tr_out(C)).

    Realizes sum_k I (x) <k| (x) I (x) <k| against column-stacking vec;
    each row holds d unit entries. Satisfies M M^dagger = d I.
    """
    d2, d4 = d * d, d**4
    rows = np.empty(d2 * d, dtype=np.int64)
    cols = np.empty(d2 * d, dtype=np.int64)
    idx = 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                rows[idx] = j * d + i
                cols[idx] = (j * d + k) * d2 + (i * d + k)
                idx += 1
    data = np.ones(idx)
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(d2, d4))


def project_tp_m_form(c: np.ndarray, p_success: float = 1.0) -> np.ndarray:
    """Reference TP / US_p projection through the vectorized M operator.

    vec(C) - (1/d) M^dagger M vec(C) + (p/d) M^dagger vec(I). Kept for
    equivalence testing against the closed form used in hot loops.
    """
    d = choi_dim(c)
    m = m_operator(d)
    x = vec(c)
    x = x - m.conj().T @ (m @ x) / d + p_success * (m.conj().T @ vec(np.eye(d))) / d
    return vec_inv(x, d * d, d * d)


def project_cptp_averaged(
    c: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = MAX_INNER_ITERATIONS,
    eps_cp: float = EPS_CP,
    eps_tp: float = EPS_TP,
) -> np.ndarray:
    """Iterate the average of the TP and CP projections to feasibility.

    Converges to a point of the CPTP set but, unlike Dykstra, not to the
    closest one. Stops when successive iterates move less than ``tol`` in
    Frobenius norm and the CPTP residuals are within tolerance.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    h = hermitize(np.asarray(c, dtype=complex))
    d = choi_dim(h)
    delta = np.inf
    for _ in range(max_iterations):
        h_new = (project_tp(h) + project_cp(h)) / 2
        delta = float(np.linalg.norm(h_new - h))
        h = h_new
        if delta <= tol:
            min_eig = float(np.linalg.eigvalsh(hermitize(h)).min())
            tp_dist = float(np.linalg.norm(partial_trace_out(h) - np.eye(d)))
            if min_eig >= -eps_cp and tp_dist <= eps_tp:
                return hermitize(h)
    raise ConvergenceError(
        f"averaged projections did not converge in {max_iterations} iterations "
        f"(last step {delta:.3e})",
        last_iterate=hermitize(h),
        residual=delta,
    )


def dia_update_kron(c: np.ndarray, g: np.ndarray, epsilon: float) -> np.ndarray:
    """One diluted step, normalized by the explicit Kronecker product."""
    d = choi_dim(c)
    eye = np.eye(d * d, dtype=complex)
    r = epsilon * g + (1.0 - epsilon) * eye
    rcr = r @ c @ r
    s = kron(psd_sqrt_inv(partial_trace_out(rcr)), np.eye(d))
    return hermitize(s @ rcr @ s)


def dia_trials_kron(setup, counts, iterations: int) -> list:
    """(epsilon, trial iterate) of every dilution tried in ``iterations`` DIA steps.

    The loop of ``solve_dia`` from the maximally mixed start, without its
    stopping rule, built on :func:`dia_update_kron`.
    """
    cost = _Cost(setup, counts)
    c = np.eye(setup.d**2, dtype=complex) / setup.d
    p_c = cost.probs(c)
    f_c = cost.from_probs(p_c)
    trials = []
    for _ in range(iterations):
        g = -cost.gradient_from_probs(p_c)
        epsilon = 1.0
        while True:
            c_new = dia_update_kron(c, g, epsilon)
            trials.append((epsilon, c_new))
            p_new = cost.probs(c_new)
            f_new = cost.from_probs(p_new)
            if f_new <= f_c:
                break
            epsilon *= 0.5
        c, p_c, f_c = c_new, p_new, f_new
    return trials


def linear_inversion_dense(setup, counts) -> np.ndarray:
    """Hermitized minimum-norm solution of A vec(C) = n on the dense design A."""
    d2 = setup.d**2
    x, *_ = np.linalg.lstsq(build_design(setup), counts.flat.astype(complex), rcond=None)
    return hermitize(vec_inv(x, d2, d2))


def dykstra_textbook(
    c: np.ndarray,
    tol: float,
    max_iterations: int = MAX_INNER_ITERATIONS,
    eps_tp: float = EPS_TP,
) -> tuple[np.ndarray, int, float]:
    """Dykstra's loop as written; returns (matrix, iterations, stopping sum).

    ``x`` is the CP iterate, ``y`` the TP iterate, ``p`` and ``q`` the
    corrections carried into the TP and CP steps.
    """
    x = hermitize(np.asarray(c, dtype=complex))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y_prev = None
    stop_sum = np.inf
    for k in range(max_iterations):
        y = project_tp(x + p)
        p_new = x + p - y
        x_new = project_cp(y + q)
        q_new = y + q - x_new
        if k >= 1:
            # Robust stopping sum over successive corrections and iterates.
            stop_sum = (
                float(np.linalg.norm(p_new - p) ** 2)
                + float(np.linalg.norm(q_new - q) ** 2)
                + 2.0 * abs(np.vdot(p, x_new - x))
                + 2.0 * abs(np.vdot(q, y - y_prev))
            )
            if stop_sum <= tol and tp_distance(x_new) <= eps_tp:
                return x_new, k + 1, stop_sum
        y_prev = y
        x, p, q = x_new, p_new, q_new
    raise ConvergenceError(
        f"Dykstra projection did not converge in {max_iterations} iterations "
        f"(stopping sum {stop_sum:.3e})",
        last_iterate=x,
        residual=stop_sum,
    )


def newton_jacobian_dense(w: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """K diag(Omega) K^dagger over all n^2 columns (i, j) of K."""
    n = d * d
    pos = w > 0
    omega = (pos[:, None] & pos[None, :]).astype(float)
    i, j = np.nonzero(pos[:, None] != pos[None, :])
    wp = np.clip(w, 0.0, None)
    omega[i, j] = (wp[i] - wp[j]) / (w[i] - w[j])
    v3 = v.reshape(d, d, n)
    left = v3.transpose(0, 2, 1).reshape(d * n, d)  # [(a, i), b]
    right = v3.conj().transpose(1, 0, 2).reshape(d, d * n)  # [b, (c, j)]
    k = (left @ right).reshape(d, n, d, n).transpose(0, 2, 1, 3).reshape(n, n * n)
    return (k * omega.reshape(-1)) @ k.conj().T


def newton_direction_dense(
    w: np.ndarray, v: np.ndarray, residual: np.ndarray, res_norm: float, d: int
) -> np.ndarray:
    """The regularized Newton step of the dual projection on the dense Jacobian."""
    jac = newton_jacobian_dense(w, v, d) + min(1e-2, res_norm) * np.eye(d * d)
    try:
        step = np.linalg.solve(jac, -residual.reshape(-1))
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"Newton system is singular: {err}") from err
    return hermitize(step.reshape(d, d))


def design_condition_number(setup) -> float:
    """Ratio of the largest to smallest nonzero singular value of the design.

    The design is R (x) F up to a column permutation, so its singular values
    are the pairwise products of those of ``prep_rows`` and ``povm_rows``.
    """
    s_r = np.linalg.svd(setup.prep_rows, compute_uv=False)
    s_f = np.linalg.svd(setup.povm_rows, compute_uv=False)
    s = np.outer(s_r, s_f)
    s_max = s_r[0] * s_f[0]
    cutoff = max(setup.n_prep * setup.n_povm, setup.d**4) * np.finfo(float).eps * s_max
    return float(s_max / s[s > cutoff].min())
