"""Reference implementations that exist only to check the package.

* ``m_operator`` and ``project_tp_m_form``: the TP / US_p projection in its
  vectorized form through the sparse trace-out operator M, checked against
  the closed form the package uses.
* ``project_cptp_averaged``: averaged projections, which reach the CPTP set
  but not its closest point, checked against Dykstra.
* ``dia_update_kron`` and ``dia_trials_kron``: the DIA step with
  W^{-1/2} (x) I formed by ``kron`` and the dilution loop around it,
  checked against the blockwise congruence the solver uses.
* ``linear_inversion_dense``: minimum-norm least squares on the dense
  design, checked against the Kronecker-factored inversion.
"""

import numpy as np
import scipy.sparse

from qptomo import (
    ConvergenceError,
    DomainError,
    build_design,
    hermitize,
    kron,
    partial_trace_out,
    project_cp,
    project_tp,
    psd_sqrt_inv,
    vec,
    vec_inv,
)
from qptomo.channel import EPS_COND, EPS_CP, EPS_TP
from qptomo.projections import MAX_INNER_ITERATIONS
from qptomo.solvers import _Cost


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
    d = round(c.shape[0] ** 0.5)
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
    d = round(h.shape[0] ** 0.5)
    delta = np.inf
    for _ in range(max_iterations):
        h_new = (project_tp(h, d) + project_cp(h)) / 2
        delta = float(np.linalg.norm(h_new - h))
        h = h_new
        if delta <= tol:
            min_eig = float(np.linalg.eigvalsh(hermitize(h)).min())
            tp_dist = float(np.linalg.norm(partial_trace_out(h, d) - np.eye(d)))
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
    d = round(c.shape[0] ** 0.5)
    eye = np.eye(d * d, dtype=complex)
    r = epsilon * g + (1.0 - epsilon) * eye
    rcr = r @ c @ r
    s = kron(psd_sqrt_inv(partial_trace_out(rcr, d)), np.eye(d))
    return hermitize(s @ rcr @ s)


def dia_trials_kron(setup, counts, iterations: int) -> list:
    """(epsilon, trial iterate) of every dilution tried in ``iterations`` DIA steps.

    The loop of ``solve_dia`` from the maximally mixed start, without its
    stopping rule, built on :func:`dia_update_kron`.
    """
    cost = _Cost(setup, counts, EPS_COND)
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
