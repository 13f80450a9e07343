"""Orthogonal projections onto channel constraint sets.

Single-set projections (all orthogonal under the Frobenius norm):

* CP, the cone of positive semidefinite Choi operators;
* TP, the affine set with output partial trace equal to the identity;
* US_p, output partial trace equal to p times the identity;
* TNI, output partial trace with all eigenvalues at most 1.

The composite CPTP projection alternates TP and CP with Dykstra correction
terms, which converges to the closest point of the intersection (plain
alternating or averaged projections only reach feasibility). TP, US_p and
TNI only move the output partial trace, through the embedding

    C -> C + (1/d) Y (x) I

(TP takes Y = I - Tr_out(C)). The equivalent vectorized form through the
sparse trace-out operator M is a test reference, in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .channel import EPS_TP, tp_distance
from .errors import ConvergenceError, DomainError
from .linalg import eigh, hermitize, partial_trace_out

#: Algorithm default for the Dykstra stopping sum.
DYKSTRA_TOL = 1e-4
MAX_INNER_ITERATIONS = 20000


def _add_out_identity(c: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """C + (1/d) Y (x) I, adding Y/d to the output diagonal of a copy of C.

    Works on the (d, d, d, d) view (in, out, in', out') of the copy, so no
    d^2 x d^2 Kronecker product is built.
    """
    out = np.array(c, dtype=np.result_type(c, y), order="C")
    k = np.arange(d)
    out.reshape(d, d, d, d)[:, k, :, k] += y / d
    return out


def project_cp(c: np.ndarray) -> np.ndarray:
    """Closest positive semidefinite matrix: clip negative eigenvalues."""
    w, v = eigh(c)
    return hermitize((v * np.clip(w, 0.0, None)) @ v.conj().T)


def project_tp(c: np.ndarray, d: int | None = None) -> np.ndarray:
    """Closest Choi operator with Tr_out(C) = I (affine projection)."""
    if d is None:
        d = round(c.shape[0] ** 0.5)
    return _add_out_identity(c, np.eye(d) - partial_trace_out(c, d), d)


def project_us_p(c: np.ndarray, p_success: float) -> np.ndarray:
    """Closest Choi operator with Tr_out(C) = p I, for success probability p."""
    if not 0.0 < p_success <= 1.0:
        raise DomainError(f"p_success must lie in (0, 1], got {p_success}")
    d = round(c.shape[0] ** 0.5)
    return _add_out_identity(c, p_success * np.eye(d) - partial_trace_out(c, d), d)


def project_tni(c: np.ndarray) -> np.ndarray:
    """Closest Choi operator whose output partial trace is at most identity.

    Only the trace-out component can violate the constraint, so the
    projection clips the eigenvalues of Tr_out(C) at 1 and pushes the
    difference back through the (1/d) (.) (x) I embedding. Trace
    preserving inputs are fixed points.
    """
    d = round(c.shape[0] ** 0.5)
    y = partial_trace_out(c, d)
    w, v = eigh(y)
    clipped = (v * np.minimum(w, 1.0)) @ v.conj().T
    return _add_out_identity(c, clipped - y, d)


def _dykstra(
    c: np.ndarray,
    tol: float,
    max_iterations: int,
    eps_tp: float,
) -> tuple[np.ndarray, int, float]:
    """Core Dykstra loop; returns (matrix, iterations, stopping sum).

    ``x`` is the CP iterate, ``y`` the TP iterate, ``p`` and ``q`` the
    corrections carried into the TP and CP steps.
    """
    d = round(c.shape[0] ** 0.5)
    x = hermitize(np.asarray(c, dtype=complex))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y_prev = None
    stop_sum = np.inf
    for k in range(max_iterations):
        y = project_tp(x + p, d)
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
            if stop_sum <= tol and tp_distance(x_new, d) <= eps_tp:
                return x_new, k + 1, stop_sum
        y_prev = y
        x, p, q = x_new, p_new, q_new
    raise ConvergenceError(
        f"Dykstra projection did not converge in {max_iterations} iterations "
        f"(stopping sum {stop_sum:.3e})",
        last_iterate=x,
        residual=stop_sum,
    )


def project_cptp_dykstra(
    c: np.ndarray,
    tol: float = DYKSTRA_TOL,
    max_iterations: int = MAX_INNER_ITERATIONS,
    eps_tp: float = EPS_TP,
) -> np.ndarray:
    """Project onto the closest CPTP Choi operator (Dykstra's algorithm).

    Alternates the TP and CP projections with correction terms; the
    returned iterate comes from the CP step, so it is positive
    semidefinite to machine precision while the TP condition holds within
    ``eps_tp``. The loop stops once the robust stopping sum falls below
    ``tol`` and the TP residual is within ``eps_tp``; it always runs at
    least two iterations because the sum compares successive corrections.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    mat, _, _ = _dykstra(np.asarray(c, dtype=complex), tol, max_iterations, eps_tp)
    return mat
