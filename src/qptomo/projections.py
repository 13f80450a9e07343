"""Orthogonal projections onto channel constraint sets.

Single-set projections (all orthogonal under the Frobenius norm):

* CP, the cone of positive semidefinite Choi operators;
* TP, the affine set with output partial trace equal to the identity;
* US_p, output partial trace equal to p times the identity;
* TNI, output partial trace with all eigenvalues at most 1.

TP, US_p and TNI only move the output partial trace, through the embedding

    C -> C + (1/d) Y (x) I

(TP takes Y = I - Tr_out(C)). The equivalent vectorized form through the
sparse trace-out operator M is a test reference, in ``tests/reference.py``.

Two algorithms compute the closest CPTP point:

* ``_project_cptp_dual``, which the solvers call: semismooth Newton on the
  dual of the projection (Malick 2004; Qi & Sun 2006). The closest point is
  X = P_+(C + Y (x) I) for the multiplier Y that solves the d^2-variable
  equation Tr_out P_+(C + Y (x) I) = I, so X is positive semidefinite by
  construction and TP to ``NEWTON_TOL``. Passing the previous multiplier
  as a warm start makes a hot loop of nearby projections cheap. The
  Newton Jacobian uses only the eigenvector pairs with a positive
  eigenvalue.
* ``project_cptp_dykstra``, the standalone projection (``qptomo project
  --set cptp``): Dykstra's alternating TP and CP projections with
  correction terms, which converge to the closest point of the
  intersection (plain alternating or averaged projections only reach
  feasibility). Its TP correction is kept as a d x d matrix.

The textbook Dykstra loop and the dense Newton Jacobian are test
references, in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .channel import EPS_TP
from .errors import ConvergenceError, DomainError, SingularMatrixError
from .linalg import eigh, hermitize, partial_trace_out

#: Algorithm default for the Dykstra stopping sum.
DYKSTRA_TOL = 1e-4
MAX_INNER_ITERATIONS = 20000

#: Stopping rule of the dual Newton projection, on ||Tr_out X - I||_F. A
#: looser 1e-10 makes pgdB's slope test stop early on the inexact step.
NEWTON_TOL = 1e-12
MAX_NEWTON_STEPS = 100
#: Armijo constant and smallest step of the dual line search.
NEWTON_ARMIJO = 1e-4
MIN_NEWTON_STEP = 1e-10


def _add_out_identity(c: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """C + (1/d) Y (x) I, adding Y/d to the output diagonal of C.

    (Y/d) (x) I is Y/d broadcast against the identity on the (in, out, in',
    out') axes, one multiply and one add with no call to ``kron``.
    """
    return c + ((y / d)[:, None, :, None] * np.eye(d)[:, None, :]).reshape(d * d, d * d)


def _positive_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P_+(V diag(w) V^dagger): keep the positive eigenvalues."""
    return hermitize((v * np.maximum(w, 0.0)) @ v.conj().T)


def project_cp(c: np.ndarray) -> np.ndarray:
    """Closest positive semidefinite matrix: clip negative eigenvalues."""
    return _positive_part(*eigh(c))


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

    ``x`` is the CP iterate, ``y`` the TP iterate and ``q`` the correction
    carried into the CP step. The correction carried into the TP step is
    always z (x) I, which the TP step removes again (P_TP(x + z (x) I) =
    P_TP(x)), so only the d x d ``z`` is kept: the TP step shifts ``x`` by
    (gap / d) (x) I with gap = I - Tr_out x, the gap of the previous TP
    test, and ``z`` falls by gap / d. The stopping sum's TP terms reduce to
    d x d ones, ||p' - p||^2 = ||gap||^2 / d and <p, x' - x> =
    <z, gap - gap'>, and the sum is formed only once the TP residual
    ||gap'|| of the new CP iterate is within ``eps_tp``, since it cannot
    stop the loop before. At the iteration cap the :class:`ConvergenceError`
    carries that TP residual.
    """
    d = round(c.shape[0] ** 0.5)
    eye = np.eye(d)
    x = hermitize(np.asarray(c, dtype=complex))
    gap = eye - partial_trace_out(x, d)
    z = np.zeros((d, d), dtype=complex)
    q = np.zeros_like(x)
    y_prev = None
    tp_res = stop_sum = np.inf
    for k in range(max_iterations):
        y = _add_out_identity(x, gap, d)
        y_q = y + q
        x_new = project_cp(y_q)
        q_new = y_q - x_new
        gap_new = eye - partial_trace_out(x_new, d)
        tp_res = float(np.vdot(gap_new, gap_new).real) ** 0.5
        if k >= 1 and tp_res <= eps_tp:
            # Robust stopping sum over successive corrections and iterates.
            stop_sum = (
                float(np.linalg.norm(gap) ** 2) / d
                + float(np.linalg.norm(q_new - q) ** 2)
                + 2.0 * abs(np.vdot(z, gap - gap_new))
                + 2.0 * abs(np.vdot(q, y - y_prev))
            )
            if stop_sum <= tol:
                return x_new, k + 1, stop_sum
        y_prev = y
        z = z - gap / d
        x, gap, q = x_new, gap_new, q_new
    raise ConvergenceError(
        f"Dykstra projection did not converge in {max_iterations} iterations "
        f"(TP residual {tp_res:.3e}, last stopping sum {stop_sum:.3e})",
        last_iterate=x,
        residual=tp_res,
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


def _newton_jacobian(w: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """Generalized Jacobian of Y -> Tr_out P_+(C + Y (x) I) at V diag(w) V^dagger.

    ``w`` is in ascending order, as :func:`eigh` returns it. The Jacobian
    maps H to Tr_out V (Omega o V^dagger (H (x) I) V) V^dagger, where Omega
    is the first divided difference of max(w, 0): 1 between two positive
    eigenvalues, 0 between two non-positive ones (degenerate pairs
    included) and w+ / (w+ - w-) across the sign change. As a d^2 x d^2
    matrix on row-major H it is K diag(Omega) K^dagger with
    K[(a, c), (i, j)] = sum_b V[a, b, i] conj(V[c, b, j]).

    Omega vanishes unless i or j is positive, and the pair (j, i) is the
    mirror of (i, j): K[(a, c), (j, i)] = conj K[(c, a), (i, j)]. So only
    the r n columns of K with i among the r positive eigenvalues are built
    (Qi & Sun 2006, the index-set split). Summed with weight Omega across
    the sign change and 1/2 between positives, they give G, and
    J = G + swap(conj G), where swap(M)[(a, c), (a', c')] = M[(c, a), (c', a')]
    adds the mirror pairs.
    """
    n = d * d
    m = int(np.searchsorted(w, 0.0, side="right"))  # first positive index
    r = n - m
    # Omega[i, :] for positive i: w_i / (w_i - min(w_j, 0)).
    weight = w[m:, None] / (w[m:, None] - np.minimum(w, 0.0))
    weight[:, m:] = 0.5
    v3 = v.reshape(d, d, n)
    left = v3[:, :, m:].transpose(0, 2, 1).reshape(d * r, d)  # [(a, i), b]
    right = v3.conj().transpose(1, 0, 2).reshape(d, d * n)  # [b, (c, j)]
    k = (left @ right).reshape(d, r, d, n).transpose(0, 2, 1, 3).reshape(n, r * n)
    g = (k * weight.reshape(-1)) @ k.conj().T
    return g + g.conj().reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(n, n)


def _newton_direction(
    w: np.ndarray, v: np.ndarray, residual: np.ndarray, res_norm: float, d: int
) -> np.ndarray:
    """Regularized semismooth Newton step for Tr_out P_+(C + Y (x) I) = I.

    Solves (J + min(1e-2, residual) I) vec(dY) = -vec(residual) with the
    index-split Jacobian J of :func:`_newton_jacobian`.
    """
    jac = _newton_jacobian(w, v, d)
    jac.flat[:: d * d + 1] += min(1e-2, res_norm)
    try:
        step = np.linalg.solve(jac, -residual.reshape(-1))
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"Newton system is singular: {err}") from err
    return hermitize(step.reshape(d, d))


def _project_cptp_dual(
    c: np.ndarray, y0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Closest CPTP Choi operator by semismooth Newton on the dual problem.

    Minimizes the dual function theta(Y) = 1/2 ||P_+(C + Y (x) I)||^2 - Tr Y,
    whose gradient is Tr_out P_+(C + Y (x) I) - I, over Hermitian d x d
    multipliers Y, starting from ``y0`` (zero when None). A Newton step is
    accepted when it halves the TP residual or, failing that, passes the
    Armijo test on theta; near the solution the decrease of theta falls
    below its rounding, so the residual test is the one that finishes.
    A trial point costs one eigendecomposition: the residual comes from
    the eigenpairs, and P_+(C + Y (x) I) is formed only for the result or
    the error.

    Returns (projection, multiplier, Newton steps); the projection is
    positive semidefinite to rounding and its TP residual is at most
    ``NEWTON_TOL``. Raises :class:`ConvergenceError` after
    ``MAX_NEWTON_STEPS`` steps or when the line search finds no step.
    """
    c = hermitize(np.asarray(c, dtype=complex))
    d = round(c.shape[0] ** 0.5)
    eye = np.eye(d)

    def evaluate(y):
        w, v = eigh(_add_out_identity(c, d * y, d))
        wp = np.maximum(w, 0.0)
        # Tr_out(V diag(w+) V^dagger) - I on the (d, d n) views of V.
        residual = (v * wp).reshape(d, -1) @ v.reshape(d, -1).conj().T - eye
        theta = 0.5 * float(wp @ wp) - float(np.trace(y).real)
        return (w, v, residual), float(np.linalg.norm(residual)), theta

    if y0 is None:
        y = np.zeros((d, d), dtype=complex)
    else:
        y = hermitize(np.asarray(y0, dtype=complex))
    state, res_norm, theta = evaluate(y)
    steps = 0
    while res_norm > NEWTON_TOL:
        w, v, residual = state
        if steps == MAX_NEWTON_STEPS:
            raise ConvergenceError(
                f"dual Newton projection did not converge in {MAX_NEWTON_STEPS} "
                f"steps (TP residual {res_norm:.3e})",
                last_iterate=_positive_part(w, v),
                residual=res_norm,
            )
        dy = _newton_direction(w, v, residual, res_norm, d)
        slope = float(np.vdot(residual, dy).real)
        t = 1.0
        while True:
            trial, trial_norm, trial_theta = evaluate(y + t * dy)
            if (trial_norm <= 0.5 * res_norm
                    or trial_theta <= theta + NEWTON_ARMIJO * t * slope):
                break
            t *= 0.5
            if t < MIN_NEWTON_STEP:
                raise ConvergenceError(
                    f"dual Newton line search failed at TP residual {res_norm:.3e}",
                    last_iterate=_positive_part(w, v),
                    residual=res_norm,
                )
        y = y + t * dy
        state, res_norm, theta = trial, trial_norm, trial_theta
        steps += 1
    return _positive_part(*state[:2]), y, steps
