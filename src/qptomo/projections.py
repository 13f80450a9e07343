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

* ``_project_cptp_dual``, behind the solvers and :func:`project_cptp`
  (``qptomo project --set cptp``): semismooth Newton on the dual of the
  projection (Malick 2004; Qi & Sun 2006). The closest point is
  X = P_+(C + Y (x) I) for the multiplier Y that solves the d^2-variable
  equation Tr_out P_+(C + Y (x) I) = I, so X is positive semidefinite by
  construction and TP to max(``NEWTON_TOL``, 64 eps ||C||_F) up to the
  norm bound ``MAX_PROJECT_NORM``. A cold call starts at -alpha I, after
  projecting C / 10 first above ``CONTINUATION_NORM``; a warm start from
  the previous multiplier makes a hot loop of nearby projections cheap.
  The Newton Jacobian uses only the eigenvector pairs with a positive
  eigenvalue.
* ``project_cptp_dykstra``, the paper's projection, kept for the benchmark
  and as the tests' reference: Dykstra's alternating TP and CP projections
  with correction terms, which converge to the closest point of the
  intersection (plain alternating or averaged projections only reach
  feasibility). For these two sets Dykstra is dual gradient descent:
  its CP-step input A = y + q obeys A <- A + ((I - Tr_out P_+(A)) / d) (x) I,
  a step of 1/L with L = d on the same dual theta(Y) that Newton solves
  (Gaffke & Mathar 1989; Henrion & Malick 2012). So the loop runs on A
  alone: one eigendecomposition and a d x d update per iteration, with
  P_+(A) formed only for the stopping sum once TP holds.

The textbook Dykstra loop and the dense Newton Jacobian are test
references, in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .channel import EPS_TP
from .errors import ConvergenceError, DomainError, SingularMatrixError
from .linalg import choi_dim, eigh, eigvalsh, hermitize, partial_trace_out

#: Dykstra's bound on the stopping sum, and its iteration cap.
DYKSTRA_TOL = 1e-4
MAX_INNER_ITERATIONS = 20000

#: Stopping rule of the dual Newton projection, on ||Tr_out X - I||_F; from
#: ||C||_F ~ 70 on, rounding raises it to 64 eps ||C||_F. A looser 1e-10
#: makes pgdB's slope test stop early on the inexact step.
NEWTON_TOL = 1e-12
MAX_NEWTON_STEPS = 100
#: Cold inputs above this Frobenius norm are projected at a tenth first.
#: Inputs above the bound are refused: from about 7e7, 64 eps ||C||_F > EPS_TP.
CONTINUATION_NORM = 1e3
MAX_PROJECT_NORM = 1e7
#: Armijo constant and smallest step of the dual line search.
NEWTON_ARMIJO = 1e-4
MIN_NEWTON_STEP = 1e-10
#: Columns of K per matmul when summing the Newton Jacobian.
JACOBIAN_CHUNK = 64


def _add_out_identity(c: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """C + (1/d) Y (x) I, adding Y/d to the output diagonal of C.

    (Y/d) (x) I is Y/d broadcast against the identity on the (in, out, in',
    out') axes, one multiply and one add with no call to ``kron``.
    """
    return c + ((y / d)[:, None, :, None] * np.eye(d)[:, None, :]).reshape(d * d, d * d)


def _positive_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P_+(V diag(w) V^dagger): keep the positive eigenvalues."""
    return hermitize((v * np.maximum(w, 0.0)) @ v.conj().T)


def _tr_out_positive(w: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """Tr_out P_+(V diag(w) V^dagger) from the eigenpairs, without P_+ itself.

    One d x d n by d n x d matmul on the (d, d n) views of V, O(d^5)
    instead of the O(d^6) of forming P_+ first.
    """
    return (v * np.maximum(w, 0.0)).reshape(d, -1) @ v.reshape(d, -1).conj().T


def project_cp(c: np.ndarray) -> np.ndarray:
    """Closest positive semidefinite matrix: clip negative eigenvalues."""
    return _positive_part(*eigh(c))


def project_tp(c: np.ndarray) -> np.ndarray:
    """Closest Choi operator with Tr_out(C) = I (affine projection)."""
    return project_us_p(c, 1.0)


def project_us_p(c: np.ndarray, p_success: float) -> np.ndarray:
    """Closest Choi operator with Tr_out(C) = p I, for success probability p."""
    if not 0.0 < p_success <= 1.0:
        raise DomainError(f"p_success must lie in (0, 1], got {p_success}")
    d = choi_dim(c)
    return _add_out_identity(c, p_success * np.eye(d) - partial_trace_out(c), d)


def project_tni(c: np.ndarray) -> np.ndarray:
    """Closest Choi operator whose output partial trace is at most identity.

    Only the trace-out component can violate the constraint, so the
    projection clips the eigenvalues of Tr_out(C) at 1 and pushes the
    difference back through the (1/d) (.) (x) I embedding. Trace
    preserving inputs are fixed points.
    """
    d = choi_dim(c)
    y = partial_trace_out(c)
    w, v = eigh(y)
    clipped = (v * np.minimum(w, 1.0)) @ v.conj().T
    return _add_out_identity(c, clipped - y, d)


def _dykstra(
    c: np.ndarray, tol: float, max_iterations: int
) -> tuple[np.ndarray, int, float]:
    """Core Dykstra loop; returns (matrix, iterations, stopping sum).

    The loop runs on A = y + q, the input of the CP step (``y`` the TP
    iterate, ``q`` the correction carried into the CP step). The correction
    carried into the TP step is always z (x) I, which the TP step removes
    again, so one iteration maps A to A + (gap / d) (x) I with
    gap = I - Tr_out P_+(A), the dual gradient step of the module docstring:
    one eigendecomposition of A, the d x d gap from its eigenpairs and the
    update.

    The CP iterate x = P_+(A) and q = A - x are formed only once the TP
    residual ||gap|| is within ``EPS_TP``, since the stopping sum cannot
    stop the loop before. The sum over successive corrections and iterates
    needs x and q of this and the two previous iterations, each formed at
    most once from the kept (A, w, v). Its TP terms reduce to d x d ones,
    ||p' - p||^2 = ||gap_prev||^2 / d and <p, x' - x> = <z, gap_prev - gap>
    with p = z (x) I. At the iteration cap the :class:`ConvergenceError`
    carries P_+(A) of the last iteration and its TP residual.
    """
    d = choi_dim(c)
    eye = np.eye(d)
    c = hermitize(np.asarray(c, dtype=complex))
    gap = eye - partial_trace_out(c)
    a = _add_out_identity(c, gap, d)
    zero = np.zeros_like(a)
    # [A, w, v, (x, q) or None] of the last three iterations, oldest first.
    kept = []

    def parts(j):
        """(x, q) of the j-th newest kept iteration; q = 0 before the first."""
        if j >= len(kept):
            return None, zero
        entry = kept[-1 - j]
        if entry[3] is None:
            x = _positive_part(entry[1], entry[2])
            entry[3] = (x, entry[0] - x)
        return entry[3]

    tp_res = stop_sum = np.inf
    for k in range(max_iterations):
        w, v = eigh(a)
        gap_new = eye - _tr_out_positive(w, v, d)
        tp_res = float(np.vdot(gap_new, gap_new).real) ** 0.5
        kept = kept[-2:] + [[a, w, v, None]]
        if k >= 1 and tp_res <= EPS_TP:
            x, q = parts(0)
            _, q_prev = parts(1)
            _, q_prev2 = parts(2)
            # A = C + Y (x) I, Y the sum of the gaps / d added so far; the
            # TP correction z is -Y before the last of them.
            z = (gap - partial_trace_out(a - c)) / d
            # Robust stopping sum; y - y_prev = (A - q_prev) - (A_prev - q_prev2).
            stop_sum = (
                float(np.linalg.norm(gap) ** 2) / d
                + float(np.linalg.norm(q - q_prev) ** 2)
                + 2.0 * abs(np.vdot(z, gap - gap_new))
                + 2.0 * abs(np.vdot(q_prev, (a - q_prev) - (kept[-2][0] - q_prev2)))
            )
            if stop_sum <= tol:
                return x, k + 1, stop_sum
        gap = gap_new
        a = _add_out_identity(a, gap, d)
    raise ConvergenceError(
        f"Dykstra projection did not converge in {max_iterations} iterations "
        f"(TP residual {tp_res:.3e}, last stopping sum {stop_sum:.3e})",
        last_iterate=parts(0)[0],
        residual=tp_res,
    )


def project_cptp_dykstra(c: np.ndarray) -> np.ndarray:
    """Project onto the closest CPTP Choi operator (Dykstra's algorithm).

    Alternates the TP and CP projections with correction terms; the
    returned iterate comes from the CP step, so it is positive
    semidefinite to machine precision while the TP condition holds within
    ``EPS_TP``. The loop stops once the robust stopping sum falls below
    ``DYKSTRA_TOL`` and the TP residual is within ``EPS_TP``; it always runs
    at least two iterations because the sum compares successive corrections.
    """
    return _dykstra(c, DYKSTRA_TOL, MAX_INNER_ITERATIONS)[0]


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
    kw = k * weight.reshape(-1)
    # Summed over column chunks of JACOBIAN_CHUNK in a fixed order, so the
    # bytes do not depend on how many threads BLAS splits a long product over.
    g = kw[:, :JACOBIAN_CHUNK] @ k[:, :JACOBIAN_CHUNK].conj().T
    for s in range(JACOBIAN_CHUNK, r * n, JACOBIAN_CHUNK):
        g += kw[:, s:s + JACOBIAN_CHUNK] @ k[:, s:s + JACOBIAN_CHUNK].conj().T
    return g + g.conj().reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(n, n)


def _newton_direction(
    w: np.ndarray, v: np.ndarray, residual: np.ndarray, res_norm: float, d: int
) -> np.ndarray:
    """Regularized semismooth Newton step for Tr_out P_+(C + Y (x) I) = I.

    Solves (J + mu I) vec(dY) = -vec(residual) with the index-split Jacobian
    J of :func:`_newton_jacobian` and mu = min(1e-2, residual) max(tr J / d^2,
    1e-2). Far from CPTP, J is as small as the positive eigenvalues and mu
    scales with it; the floor keeps mu > 0 where no eigenvalue is positive.
    """
    jac = _newton_jacobian(w, v, d)
    mu = min(1e-2, res_norm) * max(jac.trace().real / (d * d), 1e-2)
    jac.flat[:: d * d + 1] += mu
    try:
        step = np.linalg.solve(jac, -residual.reshape(-1))
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"Newton system is singular: {err}") from err
    return hermitize(step.reshape(d, d))


def _scalar_multiplier(w: np.ndarray, d: int) -> float:
    """The alpha for which -alpha I minimizes the dual theta over multiples of I.

    ``w`` holds the eigenvalues of C, in any order. On those multipliers
    theta(-alpha I) = 1/2 sum_i max(w_i - alpha, 0)^2 + d alpha, which is
    convex in alpha and stationary where sum_i max(w_i - alpha, 0) = d. With
    w sorted descending and s_k the sum of its k largest entries, alpha is
    (s_k - d) / k for the largest k with w_k > (s_k - d) / k, the scan of a
    projection onto the simplex. A CPTP input gives alpha = 0 to rounding.
    """
    w = np.sort(w)[::-1]
    alphas = (np.cumsum(w) - d) / np.arange(1, len(w) + 1)
    return float(alphas[np.flatnonzero(w > alphas)[-1]])


def _project_cptp_dual(
    c: np.ndarray, y0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Closest CPTP Choi operator by semismooth Newton on the dual problem.

    Minimizes the dual function theta(Y) = 1/2 ||P_+(C + Y (x) I)||^2 - Tr Y,
    whose gradient is Tr_out P_+(C + Y (x) I) - I, over Hermitian d x d
    multipliers Y, starting from ``y0``. Without one, a cold call starts at
    the best multiple of the identity, -alpha I (:func:`_scalar_multiplier`
    on the eigenvalues of C); above ``CONTINUATION_NORM`` it first projects
    C / 10, cold, and starts at ten times that multiplier. A Newton
    step is accepted when it halves the TP residual or, failing that,
    passes the Armijo test on theta; near the solution the decrease of
    theta falls below its rounding, so the residual test is the one that
    finishes.
    A trial point costs one eigendecomposition: the residual comes from
    the eigenpairs, and P_+(C + Y (x) I) is formed only for the result or
    the error.

    Returns (projection, multiplier, Newton steps over all stages); the
    projection is positive semidefinite to rounding and its TP residual is
    at most max(``NEWTON_TOL``, 64 eps ||C||_F), where rounding at the scale
    of C sets the floor. Raises :class:`DomainError` when ||C||_F is not
    finite or above ``MAX_PROJECT_NORM``, and :class:`ConvergenceError`,
    with the TP residual of its last iterate as ``residual``, after
    ``MAX_NEWTON_STEPS`` steps in one stage or when the line search fails.
    """
    d = choi_dim(c)
    eye = np.eye(d)
    with np.errstate(all="ignore"):  # past the float range: inf or nan, refused
        c = hermitize(np.asarray(c, dtype=complex))
        norm = float(np.linalg.norm(c))
    if not norm <= MAX_PROJECT_NORM:
        raise DomainError(f"CPTP input norm {norm:.3e} is not in [0, {MAX_PROJECT_NORM:g}]")
    tol = max(NEWTON_TOL, 64 * np.finfo(float).eps * norm)

    def evaluate(y):
        w, v = eigh(_add_out_identity(c, d * y, d))
        wp = np.maximum(w, 0.0)
        residual = _tr_out_positive(w, v, d) - eye
        theta = 0.5 * float(wp @ wp) - float(np.trace(y).real)
        return (w, v, residual), float(np.linalg.norm(residual)), theta

    steps = 0
    if y0 is None and norm > CONTINUATION_NORM:
        _, y0, steps = _project_cptp_dual(c / 10)
        y0 = 10 * y0
    elif y0 is None:
        y0 = -_scalar_multiplier(eigvalsh(c), d) * eye
    y = hermitize(np.asarray(y0, dtype=complex))
    state, res_norm, theta = evaluate(y)
    cap = steps + MAX_NEWTON_STEPS
    while res_norm > tol:
        w, v, residual = state
        if steps == cap:
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


def project_cptp(c: np.ndarray) -> np.ndarray:
    """Project onto the closest CPTP Choi operator (dual Newton, cold start).

    Positive semidefinite to rounding and trace preserving to
    max(``NEWTON_TOL``, 64 eps ||C||_F); inputs of Frobenius norm above
    ``MAX_PROJECT_NORM``, or not finite, raise :class:`DomainError`.
    """
    return _project_cptp_dual(c)[0]
