"""Estimators: projected gradient descent, diluted iterations, linear inversion.

All three return a CPTP estimate together with a :class:`SolverReport`.
The two iterative solvers start from the maximally mixed Choi operator
I/d, evaluate the conditioned multinomial cost, and stop after the first
accepted step whose cost decrease is at or below ``f_tol``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    EPS_COND,
    CountsTable,
    TomographySetup,
    _check_counts,
    condition_probs,
    cptp_residuals,
    forward_probs,
)
from .errors import ConvergenceError, DomainError, LapackError, StalledStepError
from .linalg import (
    block_congruence,
    frobenius_inner,
    hermitize,
    partial_trace_out,
    psd_sqrt_inv,
)
from .projections import _project_cptp_dual


@dataclass
class PgdbConfig:
    """Metaparameters of the projected gradient descent solver.

    ``mu`` is the inverse step scale; the default None resolves to
    3 / (2 d^2) once the dimension is known. ``gamma`` is the Armijo
    acceptance constant for the backtracking line search over
    alpha in {1, 1/2, 1/4, ...}.
    """

    mu: float | None = None
    gamma: float = 0.3
    f_tol: float = 1e-10
    eps_cond: float = EPS_COND
    max_outer_iterations: int = 5000
    min_alpha: float = 1e-12

    def __post_init__(self):
        if self.mu is not None and self.mu <= 0:
            raise DomainError(f"mu must be positive, got {self.mu}")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.f_tol <= 0:
            raise DomainError(f"f_tol must be positive, got {self.f_tol}")


@dataclass
class DiaConfig:
    """Metaparameters of the diluted iteration solver."""

    f_tol: float = 1e-10
    max_outer_iterations: int = 20000
    min_epsilon: float = 1e-12
    eps_cond: float = EPS_COND

    def __post_init__(self):
        if self.f_tol <= 0 or self.min_epsilon <= 0 or self.max_outer_iterations <= 0:
            raise DomainError("all DiaConfig parameters must be positive")


@dataclass
class SolverReport:
    """Per-run diagnostics: cost trace, step sizes, conditioning herald.

    ``cost_trace`` and ``step_trace`` grow as lists while a solve runs and
    are float64 arrays once it returns or raises, so a report kept for
    thousands of DIA iterations holds 8 bytes per entry, not a Python
    float. ``projection_steps`` holds the Newton steps of each CPTP
    projection: one entry per outer iteration for pgdB, one entry for LIFP.
    """

    method: str
    iterations: int = 0
    cost_trace: list[float] | np.ndarray = field(default_factory=list)
    final_cost: float = np.nan
    wall_time_s: float = 0.0
    conditioning_heralded: bool = False
    min_prob_seen: float = np.inf
    step_trace: list[float] | np.ndarray = field(default_factory=list)
    projection_steps: list[int] = field(default_factory=list)
    status: str = "running"
    pre_projection_min_eigenvalue: float | None = None
    pre_projection_tp_distance: float | None = None


class _Cost:
    """Conditioned cost evaluations on probability vectors, with heralding.

    The one implementation of the multinomial cost f(C) = -sum_ij n_ij ln p_ij
    and its Frobenius gradient -A^dagger (n / p), both on probabilities
    floored at ``eps_cond`` so the pair stays consistent for line searches
    and finite differences.
    """

    def __init__(self, setup: TomographySetup, counts: CountsTable, eps_cond: float):
        _check_counts(setup, counts)
        if eps_cond <= 0:
            raise DomainError(f"eps_cond must be positive, got {eps_cond}")
        self.setup = setup
        self.n_flat = counts.flat
        self.eps_cond = eps_cond
        self.heralded = False
        self.min_prob = np.inf

    def probs(self, choi: np.ndarray) -> np.ndarray:
        return forward_probs(choi, self.setup)

    def _condition(self, p: np.ndarray) -> np.ndarray:
        p_min = float(p.min())
        self.min_prob = min(self.min_prob, p_min)
        if p_min >= self.eps_cond:
            return p
        cond, raised = condition_probs(p, self.eps_cond)
        self.heralded |= raised
        return cond

    def from_probs(self, p: np.ndarray) -> float:
        return float(-(self.n_flat @ np.log(self._condition(p))))

    def __call__(self, choi: np.ndarray) -> float:
        return self.from_probs(self.probs(choi))

    def gradient_from_probs(self, p: np.ndarray) -> np.ndarray:
        """-sum_ij eta_ij rho_i^T (x) E_j, from two matmuls with the stacks.

        The (a b, x y) entry of R^T eta F is sum_ij eta_ij rho_i[a, b] E_j[y, x],
        the ((b, y), (a, x)) entry of the gradient.
        """
        setup = self.setup
        d = setup.d
        eta = (self.n_flat / self._condition(p)).reshape(setup.n_prep, setup.n_povm)
        g = setup.prep_rows.T @ (eta @ setup.povm_rows)
        g = g.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
        return hermitize(-g)


def neg_log_likelihood(
    choi: np.ndarray,
    setup: TomographySetup,
    counts: CountsTable,
    eps_cond: float = EPS_COND,
) -> float:
    """Multinomial cost f(C) = -sum_ij n_ij ln p_ij with conditioned p."""
    return _Cost(setup, counts, eps_cond)(choi)


def gradient(
    choi: np.ndarray,
    setup: TomographySetup,
    counts: CountsTable,
    eps_cond: float = EPS_COND,
) -> np.ndarray:
    """Frobenius gradient of the cost, the Hermitian matrix -A^dagger eta.

    eta_ij = n_ij / p_ij with the same conditioning floor as the cost.
    """
    cost = _Cost(setup, counts, eps_cond)
    return cost.gradient_from_probs(cost.probs(choi))


def _finish(report: SolverReport, start: float, cost: _Cost) -> None:
    report.wall_time_s = time.perf_counter() - start
    report.conditioning_heralded = cost.heralded
    report.min_prob_seen = cost.min_prob
    report.cost_trace = np.asarray(report.cost_trace, dtype=float)
    report.step_trace = np.asarray(report.step_trace, dtype=float)
    report.final_cost = float(report.cost_trace[-1])
    report.iterations = len(report.cost_trace) - 1


def solve_pgdb(
    setup: TomographySetup,
    counts: CountsTable,
    config: PgdbConfig | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Maximum-likelihood estimate by projected gradient descent.

    Each outer iteration projects the step ``C - (1/mu) grad f`` onto CPTP
    once (dual Newton, warm-started from the previous iteration's
    multiplier), then backtracks along the resulting direction D with
    the Armijo rule ``f(C + a D) <= f(C) + gamma a <D, grad f>``. Since
    CPTP is convex, every backtracked point stays feasible.

    Raises :class:`StalledStepError` when no admissible step size remains
    and :class:`ConvergenceError` (carrying the last iterate) at the
    iteration cap.
    """
    cfg = config or PgdbConfig()
    d = setup.d
    mu = cfg.mu if cfg.mu is not None else 3.0 / (2.0 * d * d)
    cost = _Cost(setup, counts, cfg.eps_cond)
    report = SolverReport(method="pgdb")
    start = time.perf_counter()

    c = np.eye(d * d, dtype=complex) / d
    p_c = cost.probs(c)
    f_c = cost.from_probs(p_c)
    report.cost_trace.append(f_c)

    y = None
    for _ in range(cfg.max_outer_iterations):
        grad = cost.gradient_from_probs(p_c)
        try:
            proj, y, steps = _project_cptp_dual(c - grad / mu, y)
        except ConvergenceError as err:
            report.status = "iteration_cap"
            _finish(report, start, cost)
            raise ConvergenceError(
                f"inner CPTP projection did not converge: {err}",
                last_iterate=c,
                residual=err.residual,
                report=report,
            ) from err
        report.projection_steps.append(steps)
        direction = proj - c
        slope = frobenius_inner(direction, grad)
        if slope >= 0.0:
            # Numerically stationary: the projected step does not descend.
            report.status = "converged"
            break
        p_dir = cost.probs(direction)
        alpha = 1.0
        while cost.from_probs(p_c + alpha * p_dir) > f_c + cfg.gamma * alpha * slope:
            alpha *= 0.5
            if alpha < cfg.min_alpha:
                report.status = "stalled"
                _finish(report, start, cost)
                raise StalledStepError(
                    f"no acceptable step above alpha={cfg.min_alpha:g}",
                    last_iterate=c,
                    report=report,
                )
        c = hermitize(c + alpha * direction)
        p_c = cost.probs(c)
        f_new = cost.from_probs(p_c)
        report.cost_trace.append(f_new)
        report.step_trace.append(alpha)
        decrease = f_c - f_new
        f_c = f_new
        if decrease <= cfg.f_tol:
            report.status = "converged"
            break
    else:
        report.status = "iteration_cap"
        _finish(report, start, cost)
        raise ConvergenceError(
            f"pgdB hit the iteration cap ({cfg.max_outer_iterations})",
            last_iterate=c,
            report=report,
        )
    _finish(report, start, cost)
    return c, report


def solve_dia(
    setup: TomographySetup,
    counts: CountsTable,
    config: DiaConfig | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Maximum-likelihood estimate by diluted fixed-point iterations.

    Iterates the extremal-equation update built from the positive operator
    G = -grad f (the gradient of the negative log-likelihood is negative
    semidefinite, so the dilution R = eps G + (1 - eps) I stays positive
    semidefinite and the congruence preserves positivity):

        R = eps G + (1 - eps) I
        W = Tr_out(R C R)
        C' = (W^{-1/2} (x) I) R C R (W^{-1/2} (x) I)

    The normalization by W keeps every iterate trace preserving; W^{-1/2}
    (x) I is applied blockwise, without forming the Kronecker product. eps
    is reset to 1 each outer iteration and halved until the cost decreases.
    """
    cfg = config or DiaConfig()
    d = setup.d
    cost = _Cost(setup, counts, cfg.eps_cond)
    report = SolverReport(method="dia")
    start = time.perf_counter()

    c = np.eye(d * d, dtype=complex) / d
    p_c = cost.probs(c)
    f_c = cost.from_probs(p_c)
    report.cost_trace.append(f_c)

    for _ in range(cfg.max_outer_iterations):
        g = -cost.gradient_from_probs(p_c)
        epsilon = 1.0
        while True:
            c_new = _dia_update(c, g, epsilon)
            p_new = cost.probs(c_new)
            f_new = cost.from_probs(p_new)
            if f_new <= f_c:
                break
            epsilon *= 0.5
            if epsilon < cfg.min_epsilon:
                report.status = "stalled"
                _finish(report, start, cost)
                raise StalledStepError(
                    f"no cost decrease above epsilon={cfg.min_epsilon:g}",
                    last_iterate=c,
                    report=report,
                )
        c = c_new
        p_c = p_new
        report.cost_trace.append(f_new)
        report.step_trace.append(epsilon)
        decrease = f_c - f_new
        f_c = f_new
        if decrease <= cfg.f_tol:
            report.status = "converged"
            break
    else:
        report.status = "iteration_cap"
        _finish(report, start, cost)
        raise ConvergenceError(
            f"DIA hit the iteration cap ({cfg.max_outer_iterations})",
            last_iterate=c,
            report=report,
        )
    _finish(report, start, cost)
    return c, report


def _dia_update(c: np.ndarray, g: np.ndarray, epsilon: float) -> np.ndarray:
    """One diluted step: R C R normalized by (W^{-1/2} (x) I), W = Tr_out(R C R)."""
    r = epsilon * g + (1.0 - epsilon) * np.eye(len(g))
    rcr = r @ c @ r
    return block_congruence(psd_sqrt_inv(partial_trace_out(rcr)), rcr)


def solve_linear_inversion(
    setup: TomographySetup, counts: CountsTable
) -> np.ndarray:
    """Unconstrained least-squares inversion of the forward model.

    Solves A vec(C) = n in the minimum-norm least-squares sense and
    Hermitizes the result. The design A is R (x) F up to a fixed reshuffle
    of vec(C), and pinv(R (x) F) = pinv(R) (x) pinv(F), so the solution is
    C~ = pinv(R) N pinv(F)^T from two small least-squares solves (stable
    factorizations, no explicit pseudo-inverse and no design matrix). The
    estimate is generally unphysical for noisy data.
    """
    _check_counts(setup, counts)
    d = setup.d
    try:
        y, *_ = np.linalg.lstsq(setup.prep_rows, counts.n.astype(complex), rcond=None)
        x, *_ = np.linalg.lstsq(setup.povm_rows, y.T, rcond=None)
    except np.linalg.LinAlgError as err:
        raise LapackError(f"least-squares solve failed: {err}") from err
    # x^T is C~[(a, b), (x, y)] = C[(a, x), (b, y)]; swapping b and x undoes it.
    return hermitize(x.T.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))


def solve_lifp(
    setup: TomographySetup, counts: CountsTable
) -> tuple[np.ndarray, SolverReport]:
    """Linear inversion followed by a single CPTP projection (dual Newton).

    The report records how unphysical the raw inversion was (minimum
    eigenvalue and distance to the TP set) before the projection repaired
    it.
    """
    start = time.perf_counter()
    raw = solve_linear_inversion(setup, counts)
    min_eig, tp_dist = cptp_residuals(raw, setup.d)
    estimate, _, steps = _project_cptp_dual(raw)
    cost = _Cost(setup, counts, EPS_COND)
    report = SolverReport(method="lifp", status="converged")
    report.cost_trace.append(cost(estimate))
    report.projection_steps.append(steps)
    report.pre_projection_min_eigenvalue = min_eig
    report.pre_projection_tp_distance = tp_dist
    _finish(report, start, cost)
    report.iterations = steps
    return estimate, report
