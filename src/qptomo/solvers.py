"""Estimators: projected gradient descent, diluted iterations, linear inversion.

All three return a CPTP estimate together with a :class:`SolverReport`.
The two iterative solvers start from the maximally mixed Choi operator
I/d, evaluate the conditioned multinomial cost, and stop after the first
accepted step whose cost decrease is at or below ``f_tol``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    EPS_COND,
    CountsTable,
    TomographySetup,
    _check_counts,
    _reshuffle,
    condition_probs,
    cptp_residuals,
    forward_probs,
)
from .errors import ConvergenceError, DomainError, StalledStepError
from .linalg import choi_dim, hermitize, psd_sqrt_inv
from .projections import _project_cptp_dual


#: Smallest Armijo step of pgdB and smallest dilution of DIA before the
#: solver reports a stalled step.
MIN_ALPHA = 1e-12
MIN_EPSILON = 1e-12
#: Armijo acceptance constant of pgdB's backtracking line search.
GAMMA = 0.3


@dataclass
class PgdbConfig:
    """Stopping rule of the projected gradient descent solver.

    A solve stops after the first accepted step whose cost decrease is at
    most ``f_tol`` and fails at ``max_outer_iterations``. The step scale
    mu = 3 / (2 d^2) and the Armijo constant ``GAMMA`` are fixed.
    """

    f_tol: float = 1e-10
    max_outer_iterations: int = 5000

    def __post_init__(self):
        if not 0 < self.f_tol < math.inf:
            raise DomainError(f"f_tol must be finite and positive, got {self.f_tol}")
        cap = self.max_outer_iterations
        # A bool is not a count, and range() rejects a float.
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
            raise DomainError(f"max_outer_iterations must be an integer >= 1, got {cap!r}")


@dataclass
class DiaConfig(PgdbConfig):
    """Stopping rule of the diluted iteration solver, with a higher default cap."""

    max_outer_iterations: int = 20000


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
    floored at ``EPS_COND`` so the pair stays consistent for line searches
    and finite differences.
    """

    def __init__(self, setup: TomographySetup, counts: CountsTable):
        _check_counts(setup, counts)
        self.setup = setup
        self.n_flat = counts.flat
        self.heralded = False
        self.min_prob = np.inf

    def probs(self, choi: np.ndarray) -> np.ndarray:
        return forward_probs(choi, self.setup)

    def _condition(self, p: np.ndarray) -> np.ndarray:
        p_min = float(p.min())
        self.min_prob = min(self.min_prob, p_min)
        if p_min >= EPS_COND:
            return p
        cond, raised = condition_probs(p)
        self.heralded |= raised
        return cond

    def from_probs(self, p: np.ndarray) -> float:
        return float(-(self.n_flat @ np.log(self._condition(p))))

    def __call__(self, choi: np.ndarray) -> float:
        return self.from_probs(self.probs(choi))

    def gradient_from_probs(self, p: np.ndarray) -> np.ndarray:
        """-sum_ij eta_ij rho_i^T (x) E_j, from two matmuls with the stacks.

        The (a b, x y) entry of R^T eta F is sum_ij eta_ij rho_i[a, b] E_j[y, x],
        the ((b, y), (a, x)) entry of the gradient: the transpose of its
        reshuffle.
        """
        setup = self.setup
        eta = (self.n_flat / self._condition(p)).reshape(setup.n_prep, setup.n_povm)
        g = setup.prep_rows.T @ (eta @ setup.povm_rows)
        return hermitize(-_reshuffle(g, setup.d).T)


def neg_log_likelihood(
    choi: np.ndarray, setup: TomographySetup, counts: CountsTable
) -> float:
    """Multinomial cost f(C) = -sum_ij n_ij ln p_ij with conditioned p."""
    return _Cost(setup, counts)(choi)


def gradient(
    choi: np.ndarray, setup: TomographySetup, counts: CountsTable
) -> np.ndarray:
    """Frobenius gradient of the cost, the Hermitian matrix -A^dagger eta.

    eta_ij = n_ij / p_ij with the same conditioning floor as the cost.
    """
    cost = _Cost(setup, counts)
    return cost.gradient_from_probs(cost.probs(choi))


def _finish(report: SolverReport, start: float, cost: _Cost) -> None:
    report.wall_time_s = time.perf_counter() - start
    report.conditioning_heralded = cost.heralded
    report.min_prob_seen = cost.min_prob
    report.cost_trace = np.asarray(report.cost_trace, dtype=float)
    report.step_trace = np.asarray(report.step_trace, dtype=float)
    report.final_cost = float(report.cost_trace[-1])
    report.iterations = len(report.cost_trace) - 1


def _descend(
    cost: _Cost, report: SolverReport, cfg: PgdbConfig, step
) -> tuple[np.ndarray, SolverReport]:
    """The outer loop of pgdB and DIA: from I/d until the decrease is <= f_tol.

    ``step(C, p, f)`` returns the accepted ``(C, p, f, step size)``, or None
    when C is stationary, and raises a bare :class:`StalledStepError` or
    :class:`ConvergenceError` when it finds no step. Such an error, and the
    one raised at the cap, leaves with the last accepted iterate and report.
    """
    start = time.perf_counter()
    d = cost.setup.d
    c = np.eye(d * d, dtype=complex) / d
    p = cost.probs(c)
    report.cost_trace.append(cost.from_probs(p))
    status = "converged"
    try:
        for _ in range(cfg.max_outer_iterations):
            accepted = step(c, p, report.cost_trace[-1])
            if accepted is None:
                break
            c, p, f, size = accepted
            report.cost_trace.append(f)
            report.step_trace.append(size)
            if report.cost_trace[-2] - f <= cfg.f_tol:
                break
        else:
            raise ConvergenceError(
                f"{report.method} hit the iteration cap ({cfg.max_outer_iterations})"
            )
    except (StalledStepError, ConvergenceError) as err:
        status = err.status
        err.last_iterate, err.report = c, report
        raise
    finally:
        report.status = status
        _finish(report, start, cost)
    return c, report


def solve_pgdb(
    setup: TomographySetup,
    counts: CountsTable,
    config: PgdbConfig | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Maximum-likelihood estimate by projected gradient descent.

    Each outer iteration projects the step ``C - (1/mu) grad f``, with
    mu = 3 / (2 d^2), onto CPTP once (dual Newton, warm-started from the
    previous iteration's multiplier), then backtracks along the resulting
    direction D with the Armijo rule ``f(C + a D) <= f(C) + GAMMA a <D, grad f>``.
    Since CPTP is convex, every backtracked point stays feasible.

    Raises :class:`StalledStepError` when no admissible step size remains
    and :class:`ConvergenceError` (carrying the last iterate) when the
    projection fails or at the iteration cap.
    """
    cfg = config or PgdbConfig()
    mu = 3.0 / (2.0 * setup.d**2)
    cost = _Cost(setup, counts)
    report = SolverReport(method="pgdb")
    y = None

    def step(c, p_c, f_c):
        nonlocal y
        grad = cost.gradient_from_probs(p_c)
        try:
            proj, y, steps = _project_cptp_dual(c - grad / mu, y)
        except ConvergenceError as err:
            msg = f"inner CPTP projection did not converge: {err}"
            raise ConvergenceError(msg, residual=err.residual) from err
        report.projection_steps.append(steps)
        direction = proj - c
        slope = float(np.vdot(direction, grad).real)
        if slope >= 0.0:
            # Numerically stationary: the projected step does not descend.
            return None
        p_dir = cost.probs(direction)
        alpha = 1.0
        while cost.from_probs(p_c + alpha * p_dir) > f_c + GAMMA * alpha * slope:
            alpha *= 0.5
            if alpha < MIN_ALPHA:
                raise StalledStepError(f"no acceptable step above alpha={MIN_ALPHA:g}")
        c = hermitize(c + alpha * direction)
        p_c = cost.probs(c)
        return c, p_c, cost.from_probs(p_c), alpha

    return _descend(cost, report, cfg, step)


def solve_dia(
    setup: TomographySetup,
    counts: CountsTable,
    config: DiaConfig | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Maximum-likelihood estimate by diluted fixed-point iterations.

    Iterates the extremal-equation update built from the positive operator
    G = -grad f (the gradient of the negative log-likelihood is negative
    semidefinite, so the dilution R = eps G + (1 - eps) I stays positive
    semidefinite and the congruence preserves positivity). The solver keeps
    a factor X of its iterate C = X X^dagger, starting from I / sqrt(d):

        R = eps G + (1 - eps) I
        W = Tr_out(R C R) = Y Y^dagger,  Y the (d, d^3) view of R X
        X' = (W^{-1/2} (x) I) R X

    so C' = X' X'^dagger is R C R normalized to be trace preserving, with
    one-sided products only. eps is reset to 1 each outer iteration and
    halved until the cost decreases.
    """
    cfg = config or DiaConfig()
    cost = _Cost(setup, counts)
    x = np.eye(setup.d**2, dtype=complex) / math.sqrt(setup.d)

    def step(c, p_c, f_c):
        nonlocal x
        g = -cost.gradient_from_probs(p_c)
        epsilon = 1.0
        while True:
            x_new = _dia_update(x, g, epsilon)
            c_new = hermitize(x_new @ x_new.conj().T)
            p_new = cost.probs(c_new)
            f_new = cost.from_probs(p_new)
            if f_new <= f_c:
                x = x_new
                return c_new, p_new, f_new, epsilon
            epsilon *= 0.5
            if epsilon < MIN_EPSILON:
                raise StalledStepError(f"no cost decrease above epsilon={MIN_EPSILON:g}")

    return _descend(cost, SolverReport(method="dia"), cfg, step)


def _dia_update(x: np.ndarray, g: np.ndarray, epsilon: float) -> np.ndarray:
    """One diluted step on a factor: (W^{-1/2} (x) I) R X, W = Y Y^dagger.

    Y is the (d, d^3) view of R X, on which W^{-1/2} (x) I acts as one
    d x d matmul, and Y Y^dagger = Tr_out(R X X^dagger R). At epsilon = 1,
    the step DIA tries first and almost always accepts, R is G itself, with
    no identity to build and no scalings.
    """
    d = choi_dim(g)
    r = g if epsilon == 1.0 else epsilon * g + (1.0 - epsilon) * np.eye(d * d)
    y = (r @ x).reshape(d, -1)
    return (psd_sqrt_inv(y @ y.conj().T) @ y).reshape(d * d, -1)


def solve_linear_inversion(
    setup: TomographySetup, counts: CountsTable
) -> np.ndarray:
    """Unconstrained least-squares inversion of the forward model.

    Solves A vec(C) = n in the minimum-norm least-squares sense and
    Hermitizes the result. The design A is R (x) F up to a fixed reshuffle
    of vec(C), and pinv(R (x) F) = pinv(R) (x) pinv(F), so the solution is
    C~ = pinv(R) N pinv(F)^T: two small matmuls with the pseudo-inverses the
    setup computes once (``TomographySetup.inversion_factors``), and no
    design matrix. The estimate is generally unphysical for noisy data.
    """
    _check_counts(setup, counts)
    pinv_r, pinv_ft = setup.inversion_factors
    return hermitize(_reshuffle(pinv_r @ counts.n @ pinv_ft, setup.d))


def solve_lifp(
    setup: TomographySetup, counts: CountsTable
) -> tuple[np.ndarray, SolverReport]:
    """Linear inversion followed by a single CPTP projection (dual Newton).

    The report records how unphysical the raw inversion was (minimum
    eigenvalue and distance to the TP set) before the projection repaired
    it. The projection starts cold, at the best multiple of the identity.
    """
    start = time.perf_counter()
    raw = solve_linear_inversion(setup, counts)
    estimate, _, steps = _project_cptp_dual(raw)
    cost = _Cost(setup, counts)
    report = SolverReport(method="lifp", status="converged")
    report.cost_trace.append(cost(estimate))
    report.projection_steps.append(steps)
    report.pre_projection_min_eigenvalue, report.pre_projection_tp_distance = (
        cptp_residuals(raw)
    )
    _finish(report, start, cost)
    report.iterations = steps
    return estimate, report
