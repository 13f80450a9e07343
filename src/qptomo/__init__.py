"""Maximum-likelihood quantum process tomography with CPTP projections."""

from .channel import (
    CountsTable,
    TomographySetup,
    apply_channel,
    build_design,
    choi_from_kraus,
    condition_probs,
    cptp_residuals,
    forward_probs,
    identity_choi,
    is_cptp,
)
from .ensembles import (
    EnsembleSpec,
    SimulationSpec,
    j_distance,
    minimal_setup,
    quasi_pure_weights,
    random_cptp,
    random_quasi_pure,
    simulate_counts,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    LapackError,
    QptError,
    SingularMatrixError,
    StalledStepError,
)
from .linalg import (
    eigh,
    frobenius_inner,
    hermitize,
    kron,
    partial_trace_out,
    psd_sqrt_inv,
    trace_norm,
    vec,
)
from .projections import (
    project_cp,
    project_cptp_dykstra,
    project_tni,
    project_tp,
    project_us_p,
)
from .solvers import (
    DiaConfig,
    PgdbConfig,
    SolverReport,
    gradient,
    neg_log_likelihood,
    solve_dia,
    solve_lifp,
    solve_linear_inversion,
    solve_pgdb,
)

__version__ = "0.1.0"
