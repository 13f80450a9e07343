"""Maximum-likelihood quantum process tomography with CPTP projections.

The top level is the public API; helpers such as ``channel.build_design``
or ``linalg.eigh`` are imported from their modules.
"""

from .channel import (
    CountsTable,
    TomographySetup,
    choi_from_kraus,
    cptp_residuals,
    is_cptp,
)
from .ensembles import (
    EnsembleSpec,
    SimulationSpec,
    j_distance,
    minimal_setup,
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
from .projections import (
    project_cp,
    project_cptp,
    project_tni,
    project_tp,
    project_us_p,
)
from .solvers import (
    DiaConfig,
    PgdbConfig,
    SolverReport,
    neg_log_likelihood,
    solve_dia,
    solve_lifp,
    solve_linear_inversion,
    solve_pgdb,
)

__version__ = "0.1.0"
