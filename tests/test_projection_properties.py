"""Property test of the standalone CPTP projection on inputs of any scale.

``project_cptp`` receives Hermitian operators at d = 2..4 whose Frobenius
norm is log-uniform in 1e-3..1e6. Up to norm 1e4 it returns a CPTP
operator: positive semidefinite within ``EPS_CP`` and trace preserving
within the scale-aware stop max(``NEWTON_TOL``, 64 eps ||C||_F). Further
out it may raise ``ConvergenceError``, whose ``residual`` is then the TP
residual of its ``last_iterate``. The example database is off and the
draws are derandomized, as in ``test_io_properties.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qptomo import ConvergenceError, project_cptp
from qptomo.channel import EPS_CP
from qptomo.linalg import choi_dim, hermitize, partial_trace_out
from qptomo.projections import NEWTON_TOL

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)

#: Largest norm at which every input must converge.
CONVERGED_UP_TO = 1e4


@st.composite
def hermitians(draw):
    """A Gaussian Hermitian at d = 2..4, rescaled to a log-uniform norm.

    The matrix and its norm come from a drawn seed: Hypothesis draws floats
    towards simple values, which would leave most norms at 1.
    """
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(2, d * d, d * d))
    h = hermitize(x[0] + 1j * x[1])
    return h * (10.0 ** rng.uniform(-3.0, 6.0) / np.linalg.norm(h))


def tp_residual(x):
    return float(np.linalg.norm(partial_trace_out(x) - np.eye(choi_dim(x))))


@SETTINGS
@given(hermitians())
def test_project_cptp_is_cptp_or_raises_with_its_residual(c):
    norm = float(np.linalg.norm(c))
    tol = max(NEWTON_TOL, 64 * np.finfo(float).eps * norm)
    try:
        out = project_cptp(c)
    except ConvergenceError as err:
        assert norm > CONVERGED_UP_TO
        assert abs(err.residual - tp_residual(err.last_iterate)) <= tol
        return
    assert np.linalg.eigvalsh(out).min() >= -EPS_CP
    assert tp_residual(out) <= tol
