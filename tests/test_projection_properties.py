"""Property tests of the standalone CPTP projection on inputs of any scale.

``project_cptp`` receives Hermitian operators at d = 2..4 whose Frobenius
norm is log-uniform in 1e-3 up to just under ``MAX_PROJECT_NORM``, and
returns a CPTP operator: positive semidefinite within ``EPS_CP`` and trace
preserving within the scale-aware stop max(``NEWTON_TOL``, 64 eps ||C||_F).
Above the bound, or with an infinite or NaN entry, it raises
``DomainError``. The example database is off and the draws are
derandomized, as in ``test_io_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptomo import DomainError, project_cptp
from qptomo.channel import EPS_CP
from qptomo.linalg import choi_dim, hermitize, partial_trace_out
from qptomo.projections import MAX_PROJECT_NORM, NEWTON_TOL

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
LOG_BOUND = float(np.log10(MAX_PROJECT_NORM))


@st.composite
def hermitians(draw, low, high):
    """A Gaussian Hermitian at d = 2..4, rescaled to a norm log-uniform in 10^[low, high).

    The matrix and its norm come from a drawn seed: Hypothesis draws floats
    towards simple values, which would leave most norms at 1.
    """
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(2, d * d, d * d))
    h = hermitize(x[0] + 1j * x[1])
    return h * (10.0 ** rng.uniform(low, high) / np.linalg.norm(h))


def tp_residual(x):
    return float(np.linalg.norm(partial_trace_out(x) - np.eye(choi_dim(x))))


@SETTINGS
@given(hermitians(-3.0, LOG_BOUND - 0.01))
def test_project_cptp_is_cptp_below_the_norm_bound(c):
    tol = max(NEWTON_TOL, 64 * np.finfo(float).eps * float(np.linalg.norm(c)))
    out = project_cptp(c)
    assert np.linalg.eigvalsh(out).min() >= -EPS_CP
    assert tp_residual(out) <= tol


def with_entry(pair):
    """The matrix with its first diagonal entry set to ``inf`` or ``nan``."""
    c, entry = pair
    c[0, 0] = entry
    return c


@SETTINGS
@given(st.one_of(
    hermitians(LOG_BOUND + 0.01, 300.0),
    st.tuples(hermitians(-3.0, LOG_BOUND - 0.01),
              st.sampled_from([np.inf, np.nan])).map(with_entry),
))
def test_project_cptp_refuses_norms_above_the_bound_and_non_finite_entries(c):
    with pytest.raises(DomainError):
        project_cptp(c)
