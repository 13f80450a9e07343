import numpy as np
import pytest

from qptomo import EnsembleSpec, minimal_setup, random_cptp
from qptomo.linalg import hermitize


def random_hermitian(rng, n, scale=None):
    """GUE-style Hermitian matrix, optionally rescaled in Frobenius norm."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = hermitize(x)
    if scale is not None:
        h *= scale / np.linalg.norm(h)
    return h


def cptp_pool(d, count, seed=1000):
    """Deterministic pool of random full-rank CPTP Choi operators."""
    return [
        random_cptp(EnsembleSpec(d=d, kraus_rank=d * d, rng_seed=seed + i))
        for i in range(count)
    ]


@pytest.fixture(scope="session")
def setup2():
    return minimal_setup(2)


@pytest.fixture(scope="session")
def setup3():
    return minimal_setup(3)
