"""Complex dense linear algebra primitives used throughout the package.

Vectorization is column-stacking: ``vec([[a, b], [c, d]]) == (a, c, b, d)``.
All operators acting on vectorized matrices (the trace-out map, the design
matrix) are built against this convention and cross-checked in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, LapackError, SingularMatrixError

# Kronecker product, block (i, j) = A_ij * B.
kron = np.kron

#: Eigenvalue floor below which :func:`psd_sqrt_inv` calls a matrix singular.
TOL_PD = 1e-12


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-D vector."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionError(f"vec expects a matrix, got ndim={x.ndim}")
    return x.reshape(-1, order="F")


def hermitize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (X + X^dagger) / 2."""
    return (x + x.conj().T) / 2


def choi_dim(c: np.ndarray) -> int:
    """The d of a d^2 x d^2 Choi operator; any other shape is a DimensionError."""
    shape = np.shape(c)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {shape}")
    d = round(shape[0] ** 0.5)
    if d < 1 or d * d != shape[0]:
        raise DimensionError(f"side {shape[0]} is not d^2 for an integer d >= 1")
    return d


def partial_trace_out(c: np.ndarray) -> np.ndarray:
    """Trace out the second (output) tensor factor of a d^2 x d^2 operator."""
    d = choi_dim(c)
    return np.einsum("ikjk->ij", np.asarray(c).reshape(d, d, d, d))


def eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized first so that rounding drift accumulated by
    repeated projections cannot leak into complex eigenvalues. Returns
    eigenvalues in ascending order and the unitary of column eigenvectors.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"eigh expects a square matrix, got shape {x.shape}")
    try:
        return np.linalg.eigh(hermitize(x))
    except np.linalg.LinAlgError as err:
        raise LapackError(f"eigendecomposition failed: {err}") from err


def eigvalsh(x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``x``."""
    try:
        return np.linalg.eigvalsh(hermitize(np.asarray(x)))
    except np.linalg.LinAlgError as err:
        raise LapackError(f"eigenvalue computation failed: {err}") from err


def trace_norm(x: np.ndarray) -> float:
    """Sum of singular values (equals sum |eigenvalues| for Hermitian input)."""
    try:
        s = np.linalg.svd(np.asarray(x), compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise LapackError(f"singular value decomposition failed: {err}") from err
    return float(s.sum())


def psd_sqrt_inv(x: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix.

    Fails loudly rather than amplify noise: eigenvalues at or below
    ``TOL_PD`` raise :class:`SingularMatrixError`.
    """
    w, v = eigh(x)
    if w.min() <= TOL_PD:
        raise SingularMatrixError(
            f"matrix not positive definite: min eigenvalue {w.min():.3e} <= {TOL_PD:g}"
        )
    return hermitize((v * w**-0.5) @ v.conj().T)


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real Frobenius inner product Re Tr(A^dagger B)."""
    return float(np.vdot(a, b).real)
