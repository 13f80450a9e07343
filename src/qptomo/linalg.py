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


def vec_inv(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild a ``rows x cols`` matrix."""
    v = np.asarray(v).reshape(-1)
    if cols is None:
        if v.size % rows:
            raise DimensionError(f"cannot split length {v.size} into {rows} rows")
        cols = v.size // rows
    if v.size != rows * cols:
        raise DimensionError(f"length {v.size} != {rows})x({cols}")
    return v.reshape((rows, cols), order="F")


def hermitize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (X + X^dagger) / 2."""
    return (x + x.conj().T) / 2


def _square_factor(c: np.ndarray, d: int | None) -> int:
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {c.shape}")
    if d is None:
        d = round(c.shape[0] ** 0.5)
    if d * d != c.shape[0]:
        raise DimensionError(f"side {c.shape[0]} is not the square of d={d}")
    return d


def partial_trace_out(c: np.ndarray, d: int | None = None) -> np.ndarray:
    """Trace out the second (output) tensor factor of a d^2 x d^2 operator."""
    d = _square_factor(c, d)
    return np.einsum("ikjk->ij", np.asarray(c).reshape(d, d, d, d))


def partial_trace_in(c: np.ndarray, d: int | None = None) -> np.ndarray:
    """Trace out the first (input) tensor factor of a d^2 x d^2 operator."""
    d = _square_factor(c, d)
    return np.einsum("kikj->ij", np.asarray(c).reshape(d, d, d, d))


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


def block_congruence(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hermitian part of (M (x) I) X (M (x) I) for Hermitian d x d M, d^2 x d^2 X.

    M (x) I acts on the input factor, so left-multiplying X by it is one
    d x d^3 matmul on the (d, d^3) view of X; the right factor is the left
    one applied to the adjoint. No Kronecker product is formed.
    """
    d = m.shape[0]
    n = d * d
    y = (m @ x.reshape(d, -1)).reshape(n, n)
    return hermitize((m @ y.conj().T.reshape(d, -1)).reshape(n, n))


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real Frobenius inner product Re Tr(A^dagger B)."""
    return float(np.vdot(a, b).real)
