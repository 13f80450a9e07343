"""Choi representation of channels, tomography setups and the forward model.

A channel is represented by its d^2 x d^2 Choi operator on the space
input (x) output, built from the matrix units E_ij as::

    C = sum_ij |i><j| (x) channel(|i><j|)

With column-stacking vectorization this coincides with
``sum_k vec(K_k) vec(K_k)^dagger`` for Kraus operators K_k. A channel is
completely positive iff C >= 0 and trace preserving iff the partial trace
over the output factor equals the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, LapackError
from .linalg import eigvalsh, hermitize, kron, partial_trace_out, vec

#: CPTP acceptance tolerances: smallest admissible eigenvalue and largest
#: admissible Frobenius distance of the output partial trace from identity.
EPS_CP = 1e-8
EPS_TP = 1e-6

#: Probability floor of the heralded conditioning step.
EPS_COND = 1e-16


def choi_from_kraus(kraus) -> np.ndarray:
    """Build the Choi operator of ``rho -> sum_k K_k rho K_k^dagger``."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    if not kraus:
        raise DimensionError("need at least one Kraus operator")
    d = kraus[0].shape[0]
    for k in kraus:
        if k.shape != (d, d):
            raise DimensionError(f"Kraus operators must all be {d}x{d}, got {k.shape}")
    x = np.column_stack([vec(k) for k in kraus])
    return hermitize(x @ x.conj().T)


def identity_choi(d: int) -> np.ndarray:
    """Choi operator of the identity channel (rank 1, trace d)."""
    return choi_from_kraus([np.eye(d)])


def apply_channel(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Act on a state: Tr_in[(rho^T (x) I) C].

    The output entry (x, y) is sum_ab rho[b, a] C[(b, x), (a, y)], one
    einsum on the (in, out, in', out') view of C.
    """
    rho = np.asarray(rho)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise DimensionError(f"state must be square, got {rho.shape}")
    choi = np.asarray(choi)
    if choi.shape != (d * d, d * d):
        raise DimensionError(f"Choi shape {choi.shape} does not match d={d}")
    return np.einsum("ba,bxay->xy", rho, choi.reshape(d, d, d, d))


def tp_distance(choi: np.ndarray) -> float:
    """Frobenius distance of Tr_out(C) from the identity."""
    tr_out = partial_trace_out(choi)
    return float(np.linalg.norm(tr_out - np.eye(tr_out.shape[0])))


def cptp_residuals(choi: np.ndarray) -> tuple[float, float]:
    """(min eigenvalue, Frobenius distance of Tr_out to identity)."""
    tp_dist = tp_distance(choi)  # checks the shape before LAPACK sees it
    return float(eigvalsh(choi).min()), tp_dist


def is_cptp(choi: np.ndarray) -> bool:
    """Check the CPTP invariants within ``EPS_CP`` and ``EPS_TP``."""
    min_eig, tp_dist = cptp_residuals(choi)
    return min_eig >= -EPS_CP and tp_dist <= EPS_TP


class TomographySetup:
    """Ordered preparation states and POVM elements as (count, d, d) stacks.

    Validates that every preparation is positive semidefinite with unit
    trace and that the POVM elements resolve to the identity. The forward
    model, the gradient and linear inversion use the rows of the stacks:
    ``prep_rows`` R[i, (a, b)] = rho_i[a, b], ``povm_rows`` F[j, (x, y)] = E_j[y, x].
    """

    def __init__(self, preparations, povm):
        try:
            self.preparations = np.array(preparations, dtype=complex)
            self.povm = np.array(povm, dtype=complex)
        except ValueError as err:
            raise DimensionError(f"setup operators must all be d x d: {err}") from err
        if self.preparations.size == 0 or self.povm.size == 0:
            raise DomainError("setup needs at least one preparation and one POVM element")
        self.d = d = self.preparations.shape[-1] if self.preparations.ndim else 0
        for ops in (self.preparations, self.povm):
            if ops.shape[1:] != (d, d):
                raise DimensionError(f"operator shape {ops.shape[1:]} does not match d={d}")
        for i, rho in enumerate(self.preparations):
            if np.abs(rho - rho.conj().T).max() > 1e-10:
                raise DomainError(f"preparation {i} is not Hermitian")
            if eigvalsh(rho).min() < -1e-10:
                raise DomainError(f"preparation {i} is not positive semidefinite")
            if abs(np.trace(rho) - 1.0) > 1e-10:
                raise DomainError(f"preparation {i} does not have unit trace")
        if np.abs(self.povm.sum(axis=0) - np.eye(d)).max() > 1e-10:
            raise DomainError("POVM elements do not resolve to the identity")
        self.prep_rows = self.preparations.reshape(self.n_prep, -1)
        self.povm_rows = self.povm.transpose(0, 2, 1).reshape(self.n_povm, -1)

    @property
    def n_prep(self) -> int:
        return len(self.preparations)

    @property
    def n_povm(self) -> int:
        return len(self.povm)

    @cached_property
    def inversion_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(pinv(R), pinv(F)^T), the two factors of linear inversion.

        Singular values at or below eps max(shape) times the largest are
        cut, the cutoff of ``lstsq(rcond=None)``. Computed on first use and
        kept, so every inversion on this setup is two matmuls.
        """
        def pinv(m):
            return np.linalg.pinv(m, rcond=np.finfo(float).eps * max(m.shape))

        try:
            return pinv(self.prep_rows), pinv(self.povm_rows).T
        except np.linalg.LinAlgError as err:
            raise LapackError(f"pseudo-inverse failed: {err}") from err


def build_design(setup: TomographySetup) -> np.ndarray:
    """Stack the rows vec(rho_i (x) E_j^T)^T into the design matrix A.

    The row order is i major, j minor. With column-stacking vec this gives
    ``A @ vec(C) == Tr([rho_i^T (x) E_j] C)`` entrywise, i.e. the Born-rule
    probabilities of the forward model. No solver builds it: the forward
    model, the gradient and linear inversion work on ``prep_rows`` and
    ``povm_rows``, and this dense (n_prep n_povm) x d^4 matrix is their
    reference.
    """
    rows = np.empty(
        (setup.n_prep * setup.n_povm, setup.d**4), dtype=complex
    )
    r = 0
    for rho in setup.preparations:
        for e in setup.povm:
            rows[r] = vec(kron(rho, e.T))
            r += 1
    return rows


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """C[(a, x), (b, y)] -> C~[(a, b), (x, y)]; its own inverse.

    C~ is the Choi operator in the (preparation, POVM) layout: p = R C~ F^T.
    """
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def forward_probs(choi: np.ndarray, setup: TomographySetup) -> np.ndarray:
    """Outcome probabilities p_ij = Tr([rho_i^T (x) E_j] C), flat, i major.

    p_ij = sum rho_i[a, b] E_j[y, x] C[(a, x), (b, y)], computed as
    R C~ F^T with C~ = ``_reshuffle(C)``: O(d^6) time and no design matrix.
    """
    choi = np.asarray(choi)
    d = setup.d
    if choi.shape != (d * d, d * d):
        raise DimensionError(f"Choi shape {choi.shape} does not match setup d={d}")
    return (setup.prep_rows @ _reshuffle(choi, d) @ setup.povm_rows.T).real.reshape(-1)


def condition_probs(p: np.ndarray) -> tuple[np.ndarray, bool]:
    """Floor probabilities at ``EPS_COND``; herald whether anything was raised.

    The flag makes the stall fix a visible event rather than a silent data
    modification, so callers can warn the user.
    """
    p = np.asarray(p, dtype=float)
    heralded = bool((p < EPS_COND).any())
    return np.maximum(p, EPS_COND), heralded


@dataclass
class CountsTable:
    """Per-preparation outcome frequencies, normalized so each row sums to 1.

    The one place rows are normalized: a row is divided by its sum only when
    it is off 1 by more than rounding (4 n_povm eps), so k / N keeps its bits.
    """

    n: np.ndarray

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=float)
        if self.n.ndim != 2:
            raise DimensionError("counts table must be 2-D (preparation x outcome)")
        if not np.isfinite(self.n).all():
            raise DomainError("frequencies must be finite")
        if self.n.min() < -1e-12:
            raise DomainError(f"negative frequency {self.n.min():.3e}")
        if np.abs(self.n.sum(axis=1) - 1.0).max() > 1e-9:
            raise DomainError("rows must be normalized to 1 within 1e-9")
        self.n = np.clip(self.n, 0.0, None)
        sums = self.n.sum(axis=1)
        off = np.abs(sums - 1.0) > 4 * self.n.shape[1] * np.finfo(float).eps
        self.n[off] /= sums[off, None]

    @classmethod
    def from_raw(cls, counts: np.ndarray) -> "CountsTable":
        counts = np.asarray(counts)
        totals = counts.sum(axis=1)
        if (totals <= 0).any():
            raise DomainError("every preparation needs at least one count")
        return cls(counts / totals[:, None])

    @property
    def flat(self) -> np.ndarray:
        return self.n.reshape(-1)


def _check_counts(setup: TomographySetup, counts: CountsTable) -> None:
    if counts.n.shape != (setup.n_prep, setup.n_povm):
        raise DimensionError(
            f"counts shape {counts.n.shape} does not match setup "
            f"({setup.n_prep} x {setup.n_povm})"
        )
