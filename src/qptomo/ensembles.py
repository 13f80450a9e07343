"""Random channel ensembles, standard setups, data simulation and metrics.

Random CPTP maps come from normalizing a complex Wishart factor: with X a
d^2 x M standard complex Gaussian matrix and W = Tr_out(X X^dagger),

    B = (W^{-1/2} (x) I) X X^dagger (W^{-1/2} (x) I)

has Tr_out(B) = I by construction and Kraus rank at most M. The quasi-pure
ensemble mixes d^2 rank-1 draws with geometrically decaying weights whose
squares sum to a target (0.9 by default), which keeps the purity of the
mixture at or above that target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import TomographySetup, CountsTable, forward_probs, is_cptp
from .errors import DimensionError, DomainError
from .linalg import block_congruence, choi_dim, partial_trace_out, psd_sqrt_inv, trace_norm

#: Largest sample size the multinomial sampler takes.
INT64_MAX = int(np.iinfo(np.int64).max)

#: Byte budget of one array. The largest a solver builds is the dual Newton
#: projection's d^2 x d^4 complex matrix, 16 d^6 bytes (256 MiB at d = 16); a
#: random map draws a d^2 x M complex factor, 16 d^2 M bytes for Kraus rank M.
#: Both are checked where they enter, before anything is allocated.
MAX_DIM_BYTES = 1 << 30


def _check_bytes(what: str, formula: str, need: int) -> None:
    if need > MAX_DIM_BYTES:
        raise DimensionError(f"{what} needs {formula} = {need:.3g} bytes, over the "
                             f"bound MAX_DIM_BYTES = {MAX_DIM_BYTES}")


def _check_dim(d: int) -> None:
    if d < 2:
        raise DomainError(f"dimension must be at least 2, got {d}")
    _check_bytes(f"dimension {d}", "16 d^6", 16 * d**6)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one random CPTP map."""

    d: int
    kraus_rank: int
    kind: str = "full_rank"  # "full_rank" | "quasi_pure"
    target_purity_sum: float = 0.9
    rng_seed: int = 0

    def __post_init__(self):
        _check_dim(self.d)
        if self.kraus_rank < 1:
            raise DomainError(f"Kraus rank must be at least 1, got {self.kraus_rank}")
        _check_bytes(f"Kraus rank {self.kraus_rank} at d={self.d}", "16 d^2 M",
                     16 * self.d**2 * self.kraus_rank)
        if self.kind not in ("full_rank", "quasi_pure"):
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        _check_seed(self.rng_seed)
        if self.kind == "quasi_pure" and not (
            1.0 / self.d**2 < self.target_purity_sum <= 1.0
        ):
            raise DomainError(
                f"target purity sum {self.target_purity_sum} infeasible for d={self.d}"
            )


@dataclass(frozen=True)
class SimulationSpec:
    """Sample size per preparation; ``n_samples=None`` means infinite data."""

    n_samples: int | None
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_samples is not None and not 1 <= self.n_samples <= INT64_MAX:
            raise DomainError(
                f"sample size must lie in [1, {INT64_MAX}], got {self.n_samples}"
            )
        _check_seed(self.rng_seed)


def _full_rank_choi(rng: np.random.Generator, d: int, kraus_rank: int) -> np.ndarray:
    x = rng.standard_normal((d * d, kraus_rank)) + 1j * rng.standard_normal(
        (d * d, kraus_rank)
    )
    g = x @ x.conj().T
    return block_congruence(psd_sqrt_inv(partial_trace_out(g)), g)


def random_cptp(spec: EnsembleSpec) -> np.ndarray:
    """Draw a full-rank-style random CPTP Choi operator (Kraus rank <= M)."""
    if spec.kind != "full_rank":
        raise DomainError(f"random_cptp expects kind 'full_rank', got {spec.kind!r}")
    rng = np.random.default_rng(spec.rng_seed)
    return _full_rank_choi(rng, spec.d, spec.kraus_rank)


def quasi_pure_weights(m: int, target_purity_sum: float) -> np.ndarray:
    """Geometric weights P_i with sum 1 and sum of squares = target.

    The ratio is pinned by bisection: the squared sum decreases
    monotonically from 1 (all weight on one term) to 1/m (uniform) as the
    ratio grows from 0 to 1.
    """
    if not (1.0 / m < target_purity_sum <= 1.0):
        raise DomainError(f"target {target_purity_sum} infeasible for {m} weights")
    if target_purity_sum == 1.0:
        w = np.zeros(m)
        w[0] = 1.0
        return w

    def weights(r: float) -> np.ndarray:
        w = r ** np.arange(m)
        return w / w.sum()

    lo, hi = 1e-16, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if (weights(mid) ** 2).sum() > target_purity_sum:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    w = weights((lo + hi) / 2)
    if abs((w**2).sum() - target_purity_sum) > 1e-10:
        raise DomainError(f"weight solve failed for target {target_purity_sum}")
    return w


def random_quasi_pure(spec: EnsembleSpec) -> np.ndarray:
    """Convex mixture of d^2 rank-1 TP Chois with purity >= the target."""
    if spec.kind != "quasi_pure":
        raise DomainError(
            f"random_quasi_pure expects kind 'quasi_pure', got {spec.kind!r}"
        )
    rng = np.random.default_rng(spec.rng_seed)
    weights = quasi_pure_weights(spec.d**2, spec.target_purity_sum)
    return sum(w * _full_rank_choi(rng, spec.d, 1) for w in weights)


def _pure_state(ket: np.ndarray) -> np.ndarray:
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def minimal_setup(d: int) -> TomographySetup:
    """The minimal informationally complete setup.

    d^2 preparations: the basis kets, (|j> + |k>)/sqrt(2) and
    (|j> + i|k>)/sqrt(2) for j < k. 2 d^2 POVM elements: rho_i / d^2 and
    their complements (I - rho_i) / d^2, which resolve to the identity.
    """
    _check_dim(d)
    eye = np.eye(d, dtype=complex)
    preps = [_pure_state(eye[j]) for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            preps.append(_pure_state(eye[j] + eye[k]))
    for j in range(d):
        for k in range(j + 1, d):
            preps.append(_pure_state(eye[j] + 1j * eye[k]))
    povm = [rho / d**2 for rho in preps]
    povm += [(np.eye(d) - rho) / d**2 for rho in preps]
    return TomographySetup(preps, povm)


def simulate_counts(
    choi_true: np.ndarray, setup: TomographySetup, sim: SimulationSpec
) -> CountsTable:
    """Simulate normalized measurement frequencies for a CPTP map.

    Probabilities below 1e-12 are set to 0, small positive ones as well as
    rounding-scale negatives, and each row is then divided by its sum.
    Finite ``n_samples`` draws one multinomial sample per preparation over
    the POVM outcomes, and the table holds k / N as drawn; infinite mode
    sets the frequencies equal to those probabilities.
    """
    if not is_cptp(choi_true):
        raise DomainError("input map is not CPTP within tolerance")
    p = forward_probs(choi_true, setup).reshape(setup.n_prep, setup.n_povm)
    p = np.where(p < 1e-12, 0.0, p)
    p /= p.sum(axis=1, keepdims=True)
    if sim.n_samples is None:
        return CountsTable(p)
    rng = np.random.default_rng(sim.rng_seed)
    return CountsTable.from_raw(rng.multinomial(sim.n_samples, p))


def j_distance(choi_a: np.ndarray, choi_b: np.ndarray) -> float:
    """Trace-norm distance between Choi operators, scaled into [0, 1]."""
    choi_a = np.asarray(choi_a)
    choi_b = np.asarray(choi_b)
    if choi_a.shape != choi_b.shape:
        raise DimensionError(f"shape mismatch {choi_a.shape} vs {choi_b.shape}")
    d = choi_dim(choi_a)
    return trace_norm(choi_a - choi_b) / (2 * d)

