"""Reference checks for qptomo outputs, written against numpy alone.

Nothing here calls qptomo: every quantity the benchmark checks (outcome
probabilities, likelihood, CPTP residuals, J distance, sampled CPTP maps)
is computed again from its definition, so a fault in the package cannot
hide behind the same fault in its checker.

Convention (the package's): a Choi operator is d^2 x d^2 on input (x)
output, C = sum_ab |a><b| (x) channel(|a><b|), so C[(a, x), (b, y)] with a,
b input and x, y output indices, i.e. ``C.reshape(d, d, d, d)[a, x, b, y]``.
"""

from __future__ import annotations

import numpy as np

#: CPTP acceptance tolerances of the paper: smallest admissible eigenvalue
#: and largest Frobenius distance of the output partial trace from I.
EPS_CP = 1e-8
EPS_TP = 1e-6

#: Probability floor of the conditioned likelihood (p_ij >= 1e-16).
EPS_COND = 1e-16

#: Largest admissible cosine between X - P and Q - P for a standalone
#: projection P of X. The exact projection gives <= 0; Dykstra at its
#: default stopping tolerance reaches about 2e-3, while a feasible point
#: that is not the closest one (averaged projections) gives 0.09 to 0.3.
VI_COSINE_TOL = 0.02


def side(c: np.ndarray) -> int:
    n = c.shape[0]
    d = round(n**0.5)
    if c.shape != (n, n) or d * d != n:
        raise ValueError(f"not a Choi matrix shape: {c.shape}")
    return d


def hermitian(c: np.ndarray) -> np.ndarray:
    return (c + c.conj().T) / 2


def partial_trace_out(c: np.ndarray) -> np.ndarray:
    d = side(c)
    return np.einsum("axbx->ab", c.reshape(d, d, d, d))


def cptp_residuals(c: np.ndarray) -> tuple[float, float]:
    """(min eigenvalue, Frobenius distance of Tr_out C from I)."""
    d = side(c)
    min_eig = float(np.linalg.eigvalsh(hermitian(c)).min())
    tp = float(np.linalg.norm(partial_trace_out(c) - np.eye(d)))
    return min_eig, tp


def cptp_failure(c: np.ndarray) -> str | None:
    """None if C is CPTP within EPS_CP / EPS_TP, else the reason."""
    if not np.all(np.isfinite(c)):
        return "non-finite entries"
    if np.abs(c - c.conj().T).max() > 1e-8:
        return "not Hermitian"
    min_eig, tp = cptp_residuals(c)
    if min_eig < -EPS_CP:
        return f"not CP: min eigenvalue {min_eig:.3e}"
    if tp > EPS_TP:
        return f"not TP: |Tr_out C - I| = {tp:.3e}"
    return None


def j_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace-norm distance sum |eig(A - B)| / (2d), in [0, 1] for channels."""
    d = side(a)
    return float(np.abs(np.linalg.eigvalsh(hermitian(a - b))).sum() / (2 * d))


def forward_probs(c: np.ndarray, preps: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """p_ij = Tr[E_j channel(rho_i)] straight from the operators.

    channel(rho)[x, y] = sum_ab rho[a, b] C[(a, x), (b, y)], so
    p_ij = sum rho_i[a, b] E_j[y, x] C4[a, x, b, y]; no design matrix.
    """
    d = preps.shape[1]
    return np.einsum("iab,jyx,axby->ij", preps, povm, c.reshape(d, d, d, d)).real


def neg_log_likelihood(c, preps, povm, freqs) -> float:
    """-sum_ij n_ij ln max(p_ij, 1e-16) for normalized frequencies n."""
    p = np.maximum(forward_probs(c, preps, povm), EPS_COND)
    return float(-(np.asarray(freqs) * np.log(p)).sum())


def minimal_operators(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The minimal informationally complete setup, rebuilt from its definition.

    d^2 pure preparations (basis kets, then (|j>+|k>)/sqrt2, then
    (|j>+i|k>)/sqrt2 for j < k) and the 2 d^2 POVM elements rho_i / d^2,
    (I - rho_i) / d^2, in the package's order.
    """
    eye = np.eye(d, dtype=complex)
    kets = [eye[j] for j in range(d)]
    kets += [eye[j] + eye[k] for j in range(d) for k in range(j + 1, d)]
    kets += [eye[j] + 1j * eye[k] for j in range(d) for k in range(j + 1, d)]
    preps = np.array([np.outer(k, k.conj()) / np.vdot(k, k).real for k in kets])
    povm = np.concatenate([preps / d**2, (eye - preps) / d**2])
    return preps, povm


def choi_from_kraus(kraus: np.ndarray) -> np.ndarray:
    """sum_k vec(K_k) vec(K_k)^dagger with column-stacking vec."""
    vecs = np.asarray(kraus).transpose(0, 2, 1).reshape(len(kraus), -1)
    return vecs.T @ vecs.conj()


def random_cptp(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Choi operator of a random channel from a Stinespring isometry.

    V (d*rank x d) with orthonormal columns, from the QR factor of a complex
    Gaussian matrix; its d x d blocks are Kraus operators with
    sum_k K_k^dagger K_k = V^dagger V = I.
    """
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    v, _ = np.linalg.qr(g)
    return choi_from_kraus(v.reshape(rank, d, d))


def identity_choi(d: int) -> np.ndarray:
    return choi_from_kraus(np.eye(d)[None])


def depolarizing_choi(d: int, p: float) -> np.ndarray:
    """rho -> p rho + (1 - p) Tr(rho) I / d."""
    return p * identity_choi(d) + (1 - p) * np.eye(d * d) / d


def normalize_tp(a: np.ndarray) -> np.ndarray:
    """Clip A to PSD, then make it TP by the congruence W^-1/2 (x) I, W = Tr_out A."""
    d = side(a)
    w, v = np.linalg.eigh(hermitian(a))
    a = (v * np.clip(w, 0.0, None)) @ v.conj().T
    ww, vv = np.linalg.eigh(hermitian(partial_trace_out(a)))
    s = np.kron((vv * ww**-0.5) @ vv.conj().T, np.eye(d))
    return hermitian(s @ a @ s)


def projection_samples(rng: np.random.Generator, d: int, count: int = 60) -> np.ndarray:
    """Stinespring samples of Kraus rank 1, 2 and d^2, flattened, one per row."""
    ranks = (1, 2, d * d)
    return np.array(
        [random_cptp(rng, d, ranks[k % 3]).reshape(-1) for k in range(count)]
    )


def projection_cosine(x, p, samples: np.ndarray, rng: np.random.Generator) -> float:
    """Largest cos angle(X - P, Q - P) over sampled CPTP maps Q.

    The variational inequality Re Tr[(X - P)(Q - P)] <= 0 for every CPTP Q
    characterizes the closest CPTP point P. Besides the unstructured
    samples, Q is drawn near P along X - P (and perturbations of it),
    made CPTP by :func:`normalize_tp`; a feasible P that is not the
    closest point has a feasible direction of ascent there.
    """
    g = hermitian(x - p)
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        return 0.0
    directed = []
    for t in (1e-3, 1e-2, 1e-1, 1.0):
        directed.append(normalize_tp(p + t * g))
        for _ in range(3):
            h = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            h = hermitian(h)
            h *= 0.3 * g_norm / np.linalg.norm(h)
            directed.append(normalize_tp(p + t * (g + h)))
    q = np.concatenate([samples, np.array([m.reshape(-1) for m in directed])])
    dq = q - p.reshape(-1)
    vi = (dq @ g.reshape(-1).conj()).real
    return float((vi / (g_norm * np.linalg.norm(dq, axis=1) + 1e-300)).max())


def projection_failure(x, p, samples, rng) -> str | None:
    """None if P is CPTP and passes the variational inequality for X."""
    reason = cptp_failure(p)
    if reason is not None:
        return reason
    cos = projection_cosine(x, p, samples, rng)
    if cos > VI_COSINE_TOL:
        return f"not the closest CPTP point: cosine {cos:.3e} > {VI_COSINE_TOL}"
    return None


#: J bounds per method. On infinite data the truth is the optimum and J
#: measures how far each solver stops from it; on N samples per
#: preparation J scales as d / sqrt(N) (measured J sqrt(N) / d: pgdb and
#: dia 1.1 to 1.8, lifp 2.5 to 3.3 at d = 2..6).
J_EXACT_BOUND = {"pgdb": 2e-3, "dia": 1e-2, "lifp": 1e-6}
J_NOISY_SCALE = {"pgdb": 5.0, "dia": 5.0, "lifp": 10.0}

#: On infinite data the truth minimizes the cost; an estimate's cost may
#: exceed it by at most this much (dia stops within 4e-7 at d <= 3).
COST_GAP_EXACT = 1e-5


def j_bound(method: str, d: int, n_samples: int | None) -> float:
    if n_samples is None:
        return J_EXACT_BOUND[method]
    return min(1.0, J_NOISY_SCALE[method] * d / n_samples**0.5)


def estimate_failure(est, truth, method, n_samples, preps, povm, freqs) -> str | None:
    """None if an estimate is CPTP, near the truth and (pgdb/dia) likely enough."""
    reason = cptp_failure(est)
    if reason is not None:
        return reason
    d = side(est)
    j = j_distance(est, truth)
    bound = j_bound(method, d, n_samples)
    if not j <= bound:
        return f"J distance {j:.3e} to the true map exceeds {bound:.3e}"
    if method in ("pgdb", "dia"):
        f_est = neg_log_likelihood(est, preps, povm, freqs)
        f_true = neg_log_likelihood(truth, preps, povm, freqs)
        slack = COST_GAP_EXACT if n_samples is None else 1e-9 * abs(f_true)
        if not f_est <= f_true + slack:
            return f"cost {f_est:.12g} worse than the true map's {f_true:.12g}"
    return None
