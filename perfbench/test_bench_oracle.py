"""The benchmark's oracle accepts known channels and rejects broken outputs.

Run with ``python -m pytest perfbench``; needs numpy only.
"""

import numpy as np
import pytest

import oracle


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def _hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


@pytest.mark.parametrize("d", [2, 3])
def test_forward_model_of_identity_and_depolarizing(d):
    preps, povm = oracle.minimal_operators(d)
    born = np.einsum("iab,jba->ij", preps, povm).real
    assert np.allclose(oracle.forward_probs(oracle.identity_choi(d), preps, povm), born)
    p = 0.7
    mixed = p * born + (1 - p) * np.einsum("jaa->j", povm).real[None, :] / d
    assert np.allclose(oracle.forward_probs(oracle.depolarizing_choi(d, p), preps, povm), mixed)
    # Each preparation's outcome probabilities sum to one.
    assert np.allclose(oracle.forward_probs(oracle.identity_choi(d), preps, povm).sum(1), 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cptp_check_accepts_known_and_sampled_channels(rng, d):
    assert oracle.cptp_failure(oracle.identity_choi(d)) is None
    assert oracle.cptp_failure(oracle.depolarizing_choi(d, 0.3)) is None
    for rank in (1, 2, d * d):
        assert oracle.cptp_failure(oracle.random_cptp(rng, d, rank)) is None


def test_cptp_check_rejects_non_tp_non_cp_and_nan():
    d = 2
    assert "not TP" in oracle.cptp_failure(2 * oracle.identity_choi(d))
    # Unit trace-out but a negative eigenvalue: identity minus depolarizing noise.
    non_cp = 1.2 * oracle.identity_choi(d) - 0.2 * np.eye(d * d) / d
    assert "not CP" in oracle.cptp_failure(non_cp)
    broken = oracle.identity_choi(d)
    broken[0, 0] = np.nan
    assert oracle.cptp_failure(broken) == "non-finite entries"


@pytest.mark.parametrize("d", [2, 3])
def test_j_distance_closed_form(d):
    p = 0.4
    ident = oracle.identity_choi(d)
    assert oracle.j_distance(ident, ident) == pytest.approx(0, abs=1e-14)
    expected = (1 - p) * (d * d - 1) / (d * d)
    assert oracle.j_distance(ident, oracle.depolarizing_choi(d, p)) == pytest.approx(expected)


def test_estimate_check_rejects_a_swapped_true_map(rng):
    d, n_samples = 3, 100_000
    preps, povm = oracle.minimal_operators(d)
    truth = oracle.random_cptp(rng, d, 1)
    other = oracle.random_cptp(rng, d, 1)
    freqs = oracle.forward_probs(truth, preps, povm)
    assert oracle.estimate_failure(truth, truth, "pgdb", None, preps, povm, freqs) is None
    reason = oracle.estimate_failure(truth, other, "pgdb", n_samples, preps, povm, freqs)
    assert reason.startswith("J distance")


def test_estimate_check_rejects_a_less_likely_estimate(rng):
    d = 2
    preps, povm = oracle.minimal_operators(d)
    truth = oracle.depolarizing_choi(d, 0.9)
    freqs = oracle.forward_probs(truth, preps, povm)
    # Within the infinite-data dia bound on J, but clearly less likely.
    worse = oracle.depolarizing_choi(d, 0.9 - 1e-2)
    assert oracle.j_distance(worse, truth) < oracle.j_bound("dia", d, None)
    reason = oracle.estimate_failure(worse, truth, "dia", None, preps, povm, freqs)
    assert reason.startswith("cost")


@pytest.mark.parametrize("d", [2, 3])
def test_variational_inequality_accepts_the_exact_projection(rng, d):
    # For a full-rank CPTP C, X = C + Y (x) I projects onto C: X - C is normal
    # to the TP affine set and C lies inside the PSD cone.
    c = oracle.depolarizing_choi(d, 0.5)
    x = c + 0.3 * np.kron(_hermitian(rng, d), np.eye(d))
    samples = oracle.projection_samples(rng, d)
    assert oracle.projection_failure(x, c, samples, rng) is None


@pytest.mark.parametrize("d", [2, 3])
def test_variational_inequality_rejects_a_non_closest_point(rng, d):
    c = oracle.depolarizing_choi(d, 0.5)
    x = c + 0.3 * np.kron(_hermitian(rng, d), np.eye(d))
    samples = oracle.projection_samples(rng, d)
    # Feasible but not closest: move from C towards a random channel.
    wrong = 0.8 * c + 0.2 * oracle.random_cptp(rng, d, 1)
    assert oracle.cptp_failure(wrong) is None
    assert "not the closest" in oracle.projection_failure(x, wrong, samples, rng)
    # An infeasible point is rejected before the inequality is tried.
    reason = oracle.projection_failure(x, x, samples, rng)
    assert reason.split(":")[0] in ("not CP", "not TP")


def test_normalize_tp_makes_cptp(rng):
    d = 3
    a = _hermitian(rng, d * d)
    assert oracle.cptp_failure(oracle.normalize_tp(a @ a + np.eye(d * d))) is None
