"""Choi construction, forward model, likelihood and gradient."""

import numpy as np
import pytest

from qptomo import (
    CountsTable,
    DimensionError,
    DomainError,
    EnsembleSpec,
    SimulationSpec,
    TomographySetup,
    apply_channel,
    build_design,
    choi_from_kraus,
    condition_probs,
    forward_probs,
    gradient,
    hermitize,
    identity_choi,
    kron,
    minimal_setup,
    neg_log_likelihood,
    partial_trace_out,
    random_cptp,
    random_quasi_pure,
    simulate_counts,
    vec,
)
from conftest import random_hermitian
from reference import vec_inv

RNG = np.random.default_rng(23)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def mixed_cptp(d, seed, weight=0.75):
    """Random CPTP map blended toward maximally mixed, keeping p well positive."""
    c = random_cptp(EnsembleSpec(d=d, kraus_rank=d * d, rng_seed=seed))
    return weight * c + (1 - weight) * np.eye(d * d) / d


class TestChoiFromKraus:
    def test_identity_channel(self):
        c = identity_choi(2)
        assert np.abs(c - np.outer(vec(np.eye(2)), vec(np.eye(2)))).max() < 1e-15
        assert np.trace(c).real == pytest.approx(2.0)
        assert np.linalg.matrix_rank(c) == 1

    def test_dephasing(self):
        c = choi_from_kraus([np.outer(KET0, KET0), np.outer(KET1, KET1)])
        assert np.abs(c - np.diag([1, 0, 0, 1])).max() < 1e-15

    def test_depolarizing_is_trace_preserving(self):
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.diag([1, -1]),
        ]
        c = choi_from_kraus([p / 2 for p in paulis])
        assert np.abs(partial_trace_out(c) - np.eye(2)).max() < 1e-12

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            choi_from_kraus([])
        with pytest.raises(DimensionError):
            choi_from_kraus([np.eye(2), np.eye(3)])


class TestApplyChannel:
    def test_identity(self):
        rho = random_hermitian(RNG, 2)
        assert np.abs(apply_channel(identity_choi(2), rho) - rho).max() < 1e-12

    def test_fully_depolarizing(self):
        rho = np.outer(KET0, KET0)
        out = apply_channel(np.eye(4) / 2, rho)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_dephasing_kills_coherences(self):
        c = choi_from_kraus([np.outer(KET0, KET0), np.outer(KET1, KET1)])
        rho = np.full((2, 2), 0.5)
        assert np.abs(apply_channel(c, rho) - np.diag([0.5, 0.5])).max() < 1e-12

    def test_trace_preserved_for_cptp(self):
        c = random_cptp(EnsembleSpec(d=3, kraus_rank=9, rng_seed=3))
        rho = random_hermitian(RNG, 3)
        assert abs(np.trace(apply_channel(c, rho)) - np.trace(rho)) < 1e-8

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            apply_channel(np.eye(4), np.eye(3))


class TestSetupAndDesign:
    def test_minimal_design_shape(self, setup2):
        assert build_design(setup2).shape == (32, 16)

    def test_row_order_is_i_major(self, setup2):
        a = build_design(setup2)
        for i, j in [(0, 0), (1, 5), (3, 7)]:
            row = vec(kron(setup2.preparations[i], setup2.povm[j].T))
            assert np.abs(a[i * setup2.n_povm + j] - row).max() < 1e-15

    def test_depolarizing_probs(self, setup2):
        p = build_design(setup2) @ vec(np.eye(4) / 2)
        expected = np.array(
            [np.trace(e).real / 2 for _ in range(4) for e in setup2.povm]
        )
        assert np.abs(p - expected).max() < 1e-12

    def test_matches_elementwise_forward_model(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=9))
        p = forward_probs(c, setup2)
        k = 0
        for rho in setup2.preparations:
            for e in setup2.povm:
                direct = np.trace(kron(rho.T, e) @ c)
                assert abs(p[k] - direct) < 1e-12
                k += 1

    def test_real_for_hermitian_inputs(self, setup2):
        c = random_hermitian(RNG, 4)
        p = build_design(setup2) @ vec(c)
        assert np.abs(p.imag).max() < 1e-10

    def test_setup_validation(self):
        with pytest.raises(DomainError):
            TomographySetup([np.eye(2)], [np.eye(2)])  # trace 2 preparation
        with pytest.raises(DomainError):
            TomographySetup([np.outer(KET0, KET0)], [np.eye(2) / 2])  # POVM sum


class TestForwardProbs:
    def test_identity_channel_value(self, setup2):
        # preparation 0 is |0><0|, POVM element 0 is |0><0|/4
        p = forward_probs(identity_choi(2), setup2)
        assert p[0] == pytest.approx(0.25, abs=1e-12)

    def test_rows_sum_to_one_for_tp(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=2, rng_seed=5))
        p = forward_probs(c, setup2).reshape(4, 8)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-8

    def test_probabilities_in_range(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=6))
        p = forward_probs(c, setup2)
        assert p.min() > -1e-10 and p.max() < 1 + 1e-10

    def test_dimension_error(self, setup3):
        with pytest.raises(DimensionError):
            forward_probs(np.eye(4), setup3)


class TestMatrixFree:
    """forward_probs and the gradient never build the design: it is their oracle."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_forward_probs_match_design(self, d):
        setup = minimal_setup(d)
        c = random_hermitian(RNG, d * d)
        expected = (build_design(setup) @ vec(c)).real
        assert np.abs(forward_probs(c, setup) - expected).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gradient_matches_design(self, d):
        setup = minimal_setup(d)
        truth = mixed_cptp(d, seed=30 + d)
        counts = simulate_counts(truth, setup, SimulationSpec(1000, rng_seed=d))
        p, _ = condition_probs(forward_probs(truth, setup))
        eta = counts.flat / p
        expected = vec_inv(-(build_design(setup).conj().T @ eta), d * d, d * d)
        assert np.abs(gradient(truth, setup, counts) - expected).max() < 1e-12


class TestConditionProbs:
    def test_zero_entry_raises_flag(self):
        p, flag = condition_probs(np.array([0.5, 0.0]))
        assert np.array_equal(p, [0.5, 1e-16])
        assert flag

    def test_clean_vector_unchanged(self):
        p, flag = condition_probs(np.array([0.5, 0.5]))
        assert np.array_equal(p, [0.5, 0.5])
        assert not flag

    def test_negative_entry_clipped(self):
        p, flag = condition_probs(np.array([-1e-20, 0.3]))
        assert np.array_equal(p, [1e-16, 0.3])
        assert flag


class TestCountsTable:
    def test_rows_renormalized(self):
        t = CountsTable(np.array([[0.5, 0.5 + 1e-10]]))
        assert t.n.sum(axis=1) == pytest.approx(1.0, abs=1e-15)

    def test_from_raw_keeps_totals(self):
        t = CountsTable.from_raw(np.array([[3, 1], [2, 2]]))
        assert np.array_equal(t.raw_totals, [4, 4])
        assert np.allclose(t.n, [[0.75, 0.25], [0.5, 0.5]])

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            CountsTable(np.array([[0.3, 0.3]]))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            CountsTable(np.array([[1.1, -0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            CountsTable(np.array([[bad, 1.0]]))


class TestLikelihood:
    def test_uniform_two_outcomes_gives_ln2(self):
        setup = TomographySetup([np.outer(KET0, KET0)], [np.eye(2) / 2, np.eye(2) / 2])
        counts = CountsTable(np.array([[0.5, 0.5]]))
        f = neg_log_likelihood(identity_choi(2), setup, counts)
        assert f == pytest.approx(np.log(2), abs=1e-12)

    def test_infinite_data_minimum_is_entropy(self, setup2):
        truth = random_quasi_pure(
            EnsembleSpec(d=2, kraus_rank=1, kind="quasi_pure", rng_seed=1)
        )
        counts = simulate_counts(truth, setup2, SimulationSpec(None))
        p = counts.flat
        entropy = float(-(p[p > 0] * np.log(p[p > 0])).sum())
        f_truth = neg_log_likelihood(truth, setup2, counts)
        assert f_truth == pytest.approx(entropy, abs=1e-9)
        for seed in range(3):  # Gibbs: any other map costs at least as much
            other = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=seed))
            assert neg_log_likelihood(other, setup2, counts) >= f_truth - 1e-12

    def test_convex_along_segments(self, setup2):
        truth = mixed_cptp(2, seed=2)
        counts = simulate_counts(truth, setup2, SimulationSpec(2000, rng_seed=3))
        for seed in range(5):
            c1 = mixed_cptp(2, seed=10 + seed)
            c2 = mixed_cptp(2, seed=20 + seed)
            mid = neg_log_likelihood((c1 + c2) / 2, setup2, counts)
            avg = (
                neg_log_likelihood(c1, setup2, counts)
                + neg_log_likelihood(c2, setup2, counts)
            ) / 2
            assert mid <= avg + 1e-9


class TestGradient:
    def test_zero_counts_give_zero_gradient(self, setup2):
        # The normalization invariant forbids an all-zero table, so bypass
        # validation to exercise the linearity of the formula in n.
        table = object.__new__(CountsTable)
        table.n = np.zeros((4, 8))
        table.raw_totals = None
        g = gradient(identity_choi(2), setup2, table)
        assert np.abs(g).max() == 0.0

    def test_hermitian(self, setup2):
        truth = mixed_cptp(2, seed=4)
        counts = simulate_counts(truth, setup2, SimulationSpec(1000, rng_seed=4))
        g = gradient(truth, setup2, counts)
        assert np.abs(g - g.conj().T).max() < 1e-10

    def test_elementwise_sum_matches_vectorized(self, setup2):
        truth = mixed_cptp(2, seed=5)
        counts = simulate_counts(truth, setup2, SimulationSpec(1000, rng_seed=5))
        g = gradient(truth, setup2, counts)
        p, _ = condition_probs(forward_probs(truth, setup2))
        eta = (counts.flat / p).reshape(4, 8)
        direct = np.zeros((4, 4), dtype=complex)
        for i, rho in enumerate(setup2.preparations):
            for j, e in enumerate(setup2.povm):
                direct -= eta[i, j] * kron(rho.T, e)
        assert np.abs(g - direct).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_finite_differences(self, d):
        setup = minimal_setup(d)
        truth = mixed_cptp(d, seed=6)
        counts = simulate_counts(truth, setup, SimulationSpec(5000, rng_seed=6))
        g = gradient(truth, setup, counts)
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(5):
            delta = random_hermitian(rng, d * d)
            delta /= np.linalg.norm(delta)
            fd = (
                neg_log_likelihood(truth + h * delta, setup, counts)
                - neg_log_likelihood(truth - h * delta, setup, counts)
            ) / (2 * h)
            ip = np.vdot(g, delta).real
            assert abs(fd - ip) <= 1e-5 * max(abs(ip), 1e-3)
