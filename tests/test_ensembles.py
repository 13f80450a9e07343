"""Random map generation, the minimal setup, data simulation and metrics."""

import tracemalloc

import numpy as np
import pytest

from qptomo import ensembles
from qptomo import (
    CountsTable,
    DimensionError,
    DomainError,
    EnsembleSpec,
    SimulationSpec,
    choi_from_kraus,
    build_design,
    forward_probs,
    is_cptp,
    j_distance,
    minimal_setup,
    partial_trace_out,
    psd_sqrt_inv,
    quasi_pure_weights,
    random_cptp,
    random_quasi_pure,
    simulate_counts,
)
from qptomo.ensembles import MAX_DIM_BYTES
from reference import design_condition_number

# frozen regression value for the d=2 minimal setup (computed once via SVD)
COND_D2 = 6.451009853355391


class TestRandomCptp:
    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_trace_preserving_by_construction(self, rank):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=rank, rng_seed=rank))
        assert np.abs(partial_trace_out(c) - np.eye(2)).max() < 1e-10

    def test_full_rank_positive(self):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=1))
        assert np.linalg.eigvalsh(c).min() > 0

    def test_rank_bounded_by_kraus_rank(self):
        c = random_cptp(EnsembleSpec(d=3, kraus_rank=2, rng_seed=2))
        evals = np.sort(np.linalg.eigvalsh(c))[::-1]
        assert evals[2] < 1e-10  # at most 2 nonzero eigenvalues

    def test_rank_one_is_unitary_choi(self):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=1, rng_seed=3))
        purity = np.trace(c @ c).real / 4
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        spec = EnsembleSpec(d=3, kraus_rank=9, rng_seed=4)
        assert np.array_equal(random_cptp(spec), random_cptp(spec))

    def test_kind_mismatch(self):
        spec = EnsembleSpec(d=2, kraus_rank=1, kind="quasi_pure")
        with pytest.raises(DomainError):
            random_cptp(spec)

    def test_kraus_rank_over_the_byte_bound_rejected(self):
        # The draw is charged its peak, 33 d^2 M bytes; no draw is made here.
        top = MAX_DIM_BYTES // (33 * 4)
        assert EnsembleSpec(d=2, kraus_rank=top).kraus_rank == top
        with pytest.raises(DimensionError, match="Kraus rank .* MAX_DIM_BYTES"):
            EnsembleSpec(d=2, kraus_rank=top + 1)

    def test_kraus_rank_charge_covers_the_draw_peak(self, monkeypatch):
        # A budget one byte under the draw's measured peak must refuse the spec.
        # The small draw first keeps numpy.random's lazy imports out of the peak.
        random_cptp(EnsembleSpec(d=2, kraus_rank=2, rng_seed=5))
        spec = EnsembleSpec(d=2, kraus_rank=200_000, rng_seed=5)
        tracemalloc.start()
        try:
            random_cptp(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(ensembles, "MAX_DIM_BYTES", peak - 1)
        with pytest.raises(DimensionError, match="Kraus rank 200000 .* MAX_DIM_BYTES"):
            EnsembleSpec(d=2, kraus_rank=200_000)

    def test_draw_normalizes_through_psd_sqrt_inv(self, monkeypatch):
        # perfbench counts linalg.psd_sqrt_inv_calls under this name.
        calls = []

        def counting(x):
            calls.append(x.shape)
            return psd_sqrt_inv(x)

        monkeypatch.setattr(ensembles, "psd_sqrt_inv", counting)
        random_cptp(EnsembleSpec(d=3, kraus_rank=4, rng_seed=6))
        assert calls == [(3, 3)]


class TestQuasiPure:
    def test_weights_constraints(self):
        w = quasi_pure_weights(4, 0.9)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w**2).sum() == pytest.approx(0.9, abs=1e-10)
        ratios = w[1:] / w[:-1]
        assert np.abs(ratios - ratios[0]).max() < 1e-9  # geometric decay

    def test_weights_infeasible_target(self):
        with pytest.raises(DomainError):
            quasi_pure_weights(4, 0.2)  # below 1/m
        with pytest.raises(DomainError):
            EnsembleSpec(d=2, kraus_rank=1, kind="quasi_pure", target_purity_sum=1.2)

    def test_purity_and_cptp(self):
        for seed in range(5):
            spec = EnsembleSpec(d=2, kraus_rank=1, kind="quasi_pure", rng_seed=seed)
            c = random_quasi_pure(spec)
            assert is_cptp(c)
            assert np.trace(c @ c).real / 4 >= 0.9 - 1e-9

    def test_degenerate_target_one(self):
        spec = EnsembleSpec(
            d=2, kraus_rank=1, kind="quasi_pure", target_purity_sum=1.0, rng_seed=5
        )
        c = random_quasi_pure(spec)
        assert np.trace(c @ c).real / 4 == pytest.approx(1.0, abs=1e-9)


class TestMinimalSetup:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_counts_and_identity_resolution(self, d):
        setup = minimal_setup(d)
        assert setup.n_prep == d * d
        assert setup.n_povm == 2 * d * d
        total = sum(setup.povm)
        assert np.abs(total - np.eye(d)).max() < 1e-12
        for e in setup.povm:
            assert np.linalg.eigvalsh(e).min() >= -1e-12

    def test_d2_preparations(self):
        setup = minimal_setup(2)
        expected = [
            np.diag([1.0, 0.0]),
            np.diag([0.0, 1.0]),
            np.full((2, 2), 0.5),
            np.array([[0.5, -0.5j], [0.5j, 0.5]]),
        ]
        for rho, ref in zip(setup.preparations, expected):
            assert np.abs(rho - ref).max() < 1e-12

    def test_full_rank_design(self):
        for d in (2, 3):
            setup = minimal_setup(d)
            assert np.linalg.matrix_rank(build_design(setup)) == d**4

    def test_dimension_one_rejected(self):
        with pytest.raises(DomainError):
            minimal_setup(1)

    def test_dimension_over_the_byte_bound_rejected(self):
        assert minimal_setup(20).d == 20  # 16 d^6 bytes is just under 1 GiB
        EnsembleSpec(d=20, kraus_rank=1)
        for build in (minimal_setup, lambda d: EnsembleSpec(d=d, kraus_rank=1)):
            with pytest.raises(DimensionError, match="MAX_DIM_BYTES"):
                build(21)


class TestSimulateCounts:
    def test_infinite_matches_probabilities(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=6))
        counts = simulate_counts(c, setup2, SimulationSpec(None))
        p = forward_probs(c, setup2).reshape(4, 8)
        assert np.abs(counts.n - p).max() < 1e-14

    def test_finite_rows_normalized_with_totals(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=7))
        counts = simulate_counts(c, setup2, SimulationSpec(1000, rng_seed=7))
        assert np.abs(counts.n.sum(axis=1) - 1.0).max() < 1e-12
        scaled = counts.n * 1000
        assert np.abs(scaled - scaled.round()).max() < 1e-9  # integer counts

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_finite_tables_hold_the_drawn_fractions(self, d):
        # k / N as drawn, not divided again by a row sum that rounds off 1.
        setup = minimal_setup(d)
        for seed in range(1, 6):
            c = random_quasi_pure(
                EnsembleSpec(d=d, kraus_rank=1, kind="quasi_pure", rng_seed=seed))
            for n in (1000, 100000):
                counts = simulate_counts(c, setup, SimulationSpec(n, rng_seed=seed))
                k = np.rint(counts.n * n)
                assert (k.sum(axis=1) == n).all()
                assert np.array_equal(counts.n, k / n), (seed, n)

    def test_reproducible(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=8))
        a = simulate_counts(c, setup2, SimulationSpec(5000, rng_seed=9))
        b = simulate_counts(c, setup2, SimulationSpec(5000, rng_seed=9))
        assert np.array_equal(a.n, b.n)

    def test_large_n_concentration(self, setup2):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=10))
        p = forward_probs(c, setup2).reshape(4, 8)
        n = 10**7
        bound = 5 * np.sqrt((p * (1 - p)).max() / n)
        worst = 0.0
        for trial in range(100):
            counts = simulate_counts(c, setup2, SimulationSpec(n, rng_seed=trial))
            worst = max(worst, np.abs(counts.n - p).max())
        assert worst <= bound

    def test_non_cptp_rejected(self, setup2):
        with pytest.raises(DomainError):
            simulate_counts(np.diag([0.1, 0.1, 0.1, 1.7]), setup2, SimulationSpec(10))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SimulationSpec(0)

    def test_largest_sample_size_gives_normalized_rows(self, setup2):
        n = int(np.iinfo(np.int64).max)
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=7))
        counts = simulate_counts(c, setup2, SimulationSpec(n, rng_seed=7))
        assert np.isfinite(counts.n).all()
        assert np.abs(counts.n.sum(axis=1) - 1.0).max() < 1e-12


class TestJDistance:
    def test_zero_on_equal(self):
        c = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=11))
        assert j_distance(c, c) == 0.0

    def test_identity_vs_bit_flip(self):
        ident = choi_from_kraus([np.eye(2)])
        flip = choi_from_kraus([np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert j_distance(ident, flip) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        a = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=12))
        b = random_cptp(EnsembleSpec(d=2, kraus_rank=4, rng_seed=13))
        assert j_distance(a, b) == pytest.approx(j_distance(b, a), abs=1e-14)
        assert 0 <= j_distance(a, b) <= 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            j_distance(np.eye(4), np.eye(9))


class TestConditionNumber:
    def test_at_least_one(self, setup2):
        assert design_condition_number(setup2) >= 1.0

    def test_d2_regression_value(self, setup2):
        assert design_condition_number(setup2) == pytest.approx(COND_D2, rel=1e-12)

    def test_non_decreasing_in_dimension(self):
        conds = [design_condition_number(minimal_setup(d)) for d in (2, 3, 4)]
        assert np.all(np.diff(conds) >= 0)
