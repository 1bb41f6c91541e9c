import numpy as np
import pytest

from entbound.concurrence import cut_concurrence_squared, pure_concurrence, purity_sum, subset_purity
from entbound.errors import DimensionOverflow
from entbound.linalg import SubsetMask
from oracle import (
    InvalidPartition,
    SamplerConfig,
    brute_force_purity_sum,
    haar_random_pure,
    random_product_pure,
)
from entbound.states import ghz_state
from entbound.witness import k_nonsep_threshold


class TestHaarSampler:
    def test_norms(self):
        for psi in haar_random_pure(SamplerConfig(3, seed=1, count=20)):
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_determinism_bitwise(self):
        a = haar_random_pure(SamplerConfig(4, seed=42, count=3))
        b = haar_random_pure(SamplerConfig(4, seed=42, count=3))
        for x, y in zip(a, b):
            assert np.array_equal(x.amplitudes, y.amplitudes)

    def test_different_seeds_differ(self):
        a = haar_random_pure(SamplerConfig(4, seed=1, count=1))[0]
        b = haar_random_pure(SamplerConfig(4, seed=2, count=1))[0]
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_mean_marginal_purity(self):
        # Haar average of Tr rho_1^2 on two qubits is
        # (d_A + d_B)/(d_A d_B + 1) = 4/5; Monte Carlo over 10^4 samples
        # confirms 0.800 +- 0.003, frozen here as 0.8 +- 0.01.
        mask = SubsetMask.from_qubits([1], 2)
        states = haar_random_pure(SamplerConfig(2, seed=777, count=10_000))
        mean = float(np.mean([subset_purity(psi, mask) for psi in states]))
        assert mean == pytest.approx(0.8, abs=0.01)

    def test_dimension_cap(self):
        with pytest.raises(DimensionOverflow):
            haar_random_pure(SamplerConfig(15, seed=0, count=1))


class TestProductSampler:
    def test_fully_product_has_zero_concurrence(self):
        cfg = SamplerConfig(4, seed=10, count=25)
        for psi in random_product_pure(cfg, [[1], [2], [3], [4]]):
            assert pure_concurrence(psi) <= 1e-10

    def test_single_qubit_cut_vanishes(self):
        cfg = SamplerConfig(4, seed=11, count=10)
        for psi in random_product_pure(cfg, [[1], [2, 3, 4]]):
            assert cut_concurrence_squared(psi, SubsetMask.from_qubits([1], 4)) <= 1e-10

    def test_bipartite_product_respects_k2_threshold(self):
        thr = k_nonsep_threshold(4, 2, 2)
        cfg = SamplerConfig(4, seed=12, count=25)
        for psi in random_product_pure(cfg, [[1, 2], [3, 4]]):
            assert pure_concurrence(psi) <= thr + 1e-10

    def test_noncontiguous_blocks(self):
        cfg = SamplerConfig(4, seed=13, count=5)
        for psi in random_product_pure(cfg, [[1, 3], [2, 4]]):
            assert cut_concurrence_squared(psi, SubsetMask.from_qubits([1, 3], 4)) <= 1e-10

    def test_invalid_partitions(self):
        cfg = SamplerConfig(3, seed=0, count=1)
        with pytest.raises(InvalidPartition):
            random_product_pure(cfg, [[1], [2]])  # misses qubit 3
        with pytest.raises(InvalidPartition):
            random_product_pure(cfg, [[1, 2], [2, 3]])  # overlap
        with pytest.raises(InvalidPartition):
            random_product_pure(cfg, [[1], [2], [4]])  # out of range
        with pytest.raises(InvalidPartition):
            random_product_pure(cfg, [[], [1, 2, 3]])  # empty block


class TestBruteForce:
    def test_ghz4(self):
        # Every proper GHZ marginal has purity 1/2: (2^4 - 2)/2 = 7.
        assert brute_force_purity_sum(ghz_state(4)) == pytest.approx(7.0, abs=1e-12)

    def test_three_qubit_product(self):
        psi = random_product_pure(SamplerConfig(3, seed=3, count=1), [[1], [2], [3]])[0]
        assert brute_force_purity_sum(psi) == pytest.approx(6.0, abs=1e-10)

    def test_matches_optimized_path(self):
        for n in (2, 3, 4, 5):
            for psi in haar_random_pure(SamplerConfig(n, seed=600 + n, count=5)):
                assert abs(brute_force_purity_sum(psi) - purity_sum(psi)) < 1e-10

    def test_w4(self):
        from entbound.states import w_state

        psi = w_state(4)
        assert abs(brute_force_purity_sum(psi) - purity_sum(psi)) < 1e-10

    def test_dimension_cap(self):
        with pytest.raises(DimensionOverflow):
            brute_force_purity_sum(haar_random_pure(SamplerConfig(11, seed=0, count=1))[0])
