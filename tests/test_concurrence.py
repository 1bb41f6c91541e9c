import math
import tracemalloc

import numpy as np
import pytest

from entbound import concurrence
from entbound.concurrence import (
    cut_concurrence_squared,
    cut_profile,
    h_invariant,
    pairwise_table,
    pure_concurrence,
    purity_sum,
    subset_purity,
    wootters_concurrence,
)
from entbound.errors import EmptySubset, WrongDimension
from entbound.linalg import EIGEN_DUST, PURITY_TOL, SIGMA_Y, SubsetMask
from oracle import (
    SamplerConfig,
    apply_local_unitaries,
    brute_force_purity_sum,
    conjugate_by_local_unitaries,
    haar_random_pure,
    random_product_pure,
    random_single_qubit_unitaries,
)
from entbound.states import (
    DensityMatrix,
    PureState,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
    white_noise_mix,
)

from conftest import random_pure


def bell() -> np.ndarray:
    return ghz_state(2)


class TestPureConcurrence:
    def test_product_states_vanish(self):
        cfg = SamplerConfig(n_qubits=4, seed=11, count=10)
        for psi in random_product_pure(cfg, [[1], [2], [3], [4]]):
            assert pure_concurrence(psi) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ghz_closed_form(self, n):
        expected = math.sqrt((2 ** (n - 1) - 1) / 2 ** (n - 2))
        assert pure_concurrence(ghz_state(n)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_w_closed_form(self, n):
        # A W state's k-qubit marginals have eigenvalues k/n and 1 - k/n.
        radicand = math.fsum(math.comb(n, k) * 2 * (k / n) * (1 - k / n) for k in range(1, n))
        assert abs(pure_concurrence(w_state(n)) - 2.0 ** (1 - n / 2) * math.sqrt(radicand)) <= 1e-12

    def test_bell_pair_product(self):
        assert pure_concurrence(example4_state()) == pytest.approx(math.sqrt(7) / 2, abs=1e-12)

    def test_two_qubit_matches_wootters(self, rng):
        for _ in range(20):
            psi = random_pure(rng, 2)
            c_pure = pure_concurrence(psi)
            c_woot = wootters_concurrence(psi.density_matrix())
            assert abs(c_pure - c_woot) < 1e-10


class TestCutConcurrence:
    def test_product_cut_vanishes(self):
        cfg = SamplerConfig(n_qubits=4, seed=5, count=5)
        for psi in random_product_pure(cfg, [[1], [2, 3, 4]]):
            assert cut_concurrence_squared(psi, SubsetMask.from_qubits([1], 4)) <= 1e-10

    def test_ghz4_single_qubit_cut(self):
        v = cut_concurrence_squared(ghz_state(4), SubsetMask.from_qubits([1], 4))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_bell_cut(self):
        v = cut_concurrence_squared(bell(), SubsetMask.from_qubits([1], 2))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_empty_and_full_rejected(self):
        with pytest.raises(EmptySubset):
            cut_concurrence_squared(ghz_state(3), SubsetMask(0, 3))
        with pytest.raises(EmptySubset):
            cut_concurrence_squared(ghz_state(3), SubsetMask(0b111, 3))

    def test_profile_structure(self):
        prof = cut_profile(ghz_state(4))
        assert sorted(prof.per_subset) == list(range(1, 15))
        assert set(prof.size_sums) == {1, 2, 3}
        # every GHZ cut has value 1
        assert prof.size_sums[1] == pytest.approx(4.0, abs=1e-12)
        assert prof.size_sums[2] == pytest.approx(6.0, abs=1e-12)
        assert prof.total() == pytest.approx(14.0, abs=1e-12)

    def test_complement_symmetry(self, rng):
        psi = random_pure(rng, 5)
        prof = cut_profile(psi)
        full = 2**5 - 1
        for bits, v in prof.per_subset.items():
            assert v == pytest.approx(prof.per_subset[full ^ bits], abs=1e-12)

    def test_profile_decomposes_each_bipartition_once(self, monkeypatch, rng):
        # One per-cut rule per bipartition; only the sides of _top_cover (its
        # scaffolds and the tops no scaffold covers) form their Gram from the
        # vector, the others trace a qubit out of a larger Gram.
        rules, grams = [], []
        gram_deficit, side_gram = concurrence._gram_deficit, concurrence._side_gram

        def counting_rule(gram, *reads_pure):
            rules.append(gram.shape)
            return gram_deficit(gram, *reads_pure)

        def counting_gram(psi, bits):
            grams.append(bits)
            return side_gram(psi, bits)

        monkeypatch.setattr(concurrence, "_gram_deficit", counting_rule)
        monkeypatch.setattr(concurrence, "_side_gram", counting_gram)
        for n in (5, 6, 8):
            rules.clear()
            grams.clear()
            cut_profile(random_pure(rng, n))
            assert len(rules) == 2 ** (n - 1) - 1
            assert grams == [side for side, _ in concurrence._top_cover(n)]

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_profile_complements_share_the_canonical_value(self, rng, n):
        psi = random_pure(rng, n)
        prof = cut_profile(psi)
        full = 2**n - 1
        assert list(prof.per_subset) == list(range(1, full))
        for bits, v in prof.per_subset.items():
            assert v == prof.per_subset[full ^ bits]
            if bits < full ^ bits:
                assert abs(v - cut_concurrence_squared(psi, SubsetMask(bits, n))) <= 1e-13


class TestWootters:
    def test_bell(self):
        assert wootters_concurrence(bell().density_matrix()) == pytest.approx(1.0, abs=1e-12)

    def test_product_pure(self, rng):
        for _ in range(5):
            psi = random_product_pure(SamplerConfig(2, int(rng.integers(1 << 30)), 1),
                                      [[1], [2]])[0]
            assert wootters_concurrence(psi.density_matrix()) <= 1e-10

    def test_w_noise_closed_form_at_t09(self):
        rho = white_noise_mix(w_state(4), 0.9)
        r12 = rho.reduced([1, 2])
        expected = (0.9 - math.sqrt(1 - 0.81)) / 2
        assert wootters_concurrence(r12) == pytest.approx(expected, abs=1e-11)

    def test_dicke_noise_closed_form_at_t09(self):
        rho = white_noise_mix(dicke_state(4, 2), 0.9)
        r12 = rho.reduced([1, 2])
        assert wootters_concurrence(r12) == pytest.approx(0.25, abs=1e-11)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            wootters_concurrence(ghz_state(3).density_matrix())


def rotated_separable_marginal(eps: float, seed: int) -> DensityMatrix:
    """(1 - eps)|00><00| + eps|11><11| under seeded local unitaries: a
    separable rank-2 state, C = 0, with one small eigenvalue."""
    rho = DensityMatrix(2, np.diag([1 - eps, 0, 0, eps]).astype(complex))
    return conjugate_by_local_unitaries(rho, random_single_qubit_unitaries(np.random.default_rng(seed), 2))


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12, 1e-13])
def test_rotated_separable_marginals_read_exactly_zero(eps):
    # any positive value here would certify entanglement of a separable state
    assert [wootters_concurrence(rotated_separable_marginal(eps, seed)) for seed in range(200)] == [0.0] * 200


def x_state_closed_form(m: np.ndarray) -> float:
    """Yu & Eberly's concurrence of an X state (nonzero entries on the
    diagonal and the anti-diagonal only)."""
    p = m.diagonal().real
    return 2 * max(0.0, abs(m[0, 3]) - math.sqrt(p[1] * p[2]), abs(m[1, 2]) - math.sqrt(p[0] * p[3]))


def random_x_state(rng: np.random.Generator) -> np.ndarray:
    """A seeded X state: some diagonal weights 0, coherences up to the PSD edge."""
    p = rng.dirichlet(np.ones(4)) * (rng.random(4) > 0.15)
    p = p / p.sum() if p.sum() else np.array([1.0, 0, 0, 0])
    t = np.where(rng.random(2) < 0.2, 1.0, rng.random(2))  # a coherence at the edge: rank-deficient
    phases = np.exp(2j * np.pi * rng.random(2))
    m = np.diag(p).astype(complex)
    m[0, 3] = t[0] * math.sqrt(p[0] * p[3]) * phases[0]
    m[1, 2] = t[1] * math.sqrt(p[1] * p[2]) * phases[1]
    m[3, 0], m[2, 1] = m[0, 3].conjugate(), m[1, 2].conjugate()
    return m


def test_x_states_under_local_unitaries_match_the_closed_form():
    # local unitaries keep C, so the rotated state's C is the X state's closed form
    rng = np.random.default_rng(2007)
    zeros = 0
    for _ in range(2400):
        m = random_x_state(rng)
        want = x_state_closed_form(m)
        rho = conjugate_by_local_unitaries(DensityMatrix(2, m), random_single_qubit_unitaries(rng, 2))
        got = wootters_concurrence(rho)
        if want == 0.0:
            zeros += 1
            assert got == 0.0, m
        else:
            assert abs(got - want) <= 1e-14, (got, want)
    assert 500 < zeros < 2000


class TestPairwiseTable:
    def test_cycle_family_pattern(self):
        a = 0.9
        table = pairwise_table(white_noise_mix(example3_state(), a))
        expected = (a - math.sqrt(1 - a)) / 2
        for pair in [(1, 2), (1, 4), (2, 3), (3, 4)]:
            assert table.value(*pair) == pytest.approx(expected, abs=1e-11)
        assert table.value(1, 3) == 0.0
        assert table.value(2, 4) == 0.0

    def test_bell_pair_family_pattern(self):
        table = pairwise_table(example4_state().density_matrix())
        assert table.value(1, 2) == pytest.approx(1.0, abs=1e-11)
        assert table.value(3, 4) == pytest.approx(1.0, abs=1e-11)
        for pair in [(1, 3), (1, 4), (2, 3), (2, 4)]:
            assert table.value(*pair) == 0.0

    def test_maximally_mixed_all_zero(self):
        rho = DensityMatrix(4, np.eye(16, dtype=complex) / 16)
        table = pairwise_table(rho)
        assert all(v == 0.0 for _, v in table.pairs())

    def test_symmetric_lookup(self):
        table = pairwise_table(white_noise_mix(w_state(4), 0.8))
        assert table.value(2, 1) == table.value(1, 2)
        assert table.sum_of_squares == pytest.approx(6 * 0.1**2, abs=1e-12)

    def test_unknown_pair_rejected(self):
        table = pairwise_table(white_noise_mix(w_state(4), 0.8))
        with pytest.raises(WrongDimension):
            table.value(1, 1)
        with pytest.raises(WrongDimension):
            table.value(1, 5)


class TestHInvariant:
    def test_even_ghz_has_unit_modulus(self):
        for n in (2, 4, 6):
            assert abs(h_invariant(ghz_state(n))) == pytest.approx(1.0, abs=1e-12)

    def test_w4_vanishes(self):
        assert abs(h_invariant(w_state(4))) == pytest.approx(0.0, abs=1e-14)

    def test_bell_equals_concurrence(self):
        assert abs(h_invariant(bell())) == pytest.approx(1.0, abs=1e-12)

    def test_against_dense_operator(self, rng):
        # Oracle: materialize sigma_y^(x n) and contract directly.
        for n in (2, 3, 4):
            op = np.array([[1.0 + 0.0j]])
            for _ in range(n):
                op = np.kron(op, SIGMA_Y)
            for _ in range(5):
                psi = random_pure(rng, n)
                dense = complex(psi.amplitudes.conj() @ (op @ psi.amplitudes.conj()))
                assert abs(h_invariant(psi) - dense) < 1e-12

    def test_odd_n_vanishes(self, rng):
        for _ in range(5):
            assert abs(h_invariant(random_pure(rng, 3))) < 1e-12


def all_cut_values(psi):
    n = psi.n_qubits
    return {
        bits: cut_concurrence_squared(psi, SubsetMask(bits, n))
        for bits in range(1, 2**n - 1)
    }


class TestIdentities:
    """Decomposition/monogamy relations on seeded random states (small
    sample sizes here; the acceptance suite runs the 200-state versions)."""

    def test_four_qubit_bipartition_decomposition(self):
        for psi in haar_random_pure(SamplerConfig(4, seed=101, count=25)):
            cuts = all_cut_values(psi)
            full = 2**4 - 1
            bipartition_sum = sum(v for bits, v in cuts.items() if bits < full ^ bits)
            assert abs(pure_concurrence(psi) ** 2 - bipartition_sum / 4) < 1e-10

    @pytest.mark.parametrize("n", [5, 6])
    def test_general_decomposition(self, n):
        for psi in haar_random_pure(SamplerConfig(n, seed=202 + n, count=10)):
            total = sum(all_cut_values(psi).values())
            assert abs(pure_concurrence(psi) ** 2 - 2.0 ** (1 - n) * total) < 1e-10

    def test_monogamy_inequality(self):
        for n in (4, 5):
            for psi in haar_random_pure(SamplerConfig(n, seed=303 + n, count=20)):
                lhs = cut_concurrence_squared(psi, SubsetMask.from_qubits([1], n))
                table = pairwise_table(psi.density_matrix())
                rhs = sum(table.value(1, i) ** 2 for i in range(2, n + 1))
                assert lhs - rhs >= -1e-10

    def test_four_qubit_distributed_inequality(self):
        for psi in haar_random_pure(SamplerConfig(4, seed=404, count=25)):
            cuts = all_cut_values(psi)
            prof = cut_profile(psi)
            two_vs_rest = prof.size_sums[2] / 2  # three bipartitions of type 2|2
            singles = prof.size_sums[1]
            assert two_vs_rest - 0.75 * singles >= -1e-10
            assert prof.size_sums[2] - (4 - 2) / 2 * singles >= -1e-10
            assert cuts  # sanity: subsets enumerated

    @pytest.mark.parametrize("n", [4, 6])
    def test_monogamy_equality(self, n):
        for psi in haar_random_pure(SamplerConfig(n, seed=505 + n, count=10)):
            prof = cut_profile(psi)
            lhs = 2 * abs(h_invariant(psi)) ** 2
            assert abs(lhs - prof.alternating_sum()) < 1e-9

    def test_local_unitary_invariance(self, rng):
        psi = haar_random_pure(SamplerConfig(4, seed=606, count=1))[0]
        us = random_single_qubit_unitaries(rng, 4)
        rotated = apply_local_unitaries(psi, us)
        assert abs(pure_concurrence(psi) - pure_concurrence(rotated)) < 1e-9
        for bits in (0b1000, 0b1100, 0b1010):
            m = SubsetMask(bits, 4)
            assert abs(
                cut_concurrence_squared(psi, m) - cut_concurrence_squared(rotated, m)
            ) < 1e-9
        t0 = pairwise_table(psi.density_matrix())
        t1 = pairwise_table(rotated.density_matrix())
        for (i, j), v in t0.pairs():
            assert abs(v - t1.value(i, j)) < 1e-9


class TestPuritySum:
    def test_gram_purity_matches_dense(self, rng):
        for n in (2, 3, 4, 5):
            psi = random_pure(rng, n)
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            for bits in range(1, 2**n - 1):
                mask = SubsetMask(bits, n)
                from entbound.linalg import partial_trace, purity

                dense = purity(partial_trace(rho, mask))
                assert abs(subset_purity(psi, mask) - dense) < 1e-11

    def test_ghz4_purity_sum(self):
        assert purity_sum(ghz_state(4)) == pytest.approx(7.0, abs=1e-12)

    def test_product_purity_sum(self):
        psi = random_product_pure(SamplerConfig(3, seed=9, count=1), [[1], [2], [3]])[0]
        assert purity_sum(psi) == pytest.approx(6.0, abs=1e-10)


def svd_schmidt_squares(psi, subset):
    """Reference kernel: squared singular values of the state vector reshaped
    along subset|rest, the formulation the Gram eigensolve replaced."""
    n = psi.n_qubits
    axes = [q - 1 for q in subset.qubits]
    rest = [a for a in range(n) if a not in axes]
    m = psi.amplitudes.reshape((2,) * n).transpose(axes + rest)
    s = np.linalg.svd(m.reshape(2 ** len(axes), -1), compute_uv=False)
    return s * s


def lu_rotated(psi, seed):
    us = random_single_qubit_unitaries(np.random.default_rng(seed), psi.n_qubits)
    return apply_local_unitaries(psi, us)


def near_product(n, weight, seed):
    """sqrt(1-w) |a_1..a_n> + sqrt(w) |b_1..b_n> with b_q orthogonal to a_q:
    across every cut the Schmidt weights are exactly 1-w and w."""
    a, b = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for u in random_single_qubit_unitaries(np.random.default_rng(seed), n):
        a, b = np.kron(a, u[:, 0]), np.kron(b, u[:, 1])
    return PureState(n, math.sqrt(1 - weight) * a + math.sqrt(weight) * b)


class TestGramKernelAgainstSvd:
    """The package kernel against the SVD one, kept here as reference."""

    @staticmethod
    def both(psi):
        """(cut_profile, pure_concurrence) as the package computes them, then
        (per-mask C^2, C) with every cut's deficit from svd_schmidt_squares."""
        n = psi.n_qubits
        full = 2**n - 1
        ref_cuts, radicand = {}, 0.0
        for bits in range(1, 2 ** (n - 1)):
            s2 = svd_schmidt_squares(psi, SubsetMask(bits, n))
            d = 2.0 * float(np.dot(s2, s2.sum() - s2))
            ref_cuts[bits] = ref_cuts[full ^ bits] = max(d, 0.0)
            radicand += d
        ref_c = 2.0 ** (1 - n / 2) * math.sqrt(max(radicand, 0.0))
        return (cut_profile(psi), pure_concurrence(psi)), (ref_cuts, ref_c)

    def assert_close(self, psi, tol=1e-12):
        (prof, c), (ref_cuts, ref_c) = self.both(psi)
        assert prof.per_subset.keys() == ref_cuts.keys()
        for bits, v in prof.per_subset.items():
            assert abs(v - ref_cuts[bits]) <= tol
        assert abs(c - ref_c) <= tol
        return prof, c

    @pytest.mark.parametrize("n", range(2, 11))
    def test_haar(self, n):
        for psi in haar_random_pure(SamplerConfig(n, seed=700 + n, count=2)):
            self.assert_close(psi)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_product_states_are_exactly_zero(self, n):
        singles = [[q] for q in range(1, n + 1)]
        for psi in random_product_pure(SamplerConfig(n, seed=800 + n, count=2), singles):
            prof, c = self.assert_close(psi)
            assert c == 0.0
            assert set(prof.per_subset.values()) == {0.0}

    @pytest.mark.parametrize("n", range(3, 11))
    def test_lu_rotated_ghz_and_w(self, n):
        self.assert_close(lu_rotated(ghz_state(n), 900 + n))
        self.assert_close(lu_rotated(w_state(n), 950 + n))

    @pytest.mark.parametrize("weight", [1e-16, 1e-15, 1e-14, 1e-13, 1e-12])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_near_product_against_brute_force(self, n, weight):
        # The Gram eigenvalues carry ~1e-16 absolute error and the dust floor
        # zeroes weights below ~1.4e-14, so compare squares, not C itself
        # (sqrt turns a 1e-16 weight into a 1e-8 concurrence).
        # The purity sum adds 2^n - 2 values near 1, each with its own
        # rounding, so it is held to a relative 1e-13.
        psi = near_product(n, weight, seed=n)
        total = purity_sum(psi)
        expected = (2**n - 2) * ((1 - weight) ** 2 + weight**2)
        assert total == pytest.approx(brute_force_purity_sum(psi), rel=1e-13, abs=0)
        assert total == pytest.approx(expected, rel=1e-13, abs=0)
        c2 = 2.0 ** (2 - n) * (2**n - 2) * 2 * weight * (1 - weight)
        (prof, c), (ref_cuts, ref_c) = self.both(psi)
        assert abs(c**2 - c2) <= 1e-12
        assert abs(c**2 - ref_c**2) <= 1e-12
        for bits, v in prof.per_subset.items():
            assert abs(v - ref_cuts[bits]) <= 1e-12


class TestFrobeniusDeficitAgainstEigenPath:
    """cut_concurrence_squared reads a cut's deficit off its Gram matrix as
    (Tr G)^2 - ||G||_F^2 and solves for eigenvalues only on cuts that read
    as pure.  cut_profile and pure_concurrence apply the same rule to Grams
    from one walk over the subset lattice, most of them partial traces of a
    larger cut's Gram.  The eigenvalue path, the floored spectrum of the
    cut's Gram, is the reference for both on every cut."""

    @staticmethod
    def assert_close(psi):
        """Each canonical cut's C^2, per cut and in cut_profile, and the
        state's C^2 against the same values summed from the eigenvalue path;
        returns the package's per-cut values and C."""
        n = psi.n_qubits
        full = 2**n - 1
        prof = cut_profile(psi)
        assert list(prof.per_subset) == list(range(1, full))
        cuts, radicand = [], 0.0
        for bits in range(1, 2 ** (n - 1)):
            cut = SubsetMask(bits, n)
            s2 = concurrence._floored_spectrum(concurrence._cut_gram(psi, cut))
            ref = 2.0 * float(np.dot(s2, s2.sum() - s2))
            cuts.append(cut_concurrence_squared(psi, cut))
            assert abs(cuts[-1] - max(ref, 0.0)) <= 1e-13
            assert abs(prof.per_subset[bits] - max(ref, 0.0)) <= 1e-13
            assert prof.per_subset[full ^ bits] == prof.per_subset[bits]
            radicand += ref
        c = pure_concurrence(psi)
        assert abs(c**2 - 2.0 ** (2 - n) * max(radicand, 0.0)) <= 1e-13
        return cuts, c, prof

    @pytest.mark.parametrize("n", range(2, 14))
    def test_haar(self, n):
        for psi in haar_random_pure(SamplerConfig(n, seed=1100 + n, count=1)):
            self.assert_close(psi)

    @pytest.mark.parametrize("n", range(3, 14))
    def test_lu_rotated_ghz_and_w(self, n):
        self.assert_close(lu_rotated(ghz_state(n), 1200 + n))
        self.assert_close(lu_rotated(w_state(n), 1250 + n))

    @pytest.mark.parametrize("n", range(2, 14))
    def test_near_product_straddling_the_threshold(self, n):
        # Every cut has Schmidt weights 1-w and w, so its deficit is
        # 2 w (1-w), which crosses PURITY_TOL = 1e-10 at w = 5e-11.  At 13
        # qubits, where the reference takes seconds a state, the ends of the
        # range and one weight above the threshold.
        weights = (1e-13, 1e-11, 1e-10, 3e-10, 1e-9, 1e-6, 1e-3, 0.5)
        for weight in weights if n < 13 else (1e-13, 1e-9, 0.5):
            self.assert_close(near_product(n, weight, seed=1300 + n))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_product_states_are_exactly_zero(self, n):
        singles = [[q] for q in range(1, n + 1)]
        psi = random_product_pure(SamplerConfig(n, seed=1400 + n, count=1), singles)[0]
        cuts, c, prof = self.assert_close(psi)
        assert c == 0.0
        assert set(cuts) == {0.0}
        assert set(prof.per_subset.values()) == {0.0}

    @pytest.mark.parametrize("psi, eigensolves", [
        (haar_random_pure(SamplerConfig(8, seed=1500, count=1))[0], 0),
        # a product state: one stacked solve for the mask of product qubits
        (random_product_pure(SamplerConfig(8, seed=1501, count=1),
                             [[q] for q in range(1, 9)])[0], 1),
        # every cut reads as pure and no qubit is product: the mask covers nothing
        (near_product(8, 1e-11, seed=1502), 2**7 - 1 + 1),
        (near_product(8, 1e-9, seed=1503), 0),
    ])
    def test_eigensolves_only_on_cuts_that_read_as_pure(self, monkeypatch, psi, eigensolves):
        original = np.linalg.eigvalsh
        calls = []

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        pure_concurrence(psi)
        assert len(calls) == eigensolves


def reference_deficits(psi):
    """Each canonical cut's deficit by the per-cut rule without product
    qubits: every Gram of the walk through _gram_deficit's Frobenius test,
    then the floored eigenvalue path on the Grams that read as pure."""
    deficits = [0.0] * 2 ** (psi.n_qubits - 1)
    for bits, gram in concurrence._lattice_grams(psi):
        t = float(gram.trace().real)
        d = t * t - float(np.vdot(gram, gram).real)
        if d < PURITY_TOL * t * t:
            s2 = concurrence._floored_spectrum(gram)
            d = float(np.dot(s2, float(s2.sum()) - s2))
        deficits[bits] = d
    return deficits


def haar_times_product(n, haar_qubits, seed):
    """A Haar factor on haar_qubits times one Haar qubit on each other qubit."""
    blocks = [list(haar_qubits)] + [[q] for q in range(1, n + 1) if q not in haar_qubits]
    return random_product_pure(SamplerConfig(n, seed=seed, count=1), blocks)[0]


def top_weight_gap(psi, bits):
    """Tr G - lambda_max(G) for the Gram of the qubits in mask bits."""
    w = np.linalg.eigvalsh(concurrence._side_gram(psi, bits))
    return float(w.sum() - w[-1])


class TestProductQubits:
    """A cut that reads as pure and has a side inside the mask of product
    qubits reads 0.0 without an eigensolve; the rule without product qubits,
    reference_deficits, is the reference on every cut."""

    @staticmethod
    def assert_same_bits(psi):
        deficits = concurrence._lattice_deficits(psi)
        assert deficits == reference_deficits(psi)
        prof = cut_profile(psi)
        for bits, d in enumerate(deficits[1:], start=1):
            assert prof.per_subset[bits] == max(2.0 * d, 0.0)

    @staticmethod
    def assert_lower_only_where_covered(psi):
        """Where the reference's floor decision is a matter of rounding, a
        covered cut may read 0.0 where the reference kept a deficit below
        2 |T| EIGEN_DUST, plus the few eps to which a one-qubit eigensolve
        resolves each weight; every other cut has the reference's bits."""
        n = psi.n_qubits
        full, product = 2**n - 1, concurrence._product_qubits(psi)
        got, want = concurrence._lattice_deficits(psi), reference_deficits(psi)
        for bits in range(1, 2 ** (n - 1)):
            sides = [side for side in (bits, full ^ bits) if side | product == product]
            if sides and got[bits] != want[bits]:
                assert got[bits] == 0.0
                rounding = 8 * np.finfo(float).eps
                assert want[bits] <= 2 * min(s.bit_count() for s in sides) * (EIGEN_DUST + rounding)
            else:
                assert got[bits] == want[bits]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_product_states(self, n):
        singles = [[q] for q in range(1, n + 1)]
        psi = random_product_pure(SamplerConfig(n, seed=1800 + n, count=1), singles)[0]
        self.assert_same_bits(psi)
        assert pure_concurrence(psi) == 0.0

    @pytest.mark.parametrize("n", [2, 5, 8, 11])
    @pytest.mark.parametrize("weight", [1e-17, 1e-16, 1e-15, 1e-14, 2e-14, 1e-13])
    def test_near_product_around_the_dust_floor(self, n, weight):
        # Every cut's weights are 1-w and w, so every qubit is product below
        # EIGEN_DUST (1.42e-14) and none is above it.
        self.assert_same_bits(near_product(n, weight, seed=1850 + n))

    @pytest.mark.parametrize("n", [2, 5, 8, 11])
    @pytest.mark.parametrize("weight", [1.4e-14, 1.45e-14])
    def test_near_product_within_rounding_of_the_dust_floor(self, n, weight):
        # Within a few percent of EIGEN_DUST, rounding decides, Gram by Gram,
        # on which side of the floor w falls: the mask's one-qubit Grams from
        # the vector and the walk's traced Grams may decide apart.
        for seed in range(1860, 1870):
            self.assert_lower_only_where_covered(near_product(n, weight, seed=seed + n))

    @pytest.mark.parametrize("haar_qubits", [(5, 6, 7, 8), (1, 2, 3, 4, 5), (1, 3, 5, 7)],
                             ids=["product first", "product last", "interleaved"])
    def test_haar_times_product(self, monkeypatch, haar_qubits):
        psi = haar_times_product(8, haar_qubits, seed=1900 + len(haar_qubits))
        self.assert_same_bits(psi)
        self.assert_same_bits(lu_rotated(psi, 1910 + haar_qubits[1]))
        # A cut reads as pure only with the Haar factor on one side, so the
        # other side, or the complement of the canonical one, is covered.
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or eigvalsh(m))
        concurrence._lattice_deficits(psi)
        assert shapes == [(8, 2, 2)]

    def test_concentrated_dust_reads_lower(self):
        # sqrt(1-e)|0>|0000000> + sqrt(e)|1>|W_7>: each of qubits 2..8 has
        # weight e/7 below the dust floor, so they are product, but the cut
        # 1|2..8 has weights 1-e and e with e above it.  The eigen path keeps
        # that cut's deficit 2e(1-e); the shortcut reads 0.0, lower.  Every
        # cut has a side inside qubits 2..8, so every cut reads 0.0.
        e = 5e-14
        amps = np.zeros(2**8, dtype=complex)
        amps[0] = math.sqrt(1 - e)
        for q in range(7):
            amps[1 << 7 | 1 << q] = math.sqrt(e / 7)
        psi = PureState(8, amps)
        assert concurrence._product_qubits(psi) == 0b1111111
        got, want = concurrence._lattice_deficits(psi), reference_deficits(psi)
        assert got == [0.0] * 2**7
        assert 0.0 < want[0b1111111] <= 2 * 7 * EIGEN_DUST
        assert min(want) >= 0.0

    def test_fully_product_state_takes_one_stacked_eigensolve(self, monkeypatch):
        eigvalsh, lattice_grams = np.linalg.eigvalsh, concurrence._lattice_grams
        shapes, yielded = [], []

        def counting_eigvalsh(m):
            shapes.append(m.shape)
            return eigvalsh(m)

        def counting_grams(psi):
            for item in lattice_grams(psi):
                yielded.append(item[0])
                yield item

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(concurrence, "_lattice_grams", counting_grams)
        singles = [[q] for q in range(1, 9)]
        assert pure_concurrence(random_product_pure(SamplerConfig(8, seed=1950, count=1), singles)[0]) == 0.0
        assert shapes == [(8, 2, 2)]
        assert len(yielded) <= 1
        shapes.clear()
        pure_concurrence(haar_random_pure(SamplerConfig(8, seed=1951, count=1))[0])
        assert shapes == []

    def test_fourteen_qubit_product_state_reads_zero(self):
        singles = [[q] for q in range(1, 15)]
        psi = random_product_pure(SamplerConfig(14, seed=1960, count=1), singles)[0]
        assert pure_concurrence(psi) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_union_bound_over_nearly_product_qubits(self, seed):
        # Haar on the other qubits, 1-3 product qubits, then a perturbation
        # of weight 1e-15 .. 1e-3: for every side T,
        # t - lambda_max(G_T) <= sum_{q in T} (t - lambda_max(G_q)).
        n = 6
        rng = np.random.default_rng(1970 + seed)
        product = sorted(rng.choice(np.arange(1, n + 1), size=1 + seed % 3, replace=False).tolist())
        base = haar_times_product(n, [q for q in range(1, n + 1) if q not in product], 1980 + seed)
        weight = 10.0 ** rng.uniform(-15, -3)
        kick = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps = base.amplitudes + math.sqrt(weight) * kick / np.linalg.norm(kick)
        psi = PureState(n, amps / np.linalg.norm(amps))
        single = [top_weight_gap(psi, 1 << (n - q)) for q in range(1, n + 1)]
        for bits in range(1, 2**n - 1):
            bound = sum(single[q - 1] for q in range(1, n + 1) if bits >> (n - q) & 1)
            assert top_weight_gap(psi, bits) <= bound + 1e-14


class TestLatticeGrams:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_each_canonical_cut_once_with_its_gram(self, n):
        psi = haar_random_pure(SamplerConfig(n, seed=1700 + n, count=1))[0]
        seen = []
        for bits, gram in concurrence._lattice_grams(psi):
            seen.append(bits)
            want = concurrence._cut_gram(psi, SubsetMask(bits, n))
            assert gram.shape == want.shape
            assert np.max(np.abs(gram - want)) <= 1e-13
        assert sorted(seen) == list(range(1, 2 ** (n - 1)))

    def test_purity_sum_folds_the_walk_without_an_eigensolve(self, monkeypatch):
        # Every cut of a product state reads as pure, where pure_concurrence
        # takes the mask of product qubits; the purity sum needs no
        # eigensolve.  The Grams built from the vector are the sides of
        # _top_cover, once each.
        def no_eigensolve(m):
            raise AssertionError("eigensolve in purity_sum")

        grams, side_gram = [], concurrence._side_gram

        def counting_gram(psi, bits):
            grams.append(bits)
            return side_gram(psi, bits)

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        monkeypatch.setattr(concurrence, "_side_gram", counting_gram)
        for n in (5, 6, 8):
            singles = [[q] for q in range(1, n + 1)]
            for psi in (random_product_pure(SamplerConfig(n, seed=1750 + n, count=1), singles)[0],
                        haar_random_pure(SamplerConfig(n, seed=1760 + n, count=1))[0]):
                grams.clear()
                total = purity_sum(psi)
                assert total == pytest.approx(brute_force_purity_sum(psi), rel=1e-13, abs=0)
                assert grams == [side for side, _ in concurrence._top_cover(n)]
        assert purity_sum(PureState(1, np.array([1.0, 0.0], dtype=complex))) == 0.0


class TestTopCover:
    """_top_cover(n): the sides whose Grams the walk builds from the vector,
    each scaffold with the tops it covers, each other top alone."""

    @staticmethod
    def tops(n):
        # the sides of floor(n/2) qubits without qubit 1 and of
        # ceil(n/2) - 1 qubits with it, as masks (qubit 1 = highest bit)
        top = 1 << (n - 1)
        return sorted(bits for bits in range(1, 2**n - 1)
                      if bits.bit_count() == (n // 2 if not bits & top else (n + 1) // 2 - 1))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_every_top_covered_exactly_once(self, n):
        covered = [t for _, tops in concurrence._top_cover(n) for t in tops]
        assert sorted(covered) == self.tops(n)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_scaffolds_hold_their_tops(self, n):
        top = 1 << (n - 1)
        for side, tops in concurrence._top_cover(n):
            if tops == (side,):
                continue
            assert len(tops) >= concurrence.SCAFFOLD_MIN_TOPS == 3
            for t in tops:
                assert t & side == t
                assert side.bit_count() == t.bit_count() + 1
                assert side & top == t & top

    @pytest.mark.parametrize("n", range(2, 15))
    def test_cover_is_deterministic(self, n):
        assert concurrence._top_cover.__wrapped__(n) == concurrence._top_cover(n)

    def test_scaffolds_cover_most_tops_from_eight_qubits(self):
        # Every top at n = 8 sits under a scaffold; at n = 12 the vector
        # builds 204 Grams where one per top would be 792.
        assert all(tops != (side,) for side, tops in concurrence._top_cover(8))
        assert len(concurrence._top_cover(12)) == 204
        assert len(self.tops(12)) == 792


class TestLatticeWalkMemory:
    def test_walk_keeps_no_whole_level(self):
        # A whole level of 7-qubit Grams at 14 qubits is 1716 Grams, each the
        # size of the state vector; the walk's stack holds a few per level.
        psi = haar_random_pure(SamplerConfig(14, seed=1600, count=1))[0]
        tracemalloc.start()
        try:
            pure_concurrence(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * psi.amplitudes.nbytes
