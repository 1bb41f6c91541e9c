import tracemalloc

import numpy as np
import pytest

from entbound import linalg
from entbound.errors import (
    DimensionMismatch,
    DimensionOverflow,
    EmptySubset,
    NotHermitian,
    NotPSD,
)
from entbound.linalg import (
    SIGMA_Y,
    SubsetMask,
    hermitian_eigensystem,
    partial_trace,
    psd_sqrt,
    purity,
    require_square,
)

from conftest import random_density, random_pure


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestEigensystem:
    def test_identity(self):
        w, _ = hermitian_eigensystem(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])

    def test_sigma_y_spectrum(self):
        w, _ = hermitian_eigensystem(SIGMA_Y)
        assert np.allclose(w, [1.0, -1.0])

    def test_reconstruction_random_8x8(self, rng):
        h = random_hermitian(rng, 8)
        w, v = hermitian_eigensystem(h)
        assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-9
        assert np.max(np.abs(v @ v.conj().T - np.eye(8))) < 1e-9
        assert list(w) == sorted(w, reverse=True)

    def test_eigenvalue_sum_is_trace(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 6)
            w, _ = hermitian_eigensystem(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_deterministic_for_identical_input_bits(self, rng):
        h = random_hermitian(rng, 8)
        w1, v1 = hermitian_eigensystem(h)
        w2, v2 = hermitian_eigensystem(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestPsdSqrt:
    def test_diagonal(self):
        r = psd_sqrt(np.diag([4.0, 1.0]).astype(complex))
        assert np.allclose(r, np.diag([2.0, 1.0]))

    def test_zero(self):
        assert np.allclose(psd_sqrt(np.zeros((3, 3), dtype=complex)), 0.0)

    def test_random_psd_roundtrip(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a.conj().T @ a
        r = psd_sqrt(m)
        assert np.max(np.abs(r @ r - m)) < 1e-8
        assert np.max(np.abs(r - r.conj().T)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


class TestCaps:
    def test_require_within_cap(self):
        linalg.require_within_cap(12, linalg.DENSE_DIM_CAP, "dense-matrix")
        linalg.require_within_cap(14, linalg.PURE_DIM_CAP, "pure-state")
        with pytest.raises(DimensionOverflow, match="13 qubits exceeds the dense-matrix cap"):
            linalg.require_within_cap(13, linalg.DENSE_DIM_CAP, "dense-matrix")
        with pytest.raises(DimensionOverflow, match="pure-state cap of 14 qubits"):
            linalg.require_within_cap(10**9, linalg.PURE_DIM_CAP, "pure-state")


class TestSubsetMask:
    def test_from_qubits_msb_convention(self):
        m = SubsetMask.from_qubits([1], 4)
        assert m.bits == 0b1000
        assert m.qubits == (1,)
        assert m.complement().qubits == (2, 3, 4)

    def test_size(self):
        assert SubsetMask.from_qubits([2, 4], 4).size == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            SubsetMask(16, 4)
        with pytest.raises(DimensionMismatch):
            SubsetMask.from_qubits([5], 4)


class TestPartialTrace:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        r = partial_trace(rho, SubsetMask.from_qubits([1], 2))
        assert np.allclose(r, [[1, 0], [0, 0]])

    def test_bell_marginal(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        r = partial_trace(np.outer(psi, psi.conj()), SubsetMask.from_qubits([1], 2))
        assert np.allclose(r, np.eye(2) / 2)

    def test_w4_single_qubit_marginal(self):
        # Oracle: brute-force index summation over the 16-dim state.
        amps = np.zeros(16, dtype=complex)
        amps[[1, 2, 4, 8]] = 0.5
        rho = np.outer(amps, amps.conj())
        expected = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for rest in range(8):  # qubits 2..4 on the low bits
                    expected[a, b] += rho[(a << 3) | rest, (b << 3) | rest]
        assert np.allclose(expected, np.diag([3 / 4, 1 / 4]))
        got = partial_trace(rho, SubsetMask.from_qubits([1], 4))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_composition(self, rng):
        for _ in range(5):
            rho = random_density(rng, 4).matrix
            step1 = partial_trace(rho, SubsetMask.from_qubits([2, 3, 4], 4))
            step2 = partial_trace(step1, SubsetMask.from_qubits([1, 3], 3))
            direct = partial_trace(rho, SubsetMask.from_qubits([2, 4], 4))
            assert np.max(np.abs(step2 - direct)) < 1e-12
            assert abs(np.trace(step2) - np.trace(rho)) < 1e-12

    def test_preserves_trace_and_hermiticity(self, rng):
        rho = random_density(rng, 3).matrix
        r = partial_trace(rho, SubsetMask.from_qubits([2], 3))
        assert abs(np.trace(r) - 1.0) < 1e-12
        assert np.max(np.abs(r - r.conj().T)) < 1e-12

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            partial_trace(np.eye(4, dtype=complex) / 4, SubsetMask(0, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4, dtype=complex) / 4, SubsetMask.from_qubits([1], 3))


def per_qubit_partial_trace(rho: np.ndarray, keep: SubsetMask) -> np.ndarray:
    """Reference partial trace: one np.trace per traced qubit, lowest label first."""
    rho = require_square(rho)
    n = keep.n_qubits
    kept = keep.qubits
    t = rho.reshape((2,) * (2 * n))
    remaining = list(range(1, n + 1))
    for q in range(1, n + 1):
        if q in kept:
            continue
        a = remaining.index(q)
        m = len(remaining)
        t = np.trace(t, axis1=a, axis2=m + a)
        remaining.remove(q)
    d = 2 ** len(remaining)
    return t.reshape(d, d)


class TestPartialTraceAgainstReference:
    def test_bit_identical_on_every_subset(self):
        rng = np.random.default_rng(7)
        for n in range(1, 8):
            rho = random_density(rng, n).matrix
            for bits in range(1, 2**n):
                keep = SubsetMask(bits, n)
                got = partial_trace(rho, keep)
                assert np.array_equal(got, per_qubit_partial_trace(rho, keep)), (n, bits)

    def test_pair_marginal_allocates_far_less_than_the_matrix(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((2**10, 8)) + 1j * rng.standard_normal((2**10, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        keep = SubsetMask.from_qubits([1, 10], 10)
        tracemalloc.start()
        try:
            pair = partial_trace(rho, keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pair.shape == (4, 4)
        assert peak < rho.nbytes / 16


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_pure_projector(self, rng):
        psi = random_pure(rng, 2).amplitudes
        assert purity(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert purity(np.diag([0.75, 0.25]).astype(complex)) == pytest.approx(0.625, abs=1e-12)

    def test_density_matrix_range(self, rng):
        for n in (1, 2, 3):
            rho = random_density(rng, n).matrix
            p = purity(rho)
            assert 1 / 2**n - 1e-12 <= p <= 1.0 + 1e-12

    def test_schmidt_symmetry(self, rng):
        # Purity of a pure state's marginal matches its complement's.
        for n, bits in [(3, 0b100), (4, 0b0110), (5, 0b10101)]:
            psi = random_pure(rng, n)
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            keep = SubsetMask(bits, n)
            p1 = purity(partial_trace(rho, keep))
            p2 = purity(partial_trace(rho, keep.complement()))
            assert abs(p1 - p2) < 1e-10


def test_tolerances_record():
    assert linalg.HERM_TOL == 1e-10
    assert linalg.PSD_TOL == 1e-10
    assert linalg.TRACE_TOL == 1e-10
    assert linalg.NORM_TOL == 1e-12
    assert linalg.CLAMP_FLOOR == -1e-8
    assert linalg.ZERO_DUST == 1e-10
    assert linalg.EIGEN_DUST == 64 * np.finfo(float).eps
    assert linalg.FAMILY_MATCH_TOL == 1e-10
    assert linalg.GHZ_BASE_TOL == 1e-12
    assert linalg.PURITY_TOL == 1e-10
    assert not hasattr(linalg, "MONOTONICITY_SLACK")
    assert linalg.BISECTION_TOL == 1e-6
    assert linalg.BISECTION_STOP == 1e-9
    assert linalg.REPORT_REL_TOL == 1e-12
    assert not hasattr(linalg, "Tolerances") and not hasattr(linalg, "TOL")
