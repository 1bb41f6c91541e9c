import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entbound.errors import (
    DimensionOverflow,
    ExcitationOutOfRange,
    InvariantViolation,
    ParameterOutOfRange,
    ParseError,
    TooFewQubits,
)
from entbound.states import (
    DensityMatrix,
    PureState,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    load_density_matrix,
    w_state,
    white_noise_mix,
)
from entbound.linalg import SubsetMask, partial_trace


class TestConstructors:
    def test_w2_is_bell_like(self):
        psi = w_state(2)
        assert np.allclose(psi.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_w4_amplitudes(self):
        psi = w_state(4)
        assert np.allclose(np.nonzero(psi.amplitudes)[0], [1, 2, 4, 8])
        assert np.allclose(psi.amplitudes[[1, 2, 4, 8]], 0.5)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-13)

    def test_dicke_4_2(self):
        psi = dicke_state(4, 2)
        assert np.allclose(np.nonzero(psi.amplitudes)[0], [3, 5, 6, 9, 10, 12])
        assert np.allclose(psi.amplitudes[[3, 5, 6, 9, 10, 12]], 1 / math.sqrt(6))

    def test_dicke_3_2(self):
        psi = dicke_state(3, 2)
        assert np.allclose(np.nonzero(psi.amplitudes)[0], [3, 5, 6])
        assert np.allclose(psi.amplitudes[[3, 5, 6]], 1 / math.sqrt(3))

    def test_dicke_one_excitation_is_w(self):
        for n in (2, 3, 4, 5):
            assert np.array_equal(dicke_state(n, 1).amplitudes, w_state(n).amplitudes)

    def test_dicke_bytes_equal_the_popcount_comprehension(self):
        for n in range(2, 15):
            for k in range(1, n):
                idx = [i for i in range(2**n) if bin(i).count("1") == k]
                amps = np.zeros(2**n, dtype=complex)
                amps[idx] = 1.0 / math.sqrt(len(idx))
                assert dicke_state(n, k).amplitudes.tobytes() == amps.tobytes(), (n, k)

    def test_ghz(self):
        psi = ghz_state(4)
        assert psi.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert psi.amplitudes[15] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(psi.amplitudes) == 2

    def test_ghz_single_qubit_marginal_maximally_mixed(self):
        for n in (2, 3, 5):
            rho = ghz_state(n).density_matrix()
            r1 = partial_trace(rho.matrix, SubsetMask.from_qubits([1], n))
            assert np.max(np.abs(r1 - np.eye(2) / 2)) < 1e-12

    def test_benchmark_states(self):
        e3 = example3_state()
        assert np.allclose(np.nonzero(e3.amplitudes)[0], [3, 5, 6, 10])
        e4 = example4_state()
        assert np.allclose(np.nonzero(e4.amplitudes)[0], [0, 3, 12, 15])
        assert np.allclose(e3.amplitudes[[3, 5, 6, 10]], 0.5)
        assert np.allclose(e4.amplitudes[[0, 3, 12, 15]], 0.5)

    def test_constructor_errors(self):
        with pytest.raises(TooFewQubits):
            w_state(1)
        with pytest.raises(TooFewQubits):
            ghz_state(1)
        with pytest.raises(TooFewQubits, match="Dicke state needs at least 2 qubits"):
            dicke_state(1, 1)
        with pytest.raises(ExcitationOutOfRange):
            dicke_state(4, 0)
        with pytest.raises(ExcitationOutOfRange):
            dicke_state(4, 4)


class TestInvariants:
    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(InvariantViolation):
            PureState(1, np.array([1.0, 1.0]))

    def test_pure_state_rejects_bad_length(self):
        with pytest.raises(InvariantViolation):
            PureState(2, np.array([1.0, 0.0]))

    def test_density_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-3
        with pytest.raises(InvariantViolation, match="Hermiticity"):
            DensityMatrix(1, m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation, match="trace"):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pure_state_rejects_non_finite(self, bad):
        with pytest.raises(InvariantViolation, match="non-finite"):
            PureState(1, np.array([bad, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_density_rejects_non_finite(self, bad, where):
        m = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        m[where] = bad
        m[where[::-1]] = np.conj(bad)
        with pytest.raises(InvariantViolation, match="non-finite"):
            DensityMatrix(1, m)
        with pytest.raises(InvariantViolation, match="non-finite"):
            DensityMatrix.from_array(m, clamp=True)

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix(0, np.eye(1, dtype=complex)),
        lambda: DensityMatrix.from_array(np.eye(1)),
        lambda: DensityMatrix.from_array(np.eye(1), clamp=True),
    ], ids=["constructor", "from_array", "clamp"])
    def test_density_needs_a_qubit(self, build):
        with pytest.raises(InvariantViolation, match="^n_qubits must be positive$"):
            build()

    def test_entry_parts_above_2_are_refused(self):
        m = np.array([[0.5, 3.0j], [-3.0j, 0.5]])
        for build in (lambda: DensityMatrix(1, m),
                      lambda: DensityMatrix.from_array(m, clamp=True),
                      lambda: PureState(1, np.array([3.0, 0.0]))):
            with pytest.raises(InvariantViolation, match="entry part 3.000e\\+00 above 2"):
                build()

    def test_stores_the_exact_hermitian_part(self, rng):
        from conftest import random_density

        m = random_density(rng, 3).matrix + 1e-11j * rng.standard_normal((8, 8))
        stored = DensityMatrix(3, m).matrix
        assert np.array_equal(stored, (m + m.conj().T) / 2)
        assert np.array_equal(stored, stored.conj().T)
        assert np.array_equal(DensityMatrix(3, stored).matrix, stored)
        with pytest.raises(ValueError):
            stored[0, 0] = 0.0

    def test_clamp_repairs_small_negative(self):
        m = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
        rho = DensityMatrix.from_array(m, clamp=True)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        assert float(np.linalg.eigvalsh(rho.matrix).min()) >= 0.0

    def test_clamp_rejects_large_negative(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix.from_array(np.diag([1.5, -0.5]).astype(complex), clamp=True)

    def test_amplitudes_read_only(self):
        psi = ghz_state(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    @pytest.mark.parametrize("build", [
        lambda psi: psi,
        lambda psi: white_noise_mix(psi, 0.5),
        lambda psi: psi.density_matrix(),
    ], ids=["pure", "mixed", "derived"])
    def test_states_compare_and_hash_by_identity(self, build):
        # Amplitudes and matrices are arrays, which have no truth value, so
        # a state equals only itself: equal arrays do not make equal states.
        a, b, twin = build(ghz_state(3)), build(w_state(3)), build(ghz_state(3))
        assert a == a and not a != a
        assert a != b and not a == b
        assert a != twin
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1
        assert len({a, b, twin, a}) == 3


class TestWhiteNoiseMix:
    def test_endpoints(self):
        psi = w_state(4)
        assert np.allclose(white_noise_mix(psi, 0.0).matrix, np.eye(16) / 16)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        assert np.allclose(white_noise_mix(psi, 1.0).matrix, proj)

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            white_noise_mix(w_state(2), 1.5)
        with pytest.raises(ParameterOutOfRange):
            white_noise_mix(w_state(2), -0.1)

    @given(
        x1=st.floats(0.0, 1.0, allow_nan=False),
        x2=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_affine_in_parameter(self, x1, x2):
        psi = ghz_state(3)
        mid = white_noise_mix(psi, (x1 + x2) / 2).matrix
        avg = (white_noise_mix(psi, x1).matrix + white_noise_mix(psi, x2).matrix) / 2
        assert np.max(np.abs(mid - avg)) < 1e-14


class TestSizeCaps:
    @pytest.mark.parametrize("build", [
        lambda: w_state(15), lambda: dicke_state(30, 15), lambda: ghz_state(40),
    ])
    def test_pure_constructors_refuse_above_the_pure_cap(self, build):
        with pytest.raises(DimensionOverflow, match="pure-state cap"):
            build()

    def test_pure_constructors_reach_the_pure_cap(self):
        assert w_state(14).amplitudes.shape == (2**14,)

    def test_dense_matrices_refuse_above_the_dense_cap(self):
        psi = ghz_state(13)
        with pytest.raises(DimensionOverflow, match="dense-matrix cap"):
            white_noise_mix(psi, 0.5)
        with pytest.raises(DimensionOverflow, match="dense-matrix cap"):
            psi.density_matrix()


class TestMatrixFiles:
    def _json_text(self, rho):
        d = rho.shape[0]
        n = d.bit_length() - 1
        entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
        return json.dumps({"n_qubits": n, "entries": entries})

    def test_json_roundtrip(self, tmp_path):
        rho = white_noise_mix(ghz_state(2), 0.7).matrix
        path = tmp_path / "state.json"
        path.write_text(self._json_text(rho))
        loaded = load_density_matrix(path)
        assert loaded.n_qubits == 2
        assert np.max(np.abs(loaded.matrix - rho)) == 0.0

    def test_json_from_stream(self):
        rho = white_noise_mix(w_state(2), 0.4).matrix
        loaded = load_density_matrix(io.BytesIO(self._json_text(rho).encode()))
        assert np.max(np.abs(loaded.matrix - rho)) == 0.0

    def test_csv_roundtrip(self, tmp_path):
        rho = white_noise_mix(ghz_state(2), 0.5).matrix
        lines = ["# n_qubits = 2"]
        for i in range(4):
            for j in range(4):
                z = rho[i, j]
                if z != 0:
                    lines.append(f"{i},{j},{float(z.real)!r},{float(z.imag)!r}")
        path = tmp_path / "state.csv"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_density_matrix(path)
        assert np.max(np.abs(loaded.matrix - rho)) == 0.0

    def test_csv_inferred_dimension(self):
        text = "0,0,0.5,0\n3,3,0.5,0\n0,3,0.5,0\n3,0,0.5,0\n"
        loaded = load_density_matrix(io.StringIO(text))
        assert loaded.n_qubits == 2

    @pytest.mark.parametrize("text, message", [
        ("# n_qubits = 1\n0,0,0.5,0\n1,1,0.5,0\n0,0,0.7,0\n1,1,0.3,0\n",
         "line 4: entry (0,0) repeats line 2"),
        ("0,1,0,0\n\n# note\n1,1,1,0\n1,1,0,0\n1,1,0,0\n0,0,0,0\n0,1,0,0\n",
         "line 5: entry (1,1) repeats line 4"),
        ("1,0,0.5,0\n0,0,0.5,0\n1,1,0.5,0\n0,0,nan,0\n", "line 4: entry (0,0) repeats line 2"),
    ])
    def test_csv_repeated_entry_is_refused(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_density_matrix(io.StringIO(text))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            load_density_matrix(io.StringIO(""))
        with pytest.raises(ParseError):
            load_density_matrix(io.StringIO('{"entries": []}'))
        with pytest.raises(ParseError):
            load_density_matrix(io.StringIO("0,0,1.0\n"))

    def test_invalid_matrix_reports_invariant(self):
        text = "# n_qubits = 1\n0,0,1.0,0\n1,1,1.0,0\n"
        with pytest.raises(InvariantViolation, match="trace"):
            load_density_matrix(io.StringIO(text))


class TestDerivedStatesKeepInvariants:
    """States built without the validating constructor must still pass it."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_white_noise_mixtures_of_haar_states(self, n):
        from oracle import SamplerConfig, haar_random_pure

        for psi in haar_random_pure(SamplerConfig(n, seed=100 + n, count=3)):
            for x in np.linspace(0.0, 1.0, 11):
                rho = white_noise_mix(psi, float(x))
                DensityMatrix(n, rho.matrix)
            DensityMatrix(n, psi.density_matrix().matrix)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pair_marginals_of_random_mixed_states(self, rng, n):
        from conftest import random_density

        for rank in (1, 2, 2**n):
            rho = random_density(rng, n, rank)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    DensityMatrix(2, rho.reduced([i, j]).matrix)

    def test_derived_matrices_are_read_only(self):
        rho = white_noise_mix(ghz_state(3), 0.5)
        for m in (rho.matrix, rho.reduced([1, 2]).matrix, ghz_state(2).density_matrix().matrix):
            with pytest.raises(ValueError):
                m[0, 0] = 0.0


def test_clamp_refuses_a_zero_trace_before_renormalizing():
    with pytest.raises(InvariantViolation, match=r"^trace 0j deviates from 1 by 1\.000e\+00$"):
        DensityMatrix.from_array(np.zeros((4, 4)), clamp=True)
