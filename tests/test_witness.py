import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entbound import bounds as bounds_mod
from entbound.bounds import ghz_noise_exact_concurrence
from entbound.concurrence import pairwise_table, pure_concurrence
from entbound.errors import (
    FamilyMismatch,
    NonMonotoneFamily,
    ParameterOutOfRange,
)
from oracle import (
    SamplerConfig,
    apply_local_unitaries,
    conjugate_by_local_unitaries,
    haar_random_pure,
    random_product_pure,
    random_single_qubit_unitaries,
)
from entbound.linalg import DETECTION_MARGIN, FAMILY_MATCH_TOL
from entbound.states import (
    DensityMatrix,
    NoisyFamily,
    PureState,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
    white_noise_mix,
)
from entbound.witness import (
    THEOREM_SOURCES,
    Source,
    _ghz_visibility,
    WitnessVerdict,
    applicable_sources,
    certified_bound,
    detect_k_nonseparability,
    detection_threshold,
    exceeds,
    k_nonsep_threshold,
    require_source,
    verdict,
)


def k2_threshold_reference(n: int, d: int) -> float:
    """Independently coded k=2 (genuine multipartite) threshold."""
    if n % 2 == 1:
        tail = 2 * sum(math.comb(n, i) / d**i for i in range(1, (n - 1) // 2 + 1))
    else:
        tail = 2 * sum(math.comb(n, i) / d**i for i in range(1, n // 2))
        tail += math.comb(n, n // 2) / d ** (n // 2)
    return 2 ** (1 - n / 2) * math.sqrt(2**n - 4 + 2 / d - tail)


class TestThreshold:
    def test_benchmark_value(self):
        assert k_nonsep_threshold(4, 2, 3) == pytest.approx(math.sqrt(22) / 4, abs=1e-13)

    def test_two_qubits_degenerate(self):
        assert k_nonsep_threshold(2, 2, 2) == 0.0

    def test_three_qubit_biseparability_threshold(self):
        assert k_nonsep_threshold(3, 2, 2) == pytest.approx(1.0, abs=1e-12)
        # GHZ_3 exceeds it, so the pure GHZ_3 state is certified genuinely
        # multipartite entangled.
        assert pure_concurrence(ghz_state(3)) == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert pure_concurrence(ghz_state(3)) > k_nonsep_threshold(3, 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), d=st.integers(2, 4))
    def test_nonincreasing_in_k(self, n, d):
        values = [k_nonsep_threshold(n, d, k) for k in range(2, n + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(n=st.integers(2, 10), d=st.integers(2, 5))
    def test_k2_specialization(self, n, d):
        assert k_nonsep_threshold(n, d, 2) == pytest.approx(
            k2_threshold_reference(n, d), abs=1e-12
        )

    def test_pure_state_block_refinement_tightens(self):
        base = k_nonsep_threshold(8, 2, 2, min_block_size=1)
        for a in (2, 3, 4):
            assert k_nonsep_threshold(8, 2, 2, min_block_size=a) <= base + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            k_nonsep_threshold(4, 2, 1)
        with pytest.raises(ParameterOutOfRange):
            k_nonsep_threshold(4, 2, 5)
        with pytest.raises(ParameterOutOfRange):
            k_nonsep_threshold(4, 1, 2)
        with pytest.raises(ParameterOutOfRange):
            k_nonsep_threshold(4, 2, 3, min_block_size=2)


class TestSoundnessSampling:
    def test_fully_product_states_below_threshold(self):
        for n in (3, 4, 5):
            thr = k_nonsep_threshold(n, 2, n)
            cfg = SamplerConfig(n, seed=900 + n, count=50)
            for psi in random_product_pure(cfg, [[q] for q in range(1, n + 1)]):
                assert pure_concurrence(psi) <= thr + 1e-10

    def test_bipartite_product_states_below_k2_threshold(self):
        thr = k_nonsep_threshold(4, 2, 2)
        partitions = [[[1], [2, 3, 4]], [[1, 2], [3, 4]], [[1, 3], [2, 4]],
                      [[1, 2, 3], [4]], [[1, 4], [2, 3]]]
        for i, partition in enumerate(partitions):
            cfg = SamplerConfig(4, seed=950 + i, count=20)
            for psi in random_product_pure(cfg, partition):
                assert pure_concurrence(psi) <= thr + 1e-10


class TestDetect:
    def test_bell_pair_family_crossing_points(self):
        family = NoisyFamily(example4_state())
        above = detect_k_nonseparability(family.state_at(0.93), 3, Source.THEOREM1)
        below = detect_k_nonseparability(family.state_at(0.92), 3, Source.THEOREM1)
        assert above.detected and not below.detected
        assert above.threshold == pytest.approx(math.sqrt(22) / 4, abs=1e-13)

    def test_ghz_family_crossing_points(self):
        family = NoisyFamily(ghz_state(4))
        above = detect_k_nonseparability(family.state_at(0.90), 3, Source.GHZ_EXACT)
        below = detect_k_nonseparability(family.state_at(0.89), 3, Source.GHZ_EXACT)
        assert above.detected and not below.detected

    def test_maximally_mixed_never_detected(self):
        rho = DensityMatrix(4, np.eye(16, dtype=complex) / 16)
        for k in (2, 3, 4):
            v = detect_k_nonseparability(rho, k, Source.THEOREM1)
            assert not v.detected
            assert v.certified_lower_bound_on_C == 0.0

    def test_pure_exact_source(self):
        rho = ghz_state(4).density_matrix()
        v = detect_k_nonseparability(rho, 4, Source.PURE_EXACT)
        assert v.detected
        assert v.certified_lower_bound_on_C == pytest.approx(
            pure_concurrence(ghz_state(4)), abs=1e-10
        )

    def test_pure_exact_rejects_mixed(self):
        rho = white_noise_mix(ghz_state(4), 0.5)
        with pytest.raises(FamilyMismatch):
            detect_k_nonseparability(rho, 3, Source.PURE_EXACT)

    def test_ghz_exact_rejects_other_states(self):
        rho = white_noise_mix(w_state(4), 0.9)
        with pytest.raises(FamilyMismatch):
            detect_k_nonseparability(rho, 3, Source.GHZ_EXACT)

    def test_user_supplied_bound(self):
        rho = DensityMatrix(4, np.eye(16, dtype=complex) / 16)
        v = verdict(4, 3, Source.USER_SUPPLIED, 1.2)
        assert v.detected
        with pytest.raises(ParameterOutOfRange):
            detect_k_nonseparability(rho, 3, Source.USER_SUPPLIED)

    def test_verdict_invariant_enforced(self):
        with pytest.raises(ParameterOutOfRange):
            WitnessVerdict(4, 2, 3, 1.0, 2.0, Source.THEOREM1, detected=False)
        with pytest.raises(ParameterOutOfRange):
            WitnessVerdict(4, 2, 5, 1.0, 0.5, Source.THEOREM1, detected=False)

    def test_detection_invariant_under_local_unitaries(self, rng):
        family = NoisyFamily(example4_state())
        for t in (0.93, 0.92):
            rho = family.state_at(t)
            us = random_single_qubit_unitaries(rng, 4)
            rotated = conjugate_by_local_unitaries(rho, us)
            v0 = detect_k_nonseparability(rho, 3, Source.THEOREM1)
            v1 = detect_k_nonseparability(rotated, 3, Source.THEOREM1)
            assert v0.detected == v1.detected


class TestDetectionThreshold:
    def test_bell_pair_family_k3(self):
        x = detection_threshold(NoisyFamily(example4_state()), 3, Source.THEOREM1)
        assert x == pytest.approx(0.9243, abs=1e-4)

    def test_ghz_exact_k3(self):
        x = detection_threshold(NoisyFamily(ghz_state(4)), 3, Source.GHZ_EXACT)
        assert x == pytest.approx(0.8991, abs=1e-4)

    def test_entanglement_mode(self):
        x = detection_threshold(NoisyFamily(example4_state()), None, Source.THEOREM1)
        assert x == pytest.approx(1 / 3, abs=1e-4)

    def test_no_crossing_sentinel(self):
        # k=2 threshold (1.369) lies above the family's maximum bound (1.323).
        assert detection_threshold(NoisyFamily(ghz_state(4)), 2, Source.GHZ_EXACT) is None

    def test_non_monotone_family_rejected(self):
        from entbound.states import example4_state

        class Bump:
            # folds the parameter back on itself, so the T1 bound rises
            # and then falls
            n_qubits = 4
            base = example4_state()

            def state_at(self, x):
                return white_noise_mix(example4_state(), 1.0 - abs(2 * x - 1))

        with pytest.raises(NonMonotoneFamily):
            detection_threshold(Bump(), 3, Source.THEOREM1)

    def test_ghz_exact_requires_ghz_family(self):
        with pytest.raises(FamilyMismatch):
            detection_threshold(NoisyFamily(example4_state()), 3, Source.GHZ_EXACT)

    def test_ghz_exact_refuses_a_base_off_ghz_beyond_its_tolerance(self):
        amps = ghz_state(6).amplitudes.copy()
        amps[0] += 1e-9
        amps[-1] -= 1e-9
        near = NoisyFamily(PureState(6, amps / np.linalg.norm(amps)))
        with pytest.raises(FamilyMismatch, match="requires the GHZ noise family"):
            require_source(Source.GHZ_EXACT, 6, near)
        require_source(Source.GHZ_EXACT, 6, NoisyFamily(ghz_state(6)))

    def test_duck_typed_family_is_refused_before_any_state(self):
        family = NoisyFamily(example4_state())
        built = []

        class Delegating:
            # a white-noise family in all but type: the proof does not cover it
            n_qubits = family.n_qubits
            base = family.base

            def state_at(self, x):
                built.append(x)
                return family.state_at(x)

        with pytest.raises(NonMonotoneFamily):
            detection_threshold(Delegating(), 3, Source.THEOREM1)
        assert built == []


def nondecreasing_check_bases(n):
    """Every built-in base on n qubits (Dicke k=1 is the W state), ex3 and ex4
    at n=4, and 3 seeded Haar states."""
    bases = [w_state(n), ghz_state(n)] + [dicke_state(n, k) for k in range(2, n)]
    if n == 4:
        bases += [example3_state(), example4_state()]
    return bases + haar_random_pure(SamplerConfig(n, seed=2400 + n, count=3))


class TestNoisyFamilyBoundsAreNondecreasing:
    """The property detection_threshold's bisection rests on, checked on a
    41-point grid: no step of any applicable bound goes down."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_no_bound_steps_down(self, n):
        for base in nondecreasing_check_bases(n):
            family = NoisyFamily(base)
            sources = applicable_sources(family)
            previous = None
            for x in np.linspace(0.0, 1.0, 41):
                # theorem sources share the dense member's pair table;
                # ghz-exact reads the point's visibility
                rho, point = family.state_at(float(x)), family.point(float(x))
                table = pairwise_table(rho)
                bounds = [certified_bound(point if s is Source.GHZ_EXACT else rho, s, table)[1]
                          for s in sources]
                if previous is not None:
                    steps = np.subtract(bounds, previous)
                    assert steps.min() >= -1e-12, (base, float(x), steps)
                previous = bounds


class TestApplicableSources:
    def test_theorem_sources_map_to_the_theorems_in_order(self):
        assert list(THEOREM_SOURCES.values()) == list(bounds_mod.THEOREMS)
        assert all(source.value == label.lower() for source, label in THEOREM_SOURCES.items())

    @pytest.mark.parametrize("n", range(2, 15))
    def test_theorems_on_their_domain_plus_ghz_exact_on_a_ghz_base(self, n):
        theorems = ([Source.THEOREM1] * (n == 4) + [Source.THEOREM2] * (n >= 5)
                    + [Source.THEOREM3] * (n >= 6 and n % 2 == 0))
        for family in (NoisyFamily(w_state(n)), NoisyFamily(ghz_state(n))):
            expected = theorems + [Source.GHZ_EXACT] * family.has_ghz_base
            if expected:
                assert applicable_sources(family) == expected
            else:
                with pytest.raises(ValueError, match=f"no bound source applies to {n} qubits"):
                    applicable_sources(family)

    def test_a_dense_ghz_noise_state_gets_no_ghz_exact(self):
        assert applicable_sources(white_noise_mix(ghz_state(5), 0.9)) == [Source.THEOREM2]


def bell_pair_base(n: int, rng: np.random.Generator) -> PureState:
    """|Phi+> on a random pair of n qubits, |0> on the rest, under random
    local unitaries: a rotated, permuted |0..0> (x) Bell."""
    i, j = sorted(rng.choice(n, 2, replace=False).tolist())
    amps = np.zeros((2,) * n, dtype=complex)
    for b in (0, 1):
        index = [0] * n
        index[i] = index[j] = b
        amps[tuple(index)] = 1 / math.sqrt(2)
    return apply_local_unitaries(PureState(n, amps.reshape(-1)),
                                 random_single_qubit_unitaries(rng, n))


class TestDetectionMargin:
    """exceeds keeps rounding out of the verdict where a threshold is tight:
    with a bare `bound > threshold`, a quarter to two fifths of the seeds
    of each test below read as detected."""

    def test_a_bound_must_beat_the_threshold_by_the_margin(self):
        assert DETECTION_MARGIN <= 1e-12
        assert not exceeds(1.0 + DETECTION_MARGIN, 1.0)
        assert exceeds(1.0 + 2 * DETECTION_MARGIN, 1.0)
        assert not exceeds(DETECTION_MARGIN, 0.0) and not exceeds(0.0, 0.0)
        v = verdict(3, 2, Source.USER_SUPPLIED, k_nonsep_threshold(3, 2, 2) + DETECTION_MARGIN / 2)
        assert not v.detected
        with pytest.raises(ParameterOutOfRange):
            WitnessVerdict(3, 2, 2, 1.0, 1.0 + DETECTION_MARGIN / 2, Source.USER_SUPPLIED, True)

    def test_rotated_biseparable_states_are_never_2_nonseparable(self):
        # C(|0> (x) Bell) = 1 is the n=3, k=2 threshold: tight
        for seed in range(300):
            psi = bell_pair_base(3, np.random.default_rng(5100 + seed))
            for rho in (NoisyFamily(psi).point(1.0), psi.density_matrix()):
                v = detect_k_nonseparability(rho, 2, Source.PURE_EXACT)
                assert not v.detected, (seed, v.certified_lower_bound_on_C - v.threshold)

    @pytest.mark.parametrize("n", [4, 5])
    def test_rotated_werner_edge_marginals_are_never_entangled(self, n):
        # the Bell pair's marginal at visibility x is the Werner state, separable up to x = 1/3
        (source,) = applicable_sources(NoisyFamily(w_state(n)))
        edge = [1 / 3, float(np.nextafter(1 / 3, 0.0)), 1 / 3 - 2e-16, 1 / 3 - 1e-15]
        for seed in range(150):
            family = NoisyFamily(bell_pair_base(n, np.random.default_rng(5400 + seed)))
            for x in edge:
                bound = certified_bound(family.point(x), source)[1]
                assert not exceeds(bound, 0.0), (seed, x, bound)
            assert exceeds(certified_bound(family.point(1 / 3 + 1e-6), source)[1], 0.0)


class TestCertifiedBound:
    def test_theorem_sources_match_reports(self):
        rho = white_noise_mix(w_state(4), 0.9)
        from entbound.bounds import theorem_bound
        from entbound.concurrence import pairwise_table

        expected = theorem_bound("T1", pairwise_table(rho)).bound_on_C
        assert certified_bound(rho, Source.THEOREM1)[1] == pytest.approx(expected, abs=1e-14)

    def test_ghz_exact_recovers_visibility(self):
        rho = white_noise_mix(ghz_state(5), 0.77)
        from entbound.bounds import ghz_noise_exact_concurrence

        assert certified_bound(rho, Source.GHZ_EXACT)[1] == pytest.approx(
            ghz_noise_exact_concurrence(5, 0.77), abs=1e-10
        )


def dense_grid(n):
    """The 201-point grid for n <= 8; every tenth point of it above, where
    one dense recovery costs ~45 ms at n=10 (the recovered entry does not
    depend on n: it is x * (1/sqrt2 * 1/sqrt2) at every n)."""
    return np.linspace(0.0, 1.0, 201)[:: 1 if n <= 8 else 10]


class TestGhzFamilyPointVisibility:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_family_point_matches_the_dense_recovery(self, n):
        from entbound.bounds import ghz_noise_exact_concurrence
        from entbound.witness import _ghz_visibility

        family = NoisyFamily(ghz_state(n))
        for x in map(float, dense_grid(n)):
            p = _ghz_visibility(family.state_at(x))
            assert abs(x - p) <= 2 * math.ulp(x), (n, x, p)
            c2, c = certified_bound(family.point(x), Source.GHZ_EXACT)
            assert (c2, c) == (ghz_noise_exact_concurrence(n, x) ** 2,
                               ghz_noise_exact_concurrence(n, x))
            assert f"{c:.9g}" == f"{ghz_noise_exact_concurrence(n, p):.9g}", (n, x)

    def test_non_ghz_family_point_goes_through_the_dense_check(self):
        point = NoisyFamily(w_state(4)).point(0.9)
        with pytest.raises(FamilyMismatch, match="deviates from the GHZ noise family"):
            certified_bound(point, Source.GHZ_EXACT)
        # at x = 0 every family is I/2^N, which is GHZ noise at p = 0
        assert certified_bound(NoisyFamily(w_state(4)).point(0.0), Source.GHZ_EXACT) == (0, 0)

    def test_ghz_base_is_decided_once_per_family(self, monkeypatch):
        import functools

        decide, decided = NoisyFamily.has_ghz_base.func, []
        counting = functools.cached_property(lambda family: decided.append(family) or decide(family))
        counting.__set_name__(NoisyFamily, "has_ghz_base")
        monkeypatch.setattr(NoisyFamily, "has_ghz_base", counting)
        family = NoisyFamily(ghz_state(6))
        for x in (0.2, 0.5, 0.9):
            certified_bound(family.point(x), Source.GHZ_EXACT)
        require_source(Source.GHZ_EXACT, 6, family)
        assert decided == [family] and family.has_ghz_base


class TestCertifiedBoundIsTheOnePath:
    @pytest.mark.parametrize("n, theorem", [(4, "T1"), (5, "T2"), (6, "T2"), (6, "T3")])
    def test_theorem_sources_return_the_report_bounds(self, n, theorem):
        from entbound.bounds import theorem_bound

        for rho in (white_noise_mix(w_state(n), 0.9), NoisyFamily(dicke_state(n, 2)).point(0.8)):
            r = theorem_bound(theorem, pairwise_table(rho))
            want = (r.bound_on_C2, r.bound_on_C)
            assert certified_bound(rho, Source(theorem.lower())) == want
            assert certified_bound(rho, Source(theorem.lower()), pairwise_table(rho)) == want

    def test_the_removed_keyword_paths_are_gone(self):
        import inspect

        from entbound import witness

        assert not hasattr(witness, "source_bound")
        assert list(inspect.signature(certified_bound).parameters) == ["rho", "source", "table"]


class TestSourceBound:
    """One source's bounds (on C^2, on C), all through certified_bound."""

    def test_theorem_source_reads_the_table(self):
        from entbound.bounds import theorem_bound
        from entbound.concurrence import pairwise_table

        rho = white_noise_mix(w_state(4), 0.9)
        table = pairwise_table(rho)
        r = theorem_bound("T1", table)
        assert certified_bound(rho, Source.THEOREM1, table) == (r.bound_on_C2, r.bound_on_C)
        assert certified_bound(rho, Source.THEOREM1) == (r.bound_on_C2, r.bound_on_C)

    def test_ghz_exact_reads_the_visibility(self):
        from entbound.bounds import ghz_noise_exact_concurrence

        c = ghz_noise_exact_concurrence(5, 0.8)
        assert certified_bound(NoisyFamily(ghz_state(5)).point(0.8), Source.GHZ_EXACT) == (c**2, c)

    def test_user_value(self):
        v = verdict(4, 3, Source.USER_SUPPLIED, 0.5)
        assert (v.certified_lower_bound_on_C, v.source) == (0.5, Source.USER_SUPPLIED)
        with pytest.raises(ParameterOutOfRange):
            verdict(4, 3, Source.USER_SUPPLIED, -0.1)
        with pytest.raises(ParameterOutOfRange, match="verdict"):
            certified_bound(white_noise_mix(w_state(4), 0.9), Source.USER_SUPPLIED)

    @pytest.mark.parametrize("source", [Source.THEOREM1, Source.GHZ_EXACT])
    def test_verdict_of_the_certified_bound(self, source):
        rho = white_noise_mix(ghz_state(4), 0.95)
        bound = certified_bound(rho, source)[1]
        for k in (2, 3, 4):
            assert verdict(4, k, source, bound) == detect_k_nonseparability(rho, k, source)

    def test_detect_takes_no_table(self):
        import inspect

        assert list(inspect.signature(detect_k_nonseparability).parameters) == [
            "rho", "k", "source",
        ]

    def test_detection_threshold_takes_no_tolerance_arguments(self):
        import inspect

        assert list(inspect.signature(detection_threshold).parameters) == [
            "family", "k", "source",
        ]


def dense_ghz_visibility(rho: DensityMatrix) -> float:
    """The GHZ-noise check on the whole dense matrix, with a dense GHZ model
    and a difference matrix: the reference for the streamed check."""
    p = 2.0 * float(np.real(rho.matrix[0, -1]))
    if not -FAMILY_MATCH_TOL <= p <= 1.0 + FAMILY_MATCH_TOL:
        raise FamilyMismatch(f"recovered visibility {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    model = white_noise_mix(ghz_state(rho.n_qubits), p)
    gap = float(np.max(np.abs(model.matrix - rho.matrix)))
    if gap > FAMILY_MATCH_TOL:
        raise FamilyMismatch(f"state deviates from the GHZ noise family by {gap:.3e}")
    return p


def ghz_check_outcome(check, rho):
    """The p a check returns, as hex, or the bytes of the mismatch it raises."""
    try:
        return check(rho).hex()
    except FamilyMismatch as exc:
        return str(exc).encode()


def ghz_check_families(n):
    """Every built-in base, GHZ with a minus sign and a Haar base on n qubits."""
    minus = ghz_state(n).amplitudes.copy()
    minus[-1] *= -1
    bases = ([w_state(n), ghz_state(n), PureState(n, minus)]
             + [dicke_state(n, k) for k in range(1, n)]
             + haar_random_pure(SamplerConfig(n, seed=8400 + n)))
    if n == 4:
        bases += [example3_state(), example4_state()]
    return [NoisyFamily(base) for base in bases]


def perturbed_ghz_inputs(n):
    """Dense GHZ-noise states moved off the family by a Hermitian entry pair
    whose size is just below, at and just above FAMILY_MATCH_TOL, in the
    first, a middle and the last row block of the streamed check."""
    d = 2**n
    base = NoisyFamily(ghz_state(n)).state_at(0.8).matrix
    tol = FAMILY_MATCH_TOL
    sizes = (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), tol * (1 - 1e-6), tol * (1 + 1e-6))
    places = (((1, 2), 1.0), ((d // 2, d // 2 + 1), 1.0), ((d - 2, d - 3), 1j),
              ((0, d - 1), 1.0), ((0, 0), 1.0))
    for eps in sizes:
        for (i, j), unit in places:
            m = base.copy()
            m[i, j] += eps * unit
            m[j, i] = np.conj(m[i, j]) if i != j else m[i, j]
            if i == j:  # keep the trace: move the weight from the last diagonal entry
                m[-1, -1] -= eps
            # the constructor validates small inputs; above 6 qubits its
            # eigensolve dominates, and the move keeps the state valid anyway
            yield DensityMatrix(n, m) if n <= 6 else DensityMatrix._derived(n, m)


@pytest.mark.parametrize("n", range(2, 11))
def test_streamed_ghz_check_equals_the_dense_check(n):
    # a family point's reference is its dense member's, unless its base is GHZ
    for family in ghz_check_families(n):
        for x in (0.0, 0.37, 1.0):
            dense = family.state_at(x)
            expected = ghz_check_outcome(dense_ghz_visibility, dense)
            assert ghz_check_outcome(_ghz_visibility, dense) == expected, (family, x)
            if family.has_ghz_base:
                expected = x.hex()
            assert ghz_check_outcome(_ghz_visibility, family.point(x)) == expected, (family, x)
    # n=10 is the first size with more than one row block
    for rho in perturbed_ghz_inputs(n) if n <= 6 or n == 10 else ():
        expected = ghz_check_outcome(dense_ghz_visibility, rho)
        assert ghz_check_outcome(_ghz_visibility, rho) == expected


def test_perturbed_inputs_fall_on_both_sides_of_the_tolerance():
    outcomes = [ghz_check_outcome(_ghz_visibility, rho) for rho in perturbed_ghz_inputs(4)]
    assert any(isinstance(o, str) for o in outcomes)
    assert any(isinstance(o, bytes) and o.startswith(b"state deviates") for o in outcomes)


def test_streamed_ghz_check_allocates_a_small_share_of_a_dense_input():
    n, d = 12, 2**12
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, 0.1 / d)
    m[0, 0] += 0.45
    m[-1, -1] += 0.45
    m[0, -1] = m[-1, 0] = 0.45
    rho = DensityMatrix._derived(n, m)  # a GHZ-noise state at p=0.9; validation would eigensolve it
    tracemalloc.start()
    try:
        c2, c = certified_bound(rho, Source.GHZ_EXACT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c == pytest.approx(ghz_noise_exact_concurrence(n, 0.9), abs=1e-12)
    assert peak < 0.1 * m.nbytes


class TestPureExactOnAFamilyPoint:
    def test_a_point_is_pure_only_at_one_and_is_then_its_base(self):
        for base in (w_state(5), dicke_state(6, 3), ghz_state(4)):
            family = NoisyFamily(base)
            c2, c = certified_bound(family.point(1.0), Source.PURE_EXACT)
            assert c == pure_concurrence(base)
            dense = certified_bound(family.state_at(1.0), Source.PURE_EXACT)[1]
            assert c == pytest.approx(dense, abs=1e-12)
            with pytest.raises(FamilyMismatch, match="requires a pure state"):
                certified_bound(family.point(1.0 - 1e-9), Source.PURE_EXACT)

    def test_reads_no_dense_member_above_the_dense_cap(self):
        from entbound.witness import _pure_state_of

        family = NoisyFamily(w_state(13))
        assert _pure_state_of(family.point(1.0)) is family.base
