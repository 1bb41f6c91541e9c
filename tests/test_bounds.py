import itertools
import math

import numpy as np
import pytest

from entbound.bounds import (
    PRIOR_DICKE_DETECTION_THRESHOLDS,
    BoundReport,
    applicable_theorems,
    best_bound,
    ghz_noise_exact_concurrence,
    ghz_noise_exact_visibility,
    ghz_noise_separability_edge,
    require_domain,
    theorem_bound,
    theorem_coefficient,
)
from entbound.concurrence import PairwiseConcurrenceTable, pairwise_table, pure_concurrence
from entbound.errors import ParameterOutOfRange, WrongQubitCount
from oracle import SamplerConfig, haar_random_pure
from entbound.states import (
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
    white_noise_mix,
)


# Coefficients of the comparison bound from earlier work for the four
# benchmark noise families (that bound itself is not implemented here).
PRIOR_BOUND_COEFFICIENTS = {
    "w-noise": 3.0,
    "dicke-noise": 3.0,
    "ex3": 2.0,
    "ex4": 1.0,
}


def table_of(n: int, values: dict) -> PairwiseConcurrenceTable:
    full = {pair: 0.0 for pair in itertools.combinations(range(1, n + 1), 2)}
    full.update(values)
    return PairwiseConcurrenceTable(n, full)


class TestCoefficients:
    def test_values(self):
        assert theorem_coefficient("T1", 4) == 7 / 8
        assert theorem_coefficient("T2", 5) == 5 / 8
        assert theorem_coefficient("T2", 6) == 6 / 16
        assert theorem_coefficient("T3", 6) == 1 / 2
        assert theorem_coefficient("T3", 8) == 6 / 32

    def test_even_n_ratio_exceeds_one(self):
        for n in (6, 8, 10, 12):
            ratio = theorem_coefficient("T3", n) / theorem_coefficient("T2", n)
            assert ratio == pytest.approx(2 * (n - 2) / n, abs=1e-12)
            assert ratio > 1


class TestTheorem1:
    def test_w_noise_family(self):
        for t in (0.75, 0.85, 0.95):
            table = pairwise_table(white_noise_mix(w_state(4), t))
            r = theorem_bound("T1", table)
            c12 = table.value(1, 2)
            assert r.bound_on_C2 == pytest.approx(21 / 4 * c12**2, abs=1e-12)
            assert r.bound_on_C == pytest.approx(math.sqrt(r.bound_on_C2), abs=1e-12)

    def test_cycle_family(self):
        table = pairwise_table(white_noise_mix(example3_state(), 0.9))
        r = theorem_bound("T1", table)
        assert r.bound_on_C2 == pytest.approx(7 / 2 * table.value(1, 2) ** 2, abs=1e-12)

    def test_bell_pair_saturation(self):
        psi = example4_state()
        table = pairwise_table(psi.density_matrix())
        r = theorem_bound("T1", table)
        assert r.bound_on_C2 == pytest.approx(7 / 4, abs=1e-12)
        assert r.bound_on_C2 == pytest.approx(pure_concurrence(psi) ** 2, abs=1e-10)

    def test_wrong_qubit_count(self):
        with pytest.raises(WrongQubitCount):
            theorem_bound("T1", table_of(5, {}))


class TestTheorem2:
    def test_zero_table(self):
        assert theorem_bound("T2", table_of(5, {})).bound_on_C2 == 0.0

    def test_single_pair(self):
        r = theorem_bound("T2", table_of(5, {(1, 2): 0.3}))
        assert r.bound_on_C2 == pytest.approx(5 / 8 * 0.09, abs=1e-15)

    def test_blind_to_pure_ghz(self):
        table = pairwise_table(white_noise_mix(ghz_state(6), 1.0))
        assert all(v == 0.0 for _, v in table.pairs())
        assert theorem_bound("T2", table).bound_on_C2 == 0.0

    def test_wrong_qubit_count(self):
        with pytest.raises(WrongQubitCount):
            theorem_bound("T2", table_of(4, {}))


class TestTheorem3:
    def test_single_pair(self):
        r = theorem_bound("T3", table_of(6, {(2, 5): 0.4}))
        assert r.bound_on_C2 == pytest.approx(0.5 * 0.16, abs=1e-15)

    def test_uniform_eight_qubits(self):
        c = 0.2
        values = {pair: c for pair in itertools.combinations(range(1, 9), 2)}
        r = theorem_bound("T3", table_of(8, values))
        assert r.bound_on_C2 == pytest.approx(6 / 32 * 28 * c**2, abs=1e-12)

    def test_wrong_qubit_count(self):
        for n in (4, 5, 7):
            with pytest.raises(WrongQubitCount):
                theorem_bound("T3", table_of(n, {}))


class TestBestBound:
    def test_even_n_reports_both_with_stronger_first(self):
        reports = best_bound(pairwise_table(white_noise_mix(dicke_state(6, 3), 0.95)))
        assert [r.theorem for r in reports] == ["T3", "T2"]
        assert reports[0].bound_on_C2 >= reports[1].bound_on_C2

    def test_four_qubits_only_t1(self):
        reports = best_bound(pairwise_table(white_noise_mix(w_state(4), 0.9)))
        assert [r.theorem for r in reports] == ["T1"]

    def test_five_qubits_only_t2(self):
        reports = best_bound(pairwise_table(white_noise_mix(w_state(5), 0.9)))
        assert [r.theorem for r in reports] == ["T2"]

    def test_odd_seven_only_t2(self):
        assert [r.theorem for r in best_bound(table_of(7, {}))] == ["T2"]

    def test_no_theorem_below_four_qubits(self):
        assert best_bound(pairwise_table(white_noise_mix(ghz_state(3), 0.9))) == ()

    def test_zero_bounds_rank_by_coefficient(self):
        # an all-zero table ties every bound at 0; the larger coefficient leads
        assert [r.theorem for r in best_bound(table_of(6, {}))] == ["T3", "T2"]


class TestQubitCountDomain:
    def test_applicable_theorems(self):
        assert {n: applicable_theorems(n) for n in range(1, 10)} == {
            1: [], 2: [], 3: [], 4: ["T1"], 5: ["T2"], 6: ["T2", "T3"],
            7: ["T2"], 8: ["T2", "T3"], 9: ["T2"],
        }

    @pytest.mark.parametrize("n", range(2, 10))
    def test_theorem_functions_follow_the_domain(self, n):
        table = table_of(n, {(1, 2): 0.5})
        for theorem in ("T1", "T2", "T3"):
            if theorem in applicable_theorems(n):
                assert theorem_bound(theorem, table).theorem == theorem
            else:
                with pytest.raises(WrongQubitCount):
                    theorem_bound(theorem, table)

    def test_unknown_label_is_named(self):
        table = table_of(4, {})
        for call in (lambda: theorem_coefficient("T4", 4), lambda: require_domain("T4", 4),
                     lambda: theorem_bound("T4", table)):
            with pytest.raises(ParameterOutOfRange, match="unknown theorem 'T4'"):
                call()


class TestMonotonicity:
    def test_bound_nondecreasing_in_entries(self):
        base = {pair: 0.1 for pair in itertools.combinations(range(1, 5), 2)}
        r0 = theorem_bound("T1", table_of(4, base))
        for pair in base:
            bumped = dict(base)
            bumped[pair] = 0.2
            r1 = theorem_bound("T1", table_of(4, bumped))
            assert r1.bound_on_C2 > r0.bound_on_C2


class TestGhzNoiseExact:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pure_limit(self, n):
        assert ghz_noise_exact_concurrence(n, 1.0) == pytest.approx(
            pure_concurrence(ghz_state(n)), abs=1e-10
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_at_separability_edge(self, n):
        edge = ghz_noise_separability_edge(n)
        assert ghz_noise_exact_concurrence(n, edge) == pytest.approx(0.0, abs=1e-12)
        assert ghz_noise_exact_concurrence(n, edge / 2) == 0.0

    def test_value_at_n4_p09(self):
        expected = math.sqrt(7 / 4) * (9 * 0.9 - 1) / 8
        assert ghz_noise_exact_concurrence(4, 0.9) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(1.1740521442849121, abs=1e-12)

    def test_affine_on_detection_interval(self):
        for n in (3, 4, 6):
            edge = ghz_noise_separability_edge(n)
            p1, p2 = edge + 0.1, 0.9
            mid = ghz_noise_exact_concurrence(n, (p1 + p2) / 2)
            avg = (ghz_noise_exact_concurrence(n, p1) + ghz_noise_exact_concurrence(n, p2)) / 2
            assert abs(mid - avg) < 1e-12

    @pytest.mark.parametrize("n", range(2, 15))
    def test_visibility_inverts_the_concurrence(self, n):
        assert ghz_noise_exact_visibility(n, 0.0) == ghz_noise_separability_edge(n)
        for p in (ghz_noise_separability_edge(n) + 1e-3, 0.5, 0.9, 1.0):
            c = ghz_noise_exact_concurrence(n, p)
            assert ghz_noise_exact_visibility(n, c) == pytest.approx(p, abs=1e-14)
        # a concurrence above the pure state's is reached at no visibility in [0, 1]
        assert ghz_noise_exact_visibility(n, 1.001 * ghz_noise_exact_concurrence(n, 1.0)) > 1.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            ghz_noise_exact_concurrence(4, 1.2)
        with pytest.raises(ParameterOutOfRange):
            ghz_noise_exact_concurrence(1, 0.5)


class TestSoundnessOnPureStates:
    def test_t1_below_exact_on_random_four_qubit(self):
        for psi in haar_random_pure(SamplerConfig(4, seed=71, count=30)):
            exact_sq = pure_concurrence(psi) ** 2
            r = theorem_bound("T1", pairwise_table(psi.density_matrix()))
            assert exact_sq - r.bound_on_C2 >= -1e-10

    def test_t2_below_exact_on_random_five_qubit(self):
        for psi in haar_random_pure(SamplerConfig(5, seed=72, count=15)):
            exact_sq = pure_concurrence(psi) ** 2
            r = theorem_bound("T2", pairwise_table(psi.density_matrix()))
            assert exact_sq - r.bound_on_C2 >= -1e-10

    def test_t3_below_exact_on_random_six_qubit(self):
        for psi in haar_random_pure(SamplerConfig(6, seed=73, count=8)):
            exact_sq = pure_concurrence(psi) ** 2
            r = theorem_bound("T3", pairwise_table(psi.density_matrix()))
            assert exact_sq - r.bound_on_C2 >= -1e-10

    @pytest.mark.parametrize("n", [4, 6])
    def test_theorem_bounds_below_exact_on_ghz_family(self, n):
        for p in np.linspace(0.0, 1.0, 11):
            rho = white_noise_mix(ghz_state(n), float(p))
            exact_sq = ghz_noise_exact_concurrence(n, float(p)) ** 2
            for r in best_bound(pairwise_table(rho)):
                assert exact_sq - r.bound_on_C2 >= -1e-10


class TestBoundReportInvariants:
    def test_product_consistency_enforced(self):
        with pytest.raises(ParameterOutOfRange):
            BoundReport("T1", 4, 1.0, 7 / 8, 0.5, math.sqrt(0.5))

    def test_prior_comparison_constants(self):
        # Documentation constants from earlier published bounds: this
        # package's four-qubit coefficients beat all of them.
        assert PRIOR_BOUND_COEFFICIENTS["w-noise"] == 3.0
        assert PRIOR_BOUND_COEFFICIENTS["dicke-noise"] == 3.0
        assert PRIOR_BOUND_COEFFICIENTS["ex3"] == 2.0
        assert PRIOR_BOUND_COEFFICIENTS["ex4"] == 1.0
        assert 21 / 4 > PRIOR_BOUND_COEFFICIENTS["w-noise"]
        assert 21 / 4 > PRIOR_BOUND_COEFFICIENTS["dicke-noise"]
        assert 7 / 2 > PRIOR_BOUND_COEFFICIENTS["ex3"]
        assert 7 / 4 > PRIOR_BOUND_COEFFICIENTS["ex4"]
        lo, hi = PRIOR_DICKE_DETECTION_THRESHOLDS
        assert 0.6 < lo < hi
