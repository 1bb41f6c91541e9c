"""Acceptance suite: the eight release criteria at their stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
every expected constant is either a closed form evaluated inline or a value
frozen from the independent oracles in test development.
"""

import math
import time

from entbound.bounds import (
    PRIOR_DICKE_DETECTION_THRESHOLDS,
    ghz_noise_exact_concurrence,
    ghz_noise_separability_edge,
    theorem_bound,
)
from entbound.concurrence import (
    cut_profile,
    h_invariant,
    pairwise_table,
    pure_concurrence,
    purity_sum,
)
from oracle import SamplerConfig, brute_force_purity_sum, haar_random_pure, random_product_pure
from entbound.states import (
    NoisyFamily,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
)
from entbound.witness import Source, detection_threshold, k_nonsep_threshold

GRID_101 = [i / 100 for i in range(101)]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_w_noise_reproduction():
    t0 = time.perf_counter()
    family = NoisyFamily(w_state(4))
    worst_pair = 0.0
    worst_coeff = 0.0
    for t in GRID_101:
        table = pairwise_table(family.state_at(t))
        closed = max(0.0, (t - math.sqrt(1 - t * t)) / 2)
        for _, value in table.pairs():
            worst_pair = max(worst_pair, abs(value - closed))
        bound = theorem_bound("T1", table).bound_on_C2
        worst_coeff = max(worst_coeff, abs(bound - 21 / 4 * table.value(1, 2) ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-9 and worst_coeff <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"W4+noise closed form (pair err {worst_pair:.2e} <= 1e-9, "
                   f"coeff err {worst_coeff:.2e} <= 1e-12, {elapsed:.2f}s < 5s)")


def test_criterion_2_dicke_reproduction():
    family = NoisyFamily(dicke_state(4, 2))
    worst = 0.0
    for t in GRID_101:
        table = pairwise_table(family.state_at(t))
        closed = max(0.0, (5 * t - 3) / 6)
        for _, value in table.pairs():
            worst = max(worst, abs(value - closed))
    crossing = detection_threshold(family, None, Source.THEOREM1)
    lo, hi = PRIOR_DICKE_DETECTION_THRESHOLDS
    ok = (
        worst <= 1e-9
        and abs(crossing - 0.600000) <= 1e-4
        and crossing < lo < hi
    )
    _report(2, ok, f"Dicke+noise closed form (err {worst:.2e} <= 1e-9), "
                   f"entanglement crossing {crossing:.6f} = 0.600000 +- 1e-4, "
                   f"below prior thresholds {lo} < {hi}")


def test_criterion_3_cycle_and_bell_pair_reproduction():
    fam3 = NoisyFamily(example3_state())
    worst3 = 0.0
    for a in GRID_101:
        table = pairwise_table(fam3.state_at(a))
        closed = max(0.0, (a - math.sqrt(1 - a)) / 2)
        for (i, j), value in table.pairs():
            expected = 0.0 if (i, j) in ((1, 3), (2, 4)) else closed
            worst3 = max(worst3, abs(value - expected))

    fam4 = NoisyFamily(example4_state())
    worst4 = 0.0
    for t in GRID_101:
        table = pairwise_table(fam4.state_at(t))
        closed = max(0.0, (3 * t - 1) / 2)
        for (i, j), value in table.pairs():
            expected = closed if (i, j) in ((1, 2), (3, 4)) else 0.0
            worst4 = max(worst4, abs(value - expected))

    crossing = detection_threshold(fam4, None, Source.THEOREM1)
    saturation = theorem_bound("T1", pairwise_table(fam4.state_at(1.0))).bound_on_C2
    exact_sq = pure_concurrence(example4_state()) ** 2
    ok = (
        worst3 <= 1e-9
        and worst4 <= 1e-9
        and abs(crossing - 1 / 3) <= 1e-4
        and abs(saturation - 7 / 4) <= 1e-9
        and abs(exact_sq - 7 / 4) <= 1e-9
    )
    _report(3, ok, f"case-3/4 pairwise patterns (errs {worst3:.2e}, {worst4:.2e} <= 1e-9), "
                   f"entanglement crossing {crossing:.6f} = 1/3 +- 1e-4, "
                   f"saturated bound {saturation:.12f} = exact 7/4")


def test_criterion_4_witness_threshold_reproduction():
    thr = k_nonsep_threshold(4, 2, 3)
    crossing = detection_threshold(NoisyFamily(example4_state()), 3, Source.THEOREM1)
    ok = abs(thr - math.sqrt(22) / 4) <= 1e-12 and abs(crossing - 0.9243) <= 1e-4
    _report(4, ok, f"threshold(4,2,3) = {thr:.12f} = sqrt(22)/4 +- 1e-12, "
                   f"3-nonseparability crossing {crossing:.6f} = 0.9243 +- 1e-4")


def test_criterion_5_ghz_exact_reproduction():
    worst_pure = 0.0
    worst_edge = 0.0
    for n in range(2, 9):
        worst_pure = max(worst_pure, abs(
            ghz_noise_exact_concurrence(n, 1.0) - pure_concurrence(ghz_state(n))
        ))
        edge = ghz_noise_separability_edge(n)
        worst_edge = max(worst_edge, abs(ghz_noise_exact_concurrence(n, edge)))
    crossing = detection_threshold(NoisyFamily(ghz_state(4)), 3, Source.GHZ_EXACT)
    ok = worst_pure <= 1e-10 and worst_edge <= 1e-12 and abs(crossing - 0.8991) <= 1e-4
    _report(5, ok, f"GHZ family: p=1 matches pure concurrence for n=2..8 "
                   f"(err {worst_pure:.2e} <= 1e-10), zero point exact "
                   f"(err {worst_edge:.2e} <= 1e-12), crossing {crossing:.6f} = 0.8991 +- 1e-4")


def test_criterion_6_identity_suites():
    t0 = time.perf_counter()
    gaps = {"decomp": 0.0, "monogamy_eq": 0.0}
    slacks = {"monogamy": 0.0, "distributed4": 0.0, "distributed_n": 0.0}

    for n, seed in ((4, 1604), (5, 1605), (6, 1606)):
        for psi in haar_random_pure(SamplerConfig(n, seed=seed, count=200)):
            prof = cut_profile(psi)
            c2 = pure_concurrence(psi) ** 2

            # squared concurrence decomposes over all bipartitions
            gaps["decomp"] = max(gaps["decomp"], abs(c2 - 2.0 ** (1 - n) * prof.total()))
            if n == 4:
                # four-qubit form: average over the 7 distinct bipartitions
                full = 2**n - 1
                bip = sum(v for bits, v in prof.per_subset.items() if bits < full ^ bits)
                gaps["decomp"] = max(gaps["decomp"], abs(c2 - bip / 4))

            # monogamy: qubit 1 vs rest dominates its pairwise entanglement
            table = pairwise_table(psi.density_matrix())
            lhs = prof.per_subset[1 << (n - 1)]
            rhs = sum(table.value(1, i) ** 2 for i in range(2, n + 1))
            slacks["monogamy"] = min(slacks["monogamy"], lhs - rhs)

            # distributed entanglement: size-2 cuts dominate size-1 cuts
            slack = prof.size_sums[2] - (n - 2) / 2 * prof.size_sums[1]
            slacks["distributed_n"] = min(slacks["distributed_n"], slack)
            if n == 4:
                slack4 = prof.size_sums[2] / 2 - 0.75 * prof.size_sums[1]
                slacks["distributed4"] = min(slacks["distributed4"], slack4)

            # even-qubit monogamy equality via the polynomial invariant
            if n % 2 == 0:
                lhs = 2 * abs(h_invariant(psi)) ** 2
                gaps["monogamy_eq"] = max(
                    gaps["monogamy_eq"], abs(lhs - prof.alternating_sum())
                )

    elapsed = time.perf_counter() - t0
    ok = (
        gaps["decomp"] <= 1e-10
        and gaps["monogamy_eq"] <= 1e-9
        and all(s >= -1e-10 for s in slacks.values())
        and elapsed < 60.0
    )
    _report(6, ok, f"identities on 200 states per N in 4..6 (seeds 1604..1606): "
                   f"decomposition gap {gaps['decomp']:.2e} <= 1e-10, "
                   f"monogamy-equality gap {gaps['monogamy_eq']:.2e} <= 1e-9, "
                   f"inequality slacks >= {min(slacks.values()):.2e} >= -1e-10, "
                   f"{elapsed:.1f}s < 60s")


def test_criterion_7_oracle_equivalence():
    worst = 0.0
    for n in range(2, 9):
        for psi in haar_random_pure(SamplerConfig(n, seed=1700 + n, count=100)):
            worst = max(worst, abs(brute_force_purity_sum(psi) - purity_sum(psi)))
    ok = worst <= 1e-10
    _report(7, ok, f"brute-force vs optimized purity sums, 100 states per N in 2..8 "
                   f"(seeds 1702..1708, worst gap {worst:.2e} <= 1e-10)")


def test_criterion_8_soundness_sampling():
    worst_excess = -math.inf
    for n in (3, 4, 5):
        thr = k_nonsep_threshold(n, 2, n)
        cfg = SamplerConfig(n, seed=1800 + n, count=500)
        for psi in random_product_pure(cfg, [[q] for q in range(1, n + 1)]):
            worst_excess = max(worst_excess, pure_concurrence(psi) - thr)

    thr2 = k_nonsep_threshold(4, 2, 2)
    bipartitions = [
        [[1], [2, 3, 4]], [[2], [1, 3, 4]], [[3], [1, 2, 4]], [[4], [1, 2, 3]],
        [[1, 2], [3, 4]], [[1, 3], [2, 4]], [[1, 4], [2, 3]],
    ]
    worst_excess2 = -math.inf
    for i, partition in enumerate(bipartitions):
        cfg = SamplerConfig(4, seed=1870 + i, count=72)  # 7 x 72 = 504 states
        for psi in random_product_pure(cfg, partition):
            worst_excess2 = max(worst_excess2, pure_concurrence(psi) - thr2)

    ok = worst_excess <= 1e-10 and worst_excess2 <= 1e-10
    _report(8, ok, f"500 fully-product states per N in 3..5 (seeds 1803..1805) stay "
                   f"below the full-separability threshold (excess {worst_excess:.2e}), "
                   f"504 bipartite-product 4-qubit states (seeds 1870..1876) stay "
                   f"below the k=2 threshold (excess {worst_excess2:.2e})")
