"""The family engine: a NoisyFamily member's pair marginals, pairwise table
and crossings, from the base vector, against the dense reference state_at."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entbound import concurrence
from entbound.bounds import theorem_bound
from entbound.concurrence import pairwise_table
from entbound.errors import DimensionOverflow, ParameterOutOfRange
from entbound.linalg import BISECTION_STOP
from oracle import SamplerConfig, haar_random_pure
from entbound.states import (
    MARGINAL_CHUNK_ENTRIES,
    NoisyFamily,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
    white_noise_mix,
)
from entbound.witness import (
    BISECTION_LEVELS,
    THEOREM_SOURCES,
    Source,
    applicable_sources,
    certified_bound,
    detection_threshold,
    k_nonsep_threshold,
)


def symmetric_bases(n):
    """W, GHZ and every Dicke(n, k); Dicke k=1 is the W state."""
    return [w_state(n), ghz_state(n)] + [dicke_state(n, k) for k in range(1, n)]


def engine_bases(n):
    """Every built-in base on n qubits, ex3 and ex4 at n=4, and 3 seeded Haar bases."""
    bases = symmetric_bases(n)
    if n == 4:
        bases += [example3_state(), example4_state()]
    return bases + haar_random_pure(SamplerConfig(n, seed=8100 + n, count=3))


def visibilities(n):
    seeded = np.random.default_rng(8200 + n).uniform(0.0, 1.0, 8)
    return [0.0, 1 / 3, 0.6, 1.0] + [float(x) for x in seeded]


def engine_marginals(family, x):
    """Pair -> marginal matrix, from the one-x row of family.marginal_stacks."""
    (stack,) = family.marginal_stacks([x])
    return {pair: m for (pairs, _), m in zip(family.pair_classes, stack[0]) for pair in pairs}


@pytest.mark.parametrize("n", range(2, 9))
def test_marginals_are_bit_identical_to_the_dense_path(n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        for x in visibilities(n):
            dense = family.state_at(x)
            got = engine_marginals(family, x)
            for pair in itertools.combinations(range(1, n + 1), 2):
                assert got[pair].tobytes() == dense.reduced(pair).matrix.tobytes(), (base, x, pair)


@pytest.mark.parametrize("n", range(2, 8))
def test_tables_are_bit_identical_to_the_dense_path(n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        for x in visibilities(n):
            dense = pairwise_table(family.state_at(x))
            engine = pairwise_table(family.point(x))
            assert list(engine.values) == list(dense.values)
            assert (np.array(list(engine.values.values())).tobytes()
                    == np.array(list(dense.values.values())).tobytes())
            assert engine.sum_of_squares.hex() == dense.sum_of_squares.hex()


def dense_reference_threshold(family, k, source):
    """detection_threshold's bisection one step at a time, on the dense members:
    theorem bounds from the report of each member's pairwise table.  It tests
    a bare bound > threshold, so matching it also shows that exceeds's
    margin moves none of these crossings."""
    n = family.n_qubits
    threshold = 0.0 if k is None else k_nonsep_threshold(n, 2, k)

    def bound(x):
        if source is Source.GHZ_EXACT:
            return certified_bound(family.state_at(x), source)[1]
        table = pairwise_table(family.state_at(x))
        return theorem_bound(THEOREM_SOURCES[source], table).bound_on_C

    if not bound(1.0) > threshold:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_STOP:
        mid = (lo + hi) / 2
        if bound(mid) > threshold:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def builtin_family_bases(n):
    bases = symmetric_bases(n)
    return bases + [example3_state(), example4_state()] if n == 4 else bases


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("k", [None, 2, 3, "N"])
def test_crossings_equal_the_dense_reference_bisection(n, k):
    k = n if k == "N" else k
    bases = builtin_family_bases(n) + haar_random_pure(SamplerConfig(n, seed=8400 + n, count=2))
    for base in bases:
        family = NoisyFamily(base)
        for source in applicable_sources(family):
            expected = dense_reference_threshold(family, k, source)
            assert detection_threshold(family, k, source) == expected, (base, k, source)


@pytest.mark.parametrize("n", range(3, 9))
def test_ghz_exact_crossings_equal_the_dense_reference_bisection(n):
    family = NoisyFamily(ghz_state(n))
    for k in [None] + list(range(2, n + 1)):
        expected = dense_reference_threshold(family, k, Source.GHZ_EXACT)
        assert detection_threshold(family, k, Source.GHZ_EXACT) == expected, k


def test_bisection_takes_its_levels_in_one_kernel_call_each(monkeypatch):
    kernel, stacks = concurrence._wootters_stack, []
    monkeypatch.setattr(concurrence, "_wootters_stack", lambda m: stacks.append(len(m)) or kernel(m))
    assert detection_threshold(NoisyFamily(w_state(5)), None, Source.THEOREM2) is not None
    # the noiseless end alone, then every midpoint of BISECTION_LEVELS steps per call
    assert len(stacks) == 1 + math.ceil(30 / BISECTION_LEVELS)
    assert stacks[0] == 1
    assert max(stacks) == 2**BISECTION_LEVELS - 1


def streamed_marginals(point, step=256):
    """Pair -> partial_trace's marginal of the dense member, gathered from
    point.rows() blocks of step rows: the traced diagonal of each pair, then
    its folds, lowest traced label first, without a dense matrix."""
    n = point.n_qubits
    index = np.arange(2**n).reshape((2,) * n)
    gathers = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        traced = [a for a in range(n) if a not in (i - 1, j - 1)]
        flat = index.transpose(traced + [i - 1, j - 1]).reshape(-1, 4)  # [t, a] -> index
        rows, cols = np.broadcast_arrays(flat[:, :, None], flat[:, None, :])
        gathers[i, j] = rows, cols, np.empty(rows.shape, dtype=complex)
    for start in range(0, 2**n, step):
        block = point.rows(start, start + step)
        for rows, cols, out in gathers.values():
            inside = (rows >= start) & (rows < start + step)
            out[inside] = block[rows[inside] - start, cols[inside]]
    marginals = {}
    for pair, (_, _, out) in gathers.items():
        t = out.reshape((2,) * (n - 2) + (4, 4))
        for _ in range(n - 2):
            t = t[0] + t[1]
        marginals[pair] = t
    return marginals


@pytest.mark.parametrize("n", [4, 9, 12])
def test_batched_marginals_are_bit_identical_across_chunks(n):
    # the dense member state_at(x) up to 9 qubits; at 12 qubits it would take
    # 256 MiB, so its rows are streamed instead (rows are state_at's, bit for bit)
    step = max(1, MARGINAL_CHUNK_ENTRIES >> (n + 2))
    bases = [dicke_state(n, n // 2)] + haar_random_pure(SamplerConfig(n, seed=8500 + n))
    for base in bases:
        family = NoisyFamily(base)
        xs = [0.0, 1.0] + [float(x) for x in np.random.default_rng(n).uniform(0, 1, step + 1)]
        stacks = list(family.marginal_stacks(xs))
        assert [len(s) for s in stacks] == [step, 3]
        rows = np.concatenate(stacks)
        for x, row in [(xs[0], rows[0]), (xs[1], rows[1]), (xs[-1], rows[-1])]:
            if n <= 9:
                dense = family.state_at(x)
                want = {pair: dense.reduced(pair).matrix for pair in itertools.combinations(range(1, n + 1), 2)}
            else:
                want = streamed_marginals(family.point(x))
            for (pairs, _), got in zip(family.pair_classes, row):
                for pair in pairs:
                    assert got.tobytes() == want[pair].tobytes(), (base, x, pair)


@pytest.mark.parametrize("n", range(4, 10))
def test_symmetric_bases_have_one_class_of_pairs(n):
    for base in symmetric_bases(n):
        classes = NoisyFamily(base).pair_classes
        assert len(classes) == 1
        assert classes[0][0] == tuple(itertools.combinations(range(1, n + 1), 2))


@pytest.mark.parametrize("n", range(4, 10))
def test_haar_base_has_one_class_per_pair(n):
    (base,) = haar_random_pure(SamplerConfig(n, seed=8300 + n))
    assert len(NoisyFamily(base).pair_classes) == math.comb(n, 2)


def test_threshold_allocates_less_than_one_dense_matrix():
    tracemalloc.start()
    try:
        x = detection_threshold(NoisyFamily(w_state(9)), None, Source.THEOREM2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x is not None
    assert peak < 4**9 * 16  # one complex128 matrix on 9 qubits, 4 MiB


class TestFamilyPoint:
    def test_checks_the_parameter_first_as_white_noise_mix_does(self):
        family = NoisyFamily(w_state(13))
        for x in (-0.1, 1.5, float("nan")):
            with pytest.raises(ParameterOutOfRange) as dense:
                white_noise_mix(family.base, x)
            with pytest.raises(ParameterOutOfRange) as engine:
                family.point(x)
            assert str(engine.value) == str(dense.value)

    def test_holds_no_dense_matrix_above_the_dense_cap(self):
        # a point is its base vector and x; only the dense reference meets the dense cap
        family = NoisyFamily(ghz_state(13))
        point = family.point(0.5)
        assert point.x == 0.5
        assert not hasattr(point, "matrix")
        with pytest.raises(DimensionOverflow, match="13 qubits exceeds the dense-matrix cap"):
            family.state_at(0.5)

    def test_rows_are_the_family_member(self):
        family = NoisyFamily(dicke_state(5, 2))
        point = family.point(0.7)
        assert point.n_qubits == 5
        slabs = np.vstack([point.rows(i, i + 7) for i in range(0, 32, 7)])
        assert slabs.tobytes() == family.state_at(0.7).matrix.tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_rows_are_bit_identical_to_the_dense_path(n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        for x in visibilities(n):
            dense = family.state_at(x).matrix
            point = family.point(x)
            for step in (1, 7, 2**n):
                slabs = np.vstack([point.rows(i, i + step) for i in range(0, 2**n, step)])
                assert slabs.tobytes() == dense.tobytes(), (base, x, step)
