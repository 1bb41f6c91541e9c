"""The family engine: a NoisyFamily member's pair marginals, pairwise table
and crossings, from the base's reduced pair states, against the dense
reference state_at."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entbound import concurrence, states, witness
from entbound.bounds import theorem_bound
from entbound.concurrence import pairwise_table
from entbound.errors import DimensionOverflow, ParameterOutOfRange, TooFewQubits, WrongQubitCount
from entbound.linalg import BISECTION_STOP, BISECTION_TOL, GHZ_BASE_TOL
from oracle import SamplerConfig, haar_random_pure, reference_pair_classes
from entbound.states import (
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
    PATH_SLACK,
    THEOREM_SOURCES,
    Source,
    applicable_sources,
    certified_bound,
    detection_threshold,
    exceeds,
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


EPS = np.finfo(float).eps


def all_marginals(family, xs):
    """family.marginals of every class at each of xs, as one
    (len(xs), classes, 4, 4) array in point-then-class order."""
    k = len(family.pair_classes)
    return family.marginals(np.repeat(xs, k), np.tile(range(k), len(xs))).reshape(len(xs), k, 4, 4)


def class_marginals(family, row):
    """Pair -> marginal matrix, from one row of all_marginals."""
    return {pair: m for (pairs, _), m in zip(family.pair_classes, row) for pair in pairs}


@pytest.mark.parametrize("n", range(2, 9))
def test_marginals_agree_with_the_dense_path(n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        for x in visibilities(n):
            dense = family.state_at(x)
            got = class_marginals(family, all_marginals(family, [x])[0])
            for pair in itertools.combinations(range(1, n + 1), 2):
                gap = np.abs(got[pair] - dense.reduced(pair).matrix).max()
                assert gap <= 4 * EPS, (base, x, pair, gap)


@pytest.mark.parametrize("n", range(2, 8))
def test_tables_agree_with_the_dense_path(n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        for x in visibilities(n):
            dense = pairwise_table(family.state_at(x))
            engine = pairwise_table(family.point(x))
            assert list(engine.values) == list(dense.values)
            gaps = [abs(engine.values[pair] - c) for pair, c in dense.values.items()]
            assert max(gaps) <= 1e-14, (base, x)
            assert abs(engine.sum_of_squares - dense.sum_of_squares) <= 1e-14, (base, x)


@pytest.mark.parametrize("n", range(2, 15))
def test_w_family_pair_concurrence_has_its_closed_form(n):
    # C_12 of (1-x) I/4 + x rho_12, an X state: 2 max(0, |z| - sqrt(a d)) with
    # coherence z = x/N, |00> weight a = (1-x)/4 + x(N-2)/N and |11> weight d = (1-x)/4
    family = NoisyFamily(w_state(n))
    for x in [0.0, 0.05, 1 / 3, 0.5, 0.6, 0.87, 0.99, 1.0]:
        noise = (1 - x) / 4
        want = 2 * max(0.0, x / n - math.sqrt((noise + x * (n - 2) / n) * noise))
        table = pairwise_table(family.point(x))
        assert max(abs(c - want) for c in table.values.values()) <= 1e-14, (n, x)


def test_a_haar_table_at_the_pure_state_cap_stays_below_2_mib():
    # 91 reduced pair states of a 2^14 vector; no 2^12 x 16 block per pair
    family = NoisyFamily(haar_random_pure(SamplerConfig(14, seed=8314))[0])
    tracemalloc.start()
    try:
        table = pairwise_table(family.point(0.9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.values) == math.comb(14, 2)
    assert peak < 2 * 2**20


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


def record_rounds(monkeypatch):
    """The certified_bounds batches of detection_threshold, each as {x: bound on C}."""
    batch_bounds, rounds = witness.certified_bounds, []

    def record(states, source, tables=None):
        found = batch_bounds(states, source, tables)
        rounds.append({point.x: c for point, (_, c) in zip(states, found)})
        return found

    monkeypatch.setattr(witness, "certified_bounds", record)
    return rounds


def record_stacks(monkeypatch):
    """The number of marginals in each stacked Wootters kernel call."""
    kernel, stacks = concurrence._wootters_stack, []
    monkeypatch.setattr(concurrence, "_wootters_stack", lambda m: stacks.append(len(m)) or kernel(m))
    return stacks


def predicted_path(lo, hi, guess, stop):
    """The midpoints the one-step loop visits from [lo, hi] until the bracket
    is no wider than stop, if the crossing sat at guess."""
    mids = []
    while hi - lo > stop:
        mid = (lo + hi) / 2
        mids.append(mid)
        lo, hi = (lo, mid) if mid > guess else (mid, hi)
    return mids


def test_each_later_round_is_the_path_to_the_anchored_secant_guess(monkeypatch):
    stacks, rounds = record_stacks(monkeypatch), record_rounds(monkeypatch)
    # k = N: no closed form names this crossing, so the rounds guess by secant
    family = NoisyFamily(w_state(5))
    x = detection_threshold(family, 5, Source.THEOREM2)
    # one pair class: a round is one kernel call on its points above the
    # class's edge, and a round with none makes no call
    edge, = family.class_edges
    entangled = [sum(x > edge for x in batch) for batch in rounds]
    assert stacks == [rows for rows in entangled if rows]
    # the noiseless end alone, then 6 rounds
    assert list(rounds[0]) == [1.0]
    assert len(rounds) == 7
    # replay the one-step loop: a round starts where it meets a midpoint no
    # earlier round evaluated, and is the PATH_SLACK-cut predicted path to the
    # secant guess through the entanglement edge, less the points seen
    threshold, root = k_nonsep_threshold(5, 2, 5), family.entanglement_edge
    seen, later, last_guess = dict(rounds[0]), iter(rounds[1:]), None
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_STOP:
        mid = (lo + hi) / 2
        if mid not in seen:
            guess, path = witness._crossing_guess(seen, threshold, lo, hi, root), []
            if guess is not None:
                moved = hi - lo if last_guess is None else abs(guess - last_guess)
                path = predicted_path(lo, hi, guess, max(BISECTION_STOP, moved / PATH_SLACK))
                last_guess = guess
            batch = next(later)
            assert list(batch) == ([p for p in path if p not in seen] or [mid])
            seen.update(batch)
        if exceeds(seen[mid], threshold):
            hi = mid
        else:
            lo = mid
    assert next(later, None) is None
    assert (lo + hi) / 2 == x


def loop_path(family, k, source):
    """The midpoints the one-step loop visits, in order."""
    threshold = 0.0 if k is None else k_nonsep_threshold(family.n_qubits, 2, k)
    lo, hi, mids = 0.0, 1.0, []
    while hi - lo > BISECTION_STOP:
        mid = (lo + hi) / 2
        mids.append(mid)
        if exceeds(certified_bound(family.point(mid), source)[1], threshold):
            hi = mid
        else:
            lo = mid
    return mids


def test_plain_detection_takes_one_round_along_the_entanglement_edge(monkeypatch):
    stacks, rounds = record_stacks(monkeypatch), record_rounds(monkeypatch)
    family = NoisyFamily(w_state(5))
    x = detection_threshold(family, None, Source.THEOREM2)
    # the noiseless end and the loop's whole path, in one round; its points
    # above the edge, in one kernel call
    edge, = family.class_edges
    assert len(rounds) == len(stacks) == 1
    assert stacks[0] == sum(x > edge for x in rounds[0]) < len(rounds[0]) <= 31
    assert list(rounds[0]) == [1.0] + loop_path(family, None, Source.THEOREM2)
    assert x == dense_reference_threshold(family, None, Source.THEOREM2)


@pytest.mark.parametrize("base, k, source", [
    (ghz_state(4), None, Source.THEOREM1),
    (ghz_state(6), None, Source.THEOREM3),
    (ghz_state(5), None, Source.THEOREM2),
    (w_state(4), 2, Source.THEOREM1),
    (ghz_state(4), 2, Source.GHZ_EXACT),
    (ghz_state(7), 3, Source.GHZ_EXACT),
], ids=["ghz4-t1", "ghz6-t3", "ghz5-t2", "w4-t1-k2", "ghz4-exact-k2", "ghz7-exact-k3"])
def test_a_threshold_without_a_crossing_evaluates_one_point(monkeypatch, base, k, source):
    # a GHZ base has no entangled pair, and ghz-exact names no visibility in
    # (0, 1) at a k it cannot reach, so only the noiseless end is evaluated;
    # the secant's anchor waits for a detected noiseless end, so at k >= 2
    # the entanglement edge is never computed
    rounds, family = record_rounds(monkeypatch), NoisyFamily(base)
    assert detection_threshold(family, k, source) is None
    assert [list(batch) for batch in rounds] == [[1.0]]
    assert (k is None) == ("entanglement_edge" in family.__dict__)


def test_the_secant_runs_through_the_point_where_the_bound_leaves_zero():
    # one positive bound and the root: the line through (0.5, 0) and (1, 0.8)
    assert witness._crossing_guess({1.0: 0.8, 0.25: 0.0}, 0.4, 0.5, 1.0, 0.5) == 0.75
    assert witness._crossing_guess({1.0: 0.8, 0.25: 0.0}, 0.4, 0.5, 1.0, None) is None


@pytest.mark.parametrize("base, k, source, level_tree, pinned", [
    (w_state(4), 4, Source.THEOREM1, (6, 49), (5, 40)),
    (w_state(5), 5, Source.THEOREM2, (8, 54), (7, 47)),
    (dicke_state(4, 2), 4, Source.THEOREM1, (4, 34), (3, 31)),
    (example3_state(), 4, Source.THEOREM1, (7, 47), (6, 47)),
    (example4_state(), 3, Source.THEOREM1, (4, 34), (3, 31)),
    (example4_state(), 4, Source.THEOREM1, (4, 34), (3, 31)),
], ids=["w4-k4-t1", "w5-k5-t2", "dicke42-k4-t1", "ex3-k4-t1", "ex4-k3-t1", "ex4-k4-t1"])
def test_multi_round_crossings_take_their_pinned_rounds_and_points(
        monkeypatch, base, k, source, level_tree, pinned):
    # the --family crossings that take more than one round: (rounds, points)
    # at most those of rounds that also took 3 midpoints per 2 steps
    rounds = record_rounds(monkeypatch)
    assert detection_threshold(NoisyFamily(base), k, source) is not None
    got = (len(rounds), sum(map(len, rounds)))
    assert got == pinned
    assert got[0] <= level_tree[0] and got[1] <= level_tree[1]


def crossing_sources(family):
    """applicable_sources, or none where no source bounds the family."""
    try:
        return applicable_sources(family)
    except WrongQubitCount:
        return []


def fixed_guesses(seed):
    """Stand-ins for _crossing_guess: each bracket end, a ulp either side of
    its midpoint, a seeded point inside it, and no guess.  first_guess turns
    one into a stand-in for _first_guess, on the bracket [0, 1]."""
    rng = np.random.default_rng(seed)
    return {
        "lo": lambda seen, threshold, lo, hi, root: lo,
        "hi": lambda seen, threshold, lo, hi, root: hi,
        "mid-ulp": lambda seen, threshold, lo, hi, root: math.nextafter((lo + hi) / 2, -math.inf),
        "mid+ulp": lambda seen, threshold, lo, hi, root: math.nextafter((lo + hi) / 2, math.inf),
        "random": lambda seen, threshold, lo, hi, root: float(rng.uniform(lo, hi)),
        "none": lambda seen, threshold, lo, hi, root: None,
    }


def bits(x):
    return None if x is None else x.hex()


def first_guess(guess):
    return lambda family, threshold, source: guess({}, threshold, 0.0, 1.0, None)


def guess_pairs(guesses):
    """(first, later) stand-in names: each stand-in for both guesses, and each
    for the first guess alone (later None keeps the secant rule)."""
    return [(name, name) for name in guesses] + [(name, None) for name in guesses]


@pytest.mark.parametrize("n", range(3, 9))
def test_a_guess_picks_points_not_verdicts(monkeypatch, n):
    bases = builtin_family_bases(n) + haar_random_pure(SamplerConfig(n, seed=8400 + n, count=2))
    guesses = fixed_guesses(8700 + n)
    for base in bases:
        family = NoisyFamily(base)
        for k in [None] + list(range(2, n + 1)):
            for source in crossing_sources(family):
                expected = bits(detection_threshold(family, k, source))
                assert expected == bits(dense_reference_threshold(family, k, source)), (base, k, source)
                for first, name in guess_pairs(guesses):
                    with monkeypatch.context() as m:
                        m.setattr(witness, "_first_guess", first_guess(guesses[first]))
                        if name is not None:
                            m.setattr(witness, "_crossing_guess", guesses[name])
                        rounds = record_rounds(m)
                        got = bits(detection_threshold(family, k, source))
                    assert got == expected, (base, k, source, first, name)
                    if first == name == "none":
                        # no guess, no path: the noiseless end, then the one-step loop
                        assert len(rounds) == (1 if got is None else 1 + 30)


def test_rounds_and_marginals_stay_within_budget(monkeypatch):
    stacks, rounds = record_stacks(monkeypatch), record_rounds(monkeypatch)
    # a crossing takes at most 7 rounds, and on average no more points than
    # the 1 + 15 * 3 = 46 of rounds of 3 midpoints per 2 steps
    crossings = marginals = budget = 0
    for n in range(4, 10):
        for base in builtin_family_bases(n):
            family = NoisyFamily(base)
            for k in [None] + list(range(2, n + 1)):
                for source in applicable_sources(family):
                    stacks.clear()
                    rounds.clear()
                    if detection_threshold(family, k, source) is None:
                        continue
                    crossings += 1
                    assert len(rounds) <= 7, (base, k, source)
                    if source in THEOREM_SOURCES:
                        assert len(stacks) == len(rounds)
                        marginals += sum(stacks)
                        budget += 46 * len(family.pair_classes)
    assert crossings >= 70
    assert marginals <= budget


@pytest.mark.parametrize("base, source", [
    (dicke_state(14, 7), Source.THEOREM2),
    (w_state(14), Source.THEOREM3),
], ids=["dicke-noise-t2", "w-noise-t3"])
def test_fourteen_qubit_crossings_stay_within_budget(monkeypatch, base, source):
    # the entanglement edge predicts the whole path: one call on the
    # noiseless end and at most 30 midpoints (31 rounds one point at a time)
    stacks = record_stacks(monkeypatch)
    assert detection_threshold(NoisyFamily(base), None, source) is not None
    assert len(stacks) == 1
    assert stacks[0] <= 31


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
def test_batched_marginals_equal_one_x_rows_bit_for_bit(n):
    # the dense member state_at(x) up to 9 qubits; at 12 qubits it would take
    # 256 MiB, so its rows are streamed instead (rows are state_at's, bit for bit)
    bases = [dicke_state(n, n // 2)] + haar_random_pure(SamplerConfig(n, seed=8500 + n))
    for base in bases:
        family = NoisyFamily(base)
        xs = [0.0, 1.0] + [float(x) for x in np.random.default_rng(n).uniform(0, 1, 97)]
        rows = all_marginals(family, xs)
        assert rows.shape == (len(xs), len(family.pair_classes), 4, 4)
        for x, row in zip(xs, rows):
            for c, m in enumerate(row):
                assert m.tobytes() == family.marginals([x], [c])[0].tobytes(), (base, x, c)
        for x, row in [(xs[0], rows[0]), (xs[1], rows[1]), (xs[-1], rows[-1])]:
            if n <= 9:
                dense = family.state_at(x)
                want = {pair: dense.reduced(pair).matrix for pair in itertools.combinations(range(1, n + 1), 2)}
            else:
                want = streamed_marginals(family.point(x))
            for pair, got in class_marginals(family, row).items():
                assert np.abs(got - want[pair]).max() <= 4 * EPS, (base, x, pair)


def phase_bases(n):
    """Bases with a sign, a factor i or a signed zero among their amplitudes:
    (|01> - |10>)/sqrt2 and (|01> + i|10>)/sqrt2 on qubits 1, 2 times
    |0...0>, and GHZ with a -0.0 amplitude at either end of its zeros."""
    bases = []
    for phase in (-1, 1j):
        amps = np.zeros(2**n, dtype=complex)
        amps[1 << (n - 2)], amps[2 << (n - 2)] = 1 / math.sqrt(2), phase / math.sqrt(2)
        bases.append(PureState(n, amps))
    for index, zero in [(1, complex(-0.0, 0.0)), (2**n - 2, complex(0.0, -0.0))]:
        amps = ghz_state(n).amplitudes.copy()
        amps[index] = zero
        bases.append(PureState(n, amps))
    return bases


def reference_bases(n):
    """Every built-in base on n qubits (every Dicke excitation; ex3 and ex4 at
    n=4), the phase_bases, and at n=3..9 seeded Haar bases."""
    bases = symmetric_bases(n) + phase_bases(n)
    if n == 4:
        bases += [example3_state(), example4_state()]
    if 3 <= n <= 9:
        bases += haar_random_pure(SamplerConfig(n, seed=8600 + n, count=2))
    return bases


def near_miss_bases(n):
    """Bases one step from permutation symmetry, which take the per-pair
    loop: Dicke(n, n//2) with one amplitude moved by one ulp, a base
    invariant under the swap (1 2) only, (|01> + |10>)/sqrt2 on qubits 1, 2
    times |0...0> (n >= 3), and one invariant under the cyclic shift only,
    the ring of adjacent excitation pairs (n >= 4; at n=4,
    (|0011> + |0110> + |1100> + |1001>)/2)."""
    amps = dicke_state(n, n // 2).amplitudes.copy()
    index = int(np.flatnonzero(amps)[-1])
    amps[index] = np.nextafter(amps[index].real, 1.0)
    bases = [PureState(n, amps)]
    if n >= 3:
        amps = np.zeros(2**n, dtype=complex)
        amps[1 << (n - 2)] = amps[2 << (n - 2)] = 1 / math.sqrt(2)
        bases.append(PureState(n, amps))
    if n >= 4:
        amps = np.zeros(2**n, dtype=complex)
        ring = {(3 << q | 3 >> (n - q)) & (2**n - 1) for q in range(n)}
        amps[sorted(ring)] = 1 / math.sqrt(n)
        bases.append(PureState(n, amps))
    return bases


@pytest.mark.parametrize("n", range(2, 15))
def test_pair_classes_equal_the_reduced_state_keyed_reference(n):
    for base in reference_bases(n) + near_miss_bases(n):
        classes = NoisyFamily(base).pair_classes
        want = reference_pair_classes(base)
        assert [pairs for pairs, _ in classes] == [pairs for pairs, _ in want], base
        for (pairs, rho), (_, ref) in zip(classes, want):
            assert rho.shape == (4, 4) and rho.tobytes() == ref.tobytes(), (base, pairs)
            if n <= 8:  # the dense partial trace of |base><base|
                for pair in pairs:
                    dense = base.density_matrix().reduced(pair).matrix
                    assert np.abs(rho - dense).max() <= 4 * EPS, (base, pair)


@pytest.mark.parametrize("n", range(2, 15))
def test_only_permutation_symmetric_bases_take_one_gram(monkeypatch, n):
    # -psi and i psi of a symmetric base are symmetric too; every near miss,
    # and GHZ with a -0.0 amplitude, takes one Gram per pair
    side_grams, side_gram = [], states._side_gram
    monkeypatch.setattr(states, "_side_gram", lambda psi, bits: side_grams.append(bits) or side_gram(psi, bits))
    turned = [PureState(n, phase * base.amplitudes)
              for base in symmetric_bases(n) for phase in (-1, 1j)]
    for symmetric, bases in [(True, symmetric_bases(n) + turned),
                             (False, near_miss_bases(n) + phase_bases(n)[2:])]:
        for base in bases:
            assert base.permutation_symmetric == symmetric, base
            side_grams.clear()
            classes = NoisyFamily(base).pair_classes
            assert len(side_grams) == (1 if symmetric else math.comb(n, 2)), base
            want = reference_pair_classes(base)
            assert [pairs for pairs, _ in classes] == [pairs for pairs, _ in want], base
            assert [rho.tobytes() for _, rho in classes] == [rho.tobytes() for _, rho in want], base


@pytest.mark.parametrize("n", range(1, 8))
def test_side_gram_moves_the_masked_qubits_to_the_rows(n):
    (base,) = haar_random_pure(SamplerConfig(n, seed=8650 + n))
    tensor = base.amplitudes.reshape((2,) * n)
    for bits in range(1, 2**n):
        axes = [q - 1 for q in range(1, n + 1) if bits >> (n - q) & 1]
        m = np.moveaxis(tensor, axes, range(len(axes))).reshape(2 ** len(axes), -1)
        assert states._side_gram(base, bits).tobytes() == np.dot(m, m.conj().T).tobytes(), bits


def test_a_one_qubit_base_has_no_pairs():
    base = PureState(1, np.array([0.6, 0.8j]))
    assert base.permutation_symmetric and NoisyFamily(base).pair_classes == ()


def test_ghz_base_gap_is_the_gap_to_the_ghz_vector():
    # the rule without building ghz_state(n), against the rule that builds it,
    # on perturbations either side of GHZ_BASE_TOL and on other bases
    rng = np.random.default_rng(8700)
    for n in range(2, 10):
        bases = [w_state(n), dicke_state(n, n // 2)] + haar_random_pure(SamplerConfig(n, seed=8700 + n))
        for scale in (0.5, 0.999, 1.001, 2.0):
            for index in (0, 1, 2**n - 2, 2**n - 1):
                amps = ghz_state(n).amplitudes.copy()
                amps[index] += scale * GHZ_BASE_TOL * np.exp(1j * rng.uniform(0, 2 * math.pi))
                bases.append(PureState(n, amps / np.linalg.norm(amps)))
        for base in bases + phase_bases(n):
            gap = np.max(np.abs(base.amplitudes - ghz_state(n).amplitudes))
            assert NoisyFamily(base).has_ghz_base == bool(gap <= GHZ_BASE_TOL), base
    with pytest.raises(TooFewQubits):
        NoisyFamily(PureState(1, np.array([1.0, 0.0]))).has_ghz_base
    with pytest.raises(DimensionOverflow):
        NoisyFamily(PureState(15, np.full(2**15, 2**-7.5))).has_ghz_base


@pytest.mark.parametrize("n", range(4, 15))
def test_symmetric_bases_have_one_class_of_pairs(n):
    for base in symmetric_bases(n):
        classes = NoisyFamily(base).pair_classes
        assert len(classes) == 1
        assert classes[0][0] == tuple(itertools.combinations(range(1, n + 1), 2))


@pytest.mark.parametrize("n", range(4, 10))
def test_haar_base_has_one_class_per_pair(n):
    (base,) = haar_random_pure(SamplerConfig(n, seed=8300 + n))
    assert len(NoisyFamily(base).pair_classes) == math.comb(n, 2)


def test_class_states_are_one_read_only_stack_of_the_pair_classes():
    family = NoisyFamily(example3_state())
    stack = family.class_states
    assert stack is family.class_states and not stack.flags.writeable
    assert [rho.tobytes() for rho in stack] == [rho.tobytes() for _, rho in family.pair_classes]


def w_edge(n):
    """1/(1 - 4 mu), mu the least eigenvalue of rho_12^{T_B} for W_N: the
    block [[a, 1/N], [1/N, 0]] on |00>, |11>, a = (N-2)/N, gives
    mu = a/2 - sqrt(a^2/4 + 1/N^2)."""
    a = (n - 2) / n
    return 1 / (1 - 4 * (a / 2 - math.sqrt(a * a / 4 + 1 / n**2)))


@pytest.mark.parametrize("n", range(3, 15))
def test_w_family_entanglement_edge_has_its_closed_form(n):
    assert abs(NoisyFamily(w_state(n)).entanglement_edge - w_edge(n)) <= 4 * EPS
    assert NoisyFamily(ghz_state(n)).entanglement_edge is None


@pytest.mark.parametrize("base, edge", [
    (w_state(4), 1 / math.sqrt(2)),
    (dicke_state(4, 2), 0.6),
    (example4_state(), 1 / 3),
    (example3_state(), (math.sqrt(5) - 1) / 2),
], ids=["w4", "dicke4-2", "ex4", "ex3"])
def test_four_qubit_entanglement_edges_have_their_closed_forms(base, edge):
    assert abs(NoisyFamily(base).entanglement_edge - edge) <= 4 * EPS


@pytest.mark.parametrize("n", range(3, 13))
def test_the_entanglement_edge_sits_just_below_the_plain_detection_crossing(n):
    bases = builtin_family_bases(n) + haar_random_pure(SamplerConfig(n, seed=8800 + n, count=2))
    for base in bases:
        family = NoisyFamily(base)
        edge = family.entanglement_edge
        if edge is None:  # no pair is entangled, not even the noiseless one's
            assert max(pairwise_table(family.point(1.0)).values.values()) == 0.0, base
            continue
        below, above = (max(pairwise_table(family.point(x)).values.values())
                        for x in (edge - BISECTION_TOL, min(edge + BISECTION_TOL, 1.0)))
        assert below == 0.0 < above, base
        for source in crossing_sources(family):
            if source in THEOREM_SOURCES:
                crossing = detection_threshold(family, None, source)
                assert -BISECTION_STOP <= crossing - edge <= BISECTION_TOL, (base, source)


def test_class_edges_are_the_per_class_ppt_edges():
    ex3 = NoisyFamily(example3_state())
    edges = dict(zip((pairs for pairs, _ in ex3.pair_classes), ex3.class_edges))
    assert {pairs for pairs, edge in edges.items() if edge == math.inf} == {((1, 3),), ((2, 4),)}
    assert ex3.class_edges is ex3.class_edges
    assert ex3.entanglement_edge == min(ex3.class_edges)
    for n in range(3, 15):
        (edge,) = NoisyFamily(w_state(n)).class_edges
        assert abs(edge - w_edge(n)) <= 4 * EPS
        assert NoisyFamily(ghz_state(n)).class_edges == (math.inf,)


def all_rows_pair_concurrences(points):
    """concurrence._pair_concurrences with every family row through the
    kernel, the separable ones too: the reference for the edge skip."""
    out = []
    for family, run in itertools.groupby(points, lambda rho: rho.family):
        n, classes = family.n_qubits, family.pair_classes
        index = {pair: c for c, (pairs, _) in enumerate(classes) for pair in pairs}
        order = [index[pair] for pair in itertools.combinations(range(1, n + 1), 2)]
        found = concurrence._wootters_stack(all_marginals(family, [rho.x for rho in run]).reshape(-1, 4, 4))
        out += [(n, [found[row + c] for c in order]) for row in range(0, len(found), len(classes))]
    return out


def edge_points(family):
    """257 grid points, and each finite class edge, a ulp either side of it,
    and 1e-15, 1e-12 and 1e-9 either side, within [0, 1]."""
    xs = np.linspace(0.0, 1.0, 257).tolist()
    for edge in set(family.class_edges) - {math.inf}:
        xs += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        xs += [edge + d for d in (-1e-9, -1e-12, -1e-15, 1e-15, 1e-12, 1e-9)]
    return [x for x in xs if 0.0 <= x <= 1.0]


@pytest.mark.parametrize("n", range(3, 11))
def test_rows_at_or_below_their_class_edge_read_the_kernel_bits(n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        points = [family.point(x) for x in edge_points(family)]
        got = [[v.hex() for v in t.values.values()] for t in concurrence.pairwise_tables(points)]
        want = [[v.hex() for v in cs] for _, cs in all_rows_pair_concurrences(points)]
        assert got == want, base


@pytest.mark.parametrize("n", range(3, 11))
def test_crossings_keep_their_bits_with_separable_rows_skipped(monkeypatch, n):
    for base in engine_bases(n):
        family = NoisyFamily(base)
        for k in [None] + list(range(2, n + 1)):
            for source in crossing_sources(family):
                got = bits(detection_threshold(family, k, source))
                with monkeypatch.context() as m:
                    m.setattr(concurrence, "_pair_concurrences", all_rows_pair_concurrences)
                    assert got == bits(detection_threshold(family, k, source)), (base, k, source)


def test_families_without_an_entangled_pair_make_no_kernel_calls(monkeypatch):
    stacks = record_stacks(monkeypatch)
    (haar,) = haar_random_pure(SamplerConfig(8, seed=8900))
    for base in [ghz_state(n) for n in range(3, 15)] + [haar]:
        family = NoisyFamily(base)
        assert set(family.class_edges) == {math.inf}
        tables = concurrence.pairwise_tables([family.point(x) for x in np.linspace(0, 1, 101)])
        assert {v for t in tables for v in t.values.values()} == {0.0}
        for source in crossing_sources(family):
            if source in THEOREM_SOURCES:
                assert detection_threshold(family, None, source) is None
    assert stacks == []


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
