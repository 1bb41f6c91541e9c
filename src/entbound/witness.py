"""k-nonseparability detection.

A state of N parties with local dimension d is certified k-nonseparable
whenever a certified lower bound on its concurrence exceeds a closed-form
threshold in (N, d, k).  Verdicts are one-sided: "not detected" never means
"k-separable".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .concurrence import PairwiseConcurrenceTable, pair_square_sums, pure_concurrence
from .errors import (
    FamilyMismatch,
    NegativeRadicand,
    NonMonotoneFamily,
    ParameterOutOfRange,
    WrongQubitCount,
)
from .linalg import (
    BISECTION_STOP,
    DETECTION_MARGIN,
    FAMILY_MATCH_TOL,
    PURITY_TOL,
    ZERO_DUST,
    hermitian_eigensystem,
    purity,
)
from .states import DensityMatrix, FamilyPoint, NoisyFamily, PureState, ghz_state

GHZ_CHECK_ENTRIES = 2**18  # entries per row block of the GHZ-noise check, 4 MiB
# A round after the first evaluates the midpoints the one-step loop would
# visit if the crossing sat at the secant guess, until the bracket is
# PATH_SLACK times narrower than the guess moved since the previous guess
# (than the bracket, when no guess came before).  On the 8 k >= 2 theorem
# crossings of built-in bases at n = 4-5 that take more than one round, an
# untruncated path took 592 points instead of 314 and about 35% longer
# (2-vCPU x86_64 host); a slack of 2^4 took more rounds on two of them, 2^12
# more points on five.  A first guess from a closed form
# (witness._first_guess) names the crossing to far below BISECTION_STOP, so
# its path is not cut.
PATH_SLACK = 2**8


class Source(str, enum.Enum):
    """Where a certified lower bound on the concurrence comes from."""

    THEOREM1 = "t1"
    THEOREM2 = "t2"
    THEOREM3 = "t3"
    GHZ_EXACT = "ghz-exact"
    PURE_EXACT = "pure-exact"
    USER_SUPPLIED = "user"


# Each theorem source and its row label in bounds.THEOREMS, in THEOREMS order.
THEOREM_SOURCES = {Source.THEOREM1: "T1", Source.THEOREM2: "T2", Source.THEOREM3: "T3"}


@dataclass(frozen=True)
class WitnessVerdict:
    n_parties: int
    local_dim: int
    k: int
    threshold: float
    certified_lower_bound_on_C: float
    source: Source
    detected: bool

    def __post_init__(self):
        if not 2 <= self.k <= self.n_parties:
            raise ParameterOutOfRange(f"k={self.k} outside 2..{self.n_parties}")
        if self.threshold < 0:
            raise ParameterOutOfRange("threshold must be nonnegative")
        if not self.certified_lower_bound_on_C >= 0:
            raise ParameterOutOfRange("certified lower bound must be nonnegative")
        if self.detected != exceeds(self.certified_lower_bound_on_C, self.threshold):
            raise ParameterOutOfRange("detected flag inconsistent with bound/threshold")


def k_nonsep_threshold(n: int, d: int, k: int, min_block_size: int = 1) -> float:
    """Concurrence threshold above which an N-qudit state is k-nonseparable.

    2^(1-N/2) sqrt(2^N - 2^k + (2^k-2)/d^a - 2 sum_{i=1}^{m} C(N,i)/d^i),
    with m = (N-1)/2 for odd N; for even N the sum stops at N/2-1 and
    C(N,N/2)/d^(N/2) is subtracted once.  min_block_size is the pure-state
    refinement a = |A| (smallest block of the k-partition); the default
    a = 1 is the worst case valid for mixed states.
    """
    if n < 2 or d < 2:
        raise ParameterOutOfRange(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if not 2 <= k <= n:
        raise ParameterOutOfRange(f"k={k} outside 2..{n}")
    if min_block_size < 1 or k * min_block_size > n:
        raise ParameterOutOfRange(
            f"min_block_size={min_block_size} impossible for a {k}-partition of {n}"
        )
    # Binomials in exact integer arithmetic before any float conversion.
    if n % 2 == 1:
        tail = 2 * sum(math.comb(n, i) / d**i for i in range(1, (n - 1) // 2 + 1))
    else:
        tail = 2 * sum(math.comb(n, i) / d**i for i in range(1, n // 2))
        tail += math.comb(n, n // 2) / d ** (n // 2)
    radicand = 2**n - 2**k + (2**k - 2) / d**min_block_size - tail
    if radicand < -ZERO_DUST:
        raise NegativeRadicand(
            f"radicand {radicand:.3e} for (n={n}, d={d}, k={k}): invalid regime"
        )
    return 2.0 ** (1 - n / 2) * math.sqrt(max(radicand, 0.0))


def exceeds(bound: float, threshold: float) -> bool:
    """Whether a certified lower bound on C detects at threshold: the one
    comparison behind every verdict, sweep column and bisection step.

    The bound must beat the threshold by more than DETECTION_MARGIN (1e-12),
    so rounding cannot lift a state that only reaches its threshold into a
    detection.  The margin covers the rounding of both sides:

    - k_nonsep_threshold: for d = 2 and N <= 14 its radicand is a sum of
      dyadic rationals that floats hold exactly, so only the square root and
      the factor 2^(1-N/2) round: a few ulp of a value at most 2, < 1e-15.
    - pure-exact: C^2 = 2^(3-N) times the sum of the deficits D of the
      2^(N-1) - 1 cuts, so an error delta in each D moves C by at most
      2 delta / C.  _gram_deficit puts delta at a few eps in practice (8e-12
      in its worst case at PURE_DIM_CAP): about 1e-15 at the one tight
      nonzero threshold, C = 1 at N = 3, k = 2, whose Grams are 2 x 2.
      A cut covered by product qubits reads D = 0 where the eigen path
      may keep up to 2 |T| EIGEN_DUST (see _walk_deficits, whose rule
      _size_deficits keeps): that only lowers C, so it cannot lift a state
      into a detection.
    - T1-T3: C = sqrt(c sum C_ij^2), and c times the number of pairs is at
      most 15/2 (T3 at N = 6), so C errs by less than 3 times one pair's
      error.  A Wootters value adds and subtracts the four singular values
      of M = L^T (sy x sy) L, where L L^dagger is the marginal.  By Weyl
      each moves by at most the norm of M's rounding, a few eps ||L||_F^2 =
      a few eps Tr rho, so C errs by about 1e-15 whatever the spectrum, and
      values at most SINGULAR_DUST Tr rho read as exact zeros.
    - ghz-exact: a square root times ((2^(N-1) + 1) p - 1) / 2^(N-1), one
      rounding per operation on values near 1: a few ulp, < 1e-15.

    Where a threshold is tight, each side thus errs by about 1e-15, and the
    margin leaves three orders of magnitude for the longer sums of larger N.
    It is a rounding allowance, not an interval bound: it does not bound how
    far C moves between a marginal and the computed L L^dagger.  The margin
    moves a crossing by margin / slope, below BISECTION_TOL for any slope
    above 1e-6.
    """
    return bound > threshold + DETECTION_MARGIN


def _ghz_visibility(rho: DensityMatrix | FamilyPoint) -> float:
    """The visibility p of a GHZ + white-noise state, rejecting other states:
    a point of a family with a GHZ base is its own x, any other state must match
    the GHZ model at the p read off its corner, GHZ_CHECK_ENTRIES entries at a time."""
    if isinstance(rho, FamilyPoint) and rho.family.has_ghz_base:
        return rho.x
    p = 2.0 * float(np.real(rho.rows(0, 1)[0, -1]))
    if not -FAMILY_MATCH_TOL <= p <= 1.0 + FAMILY_MATCH_TOL:
        raise FamilyMismatch(f"recovered visibility {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    model = NoisyFamily(ghz_state(rho.n_qubits)).point(p)
    step = max(1, GHZ_CHECK_ENTRIES >> rho.n_qubits)
    gap = max(float(np.max(np.abs(model.rows(i, i + step) - rho.rows(i, i + step))))
              for i in range(0, 2**rho.n_qubits, step))
    if gap > FAMILY_MATCH_TOL:
        raise FamilyMismatch(f"state deviates from the GHZ noise family by {gap:.3e}")
    return p


def _pure_state_of(rho: DensityMatrix | FamilyPoint) -> PureState:
    """A family point has purity x^2 + (1-x^2)/2^N and, once pure, is its base."""
    point = rho if isinstance(rho, FamilyPoint) else None
    p2 = point.x**2 + (1.0 - point.x**2) / 2**rho.n_qubits if point else purity(rho.matrix)
    if abs(p2 - 1.0) > PURITY_TOL:
        raise FamilyMismatch("pure-exact source requires a pure state")
    if point:
        return point.family.base
    _, vecs = hermitian_eigensystem(rho.matrix)
    return PureState(rho.n_qubits, vecs[:, 0] / np.linalg.norm(vecs[:, 0]))


def applicable_sources(given: DensityMatrix | NoisyFamily) -> list[Source]:
    """Every source that applies to the input by default: each theorem on its
    bounds.THEOREMS domain, in THEOREMS order, plus ghz-exact on a family with
    a GHZ base.  A dense state never gets ghz-exact by default: reading it
    compares the state with the GHZ model entry by entry and raises on any
    other state, a check a caller asks for by naming the source."""
    theorems = bounds_mod.applicable_theorems(given.n_qubits)
    sources = [source for source, label in THEOREM_SOURCES.items() if label in theorems]
    if isinstance(given, NoisyFamily) and given.has_ghz_base:
        sources.append(Source.GHZ_EXACT)
    if not sources:
        raise WrongQubitCount(f"no bound source applies to {given.n_qubits} qubits")
    return sources


def require_source(source: Source, n_qubits: int, family: NoisyFamily | None = None) -> None:
    """Raise unless source can bound an N-qubit state, or every member of
    family when one is given; needs no state, so it runs before any is built."""
    if source in THEOREM_SOURCES:
        bounds_mod.require_domain(THEOREM_SOURCES[source], n_qubits)
    elif family is None:
        return
    elif source is not Source.GHZ_EXACT:
        raise ParameterOutOfRange(f"source {source.value!r} cannot sweep a noise family")
    elif not family.has_ghz_base:
        raise FamilyMismatch("ghz-exact source requires the GHZ noise family")


def certified_bounds(states, source: Source, tables=None) -> list[tuple[float, float]]:
    """Certified lower bounds (on C^2, on C) of each state in the sequence
    states from one source, in order.

    Theorem sources read each state's pairwise sum of squares (from tables,
    for callers that already have them, else from pair_square_sums without a
    table or report per state), ghz-exact reads the visibility of a GHZ +
    white-noise state, and pure-exact the concurrence of a pure state.  A
    bound computed elsewhere needs no state: pass it to verdict with
    Source.USER_SUPPLIED.
    """
    if source in THEOREM_SOURCES:
        sums = (((t.n_qubits, t.sum_of_squares) for t in tables) if tables is not None
                else zip((rho.n_qubits for rho in states), pair_square_sums(states)))
        c2s = [bounds_mod.theorem_c2(THEOREM_SOURCES[source], n, s) for n, s in sums]
        return [(c2, math.sqrt(c2)) for c2 in c2s]
    if source is Source.GHZ_EXACT:
        cs = [bounds_mod.ghz_noise_exact_concurrence(rho.n_qubits, _ghz_visibility(rho))
              for rho in states]
    elif source is Source.PURE_EXACT:
        cs = [pure_concurrence(_pure_state_of(rho)) for rho in states]
    else:
        raise ParameterOutOfRange(
            f"source {source.value!r} reads no state; pass its bound to verdict")
    return [(c**2, c) for c in cs]


def certified_bound(rho: DensityMatrix | FamilyPoint, source: Source,
                    table: PairwiseConcurrenceTable | None = None) -> tuple[float, float]:
    """Certified lower bounds (on C^2, on C) of rho from one source:
    certified_bounds of rho alone (and of table, when given)."""
    return certified_bounds([rho], source, None if table is None else [table])[0]


def verdict(n_qubits: int, k: int, source: Source, bound: float) -> WitnessVerdict:
    """The k-nonseparability verdict of a certified lower bound on the
    concurrence of an N-qubit state (local dimension 2)."""
    threshold = k_nonsep_threshold(n_qubits, 2, k)
    return WitnessVerdict(n_parties=n_qubits, local_dim=2, k=k, threshold=threshold,
                          certified_lower_bound_on_C=bound, source=source,
                          detected=exceeds(bound, threshold))


def detect_k_nonseparability(rho: DensityMatrix | FamilyPoint, k: int,
                             source: Source) -> WitnessVerdict:
    """Certify k-nonseparability of a qubit state (local dimension 2).

    detected=False means "not detected by this bound", never "k-separable".
    """
    return verdict(rho.n_qubits, k, source, certified_bound(rho, source)[1])


def _crossing_guess(seen: dict[float, float], threshold: float,
                    lo: float, hi: float, root: float | None) -> float | None:
    """Secant estimate, clamped to [lo, hi], of where the bound on C crosses
    threshold: through the two points nearest threshold among those of seen
    (x -> bound on C) with a positive bound and (root, 0), where the bound
    leaves 0 (None when unknown).  None with fewer than two such points, equal
    bounds or a non-finite result.  It only picks which points a bisection
    round evaluates, never a verdict."""
    points = [(x, c) for x, c in seen.items() if c > 0] + ([] if root is None else [(root, 0.0)])
    near = sorted((abs(c - threshold), x, c) for x, c in points)[:2]
    if len(near) < 2:
        return None
    (_, x1, c1), (_, x2, c2) = near
    if c1 == c2:
        return None
    guess = x1 + (threshold - c1) * (x2 - x1) / (c2 - c1)
    return min(max(guess, lo), hi) if math.isfinite(guess) else None


def _first_guess(family: NoisyFamily, threshold: float, source: Source) -> float | None:
    """Where the bound on C of family crosses threshold, where a closed form
    names it: for ghz-exact, the visibility at which its formula reaches
    threshold; for a theorem source at threshold 0 (plain detection), the
    family's entanglement edge.  None for a theorem source above threshold 0,
    a family with no entangled pair, and a crossing outside (0, 1).  Like
    _crossing_guess, it only picks which points a bisection round evaluates."""
    if source is Source.GHZ_EXACT:
        guess = bounds_mod.ghz_noise_exact_visibility(family.n_qubits, threshold)
    elif threshold == 0.0:
        guess = family.entanglement_edge
    else:
        return None
    return guess if guess is not None and 0.0 < guess < 1.0 else None


def detection_threshold(family: NoisyFamily, k: int | None, source: Source) -> float | None:
    """Smallest family parameter at which the certified bound crosses the
    detection threshold, found by bisection to within linalg.BISECTION_TOL.

    k=None solves for plain entanglement detection (bound > 0); otherwise
    the threshold is the k-nonseparability constant for local dimension 2.
    Returns None when even the noiseless endpoint is not detected.

    Bisection is sound because every bound is nondecreasing along a
    NoisyFamily: its pair marginals are (1-x) I/4 + x rho_ij, and two-qubit
    concurrence is convex (a convex roof; Wootters, PRL 80, 2245 (1998)) and
    zero at I/4, so C_ij(x) <= (x/y) C_ij(y) for x < y.  The T1-T3 bounds
    grow with every C_ij, and the ghz-exact formula is nondecreasing in p.
    Any other family raises NonMonotoneFamily before it is evaluated.

    The proof reads the marginals the engine computes.  Every source reads
    family.point(x) here: theorem sources take its pair marginals from
    NoisyFamily.marginals, which forms (1-x) I/4 + x rho_ij itself from the
    base's reduced pair states, without a dense matrix; ghz-exact reads x.

    The steps are those of the one-point bisection loop, evaluated in
    rounds of one certified_bounds batch each, at most one stacked Wootters
    kernel call for theorem sources.  Every midpoint is formed with the loop's
    (lo + hi) / 2 and width test, and the predicted path from [lo, hi] to a
    guess g is the midpoints the loop would visit if the crossing sat at g (a
    midpoint is predicted detected iff it exceeds g).

    The first round evaluates the noiseless end together with the whole
    predicted path from [0, 1] to _first_guess, where a closed form names the
    crossing.  At threshold 0 a theorem bound is positive exactly when some
    C_ij is, and by the Peres-Horodecki criterion a two-qubit marginal is
    entangled exactly when its partial transpose is not positive, so the
    family's entanglement_edge is the crossing up to DETECTION_MARGIN over
    the bound's slope; ghz-exact solves its formula for the visibility.  The
    computed bounds still decide every step: the edge is only a guess, and a
    midpoint that lands between it and the computed crossing sends the loop
    off the path into the rounds below.  Without a guess in (0, 1) the first
    round is the noiseless end alone, so a family that is never detected
    costs one point.

    After that, when a step reaches a midpoint without a bound, one round
    evaluates the predicted path from [lo, hi] to _crossing_guess's secant
    estimate g, until the bracket is no wider than BISECTION_STOP or
    1/PATH_SLACK of how far g moved since the previous guess (of the bracket,
    when no guess came before); that midpoint alone when there is no g or the
    cut leaves no point.  Besides the computed bounds, the secant may run
    through (root, 0), root being _first_guess at threshold 0.  That point
    lies on the bound's graph.  A theorem bound is 0 exactly while every C_ij
    is, so up to the entanglement edge by Peres-Horodecki, and C_ij is
    continuous in x, so the bound leaves 0 at the edge.  The ghz-exact
    formula is 0 below the family's separability edge, and its linear branch
    starts from 0 at that edge.  root is computed only once the noiseless end
    is detected, so a family that is never detected never computes it.

    A point's bound does not depend on the batch it is in (marginals and
    _wootters_stack give each row the float operations of a one-point call,
    and a row at or below its class's edge reads 0.0 in any batch),
    and every verdict is exceeds(bound, threshold) at exactly the midpoint the
    loop visits.  The guesses decide only which points share a batch, so the
    crossing is the one-point bisection's, bit for bit, whatever they are.
    """
    if type(family) is not NoisyFamily:
        raise NonMonotoneFamily(f"bisection needs a NoisyFamily, got {type(family).__name__}")
    require_source(source, family.n_qubits, family)
    threshold = 0.0 if k is None else k_nonsep_threshold(family.n_qubits, 2, k)
    seen: dict[float, float] = {}  # x -> certified lower bound on C

    def evaluate(xs: list[float]) -> None:
        found = certified_bounds([family.point(x) for x in xs], source)
        seen.update((x, c) for x, (_, c) in zip(xs, found))

    def predicted_path(lo: float, hi: float, guess: float, stop: float) -> list[float]:
        mids = []
        while hi - lo > stop:
            mid = (lo + hi) / 2
            mids.append(mid)
            if mid > guess:
                hi = mid
            else:
                lo = mid
        return mids

    last_guess = _first_guess(family, threshold, source)
    first = [] if last_guess is None else predicted_path(0.0, 1.0, last_guess, BISECTION_STOP)
    evaluate([1.0] + first)
    if not exceeds(seen[1.0], threshold):
        return None
    root = _first_guess(family, 0.0, source)
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_STOP:
        mid = (lo + hi) / 2
        if mid not in seen:
            guess, path = _crossing_guess(seen, threshold, lo, hi, root), []
            if guess is not None:
                moved = hi - lo if last_guess is None else abs(guess - last_guess)
                path = predicted_path(lo, hi, guess, max(BISECTION_STOP, moved / PATH_SLACK))
                last_guess = guess
            evaluate([x for x in path if x not in seen] or [mid])
        if exceeds(seen[mid], threshold):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2
