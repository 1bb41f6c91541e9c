"""Exact concurrence computations.

The multipartite pure-state concurrence, squared bipartite-cut concurrences,
the two-qubit mixed-state spectrum formula, and the sigma_y polynomial
invariant that enters the even-qubit monogamy equality.

Every whole-state cut quantity (pure_concurrence, cut_profile, purity_sum)
is a fold over one depth-first walk of the subset lattice, _lattice_grams,
which yields the reduced state of each bipartition once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EmptySubset, WrongDimension
from .linalg import PURITY_TOL, SIGMA_Y, SINGULAR_DUST, SubsetMask
from .states import DensityMatrix, FamilyPoint, PureState, _side_gram


def _cut_gram(psi: PureState, subset: SubsetMask) -> np.ndarray:
    """_side_gram of the smaller side of the cut subset|rest (of the subset
    at a tie), so G is at most 2^(N/2) square."""
    n = psi.n_qubits
    if subset.n_qubits != n:
        raise WrongDimension(f"mask over {subset.n_qubits} qubits, state has {n}")
    if subset.bits == 0 or subset.size == n:
        raise EmptySubset("subset and complement must both be nonempty")
    return _side_gram(psi, subset.bits if 2 * subset.size <= n else subset.bits ^ (2**n - 1))


def _floored_spectrum(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of a cut's Gram matrix through linalg.floor_eigen_dust: the
    eigensolver leaves ~1e-16 of absolute dust where a weight is zero, and
    the floor turns it into an exact zero."""
    return linalg.floor_eigen_dust(linalg.converged(np.linalg.eigvalsh, gram))


def _gram_purity(gram: np.ndarray) -> float:
    """Tr(rho^2) of the reduced state with Gram matrix G: ||G||_F^2."""
    return float(np.vdot(gram, gram).real)


def subset_purity(psi: PureState, subset: SubsetMask) -> float:
    """Tr(rho_S^2) of the reduced state on subset S."""
    return _gram_purity(_cut_gram(psi, subset))


def _floored_deficit(gram: np.ndarray) -> float:
    """The cross terms of the floored eigenvalues of G: _gram_deficit's rule
    for a Gram that reads as pure."""
    s2 = _floored_spectrum(gram)
    total = float(s2.sum())
    return float(np.dot(s2, total - s2))


def _gram_deficit(gram: np.ndarray, reads_pure=_floored_deficit) -> float:
    """1 - Tr(rho^2) of the reduced state with Gram matrix G, as the cross
    terms sum_{i != j} lambda_i lambda_j of its eigenvalues.

    With trace t = sum lambda_i, the cross terms are D = t^2 - ||G||_F^2.
    That needs no eigensolve, but it cancels down to an absolute error of a
    few eps t^2.  Summed from the floored eigenvalues, the cross terms do
    not cancel, so the eigensolve is kept for the Grams where that error
    matters: those that read as pure, D < PURITY_TOL t^2.  There the floored
    eigenvalues decide: an exactly product cut has one nonzero Schmidt
    weight after the dust floor, so its deficit is an exact 0 and product
    states read 0.  A Gram that reads as pure goes to reads_pure, by default
    that floored eigenvalue path; _lattice_deficits passes a rule that first
    asks whether the cut is covered by product qubits.

    Error argument.  G is at most 2^7 square at PURE_DIM_CAP, so ||G||_F^2
    sums at most 4^7 terms and t^2 - ||G||_F^2 rounds with an absolute error
    below 4^7 eps t^2 ~ 4e-12 t^2 in the worst case and a few eps t^2 in
    practice.  An entry of G_T is a sum of 2^(N - |T|) amplitude products,
    whether _cut_gram forms it from the vector as M M^dagger (M at most 2^13
    columns) or _lattice_grams traces it out of an ancestor's Gram, a top's
    or a scaffold's; tracing only reorders that sum, into a matrix product
    over at most 2^(N/2 + 1) columns (2^(N/2) for a scaffold, one qubit
    larger than its tops) followed by at most N/2 pairwise additions (one
    from a scaffold to its top, then one per qubit below the top).  Either
    way the error E has ||E||_F <= 2^13 eps t ~ 2e-12 t, which moves D by
    at most 4 t ||E||_F ~ 8e-12 t^2; the eigenvalue path works on the same
    G, so it shares that error.  Hence D >= PURITY_TOL t^2 (1e-10) proves
    the cut is not product, and there the two evaluations agree to about
    1e-15.
    """
    t = float(gram.trace().real)
    d = t * t - _gram_purity(gram)
    if d >= PURITY_TOL * t * t:
        return d
    return reads_pure(gram)


def _trace_out_bit(gram: np.ndarray, size: int, bit: int) -> np.ndarray:
    """Partial trace of a Gram over `size` qubits (rows in ascending label
    order) of the qubit with `bit` of them after it in the rows, which is
    the number of the side's mask bits below that qubit's."""
    lo, hi = 2**bit, 2 ** (size - 1 - bit)
    r = gram.reshape(hi, 2, lo, hi, 2, lo)
    return (r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]).reshape(hi * lo, hi * lo)


SCAFFOLD_MIN_TOPS = 3  # a scaffold's Gram costs two tops' Grams from the vector


@functools.cache
def _top_cover(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The sides whose Grams _lattice_grams builds from the vector, each with
    the tops it yields: (scaffold, its tops) or (top, (top,)).

    The tops are the sides of floor(N/2) qubits without qubit 1 and of
    ceil(N/2) - 1 qubits with qubit 1.  A scaffold is a side one qubit larger
    in the same family (with or without qubit 1) over at least
    SCAFFOLD_MIN_TOPS tops that no other scaffold covers: its Gram costs
    twice a top's from the vector, and each of its tops is then one partial
    trace of it.  Covering the tops of a family is covering the j-subsets
    of qubits 2..N by (j+1)-subsets; a greedy walk over the candidates in
    combinations order, taking each with at least `need` uncovered tops for
    `need` from j + 1 down to SCAFFOLD_MIN_TOPS, picks the scaffolds.  Every top
    is in exactly one entry, and the cover depends on N only.
    """
    def sides(k):  # the k-subsets of qubits 2..N as masks, in combinations order
        return [sum(1 << (n - q) for q in c) for c in itertools.combinations(range(2, n + 1), k)]

    cover = []
    for fixed, size in ((0, n // 2), (1 << (n - 1), (n + 1) // 2 - 1)):
        if size < 1:  # no top holds qubit 1 below 3 qubits, and 1 qubit has no cut
            continue
        free = size - bool(fixed)  # a top's qubits other than qubit 1
        tops_in_order = sides(free)
        uncovered = set(tops_in_order)
        scaffolds = [(side, [side ^ (1 << i) for i in range(n - 1) if side >> i & 1])
                     for side in sides(free + 1)]
        for need in range(free + 1, SCAFFOLD_MIN_TOPS - 1, -1):
            for side, children in scaffolds:
                tops = [t for t in children if t in uncovered]
                if len(tops) >= need:
                    uncovered.difference_update(tops)
                    cover.append((fixed | side, tuple(fixed | t for t in tops)))
        cover += [(fixed | t, (fixed | t,)) for t in tops_in_order if t in uncovered]
    return tuple(cover)


def _lattice_grams(psi: PureState):
    """(canonical bits, G) for every bipartition once, from one depth-first
    walk over the subset lattice.  The canonical bits are the mask of the
    side without qubit 1, 1 .. 2^(N-1) - 1; G is the Gram of the cut's
    smaller side T (for |T| = N/2, the side without qubit 1).

    The walk starts at the tops of _top_cover: the sides of floor(N/2)
    qubits without qubit 1 and of ceil(N/2) - 1 with it, one of which is the
    smaller side of each cut of floor(N/2) or floor(N/2) + 1 qubits.  A top
    takes its Gram from the vector, through _side_gram, or as one partial
    trace of its scaffold's Gram, a side one qubit larger that _side_gram
    builds once for several tops and that is dropped when they are done.
    Every smaller side T is then reached from its parent P = T | (T + 1), T
    with its lowest clear bit set, whose Gram is one qubit larger:
    G_T = Tr_q G_P.  _gram_deficit bounds the error of every kind of Gram.

    The walk keeps a stack, not a level: the Grams alive at once are one
    scaffold's and the pending siblings along one path, at most ~N of them
    per level.
    """
    n = psi.n_qubits
    full = 2**n - 1
    top = 1 << (n - 1)  # mask bit of qubit 1
    for side, tops in _top_cover(n):
        from_vector = _side_gram(psi, side)
        for root in tops:
            if root == side:
                gram = from_vector
            else:  # trace out of the scaffold the qubit root lacks
                below = (side & ((side ^ root) - 1)).bit_count()
                gram = _trace_out_bit(from_vector, side.bit_count(), below)
            stack = [(root, gram)]
            while stack:
                bits, gram = stack.pop()
                yield (bits ^ full if bits & top else bits), gram
                size = bits.bit_count()
                if size > 1:
                    ones = (bits ^ (bits + 1)).bit_length() - 1
                    stack += [(bits ^ (1 << i), _trace_out_bit(gram, size, i)) for i in range(ones)]
        del from_vector, gram  # before the next side's Gram is built


def _product_qubits(psi: PureState) -> int:
    """Mask bits of the product qubits: those whose one-qubit Gram has exactly
    one nonzero floored weight.  The N 2x2 Grams take one stacked eigensolve."""
    n = psi.n_qubits
    weights = _floored_spectrum(np.array([_side_gram(psi, 1 << i) for i in range(n)]))
    return sum(1 << i for i, nonzero in enumerate(np.count_nonzero(weights, axis=1)) if nonzero == 1)


def _lattice_deficits(psi: PureState) -> list[float]:
    """Purity deficit of every canonical cut, indexed by its mask bits (entry
    0 is unused): _gram_deficit of each Gram of _lattice_grams.

    Product qubits.  At the first cut that reads as pure the walk takes, once,
    the mask of the product qubits (_product_qubits).  A cut that reads as
    pure and has a side inside that mask is covered: its deficit is 0.0,
    with no eigensolve.  Other cuts keep _gram_deficit's floored eigenvalue
    path.  When the mask holds every qubit the state is product, and the walk
    stops with every deficit 0.0.  Haar, GHZ and W states have no cut that
    reads as pure, so they never take the mask.

    Why 0.0 is sound.  For pure psi, the product of each qubit's top
    eigenvector and a union bound give, for every side T,
    t - lambda_max(G_T) <= sum_{q in T} (t - lambda_max(G_q)), t the trace.
    A product qubit has t - lambda_max < EIGEN_DUST t (up to the few eps t
    to which its 2x2 eigensolve resolves it), so a covered cut has
    D <= 2 t (t - lambda_max) < 2 |T| EIGEN_DUST t^2, about 2e-13 t^2 at
    |T| = 7: far below PURITY_TOL t^2, so such a cut always reads as pure.
    Where each small weight of the cut's Gram is clear of EIGEN_DUST of the
    largest, the floored eigenvalue path zeroes them and the two rules give
    the same 0.0.  Where up to |T| weights add up to one eigenvalue above
    the floor, or a weight lies within rounding of it (the one-qubit Gram
    from the vector and the walk's traced Gram may round to either side),
    the eigen path may keep a deficit below that bound where the shortcut
    reads 0.0.  Either way the shortcut only lowers a deficit, to the value
    of an exactly product cut.
    """
    n = psi.n_qubits
    full = 2**n - 1
    deficits = [0.0] * 2 ** (n - 1)
    product = None  # mask of the product qubits, once a cut reads as pure

    def reads_pure(gram):  # the rule for the cut `bits` the walk is at
        nonlocal product
        if product is None:
            product = _product_qubits(psi)
        if bits | product == product or (bits ^ full) | product == product:
            return 0.0
        return _floored_deficit(gram)

    for bits, gram in _lattice_grams(psi):
        deficits[bits] = _gram_deficit(gram, reads_pure)
        if product == full:
            return [0.0] * len(deficits)
    return deficits


def purity_sum(psi: PureState) -> float:
    """Sum of Tr(rho_S^2) over all 2^N - 2 proper nonempty subsets S.

    Complementary subsets of a pure state have equal purity, so each
    bipartition of _lattice_grams counts twice; no eigensolve is needed.
    """
    return 2.0 * math.fsum(_gram_purity(gram) for _, gram in _lattice_grams(psi))


def pure_concurrence(psi: PureState) -> float:
    """Multipartite concurrence of a pure N-qubit state (N >= 2).

    2^(1-N/2) sqrt(2^N - 2 - sum_S Tr rho_S^2); exactly 0.0 on fully
    product states.  The radicand is accumulated as a sum of per-subset
    purity deficits, which is the same quantity without the cancellation,
    in canonical mask order, and each product cut adds an exact 0 (see
    _gram_deficit and _lattice_deficits).
    """
    n = psi.n_qubits
    if n < 2:
        raise WrongDimension("concurrence needs at least 2 qubits")
    radicand = 0.0
    for d in _lattice_deficits(psi)[1:]:
        radicand += 2.0 * d
    return 2.0 ** (1 - n / 2) * math.sqrt(max(radicand, 0.0))


def cut_concurrence_squared(psi: PureState, cut: SubsetMask) -> float:
    """Squared concurrence of a pure state across the bipartition cut|rest.

    Normalized as 2 (1 - Tr rho_cut^2), which makes the bipartition
    decompositions of the squared multipartite concurrence exact identities.
    """
    return max(2.0 * _gram_deficit(_cut_gram(psi, cut)), 0.0)


@dataclass(frozen=True)
class CutConcurrenceProfile:
    """All squared cut concurrences of a pure state, grouped by subset size.

    per_subset maps mask bits (increasing order) to C^2_{S|rest}; size_sums
    holds the per-size totals used by the decomposition and monogamy
    identities.
    """

    n_qubits: int
    per_subset: dict[int, float]
    size_sums: dict[int, float]

    def alternating_sum(self) -> float:
        """sum_j (-1)^(j+1) sum_{|S|=j} C^2_{S|rest}."""
        return sum((-1) ** (j + 1) * s for j, s in self.size_sums.items())

    def total(self) -> float:
        return sum(self.size_sums.values())


def cut_profile(psi: PureState) -> CutConcurrenceProfile:
    """Squared concurrence of every cut; a mask and its complement share one
    value, so each bipartition is decomposed once, by _lattice_deficits."""
    n = psi.n_qubits
    full = 2**n - 1
    values: dict[int, float] = {}
    for bits, d in enumerate(_lattice_deficits(psi)[1:], start=1):
        values[bits] = values[full ^ bits] = max(2.0 * d, 0.0)
    per_subset = dict(sorted(values.items()))
    size_sums = {j: 0.0 for j in range(1, n)}
    for bits, v in per_subset.items():
        size_sums[bits.bit_count()] += v
    return CutConcurrenceProfile(n, per_subset, size_sums)


_YY = np.kron(SIGMA_Y, SIGMA_Y)
_singular_values = functools.partial(np.linalg.svd, compute_uv=False)
WOOTTERS_STACK = 2**12  # marginals per _wootters_stack call, 1 MiB per stacked operand


def _wootters_stack(m: np.ndarray) -> list[float]:
    """Wootters concurrences of a (k, 4, 4) stack of two-qubit states.

    max{lambda_1 - lambda_2 - lambda_3 - lambda_4, 0}, lambda_i the singular
    values of M = L^T Y L, Y = sy x sy, rho = L L^dagger, L = V diag(sqrt(w))
    from one floored eigensolve.  Y is real and symmetric, so M M^dagger =
    (L^T Y)(L L^dagger Y L*) has the spectrum of (L L^dagger Y L*)(L^T Y) =
    rho Y rho* Y, whose square roots are Wootters' lambda_i.  By Weyl each
    singular value errs by about eps ||L||_F^2 = eps Tr rho, with no square
    root of dust; C <= SINGULAR_DUST Tr rho reads as 0, which only lowers a
    lower bound.  A stack gives the bits of one-matrix calls: each matrix
    takes their float operations.
    """
    w, root = linalg.psd_eigensystem(m)
    root *= np.sqrt(w)[:, None, :]  # L = V diag(sqrt(w)), in place
    lam = linalg.converged(_singular_values, root.transpose(0, 2, 1) @ _YY @ root)
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    dust = SINGULAR_DUST * w.sum(axis=-1)
    # every zero is the one 0.0 constant, so a long sweep's rows share it
    return [0.0 if x <= d else min(x, 1.0) for x, d in zip(c.tolist(), dust.tolist())]


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit mixed state: _wootters_stack on one matrix."""
    if rho.n_qubits != 2:
        raise WrongDimension(f"two-qubit formula applied to {rho.n_qubits} qubits")
    return _wootters_stack(rho.matrix[None])[0]


@dataclass(frozen=True)
class PairwiseConcurrenceTable:
    """Wootters concurrence of every reduced two-qubit pair (i < j)."""

    n_qubits: int
    values: dict[tuple[int, int], float]

    def value(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if i == j or key not in self.values:
            raise WrongDimension(f"no pair ({i}, {j}) on {self.n_qubits} qubits")
        return self.values[key]

    def pairs(self):
        return sorted(self.values.items())

    @property
    def sum_of_squares(self) -> float:
        return _sum_of_squares(self.values.values())


def _sum_of_squares(values) -> float:
    """sum_{i<j} C_ij^2 in the order of values, by the builtin sum, which
    Python >= 3.12 compensates: a numpy re-sum would not give its bits."""
    return sum(v * v for v in values)


def _pair_concurrences(points) -> list[tuple[int, list[float]]]:
    """(N, the concurrence of every pair in combinations order) per state, run
    by run (see pairwise_tables); a family run maps its classes back to pairs
    by one order per run."""
    out = []
    for family, run in itertools.groupby(
            points, lambda rho: rho.family if isinstance(rho, FamilyPoint) else None):
        if family is None:
            for rho in run:
                marginals = [rho.reduced(pair).matrix for pair in _pairs(rho.n_qubits)]
                out.append((rho.n_qubits, _wootters_stack(np.array(marginals))))
            continue
        n, classes = family.n_qubits, family.pair_classes
        index = {pair: c for c, (pairs, _) in enumerate(classes) for pair in pairs}
        order = [index[pair] for pair in _pairs(n)]
        xs = [rho.x for rho in run]
        step = max(1, WOOTTERS_STACK // len(classes))
        for start in range(0, len(xs), step):
            found = _wootters_stack(family.marginals(xs[start:start + step]).reshape(-1, 4, 4))
            for row in range(0, len(found), len(classes)):
                cs = found[row:row + len(classes)]
                out.append((n, [cs[c] for c in order]))
    return out


def _pairs(n: int):
    """The pairs (i, j) of n qubits, in combinations order."""
    if n < 2:
        raise WrongDimension("pairwise table needs at least 2 qubits")
    return itertools.combinations(range(1, n + 1), 2)


def pairwise_tables(points) -> list[PairwiseConcurrenceTable]:
    """The pairwise table of each state in points, in order.

    A DensityMatrix takes one _wootters_stack call on its pair marginals; a
    run of FamilyPoints of one family takes one call per WOOTTERS_STACK //
    classes points on their rows of family.marginals, one marginal per class
    of equal pairs, in point-then-class order.  No marginal is checked
    against PSD_TOL, which only states reads: entry validation allows a
    state's eigenvalues down to -PSD_TOL, so a marginal of N qubits may
    reach -2^(N-2) PSD_TOL, and the kernel's floor clips it.
    Each table's values keep combinations order, the order sum_of_squares
    adds in.
    """
    return [PairwiseConcurrenceTable(n, dict(zip(itertools.combinations(range(1, n + 1), 2), cs)))
            for n, cs in _pair_concurrences(points)]


def pair_square_sums(points) -> list[float]:
    """sum_of_squares of each state's pairwise table, without building the tables."""
    return [_sum_of_squares(cs) for _, cs in _pair_concurrences(points)]


def pairwise_table(rho: DensityMatrix | FamilyPoint) -> PairwiseConcurrenceTable:
    """The pairwise table of one state: pairwise_tables([rho])[0]."""
    return pairwise_tables([rho])[0]


def h_invariant(psi: PureState) -> complex:
    """Polynomial invariant <psi| sy^(x n) |psi*>.

    sigma_y^(x n) maps basis index x to its bitwise complement with phase
    i^n (-1)^popcount(x), so the contraction needs no dense operator.
    Identically zero for odd n; |H| equals the concurrence for two qubits.
    """
    n = psi.n_qubits
    amps = psi.amplitudes
    idx = np.arange(2**n)
    flipped = idx ^ (2**n - 1)
    signs = np.where(np.bitwise_count(flipped) % 2 == 0, 1.0, -1.0)
    psi_tilde = (1j) ** n * signs * amps[flipped].conj()
    return complex(np.vdot(amps, psi_tilde))
