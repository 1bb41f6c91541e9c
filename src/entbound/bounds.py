"""Analytic lower bounds on the squared mixed-state concurrence.

Three theorem bounds built from the pairwise-concurrence table (four qubits,
general N >= 5, and a sharper even-N variant), plus the closed-form exact
concurrence of the GHZ + white-noise family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .concurrence import PairwiseConcurrenceTable
from .errors import ParameterOutOfRange, WrongQubitCount
from .linalg import REPORT_REL_TOL

# Previously published entanglement-detection thresholds for the Dicke
# benchmark family; this package's Theorem-1 route detects at t > 0.6,
# strictly below both.
PRIOR_DICKE_DETECTION_THRESHOLDS = (0.618034, 0.636364)

# The three theorems, in T1, T2, T3 order: each bounds
# C^2 >= coefficient(N) * sum_{i<j} C_ij^2 on its qubit-count domain.
# label -> (holds on N, coefficient(N), message for a table outside the domain)
THEOREMS = {
    "T1": (lambda n: n == 4, lambda n: 7.0 / 8.0,
           "four-qubit bound applied to N={n}"),
    "T2": (lambda n: n >= 5, lambda n: n / 2.0 ** (n - 2),
           "N >= 5 bound applied to N={n} (use the four-qubit bound)"),
    "T3": (lambda n: n >= 6 and n % 2 == 0, lambda n: (n - 2) / 2.0 ** (n - 3),
           "even-N >= 6 bound applied to N={n}"),
}


@dataclass(frozen=True)
class BoundReport:
    """One certified lower bound: C^2(rho) >= coefficient * pair_sum."""

    theorem: str
    n_qubits: int
    pair_sum: float
    coefficient: float
    bound_on_C2: float
    bound_on_C: float

    def __post_init__(self):
        if self.theorem in THEOREMS:
            prod = self.coefficient * self.pair_sum
            if abs(self.bound_on_C2 - prod) > REPORT_REL_TOL * max(1.0, abs(prod)):
                raise ParameterOutOfRange("bound_on_C2 must equal coefficient * pair_sum")
        if self.bound_on_C2 < 0 or self.bound_on_C < 0:
            raise ParameterOutOfRange("bounds must be nonnegative")


def _theorem(theorem: str):
    try:
        return THEOREMS[theorem]
    except KeyError:
        raise ParameterOutOfRange(f"unknown theorem {theorem!r}") from None


def theorem_coefficient(theorem: str, n: int) -> float:
    return _theorem(theorem)[1](n)


def applicable_theorems(n: int) -> list[str]:
    """The theorems whose bound holds on N = n qubits, in THEOREMS order."""
    return [t for t, (holds, _, _) in THEOREMS.items() if holds(n)]


def require_domain(theorem: str, n: int) -> None:
    """Raise WrongQubitCount unless the theorem's bound holds on N = n qubits."""
    holds, _, message = _theorem(theorem)
    if not holds(n):
        raise WrongQubitCount(message.format(n=n))


def theorem_c2(theorem: str, n: int, pair_sum: float) -> float:
    """The named theorem's bound on C^2 of an N = n qubit state whose pairwise
    table has sum_{i<j} C_ij^2 = pair_sum: coefficient(N) * pair_sum."""
    require_domain(theorem, n)
    return theorem_coefficient(theorem, n) * pair_sum


def theorem_bound(theorem: str, table: PairwiseConcurrenceTable) -> BoundReport:
    """The named theorem's bound: C^2 >= coefficient(N) * sum_{i<j} C_ij^2."""
    n, pair_sum = table.n_qubits, table.sum_of_squares
    c2 = theorem_c2(theorem, n, pair_sum)
    return BoundReport(theorem, n, pair_sum, theorem_coefficient(theorem, n), c2, math.sqrt(c2))


def best_bound(table: PairwiseConcurrenceTable) -> tuple[BoundReport, ...]:
    """Every theorem bound that holds on the table's qubit count, strongest
    first; () below four qubits.

    For even N >= 6 the even-N coefficient dominates the general one, so
    that report leads, but all applicable bounds are retained.
    """
    reports = [theorem_bound(t, table) for t in applicable_theorems(table.n_qubits)]
    return tuple(sorted(reports, key=lambda r: (r.bound_on_C2, r.coefficient), reverse=True))


def ghz_noise_separability_edge(n: int) -> float:
    """Visibility below which the GHZ + white-noise state is fully separable."""
    return 1.0 / (2 ** (n - 1) + 1)


def ghz_noise_exact_visibility(n: int, c: float) -> float:
    """The visibility at which ghz_noise_exact_concurrence(n, p) reaches
    c >= 0: its linear branch solved for p, ghz_noise_separability_edge(n)
    at c = 0, and above 1 where no visibility reaches c."""
    half = 2 ** (n - 1)
    return (c * half / math.sqrt((half - 1) / 2 ** (n - 2)) + 1) / (half + 1)


def ghz_noise_exact_concurrence(n: int, p: float) -> float:
    """Exact concurrence of (1-p)/2^n I + p |GHZ_n><GHZ_n|.

    sqrt((2^(n-1)-1)/2^(n-2)) * ((2^(n-1)+1) p - 1)/2^(n-1) on
    p in [1/(2^(n-1)+1), 1]; zero below that edge, where the family is
    fully separable.  At p = 1 this equals the pure GHZ concurrence.
    """
    if n < 2:
        raise ParameterOutOfRange("GHZ family needs at least 2 qubits")
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"visibility {p} outside [0, 1]")
    half = 2 ** (n - 1)
    if p < 1.0 / (half + 1):
        return 0.0
    return math.sqrt((half - 1) / 2 ** (n - 2)) * ((half + 1) * p - 1) / half
