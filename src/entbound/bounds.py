"""Analytic lower bounds on the squared mixed-state concurrence.

Three theorem bounds built from the pairwise-concurrence table (four qubits,
general N >= 5, and a sharper even-N variant), plus the closed-form exact
concurrence of the GHZ + white-noise family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .concurrence import PairwiseConcurrenceTable, pairwise_table
from .errors import ParameterOutOfRange, WrongQubitCount
from .linalg import REPORT_REL_TOL
from .states import DensityMatrix, FamilyPoint

THEOREMS = ("T1", "T2", "T3")

# Previously published entanglement-detection thresholds for the Dicke
# benchmark family; this package's Theorem-1 route detects at t > 0.6,
# strictly below both.
PRIOR_DICKE_DETECTION_THRESHOLDS = (0.618034, 0.636364)


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


def theorem_coefficient(theorem: str, n: int) -> float:
    if theorem == "T1":
        return 7.0 / 8.0
    if theorem == "T2":
        return n / 2.0 ** (n - 2)
    if theorem == "T3":
        return (n - 2) / 2.0 ** (n - 3)
    raise ParameterOutOfRange(f"unknown theorem {theorem!r}")


def _report(theorem: str, table: PairwiseConcurrenceTable) -> BoundReport:
    coeff = theorem_coefficient(theorem, table.n_qubits)
    pair_sum = table.sum_of_squares
    c2 = coeff * pair_sum
    return BoundReport(theorem, table.n_qubits, pair_sum, coeff, c2, math.sqrt(c2))


# The qubit-count domain of each theorem, and the message for a table outside it.
_DOMAINS = {
    "T1": (lambda n: n == 4, "four-qubit bound applied to N={n}"),
    "T2": (lambda n: n >= 5, "N >= 5 bound applied to N={n} (use the four-qubit bound)"),
    "T3": (lambda n: n >= 6 and n % 2 == 0, "even-N >= 6 bound applied to N={n}"),
}


def applicable_theorems(n: int) -> list[str]:
    """The theorems whose bound holds on N = n qubits, in THEOREMS order."""
    return [t for t in THEOREMS if _DOMAINS[t][0](n)]


def require_domain(theorem: str, n: int) -> None:
    """Raise WrongQubitCount unless the theorem's bound holds on N = n qubits."""
    holds, message = _DOMAINS[theorem]
    if not holds(n):
        raise WrongQubitCount(message.format(n=n))


def theorem1_bound(table: PairwiseConcurrenceTable) -> BoundReport:
    """Four-qubit bound: C^2 >= 7/8 sum_{i<j} C_ij^2."""
    require_domain("T1", table.n_qubits)
    return _report("T1", table)


def theorem2_bound(table: PairwiseConcurrenceTable) -> BoundReport:
    """General bound for N >= 5: C^2 >= N/2^(N-2) sum_{i<j} C_ij^2."""
    require_domain("T2", table.n_qubits)
    return _report("T2", table)


def theorem3_bound(table: PairwiseConcurrenceTable) -> BoundReport:
    """Even-N bound for N >= 6: C^2 >= (N-2)/2^(N-3) sum_{i<j} C_ij^2."""
    require_domain("T3", table.n_qubits)
    return _report("T3", table)


def theorem_bound(theorem: str, table: PairwiseConcurrenceTable) -> BoundReport:
    """The named theorem's bound.  The functions are looked up at call time,
    so a wrapper installed on a module attribute sees every call."""
    return {"T1": theorem1_bound, "T2": theorem2_bound, "T3": theorem3_bound}[theorem](table)


def applicable_bounds(table: PairwiseConcurrenceTable) -> list[BoundReport]:
    """Every theorem bound whose qubit-count domain matches the table."""
    return [theorem_bound(t, table) for t in applicable_theorems(table.n_qubits)]


@dataclass(frozen=True)
class BestBound:
    """All applicable bounds for one state, strongest first."""

    table: PairwiseConcurrenceTable
    reports: tuple[BoundReport, ...]

    @property
    def best(self) -> BoundReport:
        return self.reports[0]


def best_bound(rho: DensityMatrix | FamilyPoint) -> BestBound:
    """Compute the pairwise table and rank every applicable theorem bound.

    For even N >= 6 the even-N coefficient dominates the general one, so
    that report leads, but all applicable bounds are retained.
    """
    if not applicable_theorems(rho.n_qubits):
        raise WrongQubitCount(f"theorem bounds need N >= 4, got {rho.n_qubits}")
    table = pairwise_table(rho)
    reports = applicable_bounds(table)
    reports.sort(key=lambda r: (r.bound_on_C2, r.coefficient), reverse=True)
    return BestBound(table, tuple(reports))


def ghz_noise_separability_edge(n: int) -> float:
    """Visibility below which the GHZ + white-noise state is fully separable."""
    return 1.0 / (2 ** (n - 1) + 1)


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
