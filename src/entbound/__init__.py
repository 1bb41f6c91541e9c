"""Multipartite concurrence, analytic lower bounds, and k-nonseparability
certification for N-qubit states."""

from .bounds import BoundReport, best_bound, ghz_noise_exact_concurrence, theorem_bound
from .concurrence import (
    CutConcurrenceProfile,
    PairwiseConcurrenceTable,
    cut_concurrence_squared,
    cut_profile,
    h_invariant,
    pairwise_table,
    pure_concurrence,
    wootters_concurrence,
)
from .linalg import SubsetMask
from .states import (
    DensityMatrix,
    NoisyFamily,
    PureState,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    load_density_matrix,
    w_state,
    white_noise_mix,
)
from .witness import (
    Source,
    WitnessVerdict,
    detect_k_nonseparability,
    detection_threshold,
    k_nonsep_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CutConcurrenceProfile",
    "DensityMatrix",
    "NoisyFamily",
    "PairwiseConcurrenceTable",
    "PureState",
    "Source",
    "SubsetMask",
    "WitnessVerdict",
    "best_bound",
    "cut_concurrence_squared",
    "cut_profile",
    "detect_k_nonseparability",
    "detection_threshold",
    "dicke_state",
    "example3_state",
    "example4_state",
    "ghz_noise_exact_concurrence",
    "ghz_state",
    "h_invariant",
    "k_nonsep_threshold",
    "load_density_matrix",
    "pairwise_table",
    "pure_concurrence",
    "theorem_bound",
    "w_state",
    "white_noise_mix",
    "wootters_concurrence",
]
