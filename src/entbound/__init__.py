"""Multipartite concurrence, analytic lower bounds, and k-nonseparability
certification for N-qubit states."""

from .bounds import (
    BestBound,
    BoundReport,
    best_bound,
    ghz_noise_exact_concurrence,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)
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
from .oracle import SamplerConfig, brute_force_purity_sum, haar_random_pure, random_product_pure
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
    "BestBound",
    "BoundReport",
    "CutConcurrenceProfile",
    "DensityMatrix",
    "NoisyFamily",
    "PairwiseConcurrenceTable",
    "PureState",
    "SamplerConfig",
    "Source",
    "SubsetMask",
    "WitnessVerdict",
    "best_bound",
    "brute_force_purity_sum",
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
    "haar_random_pure",
    "k_nonsep_threshold",
    "load_density_matrix",
    "pairwise_table",
    "pure_concurrence",
    "random_product_pure",
    "theorem1_bound",
    "theorem2_bound",
    "theorem3_bound",
    "w_state",
    "white_noise_mix",
    "wootters_concurrence",
]
