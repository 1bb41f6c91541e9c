"""The installed package's public surface: pinned, resolvable, and free of
test machinery (the seeded samplers and brute-force oracles live in tests/)."""

import importlib.util

import entbound

PUBLIC = [
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


def test_all_is_pinned_and_every_name_resolves():
    assert entbound.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(entbound, name)]
    assert missing == []


def test_no_test_machinery_ships():
    assert importlib.util.find_spec("entbound.oracle") is None
    for name in ("SamplerConfig", "haar_random_pure", "random_product_pure",
                 "brute_force_purity_sum", "BestBound", "theorem1_bound"):
        assert not hasattr(entbound, name), name
