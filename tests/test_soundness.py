"""One soundness gate for every source that reads a state.

Each case is a state with a known upper bound on its squared concurrence:

- at N = 2, Wootters' concurrence (exact for two qubits);
- a point (1-x) I/2^N + x|psi><psi| of a white-noise family, x^2 C(psi)^2:
  I/2^N is a mixture of product states and the concurrence is convex, so
  C(rho_x) <= x C(psi);
- a GHZ + white-noise state, the closed-form exact value;
- a pure state, its pure-state concurrence.

Every Source member that reads a state must have an applicability rule in
APPLIES and at least one case it applies to; a new member without either
fails here by construction.
"""

import functools

import numpy as np
import pytest
from conftest import random_density, random_pure
from oracle import SamplerConfig, haar_random_pure

from entbound.bounds import applicable_theorems, ghz_noise_exact_concurrence
from entbound.concurrence import pure_concurrence, wootters_concurrence
from entbound.states import (
    NoisyFamily,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
    white_noise_mix,
)
from entbound.witness import Source, certified_bound

TOL = 1e-12
GRID_41 = [float(x) for x in np.linspace(0.0, 1.0, 41)]


def _theorem_applies(theorem: str):
    return lambda case: theorem in applicable_theorems(case["state"].n_qubits)


# Which cases a source can bound.
APPLIES = {
    Source.THEOREM1: _theorem_applies("T1"),
    Source.THEOREM2: _theorem_applies("T2"),
    Source.THEOREM3: _theorem_applies("T3"),
    Source.GHZ_EXACT: lambda case: case["ghz"],
    Source.PURE_EXACT: lambda case: case["pure"],
}

STATE_SOURCES = [s for s in Source if s is not Source.USER_SUPPLIED]


def _case(label, state, upper_c2, ghz=False, pure=False) -> dict:
    return {"label": label, "state": state, "upper_c2": upper_c2, "ghz": ghz, "pure": pure}


def _two_qubit_cases(rng) -> list[dict]:
    cases = []
    for rank in (1, 2, 3, 4):
        for _ in range(5):
            rho = random_density(rng, 2, rank)
            cases.append(_case(f"N=2 rank {rank}", rho, wootters_concurrence(rho) ** 2,
                               pure=rank == 1))
    for p in GRID_41:
        rho = white_noise_mix(ghz_state(2), p)
        cases.append(_case(f"N=2 GHZ p={p}", rho, wootters_concurrence(rho) ** 2,
                           ghz=True, pure=p == 1.0))
    return cases


def _family_cases() -> list[dict]:
    families = [(f"w-noise {n}", NoisyFamily(w_state(n))) for n in range(3, 9)]
    families += [(f"dicke-noise {n}", NoisyFamily(dicke_state(n, n // 2))) for n in range(4, 9)]
    families += [(f"ghz-noise {n}", NoisyFamily(ghz_state(n))) for n in range(2, 9)]
    families += [("ex3", NoisyFamily(example3_state())), ("ex4", NoisyFamily(example4_state()))]
    families += [(f"haar {n}", NoisyFamily(psi))
                 for n in range(2, 9) for psi in haar_random_pure(SamplerConfig(n, seed=n))]
    cases = []
    for label, family in families:
        c2 = pure_concurrence(family.base) ** 2
        cases += [_case(f"{label} x={x}", family.point(x), x * x * c2,
                        ghz=family.has_ghz_base, pure=x == 1.0) for x in GRID_41]
    return cases


def _ghz_noise_cases() -> list[dict]:
    return [_case(f"dense GHZ {n} p={p}", white_noise_mix(ghz_state(n), p),
                  ghz_noise_exact_concurrence(n, p) ** 2, ghz=True, pure=p == 1.0)
            for n in range(3, 7) for p in GRID_41[::2]]


def _pure_cases(rng) -> list[dict]:
    cases = []
    for n in range(2, 7):
        for psi, ghz in [(random_pure(rng, n), False) for _ in range(4)] + [(ghz_state(n), True)]:
            cases.append(_case(f"pure {n}", psi.density_matrix(), pure_concurrence(psi) ** 2,
                               ghz=ghz, pure=True))
    return cases


@functools.cache
def _cases() -> tuple[dict, ...]:
    rng = np.random.default_rng(20240912)
    return tuple(_two_qubit_cases(rng) + _family_cases() + _ghz_noise_cases() + _pure_cases(rng))


@pytest.mark.parametrize("source", STATE_SOURCES, ids=lambda s: s.value)
def test_bound_never_exceeds_a_known_upper_bound(source):
    assert source in APPLIES, f"source {source.value!r} has no rule in the gate"
    applies = APPLIES[source]
    checked, worst = 0, (-np.inf, None)
    for case in _cases():
        if not applies(case):
            continue
        c2, c = certified_bound(case["state"], source)
        assert c2 >= 0.0 and c >= 0.0
        excess = c2 - case["upper_c2"]
        worst = max(worst, (excess, case["label"]), key=lambda w: w[0])
        checked += 1
    assert checked > 0, f"source {source.value!r} has no case in the gate"
    assert worst[0] <= TOL, f"{source.value}: bound exceeds {worst[1]} by {worst[0]:.3e}"
