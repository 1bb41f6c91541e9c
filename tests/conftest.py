import numpy as np
import pytest
from hypothesis import settings

from entbound.states import DensityMatrix, PureState

# Every @given test draws the same examples on every run, with no time limit.
settings.register_profile("entbound", derandomize=True, deadline=None)
settings.load_profile("entbound")


def random_pure(rng: np.random.Generator, n: int) -> PureState:
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, z / np.linalg.norm(z))


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> DensityMatrix:
    d = 2**n
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m).real)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
