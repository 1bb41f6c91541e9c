"""Independent verification machinery.

Seeded Haar sampling, product-state sampling over arbitrary qubit
partitions, a brute-force purity-sum recomputation, local-unitary helpers,
and the grouping of a family's pairs by their reduced states.  Everything
here exists to cross-check the closed-form paths, so none of it reuses
them: the purity sum takes dense partial traces of the full density matrix,
not the Schmidt coefficients ``concurrence`` uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from entbound.errors import DimensionOverflow
from entbound.linalg import PURE_DIM_CAP, SubsetMask, partial_trace, purity, require_within_cap
from entbound.states import DensityMatrix, PureState


class InvalidPartition(ValueError):
    """Qubit partition blocks are not disjoint or do not cover 1..N."""


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling request: same seed, same states, bit for bit."""

    n_qubits: int
    seed: int
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise InvalidPartition("count must be >= 1")


def _ginibre_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_random_pure(config: SamplerConfig) -> list[PureState]:
    """Haar-random pure states: normalized standard complex Gaussians."""
    require_within_cap(config.n_qubits, PURE_DIM_CAP, "pure-state")
    rng = np.random.default_rng(config.seed)
    dim = 2**config.n_qubits
    return [PureState(config.n_qubits, _ginibre_vector(rng, dim)) for _ in range(config.count)]


def _check_partition(partition, n: int) -> list[tuple[int, ...]]:
    blocks = [tuple(sorted(b)) for b in partition]
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise InvalidPartition("empty block")
        for q in block:
            if not 1 <= q <= n or q in seen:
                raise InvalidPartition(f"qubit {q} repeated or outside 1..{n}")
            seen.add(q)
    if len(seen) != n:
        raise InvalidPartition(f"blocks cover {sorted(seen)}, expected 1..{n}")
    return blocks


def _subindex(indices: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Pack the bits of the given qubits (ascending label = MSB) per index."""
    sub = np.zeros_like(indices)
    width = len(qubits)
    for pos, q in enumerate(qubits):
        bit = (indices >> (n - q)) & 1
        sub |= bit << (width - 1 - pos)
    return sub


def random_product_pure(config: SamplerConfig, partition) -> list[PureState]:
    """Tensor products of independent Haar factors on each partition block.

    The output is k-separable by construction for k = number of blocks.
    """
    n = config.n_qubits
    require_within_cap(n, PURE_DIM_CAP, "pure-state")
    blocks = _check_partition(partition, n)
    rng = np.random.default_rng(config.seed)
    indices = np.arange(2**n)
    subs = [_subindex(indices, block, n) for block in blocks]
    states = []
    for _ in range(config.count):
        amps = np.ones(2**n, dtype=complex)
        for block, sub in zip(blocks, subs):
            factor = _ginibre_vector(rng, 2 ** len(block))
            amps *= factor[sub]
        states.append(PureState(n, amps))
    return states


def brute_force_purity_sum(psi: PureState) -> float:
    """Sum of Tr(rho_S^2) over all proper nonempty subsets, the slow way.

    Materializes the full density matrix and takes a dense partial trace
    per subset; exists solely as an oracle for the state-vector path.
    """
    n = psi.n_qubits
    if n > 10:
        raise DimensionOverflow("brute-force enumeration capped at 10 qubits")
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    total = 0.0
    for bits in range(1, 2**n - 1):
        total += purity(partial_trace(rho, SubsetMask(bits, n)))
    return total


def random_single_qubit_unitaries(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """n independent Haar 2x2 unitaries (QR of a complex Ginibre matrix)."""
    out = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        out.append(q)
    return out


def apply_local_unitaries(psi: PureState, unitaries) -> PureState:
    """Apply one 2x2 unitary per qubit to a pure state."""
    n = psi.n_qubits
    if len(unitaries) != n:
        raise InvalidPartition(f"need {n} unitaries, got {len(unitaries)}")
    t = psi.amplitudes.reshape((2,) * n)
    for q, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
    return PureState(n, t.reshape(-1))


def conjugate_by_local_unitaries(rho: DensityMatrix, unitaries) -> DensityMatrix:
    """U rho U^dagger for U the tensor product of per-qubit unitaries."""
    n = rho.n_qubits
    if len(unitaries) != n:
        raise InvalidPartition(f"need {n} unitaries, got {len(unitaries)}")
    u = np.array([[1.0 + 0.0j]])
    for factor in unitaries:
        u = np.kron(u, factor)
    return DensityMatrix(n, u @ rho.matrix @ u.conj().T)


def reference_pair_classes(psi: PureState) -> tuple:
    """NoisyFamily.pair_classes the direct way: every pair builds its reduced
    state rho_ij = M M^dagger, M the vector with qubits i, j moved to the
    rows, and is grouped by that state's bytes, in order of first
    appearance; a class keeps its first pair's state."""
    n = psi.n_qubits
    amps = psi.amplitudes.reshape((2,) * n)
    classes: dict[bytes, tuple[list, np.ndarray]] = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        m = np.moveaxis(amps, (i - 1, j - 1), (0, 1)).reshape(4, -1)
        rho = m @ m.conj().T
        classes.setdefault(rho.tobytes(), ([], rho))[0].append((i, j))
    return tuple((tuple(pairs), rho) for pairs, rho in classes.values())
