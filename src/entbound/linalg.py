"""Minimal dense complex linear algebra for qubit systems.

Hermitian eigendecomposition, PSD matrix square roots, Kronecker products,
and a subset-indexed partial trace.  Qubit 1 is the most significant bit of
the computational-basis index everywhere in this package, so the four-qubit
ket |0001> sits at index 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DimensionOverflow,
    EmptySubset,
    NotHermitian,
    NotPSD,
)


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by every kernel (single calibration knob)."""

    herm: float = 1e-10
    psd: float = 1e-10
    recon: float = 1e-9


TOL = Tolerances()

# Dense matrices are capped at 2^12 to keep complex-double storage ~1 GB;
# pure-state-only paths may go up to 2^14 amplitudes.
DENSE_DIM_CAP = 2**12
PURE_DIM_CAP = 2**14

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@dataclass(frozen=True)
class SubsetMask:
    """Bitmask selecting a subset of the qubits 1..n_qubits.

    Bit (n_qubits - q) of ``bits`` selects qubit q, mirroring the basis-index
    convention (qubit 1 = most significant bit).  ``SubsetMask.from_qubits``
    is the readable way to build one.
    """

    bits: int
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise DimensionMismatch("n_qubits must be positive")
        if not 0 <= self.bits < 2**self.n_qubits:
            raise DimensionMismatch(
                f"mask bits {self.bits:#x} out of range for {self.n_qubits} qubits"
            )

    @classmethod
    def from_qubits(cls, qubits, n_qubits: int) -> "SubsetMask":
        bits = 0
        for q in qubits:
            if not 1 <= q <= n_qubits:
                raise DimensionMismatch(f"qubit {q} outside 1..{n_qubits}")
            bits |= 1 << (n_qubits - q)
        return cls(bits, n_qubits)

    @property
    def qubits(self) -> tuple[int, ...]:
        """Selected qubit labels in ascending order."""
        n = self.n_qubits
        return tuple(q for q in range(1, n + 1) if self.bits >> (n - q) & 1)

    @property
    def size(self) -> int:
        return bin(self.bits).count("1")

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.bits ^ (2**self.n_qubits - 1), self.n_qubits)


def require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """max-norm of m - m^dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eigensystem(m: np.ndarray, tol: Tolerances = TOL):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` to within
    ``tol.recon`` in max norm and v unitary.  Raises NotHermitian when the
    input fails the Hermiticity precheck and ConvergenceFailure when the
    underlying solver gives up.
    """
    m = require_square(m)
    defect = hermiticity_defect(m)
    if defect > tol.herm:
        raise NotHermitian(f"|m - m^dagger|_max = {defect:.3e} exceeds {tol.herm:.1e}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def _floored_psd_eigenvalues(
    w: np.ndarray, tol: Tolerances, scale: float | None = None
) -> np.ndarray:
    """Clamp descending eigenvalues of a PSD matrix for square roots.

    Values in [-tol.psd, 0) clamp to zero; anything lower raises NotPSD.
    Positive values below a noise floor (64 eps of the largest eigenvalue,
    or of ``scale`` when the caller knows the matrix's natural scale) also
    clamp to zero: such dust is below the eigensolver's own backward error,
    and carrying it through a square root would inflate it from ~1e-16 to
    ~1e-8.
    """
    low = float(w.min()) if w.size else 0.0
    if low < -tol.psd:
        raise NotPSD(f"eigenvalue {low:.3e} below -{tol.psd:.1e}")
    w = np.clip(w, 0.0, None)
    top = float(w[0]) if w.size else 0.0
    floor = 64 * np.finfo(float).eps * max(top, scale or 0.0)
    w[w < floor] = 0.0
    return w


def psd_sqrt(m: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix."""
    w, v = hermitian_eigensystem(m, tol)
    w = _floored_psd_eigenvalues(w, tol)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_sqrt_spectrum(
    m: np.ndarray, tol: Tolerances = TOL, scale: float | None = None
) -> np.ndarray:
    """Descending eigenvalues of psd_sqrt(m), without forming the matrix."""
    w, _ = hermitian_eigensystem(m, tol)
    return np.sqrt(_floored_psd_eigenvalues(w, tol, scale))


def kron(a: np.ndarray, b: np.ndarray, dim_cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Kronecker product with the left factor on the more significant qubits."""
    a = require_square(a)
    b = require_square(b)
    if a.shape[0] * b.shape[0] > dim_cap:
        raise DimensionOverflow(
            f"kron dimension {a.shape[0] * b.shape[0]} exceeds cap {dim_cap}"
        )
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: SubsetMask) -> np.ndarray:
    """Trace out every qubit not selected by ``keep``.

    The reduced matrix keeps the selected qubits in ascending label order
    (lowest label most significant), preserving trace and Hermiticity.
    """
    rho = require_square(rho)
    n = keep.n_qubits
    if rho.shape[0] != 2**n:
        raise DimensionMismatch(
            f"matrix dim {rho.shape[0]} does not match 2^{n} qubits"
        )
    if keep.bits == 0:
        raise EmptySubset("must keep at least one qubit")
    kept = keep.qubits
    t = rho.reshape((2,) * (2 * n))
    remaining = list(range(1, n + 1))
    for q in range(1, n + 1):
        if q in kept:
            continue
        a = remaining.index(q)
        m = len(remaining)
        t = np.trace(t, axis1=a, axis2=m + a)
        remaining.remove(q)
    d = 2 ** len(remaining)
    return t.reshape(d, d)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) as a real number."""
    rho = require_square(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))
