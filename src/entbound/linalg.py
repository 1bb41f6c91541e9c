"""Minimal dense complex linear algebra for qubit systems.

Hermitian eigendecomposition, PSD matrix square roots, a subset-indexed
partial trace, and the size caps on dense and pure-state arrays.  Qubit 1 is
the most significant bit of the computational-basis index everywhere in this
package, so the four-qubit ket |0001> sits at index 1.
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

# ---------------------------------------------------------------- tolerances
# Every numerical tolerance of the package.  States are checked against the
# first four once, where they enter (``states``); the rest are read by the
# kernels, the bounds and the witness.
HERM_TOL = 1e-10  # max-norm of m - m^dagger for a Hermitian matrix
PSD_TOL = 1e-10  # eigenvalues in [-PSD_TOL, 0) of a PSD matrix count as zero
TRACE_TOL = 1e-10  # |Tr rho - 1| of a density matrix
NORM_TOL = 1e-12  # | |psi| - 1 | of a pure state
CLAMP_FLOOR = -1e-8  # --clamp repairs eigenvalues down to this, rejects lower
ZERO_DUST = 1e-10  # values in [-ZERO_DUST, 0) are rounding dust below a true zero
EIGEN_DUST = 64 * np.finfo(float).eps  # eigenvalues below this x scale are solver dust
FAMILY_MATCH_TOL = 1e-10  # max-norm gap between a state and its GHZ-noise model
GHZ_BASE_TOL = 1e-12  # amplitude gap between a family's base state and GHZ
PURITY_TOL = 1e-10  # |Tr rho^2 - 1| of a state read as pure
BISECTION_TOL = 1e-6  # a reported crossing is within this of the true one
BISECTION_STOP = BISECTION_TOL * 1e-3  # bracket width at which bisection stops
REPORT_REL_TOL = 1e-12  # relative gap of bound_on_C2 from coefficient * pair_sum

# Dense matrices are capped at 2^12, so one complex128 matrix takes at most
# 256 MiB; pure-state-only paths may go up to 2^14 amplitudes.
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


def require_within_cap(n_qubits: int, cap: int, kind: str) -> None:
    """Raise DimensionOverflow, before anything is allocated, when 2^n_qubits
    exceeds cap (DENSE_DIM_CAP or PURE_DIM_CAP)."""
    top = cap.bit_length() - 1
    if n_qubits > top:
        raise DimensionOverflow(f"{n_qubits} qubits exceeds the {kind} cap of {top} qubits")


def require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """max-norm of m - m^dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eigensystem(m: np.ndarray):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` and v unitary.
    Raises NotHermitian when the input fails the Hermiticity precheck and
    ConvergenceFailure when the underlying solver gives up.
    """
    m = require_square(m)
    defect = hermiticity_defect(m)
    if defect > HERM_TOL:
        raise NotHermitian(f"|m - m^dagger|_max = {defect:.3e} exceeds {HERM_TOL:.1e}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def _floored_psd_eigenvalues(w: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Clamp descending eigenvalues of a PSD matrix for square roots.

    Values in [-PSD_TOL, 0) clamp to zero; anything lower raises NotPSD.
    Positive values below a noise floor (EIGEN_DUST of the largest eigenvalue,
    or of ``scale`` when the caller knows the matrix's natural scale) also
    clamp to zero: such dust is below the eigensolver's own backward error,
    and carrying it through a square root would inflate it from ~1e-16 to
    ~1e-8.
    """
    low = float(w.min()) if w.size else 0.0
    if low < -PSD_TOL:
        raise NotPSD(f"eigenvalue {low:.3e} below -{PSD_TOL:.1e}")
    w = np.clip(w, 0.0, None)
    top = float(w[0]) if w.size else 0.0
    floor = EIGEN_DUST * max(top, scale or 0.0)
    w[w < floor] = 0.0
    return w


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix."""
    w, v = hermitian_eigensystem(m)
    w = _floored_psd_eigenvalues(w)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_sqrt_spectrum(m: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Descending eigenvalues of psd_sqrt(m), without forming the matrix."""
    w, _ = hermitian_eigensystem(m)
    return np.sqrt(_floored_psd_eigenvalues(w, scale))


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
    kept = [q - 1 for q in keep.qubits]
    traced = [a for a in range(n) if a not in kept]
    # A traced qubit's column axis reuses its row label, so einsum returns the
    # traced diagonal as a strided view, traced axes first, and sums nothing.
    cols = [a if a in traced else n + a for a in range(n)]
    t = np.einsum(rho.reshape((2,) * (2 * n)), [*range(n), *cols],
                  traced + kept + [n + a for a in kept])
    for _ in traced:  # sums out the lowest remaining traced label
        t = t[0] + t[1]
    return t.reshape(2 ** len(kept), -1)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) as a real number."""
    rho = require_square(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))
