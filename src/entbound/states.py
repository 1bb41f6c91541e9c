"""State constructors: named pure states, white-noise families, file ingestion.

The six built-in benchmark families used by the CLI ``reproduce`` command are
all assembled from the constructors here.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ExcitationOutOfRange,
    InvariantViolation,
    ParameterOutOfRange,
    ParseError,
    TooFewQubits,
)
from . import linalg
from .linalg import (
    CLAMP_FLOOR, DENSE_DIM_CAP, HERM_TOL, NORM_TOL, PSD_TOL, PURE_DIM_CAP, TRACE_TOL,
)

# A qubit count above this would need a dense matrix beyond DENSE_DIM_CAP.
MAX_DENSE_QUBITS = DENSE_DIM_CAP.bit_length() - 1


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise InvariantViolation(f"{what} has non-finite entries (NaN or inf)")


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over n_qubits (qubit 1 = MSB)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(self.amplitudes)
        if self.n_qubits < 1:
            raise InvariantViolation("n_qubits must be positive")
        if amps.shape != (2**self.n_qubits,):
            raise InvariantViolation(
                f"amplitude vector of length {amps.shape} does not match "
                f"2^{self.n_qubits}"
            )
        _require_finite(amps, "amplitude vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"norm {norm!r} deviates from 1 by {abs(norm-1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        linalg.require_within_cap(self.n_qubits, DENSE_DIM_CAP, "dense-matrix")
        return DensityMatrix._derived(
            self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj())
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over n_qubits labeled 1..n.

    The constructor validates; it is the boundary for matrices from outside
    the package.  States the package derives from validated ones keep the
    invariants by construction and come from ``_derived`` unchecked.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(self.matrix)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise InvariantViolation(f"matrix shape {m.shape} does not match 2^{self.n_qubits}")
        _require_finite(m, "matrix")
        defect = linalg.hermiticity_defect(m)
        if defect > HERM_TOL:
            raise InvariantViolation(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL:.1e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"trace {tr!r} deviates from 1 by {abs(tr-1.0):.3e}")
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
        if low < -PSD_TOL:
            raise InvariantViolation(f"negative eigenvalue {low:.3e} below -{PSD_TOL:.1e}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, n_qubits: int, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix built from validated data by an invariant-preserving
        operation (white-noise mixing, partial trace), without re-checking."""
        m = np.asarray(matrix, dtype=complex)
        m.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "n_qubits", n_qubits)
        object.__setattr__(rho, "matrix", m)
        return rho

    @classmethod
    def from_array(cls, arr: np.ndarray, clamp: bool = False) -> "DensityMatrix":
        """Validate an array as a density matrix.

        With clamp=True, near-PSD inputs are repaired: eigenvalues in
        [CLAMP_FLOOR, 0) are clamped to zero and the trace is renormalized.
        Rejection is the default because silent repair hides data errors.
        """
        arr = linalg.require_square(arr)
        n = int(arr.shape[0]).bit_length() - 1
        if 2**n != arr.shape[0]:
            raise InvariantViolation(f"dimension {arr.shape[0]} is not a power of two")
        if clamp:
            _require_finite(arr, "matrix")
            herm = (arr + arr.conj().T) / 2
            w, v = np.linalg.eigh(herm)
            if float(w.min()) < CLAMP_FLOOR:
                raise InvariantViolation(
                    f"eigenvalue {float(w.min()):.3e} too negative to clamp"
                )
            w = np.clip(w, 0.0, None)
            arr = (v * w) @ v.conj().T
            arr = arr / np.trace(arr).real
        return cls(n, arr)

    def reduced(self, qubits) -> "DensityMatrix":
        keep = linalg.SubsetMask.from_qubits(qubits, self.n_qubits)
        return DensityMatrix._derived(keep.size, linalg.partial_trace(self.matrix, keep))


@dataclass(frozen=True)
class NoisyFamily:
    """White-noise mixture family x -> (1-x)/2^N I + x |base><base|.

    state_at must remain this mixture: detection_threshold's proof rests on it."""

    base: PureState

    @property
    def n_qubits(self) -> int:
        return self.base.n_qubits

    def state_at(self, x: float) -> DensityMatrix:
        return white_noise_mix(self.base, x)


def w_state(n: int) -> PureState:
    """Equal superposition of all single-excitation basis states."""
    linalg.require_within_cap(n, PURE_DIM_CAP, "pure-state")
    if n < 2:
        raise TooFewQubits("W state needs at least 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    for q in range(n):
        amps[1 << q] = 1.0 / math.sqrt(n)
    return PureState(n, amps)


def dicke_state(n: int, k: int) -> PureState:
    """Equal superposition of all basis states with exactly k excitations."""
    linalg.require_within_cap(n, PURE_DIM_CAP, "pure-state")
    if not 1 <= k <= n - 1:
        raise ExcitationOutOfRange(f"excitation number {k} outside 1..{n - 1}")
    idx = [i for i in range(2**n) if bin(i).count("1") == k]
    amps = np.zeros(2**n, dtype=complex)
    amps[idx] = 1.0 / math.sqrt(len(idx))
    return PureState(n, amps)


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    linalg.require_within_cap(n, PURE_DIM_CAP, "pure-state")
    if n < 2:
        raise TooFewQubits("GHZ state needs at least 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return PureState(n, amps)


def example3_state() -> PureState:
    """Benchmark case 3 core: (|0011> + |0101> + |0110> + |1010>)/2.

    Its pairwise entanglement forms a 4-cycle: the (1,3) and (2,4) pairs
    are separable while the other four carry equal concurrence.
    """
    amps = np.zeros(16, dtype=complex)
    amps[[3, 5, 6, 10]] = 0.5
    return PureState(4, amps)


def example4_state() -> PureState:
    """Benchmark case 4 core: (|0000> + |0011> + |1100> + |1111>)/2.

    Equals a product of Bell pairs on qubits (1,2) and (3,4).
    """
    amps = np.zeros(16, dtype=complex)
    amps[[0, 3, 12, 15]] = 0.5
    return PureState(4, amps)


def white_noise_mix(psi: PureState, x: float) -> DensityMatrix:
    """(1-x)/2^N I + x |psi><psi| for visibility x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ParameterOutOfRange(f"mixing parameter {x} outside [0, 1]")
    linalg.require_within_cap(psi.n_qubits, DENSE_DIM_CAP, "dense-matrix")
    d = 2**psi.n_qubits
    m = np.eye(d, dtype=complex) * ((1.0 - x) / d)
    m += x * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix._derived(psi.n_qubits, m)


def w_noise_family(n: int = 4) -> NoisyFamily:
    return NoisyFamily(w_state(n))


def dicke_noise_family(n: int = 4, excitations: int | None = None) -> NoisyFamily:
    if excitations is None:
        excitations = n // 2
    return NoisyFamily(dicke_state(n, excitations))


def example3_family() -> NoisyFamily:
    return NoisyFamily(example3_state())


def example4_family() -> NoisyFamily:
    return NoisyFamily(example4_state())


def ghz_noise_family(n: int) -> NoisyFamily:
    return NoisyFamily(ghz_state(n))


def load_density_matrix(source, clamp: bool = False) -> DensityMatrix:
    """Read a density matrix from a JSON or CSV matrix file.

    JSON: {"n_qubits": N, "entries": [[re, im], ...]} with the 4^N entries
    in row-major order.  CSV: one "i,j,re,im" row per nonzero entry
    (0-based indices, missing entries are zero); lines starting with '#'
    are comments and may declare "# n_qubits = N", otherwise the dimension
    is inferred from the largest index present.  A qubit count outside
    1..MAX_DENSE_QUBITS is a ParseError, raised before the matrix is
    allocated; the matrix itself is then validated once, as it enters.
    """
    text = _read_text(source)
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty matrix file")
    if stripped.startswith("{"):
        arr = _parse_json_matrix(stripped)
    else:
        arr = _parse_csv_matrix(text)
    return DensityMatrix.from_array(arr, clamp=clamp)


def _read_text(source) -> str:
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8")
        if isinstance(source, bytes):
            return source.decode("utf-8")
        if isinstance(source, io.IOBase) or hasattr(source, "read"):
            data = source.read()
            return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"matrix file is not UTF-8 text: {exc}") from exc
    raise ParseError(f"unsupported matrix source {type(source)!r}")


def _dense_dim(n: int) -> int:
    """2^n for a declared or inferred qubit count; ParseError outside 1..MAX_DENSE_QUBITS."""
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ParseError(
            f"n_qubits = {n} outside 1..{MAX_DENSE_QUBITS} "
            f"(dense matrices are capped at {DENSE_DIM_CAP})"
        )
    return 2**n


def _parse_json_matrix(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = int(doc["n_qubits"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError("JSON matrix needs 'n_qubits' and 'entries'") from exc
    d = _dense_dim(n)
    if not isinstance(entries, list):
        raise ParseError("JSON 'entries' must be a list of [re, im] pairs")
    if len(entries) != d * d:
        raise ParseError(f"expected {d * d} entries for {n} qubits, got {len(entries)}")
    flat = np.empty(d * d, dtype=complex)
    for pos, pair in enumerate(entries):
        try:
            if not isinstance(pair, list) or len(pair) != 2:
                raise TypeError("not a list of two numbers")
            flat[pos] = float(pair[0]) + 1j * float(pair[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"entry {pos} is not a [re, im] pair") from exc
    return flat.reshape(d, d)


def _parse_csv_matrix(text: str) -> np.ndarray:
    triples = []
    declared_n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").replace("=", " ").replace(":", " ").split()
            if len(body) == 2 and body[0] == "n_qubits":
                try:
                    declared_n = int(body[1])
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 'i,j,re,im', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if i < 0 or j < 0:
            raise ParseError(f"line {lineno}: negative index")
        triples.append((i, j, re, im))
    if not triples:
        raise ParseError("CSV matrix has no entries")
    if declared_n is not None:
        d = _dense_dim(declared_n)
    else:
        top = max(max(i, j) for i, j, _, _ in triples)
        if top >= DENSE_DIM_CAP:
            raise ParseError(f"index {top} needs a dimension above the dense cap {DENSE_DIM_CAP}")
        d = _dense_dim(top.bit_length())
    arr = np.zeros((d, d), dtype=complex)
    for i, j, re, im in triples:
        if i >= d or j >= d:
            raise ParseError(f"index ({i},{j}) outside declared dimension {d}")
        arr[i, j] = re + 1j * im
    return arr
