"""States: validated pure and density matrices, white-noise families, named
pure states and matrix-file ingestion.

A family is ``NoisyFamily(base)``, the white-noise mixture of one pure state;
the named constructors here give the bases of the built-in families, which
``cli.FAMILIES`` lists by their ``--family`` names.
"""

from __future__ import annotations

import functools
import gc
import io
import itertools
import json
import math
import warnings
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
    CLAMP_FLOOR, DENSE_DIM_CAP, GHZ_BASE_TOL, HERM_TOL, NORM_TOL, PSD_TOL, PURE_DIM_CAP, TRACE_TOL,
)

# A qubit count above this would need a dense matrix beyond DENSE_DIM_CAP.
MAX_DENSE_QUBITS = DENSE_DIM_CAP.bit_length() - 1
_EYE4 = np.eye(4, dtype=complex)


def _require_bounded(a: np.ndarray, what: str) -> None:
    """Refuse NaN, inf and real or imaginary parts above 2.  No entry of a
    state exceeds 1 in modulus, and the cap keeps later checks from overflowing."""
    top = float(np.max([np.abs(a.real).max(), np.abs(a.imag).max()]))  # NaN propagates
    if not math.isfinite(top):
        raise InvariantViolation(f"{what} has non-finite entries (NaN or inf)")
    if top > 2.0:
        raise InvariantViolation(f"{what} has an entry part {top:.3e} above 2")


def _checked_hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger)/2 of a square matrix from outside the package, once its
    entries, Hermiticity defect and trace pass the constructor's checks."""
    _require_bounded(m, "matrix")
    defect = linalg.hermiticity_defect(m)
    if defect > HERM_TOL:
        raise InvariantViolation(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL:.1e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation(f"trace {tr!r} deviates from 1 by {abs(tr-1.0):.3e}")
    return (m + m.conj().T) / 2


def _cholesky_certifies_psd(herm: np.ndarray) -> bool:
    """Whether a Cholesky factorization of herm + (PSD_TOL/2) I succeeds,
    which proves that eigvalsh would find no eigenvalue below -PSD_TOL.

    herm is exactly Hermitian, with trace within TRACE_TOL of 1.  A computed
    factor L of A = herm + (PSD_TOL/2) I satisfies L L^H = A + E with
    |E_ij| <= gamma_{d+1} sqrt(A_ii A_jj) (Higham, Thm 10.3, with
    Cauchy-Schwarz on the rows of L), so ||E||_2 <= gamma_{d+1} tr A, about
    (d + 1) eps ~ 5e-13 at DENSE_DIM_CAP: far below PSD_TOL/2.  Success makes
    A + E positive definite, so lambda_min(herm) > -PSD_TOL/2 - ||E||_2, and
    eigvalsh, whose error is of the same order as ||E||_2, reports no
    eigenvalue below -PSD_TOL.  Failure proves nothing; the caller then runs
    the eigvalsh check, so the decision and its message are eigvalsh's.
    The diagonal is shifted in place and restored bit for bit.
    """
    diag = herm.diagonal().copy()
    herm[np.diag_indices_from(herm)] += PSD_TOL / 2
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return False
    finally:
        herm[np.diag_indices_from(herm)] = diag
    return True


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over n_qubits (qubit 1 = MSB).

    A state equals only itself, and hashes by identity: its amplitudes are
    an array, which has no truth value to compare by."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if self.n_qubits < 1:
            raise InvariantViolation("n_qubits must be positive")
        if amps.shape != (2**self.n_qubits,):
            raise InvariantViolation(
                f"amplitude vector of length {amps.shape} does not match "
                f"2^{self.n_qubits}"
            )
        _require_bounded(amps, "amplitude vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"norm {norm!r} deviates from 1 by {abs(norm-1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        linalg.require_within_cap(self.n_qubits, DENSE_DIM_CAP, "dense-matrix")
        return DensityMatrix._derived(
            self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj())
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over n_qubits labeled 1..n.

    The constructor validates matrices from outside the package and stores
    the Hermitian part of each.  States derived from validated ones keep the
    invariants by construction and come from ``_derived`` unchecked.  Like
    PureState, a matrix equals only itself and hashes by identity.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise InvariantViolation("n_qubits must be positive")
        m = np.asarray(self.matrix, dtype=complex)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise InvariantViolation(f"matrix shape {m.shape} does not match 2^{self.n_qubits}")
        herm = _checked_hermitian_part(m)
        if not _cholesky_certifies_psd(herm):
            low = float(linalg.converged(np.linalg.eigvalsh, herm).min())
            if low < -PSD_TOL:
                raise InvariantViolation(f"negative eigenvalue {low:.3e} below -{PSD_TOL:.1e}")
        herm.setflags(write=False)
        object.__setattr__(self, "matrix", herm)

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

        With clamp=True, near-PSD inputs are repaired: once the array passes
        the constructor's other checks, eigenvalues of its Hermitian part in
        [CLAMP_FLOOR, 0) are clamped to zero and the trace (near 1, and only
        raised by clipping) is renormalized.
        Rejection is the default because silent repair hides data errors.
        """
        arr = linalg.require_square(arr)
        n = int(arr.shape[0]).bit_length() - 1
        if 2**n != arr.shape[0]:
            raise InvariantViolation(f"dimension {arr.shape[0]} is not a power of two")
        if clamp:
            w, v = linalg.converged(np.linalg.eigh, _checked_hermitian_part(arr))
            if float(w.min()) < CLAMP_FLOOR:
                raise InvariantViolation(f"eigenvalue {float(w.min()):.3e} too negative to clamp")
            w = np.clip(w, 0.0, None)
            arr = (v * w) @ v.conj().T
            arr = arr / float(np.trace(arr).real)
        return cls(n, arr)

    def rows(self, start: int, stop: int) -> np.ndarray:
        return self.matrix[start:stop]

    def reduced(self, qubits) -> "DensityMatrix":
        keep = linalg.SubsetMask.from_qubits(qubits, self.n_qubits)
        return DensityMatrix._derived(keep.size, linalg.partial_trace(self.matrix, keep))


def _side_gram(psi: PureState, bits: int) -> np.ndarray:
    """Reduced state G = M M^dagger of the qubits in mask `bits` (qubit 1 the
    most significant bit), rows in ascending label order.

    Reshapes the state vector into M, with those qubits as rows and the rest
    as columns, so no 2^N x 2^N density matrix is ever materialized.  np.dot
    gives the bits of M @ M^dagger with less call overhead.
    """
    n = psi.n_qubits
    axes = [a for a in range(n) if bits >> (n - 1 - a) & 1]
    rest = [a for a in range(n) if not bits >> (n - 1 - a) & 1]
    m = psi.amplitudes.reshape((2,) * n).transpose(axes + rest)
    m = m.reshape(2 ** len(axes), 2 ** len(rest))
    return np.dot(m, m.conj().T)


@dataclass(frozen=True, eq=False)
class NoisyFamily:
    """White-noise mixture family x -> (1-x)/2^N I + x |base><base|.

    Tracing out all qubits but i and j leaves each member the pair marginal
    (1-x) I/4 + x rho_ij, rho_ij the base's reduced pair state: the formula
    detection_threshold's proof reads, and the one marginals(xs) computes.
    state_at(x) is the dense reference, and tests/test_family_engine.py ties
    the two together to a few ulp.  A family equals only itself: its
    pair_classes and what derives from them are cached per object."""

    base: PureState

    @property
    def n_qubits(self) -> int:
        return self.base.n_qubits

    def state_at(self, x: float) -> DensityMatrix:
        return white_noise_mix(self.base, x)

    def point(self, x: float) -> "FamilyPoint":
        return FamilyPoint(self, x)

    @functools.cached_property
    def has_ghz_base(self) -> bool:
        """Whether the base is GHZ to within GHZ_BASE_TOL in max-abs amplitude."""
        gap = np.max(np.abs(self.base.amplitudes - ghz_state(self.n_qubits).amplitudes))
        return bool(gap <= GHZ_BASE_TOL)

    @functools.cached_property
    def pair_classes(self) -> tuple[tuple[tuple[tuple[int, int], ...], np.ndarray], ...]:
        """The pairs (i, j) grouped by the bytes of their reduced base state
        rho_ij = _side_gram(base, {i, j}), one (pairs, rho_ij) per class, in
        the order of their first pair.  W, Dicke and GHZ bases have one."""
        n = self.n_qubits
        classes: dict[bytes, tuple[list, np.ndarray]] = {}
        for i, j in itertools.combinations(range(1, n + 1), 2):
            rho = _side_gram(self.base, 1 << (n - i) | 1 << (n - j))
            classes.setdefault(rho.tobytes(), ([], rho))[0].append((i, j))
        return tuple((tuple(pairs), rho) for pairs, rho in classes.values())

    @functools.cached_property
    def class_states(self) -> np.ndarray:
        """The reduced base states rho_ij of pair_classes, in its order, as one
        read-only (classes, 4, 4) stack."""
        rhos = np.array([rho for _, rho in self.pair_classes])
        rhos.flags.writeable = False
        return rhos

    @functools.cached_property
    def entanglement_edge(self) -> float | None:
        """The smallest x at which some pair marginal is entangled, or None
        when no pair ever is.

        By the Peres-Horodecki criterion a two-qubit state is entangled
        exactly when its partial transpose has a negative eigenvalue.  The
        marginal's is (1-x) I/4 + x rho_ij^{T_B}, whose least eigenvalue
        (1-x)/4 + x mu turns negative for x > 1/(1 - 4 mu) once mu =
        lambda_min(rho_ij^{T_B}) < 0.  The edge is that value at the least mu
        of the classes, at least 1/3 since mu >= -1/2; above it C_ij > 0."""
        pt = self.class_states.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
        mu = float(linalg.converged(np.linalg.eigvalsh, pt)[:, 0].min())
        return 1.0 / (1.0 - 4.0 * mu) if mu < 0 else None

    def marginals(self, xs) -> np.ndarray:
        """The pair marginals (1-x) I/4 + x rho_ij of the members at
        visibilities xs, one per class of pair_classes, as one
        (len(xs), classes, 4, 4) broadcast: each row has the bits of the
        one-x call."""
        x = np.asarray(xs, dtype=float).reshape(-1, 1, 1, 1)
        return _EYE4 * ((1.0 - x) / 4) + x * self.class_states


@dataclass(frozen=True)
class FamilyPoint:
    """The member of a NoisyFamily at visibility x: the base vector and x,
    never a dense matrix, so a point obeys the pure-state cap only.

    Checks x as white_noise_mix does.  Its pair marginals are its row of the
    family's marginals; rows(start, stop) repeats white_noise_mix's float
    ops, so its rows are state_at(x)'s bit for bit.
    """

    family: NoisyFamily
    x: float

    def __post_init__(self):
        _require_visibility(self.x)

    @property
    def n_qubits(self) -> int:
        return self.family.n_qubits

    def rows(self, start: int, stop: int) -> np.ndarray:
        amps = self.family.base.amplitudes
        head = amps[start:stop]
        m = np.eye(head.size, amps.size, start, dtype=complex) * ((1.0 - self.x) / amps.size)
        m += self.x * np.outer(head, amps.conj())
        return m


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
    if n < 2:
        raise TooFewQubits("Dicke state needs at least 2 qubits")
    if not 1 <= k <= n - 1:
        raise ExcitationOutOfRange(f"excitation number {k} outside 1..{n - 1}")
    idx = np.flatnonzero(np.bitwise_count(np.arange(2**n)) == k)
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


def _require_visibility(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ParameterOutOfRange(f"mixing parameter {x} outside [0, 1]")


def white_noise_mix(psi: PureState, x: float) -> DensityMatrix:
    """(1-x)/2^N I + x |psi><psi| for visibility x in [0, 1]."""
    _require_visibility(x)
    linalg.require_within_cap(psi.n_qubits, DENSE_DIM_CAP, "dense-matrix")
    d = 2**psi.n_qubits
    m = np.eye(d, dtype=complex) * ((1.0 - x) / d)
    m += x * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix._derived(psi.n_qubits, m)


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
    # The document is acyclic lists and numbers, which reference counting
    # frees, so the cyclic collector is paused only to spare its scans of
    # the millions of objects json.loads allocates.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    finally:
        if was_enabled:
            gc.enable()
    try:
        n = doc["n_qubits"]
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ParseError("JSON matrix needs 'n_qubits' and 'entries'") from exc
    if type(n) is not int:  # rejects bool too
        raise ParseError(f"JSON 'n_qubits' must be an integer, got {json.dumps(n)}")
    d = _dense_dim(n)
    if not isinstance(entries, list):
        raise ParseError("JSON 'entries' must be a list of [re, im] pairs")
    if len(entries) != d * d:
        raise ParseError(f"expected {d * d} entries for {n} qubits, got {len(entries)}")
    # Type gates at C speed; the per-entry loop below only names the first bad entry.
    chain = itertools.chain.from_iterable
    if (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}
            and set(map(type, chain(entries))) <= {int, float}):
        try:
            flat = np.fromiter(chain(entries), float, count=2 * d * d).reshape(-1, 2)
        except OverflowError:  # an int beyond the float range
            pass
        else:  # float(re) + 1j*float(im), op for op: signed zeros and 0*inf NaNs agree
            del doc, entries  # free the document before the complex temporaries
            with np.errstate(invalid="ignore"):
                return (flat[:, 0] + 1j * flat[:, 1]).reshape(d, d)
    for pos, pair in enumerate(entries):
        try:
            if type(pair) is not list or len(pair) != 2 or {*map(type, pair)} - {int, float}:
                raise TypeError("not a list of two JSON numbers")
            float(pair[0]), float(pair[1])
        except (TypeError, OverflowError) as exc:
            raise ParseError(f"entry {pos} is not a [re, im] pair") from exc
    raise AssertionError("a type gate failed on entries that all pass")


# One "i,j,re,im" row of a CSV matrix file.
_CSV_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])
_load_csv_rows = functools.partial(np.loadtxt, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)


def _parse_csv_matrix(text: str) -> np.ndarray:
    """The CSV matrix, read by _parse_csv_vectorised, or by the line loop
    _parse_csv_loop wherever the fast reader might read the text differently."""
    arr = _parse_csv_vectorised(text)
    return _parse_csv_loop(text) if arr is None else arr


def _declared_qubits(comment: str, default: int | None) -> int | None:
    """N from a "# n_qubits = N" comment ('=' or ':' may separate), else
    default; int()'s ValueError if N is not an integer."""
    body = comment.lstrip("#").replace("=", " ").replace(":", " ").split()
    return int(body[1]) if len(body) == 2 and body[0] == "n_qubits" else default


def _parse_csv_vectorised(text: str) -> np.ndarray | None:
    """_parse_csv_loop's matrix at C speed, or None to hand the text to it.

    Leading blank and comment lines are read as the loop reads them; the
    rest goes to numpy's C reader, whose int64 and float64 fields take the
    tokens int() and float() take, with the same values, and which skips
    empty lines as the loop does.  numpy reads a whitespace-only line as a
    one-field row, so when the read fails and such a line exists, it reads
    once more without those lines, which the loop skips too; a clean file
    reads once.  A token numpy refuses or warns on (numpy 2.0 warns on a
    float written as an index), a line that is not four fields (a comment
    after the first entry among them), a negative, out-of-range or repeated
    index, or a dimension outside 1..MAX_DENSE_QUBITS returns None, and the
    loop then names the line.  Warnings become errors through
    warnings.catch_warnings, whose filter is process-global for the
    duration of the read.
    """
    lines = text.splitlines()
    declared_n = None
    for first, raw in enumerate(lines):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
        try:
            declared_n = _declared_qubits(line, declared_n)
        except ValueError:
            return None
    else:
        return None
    lines = lines[first:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = _load_csv_rows(lines)
            except ValueError:
                if not any(map(str.isspace, lines)):
                    raise
                rows = _load_csv_rows([line for line in lines if not line.isspace()])
    except (ValueError, Warning):
        return None
    del lines  # free the line strings before the complex temporaries
    i, j = rows["i"], rows["j"]
    top = int(max(i.max(), j.max()))
    n = declared_n if declared_n is not None else top.bit_length()
    if min(i.min(), j.min()) < 0 or not 1 <= n <= MAX_DENSE_QUBITS or top >= 2**n:
        return None
    d = 2**n
    keys = i * d + j
    seen = np.zeros(d * d, bool)
    seen[keys] = True
    if np.count_nonzero(seen) != keys.size:
        return None
    arr = np.zeros((d, d), dtype=complex)
    with np.errstate(invalid="ignore"):  # re + 1j*im, op for op as in the loop
        arr.reshape(-1)[keys] = rows["re"] + 1j * rows["im"]
    return arr


def _parse_csv_loop(text: str) -> np.ndarray:
    triples = []
    declared_n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            try:
                declared_n = _declared_qubits(line, declared_n)
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
        triples.append((i, j, re, im, lineno))
    if not triples:
        raise ParseError("CSV matrix has no entries")
    if declared_n is not None:
        d = _dense_dim(declared_n)
    else:
        top = max(max(i, j) for i, j, *_ in triples)
        if top >= DENSE_DIM_CAP:
            raise ParseError(f"index {top} needs a dimension above the dense cap {DENSE_DIM_CAP}")
        d = _dense_dim(top.bit_length())
    arr = np.zeros((d, d), dtype=complex)
    for i, j, re, im, _ in triples:
        if i >= d or j >= d:
            raise ParseError(f"index ({i},{j}) outside declared dimension {d}")
        arr[i, j] = re + 1j * im
    keys = np.fromiter([i * d + j for i, j, *_ in triples], np.int64, count=len(triples))
    if np.unique(keys).size < keys.size:  # a row overwrote another; name the first
        seen = {}
        for i, j, _, _, line in triples:
            if seen.setdefault((i, j), line) != line:
                raise ParseError(f"line {line}: entry ({i},{j}) repeats line {seen[i, j]}")
    return arr
