"""States are checked once, where they enter, and trusted behind that line.

The DensityMatrix constructor, ``from_array(clamp=True)`` and the matrix-file
parsers check everything; the eigensolver does not re-check its input.  These
tests show that every matrix handed to the eigensolver is exactly Hermitian,
that every marginal handed to the Wootters kernel stays within the floor that
entry validation allows it, that the Wootters kernel agrees with the chain
that re-checked to rounding and keeps its zeros, that the JSON parser gives
the bits of the per-entry loop it replaced, and that ``--clamp`` checks the
file's own matrix before repairing it.
"""

import itertools
import json

import numpy as np
import pytest

from entbound import concurrence, linalg, states, witness
from entbound.cli import main
from entbound.concurrence import pairwise_tables, wootters_concurrence
from entbound.errors import ParseError
from entbound.linalg import (
    EIGEN_DUST,
    HERM_TOL,
    PSD_TOL,
    SIGMA_Y,
    hermiticity_defect,
    require_square,
)
from oracle import SamplerConfig, haar_random_pure
from entbound.states import (
    NoisyFamily,
    dicke_state,
    ghz_state,
    w_state,
)

from conftest import random_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, matrix):
    n = matrix.shape[0].bit_length() - 1
    entries = [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]
    path.write_text(json.dumps({"n_qubits": n, "entries": entries}))


def defect_file_matrix():
    """A 6-qubit state whose file carries a Hermiticity defect of 8e-11."""
    m = 0.5 * np.eye(64) / 64 + 0.5 * random_density(np.random.default_rng(11), 6).matrix
    r = np.arange(16)
    m[r, 16 + r] += 4e-11j
    m[16 + r, r] += 4e-11j
    return m


def near_psd_matrix():
    """A 4-qubit rank-2 state pushed to an eigenvalue of -1e-9."""
    rho = random_density(np.random.default_rng(5), 4, rank=2).matrix
    _, v = np.linalg.eigh(rho)
    out = rho - 1e-9 * np.outer(v[:, 0], v[:, 0].conj())
    out = (out + out.conj().T) / 2
    return out / np.trace(out).real


# ------------------------------------------------ what reaches the eigensolver

def record_eigensolves(monkeypatch) -> list:
    """Record the Hermiticity defect of every matrix given to the eigensolver,
    each matrix of a stack on its own, under both names it is called by."""
    original = linalg.hermitian_eigensystem
    defects = []

    def recording(m):
        defects.extend(hermiticity_defect(a) for a in m.reshape(-1, *m.shape[-2:]))
        return original(m)

    monkeypatch.setattr(linalg, "hermitian_eigensystem", recording)
    monkeypatch.setattr(witness, "hermitian_eigensystem", recording)
    return defects


FAMILY_COMMANDS = [
    ["bound", "--family", family, "--n", str(n), "--param", "0.9"]
    for family in ("w-noise", "dicke-noise", "ghz-noise") for n in range(4, 9)
] + [
    ["sweep", "--family", family, "--n", "5", "--grid", "0:1:4", "--source", "t2"]
    for family in ("w-noise", "dicke-noise", "ghz-noise")
] + [
    ["threshold", "--family", family, "--n", "6", "--source", "t2"]
    for family in ("w-noise", "dicke-noise")
] + [
    ["witness", "--family", "dicke-noise", "--n", "7", "--param", "0.95", "--k", "3"],
    ["reproduce", "all"],
] + [  # grids above the entanglement edge: every row reaches the Wootters kernel
    ["sweep", "--family", "ex3", "--grid", "0.62:1:201"],
    ["sweep", "--family", "dicke-noise", "--n", "6", "--grid", "0.9:1:151", "--source", "t3"],
    ["sweep", "--family", "w-noise", "--n", "8", "--grid", "0.93:1:151", "--source", "t3"],
]


def state_file_commands(tmp_path) -> list:
    """Write four accepted state files and return the commands that read them."""
    files = {
        "mixed.json": random_density(np.random.default_rng(3), 5).matrix,
        "defect.json": defect_file_matrix(),
        "pure.json": w_state(5).density_matrix().matrix,
        "near-psd.json": near_psd_matrix(),
    }
    for name, matrix in files.items():
        write_json(tmp_path / name, matrix)
    return [
        ["bound", "--state", str(tmp_path / "mixed.json")],
        ["bound", "--state", str(tmp_path / "defect.json")],
        ["witness", "--state", str(tmp_path / "pure.json"), "--k", "3"],
        ["bound", "--state", str(tmp_path / "near-psd.json"), "--clamp"],
    ]


class TestEigensolverInputsAreHermitian:
    def test_family_commands_and_reproduce(self, monkeypatch, capsys):
        defects = record_eigensolves(monkeypatch)
        for argv in FAMILY_COMMANDS:
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        assert len(defects) > 100
        assert max(defects) <= 1e-15

    def test_state_files(self, monkeypatch, tmp_path, capsys):
        assert 5e-11 < hermiticity_defect(defect_file_matrix()) <= HERM_TOL
        argvs = state_file_commands(tmp_path)
        defects = record_eigensolves(monkeypatch)
        for argv in argvs:
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        before = len(defects)
        pure = states.load_density_matrix(tmp_path / "pure.json")
        witness.certified_bound(pure, witness.Source.PURE_EXACT)  # eigensolves the whole state
        assert len(defects) == before + 1
        assert len(defects) > 40
        assert max(defects) <= 1e-15

    def test_one_eigensolve_and_one_svd_per_wootters_call(self, monkeypatch, capsys):
        solves, svds = [], []
        original_solve = linalg.hermitian_eigensystem

        def solving(m):
            solves.append(m.shape)
            return original_solve(m)

        monkeypatch.setattr(linalg, "hermitian_eigensystem", solving)
        original_svd = concurrence._singular_values
        monkeypatch.setattr(concurrence, "_singular_values", lambda m: svds.append(m.shape) or original_svd(m))
        original = concurrence._wootters_stack
        calls = []

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(concurrence, "_wootters_stack", counting)
        code, _, _ = run(capsys, "bound", "--family", "ex3", "--param", "0.8")
        assert code == 0
        # ex3's five classes of equal pairs ((1,2) and (1,4) share a reduced
        # state); the three entangled at 0.8 (all but (1,3) and (2,4)), each
        # marginal once in the eigensolve and the SVD
        entangled = sum(0.8 > edge for edge in states.NoisyFamily(states.example3_state()).class_edges)
        assert entangled == 3
        assert calls == [(entangled, 4, 4)]
        assert solves == [(entangled, 4, 4)]
        assert svds == [(entangled, 4, 4)]


# ------------------------------------------------ a marginal below the PSD floor

def diagonal_csv(negatives: dict[int, float]) -> str:
    """A 6-qubit diagonal state file: the given entries, the rest equal and
    positive, at unit trace."""
    rest = (1.0 - sum(negatives.values())) / (64 - len(negatives))
    lines = ["# n_qubits = 6"]
    lines += [f"{i},{i},{negatives.get(i, rest)!r},0" for i in range(64)]
    return "\n".join(lines) + "\n"


def qubits_of(i: int, *qubits: int) -> tuple[int, ...]:
    return tuple(i >> (6 - q) & 1 for q in qubits)


DUST_FILES = {
    # 16 entries of -0.9e-10 add up in the 00 entry of the (1,2) marginal: -1.44e-9
    "one-pair": {i: -0.9e-10 for i in range(64) if qubits_of(i, 1, 2) == (0, 0)},
    # (3,4) reads -8e-10 and (5,6) -1.28e-9
    "two-pairs": {i: -0.5e-10 if qubits_of(i, 3, 4) == (0, 0) else -0.9e-10
                  for i in range(64) if qubits_of(i, 3, 4) == (0, 0) or qubits_of(i, 5, 6) == (1, 1)},
}


def dust_file_commands(tmp_path) -> list:
    """Write the DUST_FILES and return a `bound --state` command for each."""
    argvs = []
    for name, negatives in sorted(DUST_FILES.items()):
        path = tmp_path / f"{name}.csv"
        path.write_text(diagonal_csv(negatives))
        argvs.append(["bound", "--state", str(path)])
    return argvs


@pytest.mark.parametrize("name", sorted(DUST_FILES))
def test_marginal_below_the_psd_floor_reads_as_its_clamp(tmp_path, capsys, name):
    # The file passes entry validation; its marginal, below -PSD_TOL, is not
    # checked again, so the run gives the bytes of the repaired file's run.
    path = tmp_path / "dust.csv"
    path.write_text(diagonal_csv(DUST_FILES[name]))
    states.load_density_matrix(path)  # within -PSD_TOL, so the file is a state
    clamped = run(capsys, "bound", "--state", str(path), "--clamp")
    assert clamped[0] == 0 and clamped[1] and clamped[2] == ""
    assert run(capsys, "bound", "--state", str(path)) == clamped


def record_marginal_floors(monkeypatch) -> tuple[list, list]:
    """The qubit count N of the state behind every marginal handed to
    _wootters_stack, and each marginal's lowest eigenvalue, in stack order."""
    qubits, lows = [], []

    def recording(self, pair, original=states.DensityMatrix.reduced):
        qubits.append(self.n_qubits)
        return original(self, pair)

    def recording_marginals(self, xs, classes=None, original=states.NoisyFamily.marginals):
        stack = original(self, xs, classes)
        qubits.extend([self.n_qubits] * (stack.size // 16))
        return stack

    # a family point's marginals, alone or in a batch, come from marginals
    monkeypatch.setattr(states.DensityMatrix, "reduced", recording)
    monkeypatch.setattr(states.NoisyFamily, "marginals", recording_marginals)
    kernel = concurrence._wootters_stack

    def recording_kernel(m):
        lows.extend(np.linalg.eigvalsh(m).min(axis=-1).tolist())
        return kernel(m)

    monkeypatch.setattr(concurrence, "_wootters_stack", recording_kernel)
    return qubits, lows


def test_marginals_stay_within_the_entry_floor(monkeypatch, tmp_path, capsys):
    # Entry validation allows a state's eigenvalues down to -PSD_TOL, and a
    # partial trace over N - 2 qubits adds 2^(N-2) of them, so the Wootters
    # kernel's floor repairs no more than what entered as a valid state.
    argvs = FAMILY_COMMANDS + state_file_commands(tmp_path) + dust_file_commands(tmp_path)
    qubits, lows = record_marginal_floors(monkeypatch)
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
    assert len(lows) == len(qubits) > 1000
    for n, low in zip(qubits, lows):
        assert low >= -(2 ** (n - 2)) * PSD_TOL, (n, low)
    assert min(lows) < -PSD_TOL  # the dust files' marginals reach below the entry floor


# ------------------------------------------------ Wootters, against the re-checking chain

# The chain wootters_concurrence used while the eigensolver re-checked
# Hermiticity, kept verbatim as the reference.

def _ref_hermitian_eigensystem(m):
    m = require_square(m)
    defect = hermiticity_defect(m)
    if defect > HERM_TOL:
        raise ValueError(f"|m - m^dagger|_max = {defect:.3e} exceeds {HERM_TOL:.1e}")
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def _ref_floored_psd_eigenvalues(w, scale=None):
    low = float(w.min()) if w.size else 0.0
    if low < -PSD_TOL:
        raise ValueError(f"eigenvalue {low:.3e} below -{PSD_TOL:.1e}")
    w = np.clip(w, 0.0, None)
    top = float(w[0]) if w.size else 0.0
    floor = EIGEN_DUST * max(top, scale or 0.0)
    w[w < floor] = 0.0
    return w


def _ref_psd_sqrt(m):
    w, v = _ref_hermitian_eigensystem(m)
    w = _ref_floored_psd_eigenvalues(w)
    return (v * np.sqrt(w)) @ v.conj().T


def _ref_psd_sqrt_spectrum(m, scale=None):
    w, _ = _ref_hermitian_eigensystem(m)
    return np.sqrt(_ref_floored_psd_eigenvalues(w, scale))


_YY = np.kron(SIGMA_Y, SIGMA_Y)


def reference_wootters(rho) -> float:
    m = rho.matrix
    rho_tilde = _YY @ m.conj() @ _YY
    root = _ref_psd_sqrt(m)
    r = root @ rho_tilde @ root
    r = (r + r.conj().T) / 2
    lam = _ref_psd_sqrt_spectrum(r, scale=1.0)
    c = float(lam[0] - lam[1] - lam[2] - lam[3])
    return min(max(c, 0.0), 1.0)


def seeded_marginals():
    """Dense and family-engine pair marginals of W, GHZ, Dicke and Haar
    bases, n = 2..8, at seeded visibilities."""
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        bases = [w_state(n), ghz_state(n), dicke_state(n, max(1, n // 2))]
        bases += haar_random_pure(SamplerConfig(n, seed=40 + n, count=2))
        for base in bases:
            family = NoisyFamily(base)
            for x in [0.0, 1.0, *rng.uniform(0.0, 1.0, 3)]:
                x = float(x)
                k = len(family.pair_classes)
                for m in family.marginals([x] * k, range(k)):
                    yield states.DensityMatrix._derived(2, m)
                if n <= 6 or x in (0.0, 1.0):
                    rho = family.state_at(x)
                    for pair in itertools.combinations(range(1, n + 1), 2):
                        yield rho.reduced(pair)
    for n in (2, 3, 4):
        for rank in (1, 2, 4):
            for _ in range(40):
                rho = random_density(rng, n, rank)
                for pair in itertools.combinations(range(1, n + 1), 2):
                    yield rho.reduced(pair)


def test_wootters_matches_the_rechecking_chain():
    # The chain took square roots of a second eigensolve's eigenvalues, so its
    # values carry up to eps / sqrt(EIGEN_DUST) of dust; the kernel's singular
    # values do not, so it keeps every zero of the chain and moves the rest by
    # rounding only.
    marginals = list(seeded_marginals())
    assert len(marginals) >= 3000
    want = [reference_wootters(marginal) for marginal in marginals]
    got = [wootters_concurrence(marginal) for marginal in marginals]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13
    assert [g for g, w in zip(got, want) if w == 0.0] == [0.0] * want.count(0.0)
    for size in (1, 6, len(marginals)):
        batched = [table.value(1, 2)
                   for start in range(0, len(marginals), size)
                   for table in pairwise_tables(marginals[start:start + size])]
        assert batched == got, size


def test_tables_split_across_kernel_calls_match_one_call_per_table(monkeypatch):
    rng = np.random.default_rng(3)
    points = [random_density(rng, n, rank) for n in (2, 3, 5, 6) for rank in (1, 3)]
    points += [NoisyFamily(base).point(0.8) for base in (w_state(5), dicke_state(6, 3))]
    # a run of a Haar base's points: 10 classes a point, so the run straddles kernel
    # calls; the next family has as many qubits, and its points are a run of their own
    haar, other = map(NoisyFamily, haar_random_pure(SamplerConfig(5, seed=11, count=2)))
    assert len(haar.pair_classes) == 10
    points += [haar.point(x) for x in (0.1, 0.5, 0.9)] + [other.point(0.5), other.point(0.6)]
    # one family's points split by a dense state, then one DensityMatrix twice in a row
    points += [haar.point(0.3), points[2], haar.point(0.7), points[3], points[3]]
    want = [list(pairwise_tables([rho])[0].values.items()) for rho in points]
    monkeypatch.setattr(concurrence, "WOOTTERS_STACK", 7)  # tables straddle kernel calls
    assert [list(t.values.items()) for t in pairwise_tables(points)] == want


# ------------------------------------------------ JSON entries

def reference_parse_entries(entries, d):
    """The per-entry loop the type gates replaced."""
    flat = np.empty(d * d, dtype=complex)
    for pos, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"entry {pos} is not a [re, im] pair")
        flat[pos] = float(pair[0]) + 1j * float(pair[1])
    return flat.reshape(d, d)


SPECIAL_PARTS = [0.0, -0.0, 0, 1, -1, 3, 2**60, 2**60 + 1, -(2**64) - 5,
                 float("inf"), float("-inf"), float("nan"), 1e308, -5e-324, 0.5]


def test_json_entries_parse_to_the_bits_of_the_per_entry_loop():
    rng = np.random.default_rng(2)
    for _ in range(400):
        n = int(rng.integers(1, 4))
        d = 2**n
        entries = [
            [SPECIAL_PARTS[rng.integers(len(SPECIAL_PARTS))] if rng.random() < 0.6
             else float(rng.standard_normal()) for _ in range(2)]
            for _ in range(d * d)
        ]
        text = json.dumps({"n_qubits": n, "entries": entries})
        got = states._parse_json_matrix(text)
        want = reference_parse_entries(json.loads(text)["entries"], d)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


BAD_ENTRIES = {
    "string": '["0.5", 0]',
    "false": "[0.5, false]",
    "true": "[true, 0]",
    "null": "[0, null]",
    "huge-int": "[1" + "0" * 400 + ", 0]",
    "three-parts": "[0.5, 0, 0]",
    "not-a-list": "0.5",
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("pos", [1, 3])
def test_json_entry_that_is_not_two_numbers_is_named(bad, pos):
    entries = ["[0.5, 0]", "[0, 0]", "[0, 0]", "[0.5, 0]"]
    entries[pos] = BAD_ENTRIES[bad]
    if pos == 1:
        entries[3] = '["x", 0]'  # a later bad entry is not the one named
    text = '{"n_qubits": 1, "entries": [%s]}' % ", ".join(entries)
    with pytest.raises(ParseError, match=rf"^entry {pos} is not a \[re, im\] pair$"):
        states._parse_json_matrix(text)


def test_json_strings_and_booleans_are_one_input_error(tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text('{"n_qubits": 1, "entries": [["0.5", 0], [0, 0], [0, 0], [0.5, false]]}')
    code, out, err = run(capsys, "bound", "--state", str(path))
    assert (code, out) == (2, "")
    assert err == "error: entry 0 is not a [re, im] pair\n"


# ------------------------------------------------ --clamp checks the file first

CLAMP_REFUSED = {
    "trace-2.csv": ("# n_qubits = 2\n0,0,0.5,0\n1,1,0.5,0\n2,2,0.5,0\n3,3,0.5,0\n",
                    "error: trace (2+0j) deviates from 1 by 1.000e+00\n"),
    "defect.csv": ("# n_qubits = 2\n0,0,0.25,0\n1,1,0.25,0\n2,2,0.25,0\n3,3,0.25,0\n0,3,0.4,0\n",
                   "error: Hermiticity defect 4.000e-01 exceeds 1.0e-10\n"),
}


@pytest.mark.parametrize("clamp", [[], ["--clamp"]])
@pytest.mark.parametrize("name", sorted(CLAMP_REFUSED))
def test_clamp_refuses_what_the_constructor_refuses(tmp_path, capsys, name, clamp):
    text, message = CLAMP_REFUSED[name]
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "bound", "--state", str(path), *clamp)
    assert (code, out, err) == (2, "", message)


def test_clamp_repairs_the_hermitian_part_of_the_file():
    m = near_psd_matrix()
    m[0, 1] += 3e-11j  # a defect within HERM_TOL
    assert 0 < hermiticity_defect(m) <= HERM_TOL
    clamped = states.DensityMatrix.from_array(m, clamp=True)
    herm = states.DensityMatrix.from_array((m + m.conj().T) / 2, clamp=True)
    assert np.array_equal(clamped.matrix, herm.matrix)
    assert np.linalg.eigvalsh(clamped.matrix).min() >= -PSD_TOL

