"""The fast input paths against the slow ones they stand in for.

The vectorised CSV reader must give the line loop's array bytes or the line
loop's ParseError message; the Cholesky PSD certificate must give the
eigvalsh check's decision and message; pausing the cyclic collector around
json.loads must leave it as the caller had it.  The slow paths stay in the
package as the references.
"""

import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entbound import states
from entbound.errors import InvariantViolation, ParseError
from entbound.linalg import PSD_TOL
from entbound.states import DensityMatrix, load_density_matrix

from conftest import random_density
from test_parse_fuzz import csv_docs


def outcome(parse, text):
    try:
        arr = parse(text)
    except ParseError as exc:
        return str(exc)
    return arr.shape, arr.tobytes()


def assert_same_reading(text):
    assert outcome(states._parse_csv_matrix, text) == outcome(states._parse_csv_loop, text)


def write_csv(matrix, header=True):
    d = matrix.shape[0]
    lines = [f"# n_qubits = {d.bit_length() - 1}"] if header else []
    lines += [f"{i},{j},{float(z.real)!r},{float(z.imag)!r}"
              for (i, j), z in np.ndenumerate(matrix)]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------------ CSV

# Tokens the loop reads but the fast reader must leave to it, or read alike.
ODD_INDICES = ["+3", "1_0", "１", "²", " 1", "1 ", "-1", "", "0x1", "10**3",
               "99999999999999999999", "007", "1.0", "1e2", "٣", "0b1"]
ODD_VALUES = ["nan", "-nan", "1e999", "-1e999", "inf", "-0.0", " 0.25 ", "1_0.5", "+.5",
              "０.５", "", "x", "0x1", "1e-320"]


ONE_IN_FOUR = st.sampled_from([False, False, False, True])


@st.composite
def csv_variants(draw):
    """A valid CSV matrix of 1-3 qubits, sparse or dense, then a few drawn
    edits: no header, extra comments or blank lines, CRLF, padded or odd
    tokens, a repeated row, an index beyond the dimension."""
    n = draw(st.integers(1, 3))
    d = 2**n
    keys = draw(st.lists(st.integers(0, d * d - 1), min_size=1, max_size=d * d, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr)
    rows = [[str(k // d), str(k % d), draw(values), draw(values)] for k in keys]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, 3))
        row[col] = draw(st.sampled_from(ODD_INDICES if col < 2 else ODD_VALUES))
    if draw(ONE_IN_FOUR):  # a padded token
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, 3))
        pad = draw(st.sampled_from([" ", "\t", "\u3000"]))
        row[col] = draw(st.sampled_from([pad + row[col], row[col] + pad]))
    if draw(ONE_IN_FOUR):
        rows.append(list(draw(st.sampled_from(rows))))  # a repeat
    if draw(ONE_IN_FOUR):
        rows.append([str(draw(st.integers(d, 2 * d))), "0", "0.0", "0.0"])  # out of range
    lines = [",".join(row) for row in rows]
    header = draw(st.sampled_from(
        [f"# n_qubits = {n}", None, f"#n_qubits:{n}", f"# n_qubits = {n + 1}", "# n_qubits = x",
         f"# n_qubits = +{n}", "# n_qubits = 0", "# a comment"]))
    if header is not None:
        lines.insert(0, header)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        extra = draw(st.sampled_from(["# note", "", "   ", f"# n_qubits = {n}", "#1,2,3,4"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=400)
@given(text=st.one_of(csv_variants(), csv_docs))
def test_csv_reader_reads_as_the_loop(text):
    assert_same_reading(text)


BASE_LINES = write_csv(random_density(np.random.default_rng(2), 2).matrix).splitlines()


def with_token(column, token):
    lines = list(BASE_LINES)
    row = lines[5].split(",")
    row[column] = token
    lines[5] = ",".join(row)
    return "\n".join(lines)


EDITS = {
    **{f"col{c}={t!r}": with_token(c, t)
       for c in range(4) for t in (ODD_INDICES if c < 2 else ODD_VALUES)},
    # tokens moved between lines: every field is still a number
    "shifted comma": "\n".join(BASE_LINES[:3] + ["0,2,0.5", "0.0,0,3,0.0,0.0"] + BASE_LINES[5:]),
    "last header wins": "\n".join(["# n_qubits = 3"] + BASE_LINES),
    "bad header after a good one": "\n".join(BASE_LINES[:1] + ["# n_qubits = 2.0"] + BASE_LINES[1:]),
    "comment in the body": "\n".join(BASE_LINES[:9] + ["# n_qubits = 3"] + BASE_LINES[9:]),
    "blank line in the body": "\n".join(BASE_LINES[:9] + [""] + BASE_LINES[9:]),
    "negative index, sparse": "\n".join(BASE_LINES[:2] + ["-1,0,0.0,0.0"]),
    "no header": "\n".join(BASE_LINES[1:]),
    "header only": BASE_LINES[0],
    "crlf": "\r\n".join(BASE_LINES),
}


@pytest.mark.parametrize("text", EDITS.values(), ids=EDITS.keys())
def test_csv_reader_on_single_edits(text):
    assert_same_reading(text)


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("n", range(1, 9))
def test_csv_reader_on_random_states(n, header):
    # n = 8 has 65 536 data lines
    text = write_csv(random_density(np.random.default_rng(100 + n), n).matrix, header)
    fast = states._parse_csv_vectorised(text)
    assert fast is not None  # the file took the fast path
    assert fast.tobytes() == states._parse_csv_loop(text).tobytes()


def test_csv_reader_with_a_signed_index_deep_in_a_large_file():
    text = write_csv(random_density(np.random.default_rng(5), 8).matrix)
    lines = text.splitlines()
    lines[2**15 + 7] = "3,+4,0.0,0.0"
    assert_same_reading("\n".join(lines))


LINES_3 = write_csv(random_density(np.random.default_rng(6), 3).matrix).splitlines()
ROWS_3 = [row.split(",") for row in LINES_3[1:]]

FAST_PATH_VARIANTS = {
    "crlf": "\r\n".join(LINES_3) + "\r\n",
    "cr": "\r".join(LINES_3) + "\r",
    "no trailing newline": "\n".join(LINES_3),
    "blank lines between rows": "\n\n".join(LINES_3) + "\n\n",
    "space-padded indices": "\n".join(
        LINES_3[:1] + [f" {i} ,  {j},{re},{im}" for i, j, re, im in ROWS_3]),
    "signed index": "\n".join(LINES_3[:1] + [f"+{i},{j},{re},{im}" for i, j, re, im in ROWS_3]),
    "space-only lines between rows": "\n   \n".join(LINES_3) + "\n   \n",
    "tab-only lines between rows": "\n\t\n".join(LINES_3) + "\n\t\n",
}


@pytest.mark.parametrize("text", FAST_PATH_VARIANTS.values(), ids=FAST_PATH_VARIANTS.keys())
def test_common_valid_variants_take_the_fast_path(text):
    fast = states._parse_csv_vectorised(text)
    assert fast is not None
    assert fast.tobytes() == states._parse_csv_loop(text).tobytes()


# ------------------------------------------------------------------------ PSD

def eigvalsh_message(matrix):
    """The eigvalsh-only check the constructor made before the certificate."""
    herm = states._checked_hermitian_part(np.asarray(matrix, dtype=complex))
    low = float(np.linalg.eigvalsh(herm).min())
    return f"negative eigenvalue {low:.3e} below -{PSD_TOL:.1e}" if low < -PSD_TOL else None


def constructor_message(n, matrix):
    try:
        DensityMatrix(n, matrix)
    except InvariantViolation as exc:
        return str(exc)
    return None


def with_spectrum(rng, n, low=None, rank=None):
    """A unit-trace Hermitian matrix with eigenvalue low, or rank nonzero ones."""
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    w = np.zeros(d)
    if rank is None:
        w[1:] = rng.uniform(0.1, 1.0, d - 1)
        w[1:] *= (1.0 - low) / w[1:].sum()
        w[0] = low
    else:
        w[:rank] = rng.uniform(0.1, 1.0, rank)
        w /= w.sum()
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2


SPECTRA = ([{"low": low} for low in (-2 * PSD_TOL, -PSD_TOL * (1 + 1e-3), -PSD_TOL * (1 - 1e-3),
                                     -PSD_TOL / 2, 0.0, 1e-3)]
           + [{"rank": 1}, {"rank": 3}])


@pytest.mark.parametrize("spec", SPECTRA, ids=lambda s: f"{next(iter(s))}={next(iter(s.values()))}")
@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_psd_certificate_decides_as_eigvalsh(n, spec):
    rng = np.random.default_rng(7 * n + len(str(spec)))
    for _ in range(3):
        m = with_spectrum(rng, n, **spec)
        assert constructor_message(n, m) == eigvalsh_message(m)


@pytest.mark.parametrize("spec", [{"low": 0.0}, {"low": 1e-3}, {"rank": 1}, {"rank": 3}])
def test_valid_states_are_certified_without_eigvalsh(monkeypatch, spec):
    m = with_spectrum(np.random.default_rng(3), 6, **spec)
    herm = states._checked_hermitian_part(m)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # a call would raise TypeError
    rho = DensityMatrix(6, m)
    assert rho.matrix.tobytes() == herm.tobytes()  # the shifted diagonal is restored


def test_failed_certificate_leaves_the_matrix_unchanged():
    m = with_spectrum(np.random.default_rng(4), 4, low=-2 * PSD_TOL)
    herm = states._checked_hermitian_part(m)
    copy = herm.copy()
    assert not states._cholesky_certifies_psd(herm)
    assert herm.tobytes() == copy.tobytes()


# ------------------------------------------------------------------------ JSON

def json_text(n_qubits, count):
    d = 2**n_qubits
    entries = [[1.0 / d if k % (d + 1) == 0 else 0.0, 0.0] for k in range(count)]
    return json.dumps({"n_qubits": n_qubits, "entries": entries})


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, loads", [
    (json_text(2, 16), True),
    ('{"n_qubits": 2, "entries": [[0.25', False),
    (json_text(2, 15), False),
])
def test_json_load_leaves_the_collector_as_it_was(enabled, text, loads):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        try:
            load_density_matrix(io.StringIO(text))
        except ParseError:
            assert not loads
        else:
            assert loads
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
