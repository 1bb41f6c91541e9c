"""Fuzzing of the matrix-file parsers.

Any text, and JSON or CSV documents with random qubit counts, entry types and
indices, must load as a DensityMatrix or fail with an ``entbound.errors``
exception; through the CLI the same input ends in a report or an ``error:``
line with exit code 2, never a traceback.  Sizes stay small: qubit counts
that pass the parser are at most 3, larger ones are far above the dense cap,
so no example can allocate a large matrix.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from entbound import errors
from entbound.cli import main
from entbound.states import DensityMatrix, load_density_matrix

ENTBOUND_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)

qubit_counts = st.one_of(
    st.integers(-3, 3), st.sampled_from([13, 64, 10**6, 3.5, "2", "two", None, [1], True])
)
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from([10**400, "0.5", "x", None, True, [], {}]),
)
entries = st.one_of(
    numbers,
    st.lists(st.one_of(st.lists(numbers, max_size=3), numbers), max_size=20),
)
json_docs = st.fixed_dictionaries(
    {}, optional={"n_qubits": qubit_counts, "entries": entries}
).map(json.dumps)

indices = st.one_of(st.integers(-2, 7), st.sampled_from([3_000_000, 10**12]))
csv_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr), st.sampled_from(["", "x", "1e999"])
)
csv_rows = st.tuples(indices, indices, csv_values, csv_values).map(
    lambda r: f"{r[0]},{r[1]},{r[2]},{r[3]}"
)
csv_headers = st.one_of(st.just(""), qubit_counts.map(lambda n: f"# n_qubits = {n}"))
csv_docs = st.tuples(csv_headers, st.lists(csv_rows, max_size=8)).map(
    lambda doc: "\n".join([doc[0], *doc[1]]) + "\n"
)

matrix_texts = st.one_of(st.text(max_size=200), json_docs, csv_docs)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(text=matrix_texts)
def test_parsers_give_a_state_or_an_entbound_error(fuzz_dir, text):
    try:
        rho = load_density_matrix(io.StringIO(text))
    except ENTBOUND_ERRORS:
        loaded = False
    else:
        assert isinstance(rho, DensityMatrix)
        loaded = True

    path = fuzz_dir / "matrix.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bound", "--state", str(path)])
    if loaded:
        assert code in (0, 2)
    else:
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
