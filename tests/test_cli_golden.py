"""Golden CLI bytes: stdout, stderr, exit code and --out file of fixed invocations.

The expected outputs live in ``tests/data/cli_golden.json``; ``{tmp}`` in an
argument stands for a per-test directory holding the input files of
``FILES`` and receiving any ``--out`` report.  Regenerate the data
file only on purpose, when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from entbound.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

# 0.8 |Phi+><Phi+| + 0.2 I/4, as a JSON matrix file
RHO2_JSON = json.dumps({
    "n_qubits": 2,
    "entries": [
        [0.45, 0], [0, 0], [0, 0], [0.4, 0],
        [0, 0], [0.05, 0], [0, 0], [0, 0],
        [0, 0], [0, 0], [0.05, 0], [0, 0],
        [0.4, 0], [0, 0], [0, 0], [0.45, 0],
    ],
}) + "\n"


def _rho5_csv() -> str:
    """0.9 |W'><W'| + 0.1 I/32 with W' = W_5 carrying a phase i on qubit 5."""
    singles = [1 << (4 - q) for q in range(5)]
    phase = {b: (1j if b == 1 else 1) for b in singles}
    lines = ["# n_qubits = 5"]
    for i in range(32):
        for j in range(32):
            z = 0.003125 if i == j else 0.0
            if i in phase and j in phase:
                z += 0.18 * phase[i] * complex(phase[j]).conjugate()
            if z != 0:
                z = complex(z)
                lines.append(f"{i},{j},{z.real!r},{z.imag!r}")
    return "\n".join(lines) + "\n"


FILES = {"rho2.json": RHO2_JSON, "rho5.csv": _rho5_csv()}

INVOCATIONS = [
    # bound
    ["bound", "--family", "w-noise", "--n", "4", "--param", "0.8"],
    ["bound", "--family", "w-noise", "--n", "6", "--param", "0.9", "--format", "csv"],
    ["bound", "--family", "dicke-noise", "--n", "5", "--param", "0.85", "--format", "json"],
    ["bound", "--family", "ex3", "--n", "4", "--param", "0.9", "--format", "json",
     "--out", "{tmp}/out.json"],
    ["bound", "--family", "ghz-noise", "--n", "6", "--param", "0.95", "--format", "csv",
     "--out", "{tmp}/out.csv"],
    ["bound", "--family", "ex4", "--n", "4", "--param", "1.0", "--out", "{tmp}/out.txt"],
    ["bound", "--state", "{tmp}/rho2.json"],
    ["bound", "--state", "{tmp}/rho2.json", "--format", "json"],
    ["bound", "--state", "{tmp}/rho5.csv"],
    ["bound", "--state", "{tmp}/rho5.csv", "--format", "csv", "--out", "{tmp}/out.csv"],
    # witness
    ["witness", "--family", "ex4", "--n", "4", "--param", "0.93", "--k", "3",
     "--source", "t1"],
    ["witness", "--family", "ghz-noise", "--n", "6", "--param", "0.97",
     "--k", "2", "--k", "3", "--k", "5",
     "--source", "t2", "--source", "t3", "--source", "ghz-exact", "--format", "csv"],
    ["witness", "--family", "ghz-noise", "--n", "4", "--param", "0.95", "--k", "3",
     "--k", "4", "--source", "ghz-exact", "--format", "json"],
    ["witness", "--family", "w-noise", "--n", "6", "--param", "0.9", "--format", "json"],
    ["witness", "--family", "w-noise", "--n", "5", "--param", "0.95", "--k", "2",
     "--k", "3", "--format", "json", "--out", "{tmp}/out.json"],
    ["witness", "--family", "ghz-noise", "--n", "4", "--param", "0.5", "--k", "3",
     "--source", "ghz-exact", "--require-detection"],
    ["witness", "--state", "{tmp}/rho5.csv", "--k", "2", "--k", "4", "--format", "csv"],
    ["witness", "--state", "{tmp}/rho5.csv", "--k", "3", "--out", "{tmp}/out.txt"],
    ["witness", "--state", "{tmp}/rho2.json"],
    ["witness", "--state", "{tmp}/rho5.csv", "--source", "ghz-exact"],
    ["witness", "--family", "w-noise", "--n", "4", "--param", "0.9", "--source", "ghz-exact"],
    ["witness", "--family", "w-noise", "--n", "5", "--param", "0.9", "--source", "t1"],
    ["witness", "--family", "ex4", "--n", "4", "--param", "0.9", "--k", "1"],
    # sweep
    ["sweep", "--family", "ex4", "--n", "4", "--grid", "0:1:11", "--k", "3", "--source", "t1"],
    ["sweep", "--family", "ghz-noise", "--n", "4", "--grid", "0:1:11", "--k", "3",
     "--source", "ghz-exact", "--format", "csv", "--out", "{tmp}/out.csv"],
    ["sweep", "--family", "ghz-noise", "--n", "6", "--grid", "0.5:1:6", "--k", "2",
     "--format", "json"],
    ["sweep", "--family", "dicke-noise", "--n", "5", "--grid", "0:1:5", "--format", "csv"],
    ["sweep", "--family", "w-noise", "--n", "4", "--grid", "0:1:5", "--format", "json",
     "--out", "{tmp}/out.json"],
    ["sweep", "--family", "ex3", "--n", "4", "--grid", "0:1:3"],
    ["sweep", "--family", "w-noise", "--n", "5", "--grid", "0:1:5", "--source", "t1"],
    ["sweep", "--family", "w-noise", "--n", "4", "--grid", "0:1:5", "--source", "ghz-exact"],
    ["sweep", "--family", "ex4", "--n", "4", "--grid", "0:1:5", "--k", "5"],
    # threshold
    ["threshold", "--family", "ex4", "--n", "4", "--k", "3", "--source", "t1"],
    ["threshold", "--family", "dicke-noise", "--n", "4", "--source", "t1", "--format", "json"],
    ["threshold", "--family", "ghz-noise", "--n", "4", "--k", "2", "--source", "ghz-exact",
     "--format", "csv"],
    ["threshold", "--family", "ghz-noise", "--n", "5", "--k", "3", "--out", "{tmp}/out.txt"],
    ["threshold", "--family", "ex4", "--n", "4", "--source", "t2"],
    # reproduce
    ["reproduce", "all"],
    ["reproduce", "9"],
]


def _out_path(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_case(argv, tmp: Path, call) -> dict:
    """Run one invocation in tmp; call(args) returns (exit code, stdout, stderr)."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    args = [a.replace("{tmp}", str(tmp)) for a in argv]
    code, out, err = call(args)
    out_path = _out_path(args)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out,
        "stderr": err,
        "out_file": Path(out_path).read_bytes().decode("utf-8") if out_path else None,
    }


def _expected() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(INVOCATIONS)),
                         ids=[f"{i:02d}-{a[0]}" for i, a in enumerate(INVOCATIONS)])
def test_cli_bytes_match_golden(index, tmp_path, capsys):
    def call(args):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expected = _expected()[index]
    assert expected["argv"] == INVOCATIONS[index], "golden data out of step with INVOCATIONS"
    assert run_case(INVOCATIONS[index], tmp_path, call) == expected


def test_golden_data_covers_every_invocation():
    assert [case["argv"] for case in _expected()] == INVOCATIONS


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    def call(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        return code, out.getvalue(), err.getvalue()

    cases = []
    for argv in INVOCATIONS:
        with tempfile.TemporaryDirectory() as tmp:
            cases.append(run_case(argv, Path(tmp), call))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {DATA}")


if __name__ == "__main__":
    _regenerate()
