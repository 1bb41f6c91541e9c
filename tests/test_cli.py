import argparse
import inspect
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from entbound import cli
from entbound.cli import build_parser, main
from entbound.concurrence import pairwise_table
from entbound.linalg import DENSE_DIM_CAP, HERM_TOL, hermiticity_defect
from entbound.states import ghz_state, w_state, white_noise_mix

from conftest import random_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ghz_json(path, n=4, p=0.9):
    rho = white_noise_mix(ghz_state(n), p).matrix
    entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    path.write_text(json.dumps({"n_qubits": n, "entries": entries}))


class TestBoundCommand:
    def test_family_point_table(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "w-noise", "--n", "4",
                           "--param", "0.8")
        assert code == 0
        assert "C_1_2" in out and "0.1" in out
        assert "T1" in out

    def test_json_mirrors_report_fields(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "ex4", "--n", "4",
                           "--param", "1.0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        report = doc["bounds"][0]
        assert set(report) == {
            "theorem", "n_qubits", "pair_sum", "coefficient",
            "bound_on_C2", "bound_on_C",
        }
        assert report["bound_on_C2"] == pytest.approx(1.75, abs=1e-9)

    def test_state_file_input(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        write_ghz_json(path)
        code, out, _ = run(capsys, "bound", "--state", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_qubits"] == 4

    def test_missing_input_is_input_error(self, capsys):
        code, _, err = run(capsys, "bound")
        assert code == 2
        assert "error" in err

    def test_unreadable_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "bound", "--state", "/nonexistent/x.json")
        assert code == 2

    def test_invalid_matrix_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1.0,0\n1,1,1.0,0\n")
        code, _, err = run(capsys, "bound", "--state", str(path))
        assert code == 2
        assert "trace" in err

    def test_clamp_flag_repairs_near_psd_input(self, tmp_path, capsys):
        path = tmp_path / "nearpsd.csv"
        path.write_text(
            "# n_qubits = 2\n"
            "0,0,0.500000001,0\n"
            "1,1,0.25,0\n"
            "2,2,0.25,0\n"
            "3,3,-0.000000001,0\n"
        )
        code, _, _ = run(capsys, "bound", "--state", str(path))
        assert code == 2
        code, out, _ = run(capsys, "bound", "--state", str(path), "--clamp")
        assert code == 0
        assert "C_1_2" in out

    def test_small_system_reports_pairs_without_bounds(self, tmp_path, capsys):
        rho = white_noise_mix(ghz_state(2), 0.9).matrix
        entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n_qubits": 2, "entries": entries}))
        code, out, _ = run(capsys, "bound", "--state", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"] == []
        assert doc["pairwise"][0]["value"] == pytest.approx(0.85, abs=1e-9)


class TestWitnessCommand:
    def test_detection_exit_codes(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "ghz-noise", "--n", "4",
                           "--param", "0.95", "--k", "3", "--source", "ghz-exact",
                           "--require-detection")
        assert code == 0
        assert "True" in out
        code, out, _ = run(capsys, "witness", "--family", "ghz-noise", "--n", "4",
                           "--param", "0.5", "--k", "3", "--source", "ghz-exact",
                           "--require-detection")
        assert code == 1

    def test_json_mirrors_verdict_fields(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "ex4", "--n", "4",
                           "--param", "0.93", "--k", "3", "--source", "t1",
                           "--format", "json")
        assert code == 0
        verdict = json.loads(out)["verdicts"][0]
        assert set(verdict) == {
            "n_parties", "local_dim", "k", "threshold",
            "certified_lower_bound_on_C", "source", "detected",
        }
        assert verdict["detected"] is True
        assert verdict["source"] == "t1"

    def test_inapplicable_source_is_input_error(self, capsys):
        code, _, err = run(capsys, "witness", "--family", "w-noise", "--n", "5",
                           "--param", "0.9", "--k", "2", "--source", "t1")
        assert code == 2

    def test_multiple_k_values(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "ghz-noise", "--n", "4",
                           "--param", "0.95", "--k", "3", "--k", "4",
                           "--source", "ghz-exact", "--format", "json")
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert [v["k"] for v in verdicts] == [3, 4]
        assert all(v["detected"] for v in verdicts)


class TestSweepCommand:
    def test_csv_output_stable_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(capsys, "sweep", "--family", "ghz-noise", "--n", "4",
                             "--grid", "0:1:11", "--k", "3", "--source", "ghz-exact",
                             "--format", "csv", "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("param,C_1_2")
        assert "bound_on_C[ghz-exact]" in header

    def test_crossing_printed(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "ghz-noise", "--n", "4",
                           "--grid", "0:1:5", "--k", "3", "--source", "ghz-exact")
        assert code == 0
        assert "crossing[ghz-exact, k=3] = 0.899026898" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "ex4", "--n", "4",
                           "--grid", "0:1:3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["rows"][2]["C_1_2"] == pytest.approx(1.0, abs=1e-9)

    def test_bad_grid_is_input_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "ex4", "--n", "4",
                         "--grid", "0:2:5")
        assert code == 2


class TestThresholdCommand:
    def test_bell_pair_family(self, capsys):
        code, out, _ = run(capsys, "threshold", "--family", "ex4", "--n", "4",
                           "--k", "3", "--source", "t1")
        assert code == 0
        assert "0.924270174" in out

    def test_entanglement_mode(self, capsys):
        code, out, _ = run(capsys, "threshold", "--family", "dicke-noise", "--n", "4",
                           "--source", "t1", "--format", "json")
        assert code == 0
        crossing = json.loads(out)["crossings"][0]["crossing"]
        assert crossing == pytest.approx(0.6, abs=1e-4)

    def test_no_crossing(self, capsys):
        code, out, _ = run(capsys, "threshold", "--family", "ghz-noise", "--n", "4",
                           "--k", "2", "--source", "ghz-exact")
        assert code == 0
        assert "no crossing" in out


class TestReproduceCommand:
    def test_single_case(self, capsys):
        code, out, _ = run(capsys, "reproduce", "5")
        assert code == 0
        assert "PASS case 5" in out

    def test_all_cases(self, capsys):
        code, out, _ = run(capsys, "reproduce", "all")
        assert code == 0
        for case in range(1, 7):
            assert f"PASS case {case}" in out

    def test_bad_case_is_input_error(self, capsys):
        code, _, _ = run(capsys, "reproduce", "9")
        assert code == 2


class TestFormatting:
    def test_nine_significant_digits(self, capsys):
        from entbound.cli import fmt

        assert fmt(0.9242701736186116) == "0.924270174"
        assert fmt(1.0) == "1"
        assert fmt(True) == "True"

    def test_table_bytes_stable(self, tmp_path, capsys):
        outs = []
        for name in ("x.txt", "y.txt"):
            path = tmp_path / name
            code, _, _ = run(capsys, "bound", "--family", "w-noise", "--n", "4",
                             "--param", "0.9", "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


def count_calls(monkeypatch, original) -> dict:
    """Wrap the function original at every entbound module that binds it; the
    returned dict counts calls per binding module."""
    import sys

    counts = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("entbound") and getattr(module, original.__name__, None) is original:
            def counting(*args, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, original.__name__, counting)
    return counts


class TestOneTablePerState:
    @pytest.mark.parametrize("n, family", [(4, "w-noise"), (5, "dicke-noise"), (6, "ghz-noise")])
    def test_bound_builds_one_table(self, monkeypatch, capsys, n, family):
        counts = count_calls(monkeypatch, pairwise_table)
        code, _, _ = run(capsys, "bound", "--family", family, "--n", str(n),
                         "--param", "0.9", "--format", "json")
        assert code == 0
        assert sum(counts.values()) == 1

    def test_bound_below_four_qubits_builds_one_table(self, monkeypatch, tmp_path, capsys):
        rho = white_noise_mix(ghz_state(2), 0.9).matrix
        entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n_qubits": 2, "entries": entries}))
        counts = count_calls(monkeypatch, pairwise_table)
        code, _, _ = run(capsys, "bound", "--state", str(path))
        assert code == 0
        assert sum(counts.values()) == 1

    @pytest.mark.parametrize("extra", [
        [],
        ["--k", "2", "--k", "3", "--k", "6"],
        ["--k", "2", "--k", "4", "--source", "t2", "--source", "t3", "--source", "ghz-exact"],
    ])
    def test_witness_builds_one_table(self, monkeypatch, capsys, extra):
        counts = count_calls(monkeypatch, pairwise_table)
        code, _, _ = run(capsys, "witness", "--family", "ghz-noise", "--n", "6",
                         "--param", "0.97", *extra)
        assert code == 0
        assert sum(counts.values()) == 1

    def test_witness_ghz_exact_only_builds_no_table(self, monkeypatch, capsys):
        counts = count_calls(monkeypatch, pairwise_table)
        code, _, _ = run(capsys, "witness", "--family", "ghz-noise", "--n", "4",
                         "--param", "0.95", "--k", "3", "--source", "ghz-exact")
        assert code == 0
        assert sum(counts.values()) == 0

    def test_sweep_builds_one_table_per_grid_point(self, monkeypatch, capsys):
        # ghz-exact crossings need no table, so every table is a grid point's
        counts = count_calls(monkeypatch, pairwise_table)
        code, _, _ = run(capsys, "sweep", "--family", "ghz-noise", "--n", "5",
                         "--grid", "0:1:7", "--k", "3", "--source", "ghz-exact")
        assert code == 0
        assert sum(counts.values()) == 7

    def test_sweep_rows_build_one_table_per_grid_point(self, monkeypatch, capsys):
        # theorem crossings bisect on their own states; the rows take one each
        counts = count_calls(monkeypatch, pairwise_table)
        code, _, _ = run(capsys, "sweep", "--family", "ex4", "--n", "4",
                         "--grid", "0:1:9", "--k", "3", "--source", "t1")
        assert code == 0
        assert counts["entbound.cli"] == 9


class TestRejectionBeforeStateIsBuilt:
    @pytest.fixture
    def no_states(self, monkeypatch):
        from entbound.states import NoisyFamily

        def refuse(self, x):
            raise AssertionError("a family state was built")

        monkeypatch.setattr(NoisyFamily, "state_at", refuse)

    def test_witness_k_below_two(self, no_states, capsys):
        code, _, err = run(capsys, "witness", "--family", "ex4", "--n", "4",
                           "--param", "0.9", "--k", "1")
        assert code == 2
        assert err == "error: k=1 outside 2..4\n"

    def test_witness_theorem_outside_domain(self, no_states, capsys):
        code, _, err = run(capsys, "witness", "--family", "w-noise", "--n", "5",
                           "--param", "0.9", "--source", "t1")
        assert code == 2
        assert err == "error: four-qubit bound applied to N=5\n"

    def test_sweep_ghz_exact_on_other_family(self, no_states, capsys):
        code, _, err = run(capsys, "sweep", "--family", "dicke-noise", "--n", "4",
                           "--grid", "0:1:5", "--source", "ghz-exact")
        assert code == 2
        assert err == "error: ghz-exact source requires the GHZ noise family\n"

    def test_sweep_theorem_outside_domain(self, no_states, capsys):
        code, _, err = run(capsys, "sweep", "--family", "w-noise", "--n", "5",
                           "--grid", "0:1:5", "--source", "t1")
        assert code == 2
        assert err == "error: four-qubit bound applied to N=5\n"


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--family", "w-noise", "--param", "0.9", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


MALFORMED_FILES = {
    "index-3000000.csv": ("0,0,1,0\n3000000,3000000,0,0\n", "above the dense cap"),
    "n13.csv": ("# n_qubits = 13\n0,0,1,0\n", "n_qubits = 13 outside 1..12"),
    "n-minus-2.csv": ("# n_qubits = -2\n0,0,1,0\n", "n_qubits = -2 outside 1..12"),
    "zero-index-only.csv": ("0,0,1,0\n", "n_qubits = 0 outside 1..12"),
    "entries-5.json": ('{"n_qubits": 1, "entries": 5}', "'entries' must be a list"),
    "n-minus-3.json": ('{"n_qubits": -3, "entries": []}', "n_qubits = -3 outside 1..12"),
    "nan-diagonal.csv": ("# n_qubits = 2\n0,0,nan,0\n1,1,0.5,0\n2,2,0.5,0\n", "non-finite"),
    "nan-off-diagonal.csv": (
        "# n_qubits = 2\n0,0,0.5,0\n0,1,nan,0\n1,0,nan,0\n1,1,0.5,0\n", "non-finite"),
    "inf-diagonal.json": (
        '{"n_qubits": 1, "entries": [[Infinity, 0], [0, 0], [0, 0], [0, 0]]}', "non-finite"),
    "n-float.json": (
        '{"n_qubits": 2.7, "entries": []}', "JSON 'n_qubits' must be an integer, got 2.7"),
    "n-string.json": (
        '{"n_qubits": "2", "entries": []}', "JSON 'n_qubits' must be an integer, got \"2\""),
    "n-bool.json": (
        '{"n_qubits": true, "entries": []}', "JSON 'n_qubits' must be an integer, got true"),
    "max-float-diagonal.csv": (
        "# n_qubits = 3\n7,7,-1.7976931348623157e+308,-1.7976931348623157e+308\n",
        "entry part 1.798e+308 above 2"),
    "max-float-hermitian.json": (
        '{"n_qubits": 1, "entries": [[1, 0], [1.7976931348623157e+308, 1.7976931348623157e+308],'
        ' [1.7976931348623157e+308, -1.7976931348623157e+308], [0, 0]]}',
        "entry part 1.798e+308 above 2"),
}


@pytest.mark.parametrize("clamp", [[], ["--clamp"]])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_file_is_input_error_without_large_allocation(tmp_path, capsys, name, clamp):
    text, message = MALFORMED_FILES[name]
    path = tmp_path / name
    path.write_text(text)
    assert_input_error_without_large_allocation(
        capsys, message, "bound", "--state", str(path), *clamp)


def test_hermiticity_defect_accepted_at_entry_stays_accepted_in_marginals(tmp_path, capsys):
    # The 16 entries [00xxxx, 01xxxx] and their transposes carry 4e-11j each:
    # the file's defect, 8e-11, is within HERM_TOL, but the (1,2) marginal sums
    # 16 of them into 1.28e-9 unless the constructor keeps the Hermitian part.
    m = 0.5 * np.eye(64) / 64 + 0.5 * random_density(np.random.default_rng(11), 6).matrix
    r = np.arange(16)
    m[r, 16 + r] += 4e-11j
    m[16 + r, r] += 4e-11j
    assert 5e-11 < hermiticity_defect(m) <= HERM_TOL
    outputs = []
    for name, matrix in [("defect.json", m), ("hermitian.json", (m + m.conj().T) / 2)]:
        path = tmp_path / name
        entries = [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]
        path.write_text(json.dumps({"n_qubits": 6, "entries": entries}))
        code, out, err = run(capsys, "bound", "--state", str(path), "--format", "json")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def assert_input_error_without_large_allocation(capsys, message, *argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert peak < DENSE_DIM_CAP**2 * 16  # less than one complex matrix at the cap


def count_validations(monkeypatch) -> list:
    """Count runs of the validating DensityMatrix constructor."""
    from entbound.states import DensityMatrix

    original = DensityMatrix.__post_init__
    calls = []

    def counting(self):
        calls.append(self.n_qubits)
        return original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    return calls


class TestValidationAtEntryOnly:
    @pytest.mark.parametrize("argv", [
        ["bound", "--family", "dicke-noise", "--n", "6", "--param", "0.9"],
        ["witness", "--family", "ghz-noise", "--n", "6", "--param", "0.97",
         "--k", "2", "--k", "3", "--source", "t2", "--source", "ghz-exact"],
        ["sweep", "--family", "ex4", "--n", "4", "--grid", "0:1:5", "--k", "3"],
        ["threshold", "--family", "w-noise", "--n", "5", "--source", "t2"],
    ])
    def test_family_commands_validate_nothing(self, monkeypatch, capsys, argv):
        calls = count_validations(monkeypatch)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == []

    @pytest.mark.parametrize("clamp", [[], ["--clamp"]])
    def test_bound_on_a_file_validates_once(self, monkeypatch, tmp_path, capsys, clamp):
        path = tmp_path / "w5.json"
        rho = white_noise_mix(w_state(5), 0.9).matrix
        path.write_text(json.dumps({
            "n_qubits": 5,
            "entries": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)],
        }))
        calls = count_validations(monkeypatch)
        code, _, _ = run(capsys, "bound", "--state", str(path), *clamp)
        assert code == 0
        assert calls == [5]

    def test_ghz_exact_witness_on_a_file_validates_once(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "ghz6.json"
        write_ghz_json(path, n=6, p=0.95)
        calls = count_validations(monkeypatch)
        code, out, _ = run(capsys, "witness", "--state", str(path), "--source", "ghz-exact",
                           "--k", "2", "--k", "3", "--k", "4")
        assert code == 0
        assert out.count("ghz-exact") == 3
        assert calls == [6]


OVERSIZE = [
    (["bound", "--family", "w-noise", "--n", "13", "--param", "0.5"],
     "13 qubits exceeds the dense-matrix cap"),
    (["sweep", "--family", "w-noise", "--n", "13", "--grid", "0:1:3"],
     "13 qubits exceeds the dense-matrix cap"),
    (["witness", "--family", "ghz-noise", "--n", "40", "--param", "0.9"],
     "40 qubits exceeds the pure-state cap"),
    (["threshold", "--family", "dicke-noise", "--n", "30"],
     "30 qubits exceeds the pure-state cap"),
]


@pytest.mark.parametrize("argv, message", OVERSIZE, ids=[a[0] for a, _ in OVERSIZE])
def test_oversize_family_is_input_error_without_large_allocation(capsys, argv, message):
    assert_input_error_without_large_allocation(capsys, message, *argv)


def test_oversize_grid_is_input_error_without_large_allocation(capsys):
    assert_input_error_without_large_allocation(
        capsys, f"exceeds the cap of {cli.MAX_GRID_STEPS}",
        "sweep", "--family", "ex4", "--grid", "0:1:1000000000", "--k", "3")


def test_ghz_exact_threshold_above_the_dense_cap_builds_no_state(capsys):
    code, out, err = run(capsys, "threshold", "--family", "ghz-noise", "--n", "13",
                         "--source", "ghz-exact", "--k", "3")
    assert (code, err) == (0, "")
    assert out == ("family     n_qubits  k  source     crossing\n"
                   "ghz-noise  13        3  ghz-exact  no crossing\n")


def option_strings(command: str) -> set[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    return {s for a in actions for s in a.option_strings} - {"-h", "--help"}


POINT_OPTIONS = {"--state", "--clamp", "--family", "--n", "--excitations", "--param",
                 "--format", "--out"}
SWEEP_OPTIONS = {"--family", "--n", "--excitations", "--format", "--out", "--grid", "--k",
                 "--source"}


class TestParser:
    @pytest.mark.parametrize("command, options", [
        ("bound", POINT_OPTIONS),
        ("witness", POINT_OPTIONS | {"--k", "--source", "--require-detection"}),
        ("sweep", SWEEP_OPTIONS),
        ("threshold", SWEEP_OPTIONS - {"--grid"}),
    ])
    def test_each_command_has_the_flags_it_reads(self, command, options):
        assert option_strings(command) == options

    def test_each_flag_is_declared_once(self):
        # --k twice: repeatable on witness, a single value shared by sweep and threshold
        declared = Counter(re.findall(r'add_argument\(\s*"(--[\w-]+)"', inspect.getsource(cli)))
        assert declared == Counter(set(declared)) + Counter({"--k": 1})

    @pytest.mark.parametrize("argv, missing", [
        (["sweep", "--grid", "0:1:3"], "--family"),
        (["sweep", "--family", "ex4"], "--grid"),
        (["threshold", "--k", "3"], "--family"),
    ])
    def test_required_flags(self, capsys, argv, missing):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required" in err and missing in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "ex4", "--grid", "0:1:3", "--state", "x"],
        ["sweep", "--family", "ex4", "--grid", "0:1:3", "--state", "/nonexistent",
         "--param", "7", "--clamp"],
        ["threshold", "--family", "ex4", "--k", "3", "--param", "0.5"],
        ["threshold", "--family", "ex4", "--k", "3", "--clamp"],
    ])
    def test_sweep_and_threshold_refuse_point_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestIgnoredFlagsAreErrors:
    @pytest.mark.parametrize("command", ["bound", "witness"])
    def test_param_with_state(self, tmp_path, capsys, command):
        path = tmp_path / "ghz.json"
        write_ghz_json(path)
        code, out, err = run(capsys, command, "--state", str(path), "--param", "0.5")
        assert (code, out) == (2, "")
        assert err == "error: --param applies to --family, not --state\n"

    @pytest.mark.parametrize("command", ["bound", "witness"])
    def test_n_with_state(self, tmp_path, capsys, command):
        path = tmp_path / "ghz.json"
        write_ghz_json(path)
        code, out, err = run(capsys, command, "--state", str(path), "--n", "9")
        assert (code, out) == (2, "")
        assert err == "error: --n applies to --family, not --state\n"

    def test_excitations_with_state(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        write_ghz_json(path)
        code, _, err = run(capsys, "bound", "--state", str(path), "--excitations", "2")
        assert code == 2
        assert err == "error: --excitations applies to --family, not --state\n"

    @pytest.mark.parametrize("command", ["bound", "witness"])
    def test_clamp_with_family(self, capsys, command):
        code, out, err = run(capsys, command, "--family", "w-noise", "--param", "0.9",
                             "--clamp")
        assert (code, out) == (2, "")
        assert err == "error: --clamp applies to --state, not --family\n"

    @pytest.mark.parametrize("argv", [
        ["bound", "--family", "w-noise", "--param", "0.9"],
        ["witness", "--family", "ghz-noise", "--param", "0.9"],
        ["sweep", "--family", "ex4", "--grid", "0:1:3"],
        ["threshold", "--family", "ex3", "--k", "3"],
    ])
    def test_excitations_off_dicke(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--excitations", "1")
        assert (code, out) == (2, "")
        assert err == "error: --excitations applies only to --family dicke-noise\n"

    def test_excitations_on_dicke(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "dicke-noise", "--n", "5",
                           "--excitations", "1", "--param", "0.9", "--format", "json")
        assert code == 0
        assert json.loads(out)["n_qubits"] == 5


def test_ghz_witness_recovers_the_visibility_once_for_every_k(monkeypatch, capsys):
    counts = count_calls(monkeypatch, white_noise_mix)
    code, out, _ = run(capsys, "witness", "--family", "ghz-noise", "--n", "6",
                       "--param", "0.97", "--source", "ghz-exact",
                       "--k", "2", "--k", "3", "--k", "4")
    assert code == 0
    assert out.count("ghz-exact") == 3
    # one for the family state, one for the GHZ model its visibility is checked against
    assert sum(counts.values()) == 2


@pytest.mark.parametrize("argv, states", [
    # one state at the noiseless end for the no-crossing test, then 30 bisection steps
    (["threshold", "--family", "ex4", "--n", "4", "--k", "3", "--source", "t1"], 31),
    # 11 grid rows plus the 31 of the crossing
    (["sweep", "--family", "ex4", "--n", "4", "--grid", "0:1:11", "--k", "3",
      "--source", "t1"], 42),
], ids=["threshold", "sweep"])
def test_crossing_builds_no_sampling_states(monkeypatch, capsys, argv, states):
    counts = count_calls(monkeypatch, white_noise_mix)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert sum(counts.values()) == states
