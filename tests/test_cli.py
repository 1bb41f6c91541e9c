import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from entbound import cli, concurrence, witness
from entbound.bounds import theorem_bound
from entbound.cli import build_parser, main
from entbound.concurrence import pairwise_table, pairwise_tables
from entbound.linalg import DENSE_DIM_CAP, HERM_TOL, hermiticity_defect
from entbound.states import (
    NoisyFamily,
    dicke_state,
    example3_state,
    example4_state,
    ghz_state,
    w_state,
    white_noise_mix,
)
from entbound.witness import Source, applicable_sources

from conftest import random_density
from oracle import random_single_qubit_unitaries


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

    @pytest.mark.parametrize("seed", range(4))
    def test_fully_separable_file_certifies_nothing(self, tmp_path, capsys, seed):
        # sigma (x) |00><00|, sigma a rotated (1 - eps)|00><00| + eps|11><11| at eps = 1e-12
        u = np.kron(*random_single_qubit_unitaries(np.random.default_rng(seed), 2))
        sigma = u @ np.diag([1 - 1e-12, 0, 0, 1e-12]) @ u.conj().T
        rho = np.kron(sigma, np.diag([1.0, 0, 0, 0]))
        path = tmp_path / "sep4.json"
        path.write_text(json.dumps({"n_qubits": 4, "entries": [[z.real, z.imag] for z in rho.flat]}))
        code, out, _ = run(capsys, "bound", "--state", str(path), "--format", "json")
        assert code == 0
        assert [b["bound_on_C"] for b in json.loads(out)["bounds"]] == [0.0]

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

    @pytest.mark.parametrize("grid", ["0:1:3.0", "0:1", "a:1:3"])
    def test_malformed_grid_names_the_grid_not_its_parser(self, capsys, grid):
        with pytest.raises(SystemExit) as exit_info:
            run(capsys, "sweep", "--family", "ex4", "--grid", grid)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"argument --grid: grid must be start:stop:steps with an integer steps, got '{grid}'" in err
        assert "_parse_grid" not in err

    @pytest.mark.parametrize("grid, want_code", [("-0.0:1:3", 0), ("-0.1:1:3", 2)])
    def test_negative_grid_start_reads_as_with_equals(self, capsys, grid, want_code):
        spaced = run(capsys, "sweep", "--family", "ex4", "--grid", grid)
        joined = run(capsys, "sweep", "--family", "ex4", f"--grid={grid}")
        assert spaced == joined
        assert spaced[0] == want_code
        if want_code:
            assert spaced[2] == "error: grid must satisfy 0 <= start <= stop <= 1 and steps >= 2\n"

    @pytest.mark.parametrize("grid", ["0.091:1:7", "0.077:1:101", "0.112:1:21"])
    def test_grid_ends_on_its_stop(self, capsys, grid):
        # start + (stop - start) rounds to 1.0000000000000002 on these grids
        code, out, err = run(capsys, "sweep", "--family", "w-noise", "--n", "4",
                             "--grid", grid, "--source", "t1", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split(",")[0] == "1"
        points = cli._grid_points(*cli._parse_grid(grid))
        assert points[-1] == max(points) == 1.0


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

    # cases 1-4's closed forms, one pair and one point at a time
    SCALAR_CLOSED_FORMS = [
        lambda i, j, t: max(0.0, (t - math.sqrt(1 - t * t)) / 2),
        lambda i, j, t: max(0.0, (5 * t - 3) / 6),
        lambda i, j, a: 0.0 if (i, j) in ((1, 3), (2, 4)) else max(0.0, (a - math.sqrt(1 - a)) / 2),
        lambda i, j, t: max(0.0, (3 * t - 1) / 2) if (i, j) in ((1, 2), (3, 4)) else 0.0,
    ]

    def test_grid_errors_have_the_bits_of_the_per_point_checks(self, monkeypatch, capsys):
        grid_errors, calls = cli._grid_errors, []
        monkeypatch.setattr(cli, "_grid_errors",
                            lambda *args: calls.append((args, grid_errors(*args))) or calls[-1][1])
        assert main(["reproduce", "all"]) == 0
        assert len(calls) == len(self.SCALAR_CLOSED_FORMS)
        grid = cli._grid_points(0.0, 1.0, 101)
        for ((family, _, coeff), got), closed in zip(calls, self.SCALAR_CLOSED_FORMS):
            worst_pair = worst_t1 = 0.0
            for x, table in zip(grid, pairwise_tables(family.point(x) for x in grid)):
                for (i, j), value in table.pairs():
                    worst_pair = max(worst_pair, abs(value - closed(i, j, x)))
                report = theorem_bound("T1", table)
                worst_t1 = max(worst_t1, abs(report.bound_on_C2 - coeff * table.value(1, 2) ** 2))
            assert [e.hex() for e in got] == [worst_pair.hex(), worst_t1.hex()]

    def test_case_5_builds_no_dense_member(self, monkeypatch, capsys):
        counts = count_calls(monkeypatch, white_noise_mix)
        code, out, _ = run(capsys, "reproduce", "5")
        assert code == 0 and out.endswith("PASS case 5\n")
        assert sum(counts.values()) == 0


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


def count_tables(monkeypatch) -> dict:
    """Wrap pairwise_tables at every entbound module that binds it; the
    returned dict counts the tables it builds per calling module, booking
    pairwise_table's own call to pairwise_table's caller."""
    import sys

    counts = {}

    def counting(points):
        tables = pairwise_tables(points)
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "entbound.concurrence":
            frame = frame.f_back
        name = frame.f_globals["__name__"]
        counts[name] = counts.get(name, 0) + len(tables)
        return tables

    for name, module in list(sys.modules.items()):
        if name.startswith("entbound") and getattr(module, "pairwise_tables", None) is pairwise_tables:
            monkeypatch.setattr(module, "pairwise_tables", counting)
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
        counts = count_tables(monkeypatch)
        code, _, _ = run(capsys, "sweep", "--family", "ghz-noise", "--n", "5",
                         "--grid", "0:1:7", "--k", "3", "--source", "ghz-exact")
        assert code == 0
        assert sum(counts.values()) == 7

    def test_sweep_rows_build_one_table_per_grid_point(self, monkeypatch, capsys):
        # theorem crossings bisect on their own states; the rows take one each
        counts = count_tables(monkeypatch)
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
        monkeypatch.setattr(NoisyFamily, "point", refuse)

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

    @pytest.mark.parametrize("argv", [["sweep", "--grid", "0:1:5"], ["threshold"]],
                             ids=lambda argv: argv[0])
    def test_family_commands_admit_ghz_exact_per_family(self, no_states, capsys, argv):
        # witness admits the same family and source at a point: see TestSourceAdmission
        code, out, err = run(capsys, *argv, "--family", "w-noise", "--n", "4",
                             "--source", "ghz-exact")
        assert (code, out) == (2, "")
        assert err == "error: ghz-exact source requires the GHZ noise family\n"

    @pytest.mark.parametrize("argv", [["witness", "--param", "0.9", "--k", "9"],
                                      ["sweep", "--grid", "0:1:1", "--k", "9"],
                                      ["threshold", "--k", "9"]], ids=lambda argv: argv[0])
    def test_source_admission_comes_before_the_grid_and_k(self, no_states, capsys, argv):
        code, out, err = run(capsys, *argv, "--family", "w-noise", "--n", "5", "--source", "t1")
        assert (code, out, err) == (2, "", "error: four-qubit bound applied to N=5\n")

    def test_sweep_theorem_outside_domain(self, no_states, capsys):
        code, _, err = run(capsys, "sweep", "--family", "w-noise", "--n", "5",
                           "--grid", "0:1:5", "--source", "t1")
        assert code == 2
        assert err == "error: four-qubit bound applied to N=5\n"

    @pytest.mark.parametrize("argv", [
        ["witness", "--family", "ex4", "--param", "0.95"],
        ["sweep", "--family", "ex4", "--grid", "0:1:2"],
        ["threshold", "--family", "ex4", "--k", "3"],
    ], ids=lambda argv: argv[0])
    def test_repeated_source(self, no_states, capsys, argv):
        code, out, err = run(capsys, *argv, "--source", "t1", "--source", "t1")
        assert (code, out, err) == (2, "", "error: --source t1 given twice\n")

    def test_repeated_k(self, no_states, capsys):
        code, out, err = run(capsys, "witness", "--family", "ex4", "--param", "0.95",
                             "--k", "3", "--k", "2", "--k", "3", "--source", "t1")
        assert (code, out, err) == (2, "", "error: --k 3 given twice\n")

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--family", "ex4", "--grid", "0:1:2", "--k", "3", "--k", "4",
          "--source", "t1"], "--k"),
        (["threshold", "--family", "ex4", "--k", "3", "--k", "3"], "--k"),
        (["witness", "--family", "w-noise", "--n", "5", "--n", "6", "--param", "0.9"], "--n"),
        (["bound", "--family", "w-noise", "--param", "0.9", "--param", "0.8"], "--param"),
        (["sweep", "--family", "ex4", "--family", "ex3", "--grid", "0:1:2"], "--family"),
        (["threshold", "--family", "dicke-noise", "--excitations", "1",
          "--excitations", "2"], "--excitations"),
        (["sweep", "--family", "ex4", "--grid", "0:1:2", "--grid", "0:1:3"], "--grid"),
        (["bound", "--state", "a.json", "--state", "b.json"], "--state"),
        (["witness", "--family", "ex4", "--param", "0.9", "--format", "csv",
          "--format=json"], "--format"),
        (["threshold", "--family", "ex4", "--out", "a.txt", "--out", "b.txt"], "--out"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_repeated_single_value_flag(self, no_states, capsys, argv, flag):
        # argparse would keep the last value; no state or file is touched
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {flag} given twice\n")

    def test_repeated_file_source_is_refused_before_the_file_is_read(self, tmp_path, capsys):
        code, out, err = run(capsys, "witness", "--state", str(tmp_path / "missing.json"),
                             "--source", "t1", "--source", "t1")
        assert (code, out, err) == (2, "", "error: --source t1 given twice\n")


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


def test_clamped_zero_trace_file_is_one_input_error(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("# n_qubits = 2\n0,0,0.0,0.0\n")
    code, out, err = run(capsys, "bound", "--state", str(path), "--clamp")
    assert (code, out) == (2, "")
    assert err == "error: trace 0j deviates from 1 by 1.000e+00\n"


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
    (["bound", "--family", "w-noise", "--n", "15", "--param", "0.5"],
     "15 qubits exceeds the pure-state cap"),
    (["sweep", "--family", "w-noise", "--n", "15", "--grid", "0:1:3"],
     "15 qubits exceeds the pure-state cap"),
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


def test_longest_sweep_stacks_its_marginals_in_bounded_chunks(monkeypatch, capsys):
    # 5 classes at each of 10001 points, 819 points a kernel call: each call
    # takes the chunk's rows above their class's edge, and a chunk with none
    # makes no call
    edges = cli.make_family("ex3", 4).class_edges
    grid = cli._grid_points(0.0, 1.0, cli.MAX_GRID_STEPS)
    step = concurrence.WOOTTERS_STACK // len(edges)
    chunks = [sum(x > edge for x in grid[i:i + step] for edge in edges)
              for i in range(0, len(grid), step)]
    expected = [rows for rows in chunks if rows]
    kernel, stacks = concurrence._wootters_stack, []
    monkeypatch.setattr(concurrence, "_wootters_stack", lambda m: stacks.append(len(m)) or kernel(m))
    tracemalloc.start()
    try:
        code = main(["sweep", "--family", "ex3", "--grid", f"0:1:{cli.MAX_GRID_STEPS}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == cli.MAX_GRID_STEPS + 2  # the header, the rows, the T1 crossing
    assert peak <= 16 * 2**20
    assert len(chunks) == 13 and max(expected) <= 4095
    assert stacks[:len(expected)] == expected  # the grid; the crossing follows


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "ghz-noise", "--grid", "0:1:101"],
    ["bound", "--family", "ghz-noise", "--n", "14", "--param", "1"],
], ids=["sweep", "bound-n14"])
def test_ghz_family_commands_make_no_kernel_calls(monkeypatch, capsys, argv):
    # no GHZ pair marginal is entangled at any visibility: every row is at or
    # below its class's edge
    monkeypatch.setattr(concurrence, "_wootters_stack", None)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def test_plain_threshold_sends_only_its_entangled_points_to_the_kernel(monkeypatch, capsys):
    kernel, stacks = concurrence._wootters_stack, []
    monkeypatch.setattr(concurrence, "_wootters_stack", lambda m: stacks.append(len(m)) or kernel(m))
    batch_bounds, rounds = witness.certified_bounds, []
    monkeypatch.setattr(witness, "certified_bounds",
                        lambda states, *args: rounds.append([p.x for p in states]) or batch_bounds(states, *args))
    code, _, _ = run(capsys, "threshold", "--family", "w-noise", "--n", "7", "--source", "t2")
    assert code == 0
    (edge,) = cli.make_family("w-noise", 7).class_edges
    assert [len(xs) for xs in rounds] == [31]  # one round: the noiseless end and the path
    assert stacks == [sum(x > edge for x in rounds[0])] == [10]


def test_threshold_at_the_pure_state_cap_stays_below_8_mib(capsys):
    # the peak is the 2^14-amplitude base (256 KiB), the byte copies of its
    # permutation-symmetry test, the one pair Gram of a symmetric base (qubits 1, 2,
    # a reshape of the vector without a copy), and a bisection round's
    # (points, classes, 4, 4) marginals
    tracemalloc.start()
    try:
        code = main(["threshold", "--family", "dicke-noise", "--n", "14", "--source", "t2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "0.866666667" in capsys.readouterr().out
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [13, 14])
@pytest.mark.parametrize("argv", [
    ["bound", "--family", "w-noise", "--param", "0.9"],
    ["sweep", "--family", "w-noise", "--grid", "0:1:3", "--k", "3"],
    ["witness", "--family", "ghz-noise", "--param", "0.9", "--k", "3"],
    ["threshold", "--family", "dicke-noise", "--source", "t2"],
], ids=lambda argv: argv[0])
def test_family_commands_run_up_to_the_pure_state_cap(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", str(n))
    assert (code, err) == (0, "")
    assert out


def test_ghz_exact_on_a_non_ghz_family_point_streams_past_the_dense_cap(capsys):
    # the point's rows are compared block by block, so 13 qubits need no dense matrix
    assert_input_error_without_large_allocation(
        capsys, "error: state deviates from the GHZ noise family by 6.923e-02\n",
        "witness", "--family", "w-noise", "--n", "13", "--param", "0.9",
        "--source", "ghz-exact")


@pytest.mark.parametrize("argv", [
    ["witness", "--family", "ghz-noise", "--n", "12", "--param", "0.9", "--k", "3"],
    ["reproduce", "6"],
], ids=["witness", "reproduce"])
def test_ghz_family_points_build_no_dense_state(monkeypatch, capsys, argv):
    counts = count_calls(monkeypatch, white_noise_mix)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert counts == {}


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


    @pytest.mark.parametrize("argv, flag, value, want", [
        (["bound", "--family", "ghz-noise", "--n", "3"], "--param", "-1e-3",
         "error: mixing parameter -0.001 outside [0, 1]\n"),
        (["bound", "--family", "ghz-noise", "--n", "3"], "--param", "-0e0", ""),
        (["bound", "--family", "ghz-noise", "--param", "0.5"], "--n", "-1e0",
         "argument --n: invalid int value: '-1e0'"),
        (["witness", "--family", "ghz-noise", "--n", "3", "--param", "0.5"], "--k", "-1e0",
         "argument --k: invalid int value: '-1e0'"),
        (["threshold", "--family", "ex4"], "--k", "-1e0",
         "argument --k: invalid int value: '-1e0'"),
        (["bound", "--family", "dicke-noise", "--n", "4", "--param", "0.5"], "--excitations",
         "-1e0", "argument --excitations: invalid int value: '-1e0'"),
    ])
    def test_negative_exponent_values_read_as_with_equals(self, capsys, argv, flag, value, want):
        results = []
        for tail in ([flag, value], [f"{flag}={value}"]):
            try:
                code = main(argv + tail)
            except SystemExit as exc:  # argparse refuses the value
                code = exc.code
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        code, captured = results[0]
        assert code == (2 if want else 0)
        assert want in captured.err
        assert "expected one argument" not in captured.err

    @pytest.mark.parametrize("value", ["0.5", "-1e-3"])
    def test_flag_prefixes_are_refused(self, capsys, value):
        # argparse would read --par as --param, but the "--flag=-X" rewrite
        # only knows full names, so a negative exponent value would not reach
        # the range check; refusing prefixes makes both values one error.
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--family", "ghz-noise", "--n", "3", "--par", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: --par {value}" in err


GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


class TestSharedParser:
    """Every `main` call in a process runs on the one cached parser; no call
    leaves state behind for the next."""

    WITNESS = ["witness", "--family", "ex4", "--n", "4", "--param", "0.95"]

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_repeated_witness_k_leaks_nothing(self, capsys):
        first = run(capsys, *self.WITNESS, "--k", "2")
        assert first[0] == 0 and first[2] == ""
        assert run(capsys, *self.WITNESS, "--k", "2", "--k", "2") == (
            2, "", "error: --k 2 given twice\n")
        assert run(capsys, *self.WITNESS, "--k", "2") == first

    def test_a_repeated_single_value_flag_leaks_nothing(self, capsys):
        argv = ["threshold", "--family", "w-noise", "--n", "4", "--source", "t1"]
        assert run(capsys, *argv, "--n", "4") == (2, "", "error: --n given twice\n")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out

    def test_an_argparse_error_leaks_nothing(self, capsys):
        case = next(c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))
                    if c["argv"][0] == "threshold" and c["out_file"] is None)
        with pytest.raises(SystemExit) as exc:
            main(case["argv"] + ["--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])

    def test_source_lists_do_not_accumulate(self, capsys):
        argv = ["witness", "--family", "ghz-noise", "--n", "6", "--param", "0.97"]
        outputs = {}
        for sources in (("t2", "ghz-exact"), ("t3",), ("t2", "ghz-exact")):
            code, out, err = run(capsys, *argv, *(f for s in sources for f in ("--source", s)))
            assert (code, err) == (0, "")
            rows = [line.split()[5] for line in out.splitlines()[1:]]
            assert rows == list(sources)
            assert outputs.setdefault(sources, out) == out

    def test_importing_the_cli_builds_no_parser(self):
        code = ("import entbound.cli as cli; "
                "assert cli.build_parser.cache_info().currsize == 0")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


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

    def test_empty_state_with_family(self, capsys):
        code, out, err = run(capsys, "bound", "--state", "", "--family", "w-noise", "--n", "4",
                             "--param", "0.5")
        assert (code, out) == (2, "")
        assert err == "error: give either --state or --family, not both\n"

    def test_empty_out(self, capsys):
        code, out, err = run(capsys, "witness", "--family", "w-noise", "--n", "4",
                             "--param", "0.5", "--out", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

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
    # the family point answers with its own visibility: no dense state, no GHZ model
    assert sum(counts.values()) == 0


@pytest.mark.parametrize("argv, tables, kernel_calls", [
    # no table; one kernel call at the noiseless end for the no-crossing test,
    # then 30 bisection steps in 2 rounds (30 one point at a time)
    (["threshold", "--family", "ex4", "--n", "4", "--k", "3", "--source", "t1"], {}, 3),
    # the 11 grid rows in one kernel call, plus the calls of the crossing
    (["sweep", "--family", "ex4", "--n", "4", "--grid", "0:1:11", "--k", "3",
      "--source", "t1"], {"entbound.cli": 11}, 4),
], ids=["threshold", "sweep"])
def test_crossing_builds_no_sampling_states(monkeypatch, capsys, argv, tables, kernel_calls):
    states = count_calls(monkeypatch, white_noise_mix)
    counts = count_tables(monkeypatch)
    kernel = concurrence._wootters_stack
    stacks = []
    monkeypatch.setattr(concurrence, "_wootters_stack", lambda m: stacks.append(len(m)) or kernel(m))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert states == {}
    assert counts == tables
    assert len(stacks) == kernel_calls


class TestSourceAdmission:
    def test_witness_admits_ghz_exact_per_point(self, capsys):
        # every family's point at 0 is I/2^N, the GHZ-noise state at p = 0
        code, out, err = run(capsys, "witness", "--family", "w-noise", "--n", "4",
                             "--param", "0", "--source", "ghz-exact", "--format", "json")
        assert (code, err) == (0, "")
        (v,) = json.loads(out)["verdicts"]
        assert (v["source"], v["certified_lower_bound_on_C"], v["detected"]) == (
            "ghz-exact", 0.0, False)

    def test_the_default_sources_are_applicable_sources(self, monkeypatch):
        family = cli.make_family("ghz-noise", 6)
        for sources in ([Source.THEOREM2], [Source.THEOREM3, Source.GHZ_EXACT]):
            monkeypatch.setattr(cli, "applicable_sources", lambda given: sources)
            for per_family in (False, True):
                assert cli._sources(argparse.Namespace(source=None), family, per_family) == sources

    def test_the_given_sources_skip_the_default(self, monkeypatch):
        monkeypatch.setattr(cli, "applicable_sources", None)
        args = argparse.Namespace(source=["ghz-exact", "t1"])
        assert cli._sources(args, cli.make_family("ghz-noise", 4), True) == [
            Source.GHZ_EXACT, Source.THEOREM1]


class TestFamilyCatalogue:
    @pytest.mark.parametrize("command", ["bound", "witness", "sweep", "threshold"])
    def test_family_choices_are_the_catalogue_in_order(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices[command]._actions if "--family" in a.option_strings)
        assert action.choices == tuple(cli.FAMILIES)
        assert action.choices == ("w-noise", "dicke-noise", "ex3", "ex4", "ghz-noise")

    def test_each_name_builds_the_noisy_family_of_its_constructor(self):
        cases = [("ex3", n, None, example3_state()) for n in (None, 4)]
        cases += [("ex4", n, None, example4_state()) for n in (None, 4)]
        cases += [("dicke-noise", None, None, dicke_state(4, 2))]
        for n in (4, 5, 6):
            cases += [("w-noise", n, None, w_state(n)), ("ghz-noise", n, None, ghz_state(n)),
                      ("dicke-noise", n, None, dicke_state(n, n // 2))]
            cases += [("dicke-noise", n, e, dicke_state(n, e)) for e in range(1, n)]
        assert {name for name, *_ in cases} == set(cli.FAMILIES)
        for name, n, excitations, base in cases:
            family = cli.make_family(name, n, excitations)
            assert type(family) is NoisyFamily
            assert family.n_qubits == base.n_qubits
            assert family.base.amplitudes.tobytes() == base.amplitudes.tobytes(), (name, n)

    def test_ghz_exact_is_a_default_source_exactly_on_ghz_noise(self):
        for name in cli.FAMILIES:
            for n in [4] if name in ("ex3", "ex4") else range(2, 15):
                for excitations in range(1, n) if name == "dicke-noise" else [None]:
                    family = cli.make_family(name, n, excitations)
                    try:
                        sources = applicable_sources(family)
                    except ValueError as exc:
                        assert str(exc) == f"no bound source applies to {n} qubits"
                        sources = []
                    assert (Source.GHZ_EXACT in sources) == (name == "ghz-noise"), (name, n)
                    assert family.has_ghz_base == (name == "ghz-noise"), (name, n)

    def test_a_ghz_state_file_gets_no_ghz_exact_by_default(self):
        rho = white_noise_mix(ghz_state(4), 0.9)
        assert applicable_sources(rho) == [Source.THEOREM1]


def _solver_gives_up(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestSolverFailureIsNumerical:
    def test_psd_check_of_a_state_file(self, tmp_path, capsys, monkeypatch):
        import entbound.states as states_mod

        path = tmp_path / "ghz.json"
        write_ghz_json(path)
        monkeypatch.setattr(states_mod, "_cholesky_certifies_psd", lambda herm: False)
        monkeypatch.setattr(np.linalg, "eigvalsh", _solver_gives_up)
        code, out, err = run(capsys, "bound", "--state", str(path))
        assert (code, out) == (cli.EXIT_NUMERICAL, "")
        assert err == "error: numerical failure: Eigenvalues did not converge\n"

    def test_clamp_repair_of_a_state_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ghz.json"
        write_ghz_json(path)
        monkeypatch.setattr(np.linalg, "eigh", _solver_gives_up)
        code, out, err = run(capsys, "bound", "--state", str(path), "--clamp")
        assert (code, out) == (cli.EXIT_NUMERICAL, "")
        assert err == "error: numerical failure: Eigenvalues did not converge\n"
