"""Fuzzing of the command line.

Each example draws a subcommand and a run of its flags, repeats allowed,
from build_parser()'s own actions, with small, boundary, non-finite and
malformed values.  Every run must end in a report or a named error: exit code
0 to 3, no traceback, and an ``error:`` line last on stderr when it fails.

Family qubit counts stop at 10 and grids at 101 steps.  A ghz-exact check of
a non-GHZ state compares all 4^N entries with the GHZ model, which takes
5-7 s at N=14 on a 2-vCPU Xeon, and a 10001-step sweep takes seconds too;
these caps keep the whole test within a few seconds.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from entbound.cli import NUMERIC_FLAGS, build_parser, main
from entbound.states import ghz_state, white_noise_mix

PARSER = build_parser()
COMMANDS = next(a for a in PARSER._actions
                if isinstance(a, argparse._SubParsersAction)).choices

# Hypothesis leans to the first entry of a sampled list, so each list opens
# with a value that lets a run go on to the next check.
MALFORMED = ["", "x", "1.5.2", "--", "0x10", "1e999", "nan", "inf", "-inf", "bogus", "0:1"]
# "-1e0", "-1e-3" and "-0e0" start with a '-' that argparse does not read as a
# negative number, like the negative grid starts below.
INTEGERS = st.sampled_from(  # family --n stops at 10, see the module docstring
    ["4", "3", "2", "5", "6", "1", "0", "-1", "-3", "7", "8", "9", "10", "-1e0"])
FLOATS = st.sampled_from(["0.9", "0", "1", "0.5", "0.37", "0.97", "1e-300", "-0.0", "-0.1",
                          "1.0000001", "-1e-3", "-0e0"])
STEPS = st.sampled_from([5, 2, 101, 1, 0, -2, 33])
GRIDS = st.one_of(
    st.tuples(FLOATS, FLOATS, STEPS).map(
        lambda g: f"{min(g[:2], key=float)}:{max(g[:2], key=float)}:{g[2]}"),
    # starts with a '-' that argparse does not read as a negative number
    st.tuples(st.sampled_from(["-0.0", "-0.1", "-1e-300", "-0"]), FLOATS, STEPS).map(
        lambda g: f"{g[0]}:{g[1]}:{g[2]}"),
)
# Flags a run needs to get past the input checks are drawn more often than the rest.
LIKELY = {"--family", "--param", "--grid"}
ONE_IN_FOUR = st.sampled_from([False, False, False, True])
THREE_IN_FOUR = st.sampled_from([True, True, True, False])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with a valid state file, a malformed one, and room for --out."""
    root = tmp_path_factory.mktemp("argv")
    rho = white_noise_mix(ghz_state(3), 0.9).matrix
    entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    (root / "ghz3.json").write_text(json.dumps({"n_qubits": 3, "entries": entries}))
    (root / "bad.csv").write_text("0,0,1,0\n0,0,1,0\n")
    return root


def values(action, root):
    """A strategy for the value strings of one option or positional: a value
    of the right kind three times in four, else a malformed one."""
    paths = {
        "state": [root / "ghz3.json", root / "bad.csv", root / "missing.json", root],
        "out": [root / "out.txt", root, root / "missing" / "out.txt"],
    }
    if action.dest in paths:
        return st.sampled_from([str(p) for p in paths[action.dest]])
    if action.choices:
        good = st.sampled_from(action.choices)
    elif action.dest in ("n", "excitations", "k"):
        good = INTEGERS
    elif action.dest == "param":
        good = FLOATS
    elif action.dest == "grid":
        good = GRIDS
    else:  # reproduce's case
        good = st.sampled_from(["5", "all", "1", "6", "0", "7"])
    return ONE_IN_FOUR.flatmap(lambda bad: st.sampled_from(MALFORMED) if bad else good)


@st.composite
def argvs(draw, root):
    """A subcommand, each of its flags with a drawn chance, then perhaps one
    more, so that repeats occur, and its positional most of the time."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[name]._actions if not isinstance(a, argparse._HelpAction)]
    options = [a for a in actions if a.option_strings]
    chosen = [a for a in options
              if a.required or draw(THREE_IN_FOUR if a.option_strings[0] in LIKELY else ONE_IN_FOUR)]
    chosen += draw(st.lists(st.sampled_from(options), max_size=1)) if options else []
    argv = [name]
    for action in draw(st.permutations(chosen)):
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(values(action, root)))
    for action in actions:
        if not action.option_strings and draw(THREE_IN_FOUR):
            argv.append(draw(values(action, root)))
    return argv


@settings(max_examples=400)
@given(data=st.data())
def test_argv_gives_a_report_or_a_named_error(fuzz_dir, data):
    argv = data.draw(argvs(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in stderr, argv
    for flag in NUMERIC_FLAGS:
        flag_values = [v for f, v in zip(argv, argv[1:]) if f == flag]
        if "--" not in flag_values:  # "--" ends the options
            assert f"argument {flag}: expected one argument" not in stderr, argv
    if code == 1:  # --require-detection without detection is a report, not an error
        assert "--require-detection" in argv and stderr == "", argv
    elif code != 0:
        assert "error:" in stderr.splitlines()[-1], argv
