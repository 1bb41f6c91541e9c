"""Command-line front end.

Evaluates bounds and witness verdicts on built-in noise families or
user-supplied matrix files, sweeps family parameters, solves detection
thresholds, and replays the six built-in benchmark cases.  Emits a human
table on stdout or csv/json via --format/--out; all floats print with
9 significant digits so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import bounds as bounds_mod
from . import states
from .concurrence import pair_concurrence_rows, pairwise_table, pairwise_tables, pure_concurrence
from .errors import ConvergenceFailure
from .states import DensityMatrix, FamilyPoint, NoisyFamily, load_density_matrix
from .witness import (
    THEOREM_SOURCES,
    Source,
    WitnessVerdict,
    applicable_sources,
    certified_bound,
    detect_k_nonseparability,
    detection_threshold,
    exceeds,
    k_nonsep_threshold,
    require_source,
    verdict,
)

EXIT_OK = 0
EXIT_NO_DETECTION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

CLI_SOURCES = {s.value: s for s in (*THEOREM_SOURCES, Source.GHZ_EXACT)}
MAX_GRID_STEPS = 10_001  # rows are held for csv/json; crossings resolve to BISECTION_TOL


def fmt(x) -> str:
    """9 significant digits, round-half-even (stable diffs)."""
    if isinstance(x, Source):
        return x.value
    if isinstance(x, bool) or not isinstance(x, float):
        return str(x)
    return f"{x:.9g}"


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _grid_points(start: float, stop: float, steps: int) -> list[float]:
    if not (0.0 <= start <= stop <= 1.0) or steps < 2:
        raise ValueError("grid must satisfy 0 <= start <= stop <= 1 and steps >= 2")
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"grid steps {steps} exceeds the cap of {MAX_GRID_STEPS}")
    # start + (stop - start) can round above stop: end on stop itself, and
    # cap the rest at it, so no point leaves [start, stop]
    inner = [min(start + (stop - start) * i / (steps - 1), stop) for i in range(steps - 1)]
    return inner + [stop]


# Each --family name and the builder of its base state from (n, excitations);
# the family is the white-noise mixture NoisyFamily(base).
FAMILIES = {
    "w-noise": lambda n, e: states.w_state(n),
    "dicke-noise": lambda n, e: states.dicke_state(n, n // 2 if e is None else e),
    "ex3": lambda n, e: states.example3_state(),
    "ex4": lambda n, e: states.example4_state(),
    "ghz-noise": lambda n, e: states.ghz_state(n),
}


def make_family(name: str, n: int | None, excitations: int | None = None) -> NoisyFamily:
    """The family FAMILIES names name, on n qubits (default 4)."""
    n = 4 if n is None else n
    if excitations is not None and name != "dicke-noise":
        raise ValueError("--excitations applies only to --family dicke-noise")
    if name in ("ex3", "ex4") and n != 4:
        raise ValueError(f"family {name!r} is four-qubit only")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return NoisyFamily(FAMILIES[name](n, excitations))


def _sources(args, given: DensityMatrix | NoisyFamily, per_family: bool) -> list[Source]:
    """The --source values, else applicable_sources(given), each admitted by
    require_source before any state is built: for every member of the
    family given when per_family, else for the one point to be evaluated."""
    sources = [CLI_SOURCES[s] for s in args.source] if args.source else applicable_sources(given)
    for source in sources:
        require_source(source, given.n_qubits, given if per_family else None)
    return sources


# ---------------------------------------------------------------- output

def _write_text(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(header: list[str], rows: list[list]) -> str:
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(c) for c in row])
    return buf.getvalue()


def _jsonable(obj):
    if isinstance(obj, float):
        return _round9(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _render_json(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2) + "\n"


def emit(header, rows, doc, args) -> None:
    if args.format == "json":
        _write_text(_render_json(doc), args.out)
    elif args.format == "csv":
        _write_text(_render_csv(header, rows), args.out)
    else:
        _write_text(_render_table(header, rows), args.out)


# ---------------------------------------------------------------- input

def load_input(args) -> DensityMatrix | NoisyFamily:
    """The --state matrix, or the --family whose --param point is built later."""
    if args.state is not None and args.family is not None:
        raise ValueError("give either --state or --family, not both")
    if args.state is not None:
        for flag, value in (("--param", args.param), ("--n", args.n),
                            ("--excitations", args.excitations)):
            if value is not None:
                raise ValueError(f"{flag} applies to --family, not --state")
        return load_density_matrix(args.state, clamp=args.clamp)
    if args.family is not None:
        if args.clamp:
            raise ValueError("--clamp applies to --state, not --family")
        if args.param is None:
            raise ValueError("--family point evaluation needs --param")
        return make_family(args.family, args.n, args.excitations)
    raise ValueError("need --state FILE or --family NAME")


def at_param(given: DensityMatrix | NoisyFamily, param: float) -> DensityMatrix | FamilyPoint:
    return given.point(param) if isinstance(given, NoisyFamily) else given


# ---------------------------------------------------------------- commands

def cmd_bound(args) -> int:
    rho = at_param(load_input(args), args.param)
    table = pairwise_table(rho)
    reports = bounds_mod.best_bound(table)
    pair_rows = [[f"C_{i}_{j}", v] for (i, j), v in table.pairs()]
    bound_header = [f.name for f in fields(bounds_mod.BoundReport)]
    bound_rows = [list(astuple(r)) for r in reports]
    doc = {
        "n_qubits": rho.n_qubits,
        "pairwise": [
            {"i": i, "j": j, "value": v} for (i, j), v in table.pairs()
        ],
        "bounds": [asdict(r) for r in reports],
    }
    if args.format == "json":
        _write_text(_render_json(doc), args.out)
    elif args.format == "csv":
        # single file, two record kinds: the pair table and the bounds
        header = ["record", "pair", "value"] + bound_header
        rows = [["pairwise", name, v] + [""] * len(bound_header) for name, v in pair_rows]
        rows += [["bound", "", ""] + row for row in bound_rows]
        _write_text(_render_csv(header, rows), args.out)
    else:
        text = _render_table(["pair", "concurrence"], pair_rows)
        text += _render_table(bound_header, bound_rows)
        _write_text(text, args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    given = load_input(args)
    n = given.n_qubits
    ks = args.k or [2]
    sources = _sources(args, given, per_family=False)
    for k in ks:  # reject an impossible k before building the state
        k_nonsep_threshold(n, 2, k)
    rho = at_param(given, args.param)
    table = pairwise_table(rho) if any(s in THEOREM_SOURCES for s in sources) else None
    found = [(s, certified_bound(rho, s, table)[1]) for s in sources]
    verdicts = [verdict(n, k, s, bound) for k in ks for s, bound in found]
    header = [f.name for f in fields(WitnessVerdict)]
    rows = [list(astuple(v)) for v in verdicts]
    emit(header, rows, {"verdicts": [asdict(v) for v in verdicts]}, args)
    if args.require_detection and not all(v.detected for v in verdicts):
        return EXIT_NO_DETECTION
    return EXIT_OK


def cmd_sweep(args) -> int:
    family = make_family(args.family, args.n, args.excitations)
    n = family.n_qubits
    sources = _sources(args, family, per_family=True)
    grid = _grid_points(*args.grid)
    threshold = None if args.k is None else k_nonsep_threshold(n, 2, args.k)

    rows = []
    points = [family.point(x) for x in grid]
    for point, table in zip(points, pairwise_tables(points)):
        found = [certified_bound(point, s, table) for s in sources]
        row = [point.x] + [v for _, v in table.pairs()] + [b for bounds in found for b in bounds]
        if threshold is not None:
            row.append(threshold)
            row += [exceeds(bound_c, threshold) for _, bound_c in found]
        rows.append(row)
    header = ["param"] + [f"C_{i}_{j}" for (i, j), _ in table.pairs()]
    for source in sources:
        header += [f"bound_on_C2[{source.value}]", f"bound_on_C[{source.value}]"]
    if threshold is not None:
        header += ["threshold"] + [f"detected[{s.value}]" for s in sources]

    crossings = [{"source": s, "k": args.k, "crossing": detection_threshold(family, args.k, s)}
                 for s in sources]

    doc = {
        "family": args.family,
        "n_qubits": n,
        "k": args.k,
        "threshold": threshold,
        "rows": [dict(zip(header, row)) for row in rows],
        "crossings": crossings,
    }
    emit(header, rows, doc, args)
    # json embeds the crossings; for csv piped to stdout, keep the stream clean
    if args.format == "table" or (args.format == "csv" and args.out is not None):
        for c in crossings:
            where = fmt(c["crossing"]) if c["crossing"] is not None else "no crossing"
            label = "entanglement" if args.k is None else f"k={args.k}"
            print(f"crossing[{c['source'].value}, {label}] = {where}")
    return EXIT_OK


def cmd_threshold(args) -> int:
    family = make_family(args.family, args.n, args.excitations)
    sources = _sources(args, family, per_family=True)
    crossings = [(source, detection_threshold(family, args.k, source))
                 for source in sources]
    rows = [
        [args.family, family.n_qubits,
         "ent" if args.k is None else args.k,
         source.value,
         fmt(x) if x is not None else "no crossing"]
        for source, x in crossings
    ]
    doc = {
        "family": args.family,
        "n_qubits": family.n_qubits,
        "k": args.k,
        "crossings": [{"source": s, "crossing": x} for s, x in crossings],
    }
    emit(["family", "n_qubits", "k", "source", "crossing"], rows, doc, args)
    return EXIT_OK


# ---------------------------------------------------------------- reproduce

class _CaseChecker:
    def __init__(self, case: int, title: str):
        self.ok = True
        print(f"case {case}: {title}")

    def check(self, label: str, err: float, tol: float) -> None:
        good = err <= tol
        self.ok &= good
        status = "ok  " if good else "FAIL"
        print(f"  {status} {label}: err={err:.3e} (tol {fmt(tol)})")

    def check_value(self, label: str, got: float, expected: float, tol: float) -> None:
        good = abs(got - expected) <= tol
        self.ok &= good
        status = "ok  " if good else "FAIL"
        print(
            f"  {status} {label}: computed={fmt(got)} expected={fmt(expected)}"
            f" (tol {fmt(tol)})"
        )


def _grid_errors(family, closed_forms, pair_coeff: float) -> tuple[float, float]:
    """Worst |computed - closed form| over a 101-point grid and all pairs, and
    worst |T1 bound - pair_coeff * C12^2| over the same grid.

    closed_forms(x, pairs) is a numpy expression of the (points, 1) grid
    column and the pairs in combinations order, broadcast against the
    (points, pairs) concurrences."""
    grid = _grid_points(0.0, 1.0, 101)
    values, square_sums = pair_concurrence_rows(family.point(x) for x in grid)
    pairs = list(itertools.combinations(range(1, family.n_qubits + 1), 2))
    worst_pair = float(np.abs(values - closed_forms(np.array(grid)[:, None], pairs)).max())
    worst_t1 = max(abs(bounds_mod.theorem_c2("T1", family.n_qubits, s) - pair_coeff * c12 ** 2)
                   for s, c12 in zip(square_sums, values[:, 0].tolist()))
    return worst_pair, worst_t1


def _case1() -> bool:
    family = make_family("w-noise", 4)
    c = _CaseChecker(1, "four-qubit W state + white noise")
    closed = lambda t, pairs: np.maximum(0.0, (t - np.sqrt(1 - t * t)) / 2)
    pair_err, t1_err = _grid_errors(family, closed, 21 / 4)
    c.check("pairwise closed form max{0,(t-sqrt(1-t^2))/2}, 101-pt grid", pair_err, 1e-9)
    c.check("T1 bound equals 21/4 C12^2 on grid", t1_err, 1e-12)
    return c.ok


def _case2() -> bool:
    family = make_family("dicke-noise", 4, 2)
    c = _CaseChecker(2, "four-qubit two-excitation Dicke state + white noise")
    closed = lambda t, pairs: np.maximum(0.0, (5 * t - 3) / 6)
    pair_err, t1_err = _grid_errors(family, closed, 21 / 4)
    c.check("pairwise closed form max{0,(5t-3)/6}, 101-pt grid", pair_err, 1e-9)
    c.check("T1 bound equals 21/4 C12^2 on grid", t1_err, 1e-12)
    x = detection_threshold(family, None, Source.THEOREM1)
    c.check_value("entanglement crossing via T1", x, 0.6, 1e-4)
    lo, hi = bounds_mod.PRIOR_DICKE_DETECTION_THRESHOLDS
    ordered = x < lo < hi
    c.check("crossing strictly below prior thresholds 0.618034 < 0.636364",
            0.0 if ordered else 1.0, 0.5)
    return c.ok


def _case3() -> bool:
    family = make_family("ex3", 4)
    c = _CaseChecker(3, "four-qubit pair-cycle state + white noise")

    def closed(a, pairs):
        cycle = np.array([pair not in ((1, 3), (2, 4)) for pair in pairs])
        return np.where(cycle, np.maximum(0.0, (a - np.sqrt(1 - a)) / 2), 0.0)

    pair_err, t1_err = _grid_errors(family, closed, 7 / 2)
    c.check("pairwise closed form (cycle pairs (a-sqrt(1-a))/2, diagonals 0)", pair_err, 1e-9)
    c.check("T1 bound equals 7/2 C12^2 on grid", t1_err, 1e-12)
    return c.ok


def _case4() -> bool:
    family = make_family("ex4", 4)
    c = _CaseChecker(4, "Bell-pair product state + white noise")

    def closed(t, pairs):
        bell = np.array([pair in ((1, 2), (3, 4)) for pair in pairs])
        return np.where(bell, np.maximum(0.0, (3 * t - 1) / 2), 0.0)

    pair_err, t1_err = _grid_errors(family, closed, 7 / 4)
    c.check("pairwise closed form (C12=C34=max{0,(3t-1)/2}, rest 0)", pair_err, 1e-9)
    c.check("T1 bound equals 7/4 C12^2 on grid", t1_err, 1e-12)
    x = detection_threshold(family, None, Source.THEOREM1)
    c.check_value("entanglement crossing via T1", x, 1 / 3, 1e-4)
    r = bounds_mod.theorem_bound("T1", pairwise_table(family.point(1.0)))
    c.check_value("T1 bound on C^2 at t=1 (saturation)", r.bound_on_C2, 7 / 4, 1e-9)
    c.check_value("pure concurrence of the noiseless state",
                  pure_concurrence(family.base), math.sqrt(7) / 2, 1e-9)
    return c.ok


def _case5() -> bool:
    family = make_family("ex4", 4)
    c = _CaseChecker(5, "3-nonseparability witness on the Bell-pair family")
    c.check_value("threshold(n=4, d=2, k=3)", k_nonsep_threshold(4, 2, 3),
                  math.sqrt(22) / 4, 1e-12)
    x = detection_threshold(family, 3, Source.THEOREM1)
    c.check_value("detection crossing via T1, k=3", x, 0.9243, 1e-4)
    above = detect_k_nonseparability(family.point(0.93), 3, Source.THEOREM1)
    below = detect_k_nonseparability(family.point(0.92), 3, Source.THEOREM1)
    c.check("detected at t=0.93 and not at t=0.92",
            0.0 if (above.detected and not below.detected) else 1.0, 0.5)
    return c.ok


def _case6() -> bool:
    c = _CaseChecker(6, "GHZ state + white noise, exact concurrence")
    worst_pure = 0.0
    worst_edge = 0.0
    for n in range(2, 9):
        exact = bounds_mod.ghz_noise_exact_concurrence(n, 1.0)
        worst_pure = max(worst_pure, abs(exact - pure_concurrence(states.ghz_state(n))))
        edge = bounds_mod.ghz_noise_separability_edge(n)
        worst_edge = max(worst_edge, abs(bounds_mod.ghz_noise_exact_concurrence(n, edge)))
    c.check("exact formula at p=1 equals pure GHZ concurrence, n=2..8", worst_pure, 1e-10)
    c.check("exact formula vanishes at the separability edge, n=2..8", worst_edge, 1e-12)
    family = make_family("ghz-noise", 4)
    x = detection_threshold(family, 3, Source.GHZ_EXACT)
    c.check_value("detection crossing, exact bound, k=3", x, 0.8991, 1e-4)
    above = detect_k_nonseparability(family.point(0.90), 3, Source.GHZ_EXACT)
    below = detect_k_nonseparability(family.point(0.89), 3, Source.GHZ_EXACT)
    c.check("detected at p=0.90 and not at p=0.89",
            0.0 if (above.detected and not below.detected) else 1.0, 0.5)
    return c.ok


_CASES = {1: _case1, 2: _case2, 3: _case3, 4: _case4, 5: _case5, 6: _case6}


def cmd_reproduce(args) -> int:
    if args.case == "all":
        numbers = sorted(_CASES)
    else:
        try:
            numbers = [int(args.case)]
        except ValueError:
            raise ValueError(f"case must be 1..6 or 'all', got {args.case!r}") from None
        if numbers[0] not in _CASES:
            raise ValueError(f"case must be 1..6 or 'all', got {args.case!r}")
    all_ok = True
    for number in numbers:
        ok = _CASES[number]()
        print(f"{'PASS' if ok else 'FAIL'} case {number}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------- parser

def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        start, stop, steps = text.split(":")
        return float(start), float(stop), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:steps with an integer steps, got {text!r}") from None


class _Once(argparse.Action):
    """Store a single-value flag, refusing a second occurrence: argparse
    would silently keep the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = vars(namespace).setdefault("given_once", set())
        if self.dest in seen:
            raise ValueError(f"{self.option_strings[0]} given twice")
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree, built at the first call and shared by every
    later call in the process, so in-process `main` calls pay for it once.

    Sharing is safe because parsing only reads the tree: argparse makes a
    fresh namespace per call (where `_Once` keeps its seen-set), copies the
    appended `--source`/`--k` lists from their None defaults, and formats
    usage and help, with the terminal width, only when it prints them. Two
    threads making the first call at once may each build a tree; either
    one serves. A caller that changes the returned tree changes it for
    every later call, so callers only read it. The tree binds `FAMILIES`,
    `CLI_SOURCES` and the `cmd_*` handlers at its build, so patching those
    afterwards has no effect on parsing; the handlers look up their own
    callees at call time."""
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Concurrence lower bounds and k-nonseparability witnesses "
                    "for N-qubit states.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # no prefixes: _attach_numeric_values knows only the full flag names
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    bound = command("bound", cmd_bound, "pairwise concurrences and every applicable bound")
    witness = command("witness", cmd_witness, "k-nonseparability verdicts")
    sweep = command("sweep", cmd_sweep, "evaluate a family over a parameter grid")
    threshold = command("threshold", cmd_threshold, "solve the detection crossing parameter")
    point, family = (bound, witness), (sweep, threshold)
    for p in point:
        p.add_argument("--state", action=_Once, help="density-matrix file (JSON or CSV)")
        p.add_argument("--clamp", action="store_true",
                       help="repair near-PSD input matrices instead of rejecting")
    for p in point + family:
        p.add_argument("--family", action=_Once, choices=tuple(FAMILIES), required=p in family)
        p.add_argument("--n", action=_Once, type=int, help="qubit count for --family")
        p.add_argument("--excitations", action=_Once, type=int,
                       help="excitation number for dicke-noise (default n//2)")
        if p in point:
            p.add_argument("--param", action=_Once, type=float,
                           help="family parameter in [0, 1]")
        p.add_argument("--format", action=_Once, choices=("table", "csv", "json"),
                       default="table")
        p.add_argument("--out", action=_Once,
                       help="write the report to this file instead of stdout")
    witness.add_argument("--k", type=int, action="append", help="repeatable; default 2")
    sweep.add_argument("--grid", action=_Once, type=_parse_grid, required=True,
                       help="start:stop:steps")
    for p in family:
        p.add_argument("--k", action=_Once, type=int,
                       help="witness k; omit for plain entanglement detection")
    for p in (witness, sweep, threshold):
        p.add_argument("--source", action="append", choices=sorted(CLI_SOURCES))
    witness.add_argument("--require-detection", action="store_true",
                         help="exit 1 unless every requested verdict detects")
    reproduce = command("reproduce", cmd_reproduce, "replay the built-in benchmark cases")
    reproduce.add_argument("case", help="1..6 or 'all'")

    return parser


def _refuse_repeats(args) -> None:
    """Refuse a value given twice to --source or witness's --k: it would print twice."""
    for flag in ("source", "k"):
        values = getattr(args, flag, None)
        if isinstance(values, list):  # the repeatable flags; sweep's --k is one int
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"--{flag} {value} given twice")


# Value flags whose value can be a negative number that argparse takes for an option.
NUMERIC_FLAGS = ("--grid", "--param", "--k", "--n", "--excitations")


def _attach_numeric_values(argv: list[str]) -> list[str]:
    """argv with each "--flag -X" of a NUMERIC_FLAGS flag written "--flag=-X".
    argparse reads a token that starts with one '-' and is not a plain
    negative number, such as the grid -0.0:1:3 or the float -1e-3, as an
    option, so only the "=" form would reach the flag's own type and range
    checks."""
    out = []
    for arg in argv:
        if out and out[-1] in NUMERIC_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one CLI command and return its exit code, on the shared parser."""
    parser = build_parser()
    argv = _attach_numeric_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)  # raises ValueError on a repeated _Once flag
        _refuse_repeats(args)
        return args.func(args)
    except ConvergenceFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
