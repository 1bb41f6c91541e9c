"""Parse entbound CLI and library outputs and compare them with reference.py.

Every checker returns a list of error strings; an empty list means the
output is correct.  The CLI prints floats with 9 significant digits, so a
value matches when it is within 1e-9 (relative above 1) of the reference
plus that rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import reference as ref

BRACKET = 1e-6
_CROSSING_LINE = re.compile(r"^crossing\[([\w-]+), [^\]]+\] = (.+)$")


def close(got: float, want: float, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want)) + 5e-9 * abs(want)


def _truthy(text) -> bool:
    return text is True or text == "True"


def _rows(fmt: str, text: str) -> list[dict]:
    """Table or CSV report rows as dicts keyed by header (one table)."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = [line.split() for line in text.splitlines() if line.strip()]
    header = lines[0]
    return [dict(zip(header, line)) for line in lines[1:]]


def _pair_key(name: str) -> tuple[int, int]:
    _, i, j = name.split("_")
    return int(i), int(j)


# ---------------------------------------------------------------- bound

def parse_bound(fmt: str, text: str):
    """Pair table and theorem reports from a ``bound`` report."""
    if fmt == "json":
        doc = json.loads(text)
        pairs = {(p["i"], p["j"]): float(p["value"]) for p in doc["pairwise"]}
        bounds = {b["theorem"].lower(): b for b in doc["bounds"]}
        return pairs, bounds
    if fmt == "csv":
        pairs, bounds = {}, {}
        for row in _rows("csv", text):
            if row["record"] == "pairwise":
                pairs[_pair_key(row["pair"])] = float(row["value"])
            else:
                bounds[row["theorem"].lower()] = row
        return pairs, bounds
    lines = [line for line in text.splitlines() if line.strip()]
    split = next(i for i, line in enumerate(lines) if line.startswith("theorem"))
    pairs = {_pair_key(r["pair"]): float(r["concurrence"])
             for r in _rows("table", "\n".join(lines[:split]))}
    bounds = {r["theorem"].lower(): r for r in _rows("table", "\n".join(lines[split:]))}
    return pairs, bounds


def check_pairs(pairs: dict, want: dict) -> list[str]:
    if set(pairs) != set(want):
        return [f"pair set {sorted(pairs)} != {sorted(want)}"]
    return [f"C{p} = {pairs[p]!r}, reference {want[p]!r}"
            for p in sorted(want) if not close(pairs[p], want[p])]


def check_theorem_reports(bounds: dict, want_pairs: dict, n: int) -> list[str]:
    theorems = ref.theorems_for(n) if n >= 4 else []
    if sorted(bounds) != sorted(theorems):
        return [f"theorems {sorted(bounds)} != {theorems}"]
    pair_sum = sum(v * v for v in want_pairs.values())
    errors = []
    for th in theorems:
        b = bounds[th]
        coeff = ref.coefficient(th, n)
        c2 = coeff * pair_sum
        for key, want in (("coefficient", coeff), ("pair_sum", pair_sum),
                          ("bound_on_C2", c2), ("bound_on_C", math.sqrt(c2))):
            if not close(float(b[key]), want):
                errors.append(f"{th} {key} = {b[key]!r}, reference {want!r}")
    return errors


def check_bound(out, fmt: str, n: int, want_pairs: dict) -> list[str]:
    pairs, bounds = parse_bound(fmt, out.text)
    return check_pairs(pairs, want_pairs) + check_theorem_reports(bounds, want_pairs, n)


# ---------------------------------------------------------------- witness

def parse_witness(fmt: str, text: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["verdicts"]
    return _rows(fmt, text)


def _verdict_errors(got_bound, got_thr, got_detected, want_bound, want_thr, label) -> list[str]:
    errors = []
    if not close(got_bound, want_bound):
        errors.append(f"{label}: bound {got_bound!r}, reference {want_bound!r}")
    if not close(got_thr, want_thr):
        errors.append(f"{label}: threshold {got_thr!r}, reference {want_thr!r}")
    # verdict checked only where the reference is decisive
    if abs(want_bound - want_thr) > 1e-8 and got_detected != (want_bound > want_thr):
        errors.append(f"{label}: detected={got_detected} disagrees with the reference")
    return errors


def check_witness(out, fmt: str, n: int, ks: list[int], sources: list[str],
                  bound_of) -> list[str]:
    """bound_of(source) gives the reference certified bound on C."""
    rows = parse_witness(fmt, out.text)
    expect = [(k, s) for k in ks for s in sources]
    got = [(int(r["k"]), r["source"]) for r in rows]
    if got != expect:
        return [f"verdict rows {got} != {expect}"]
    errors = []
    for r, (k, s) in zip(rows, expect):
        if int(r["n_parties"]) != n or int(r["local_dim"]) != 2:
            errors.append(f"verdict header {r['n_parties']}, {r['local_dim']}")
        errors += _verdict_errors(
            float(r["certified_lower_bound_on_C"]), float(r["threshold"]),
            _truthy(r["detected"]), bound_of(s), ref.k_threshold(n, k), f"k={k} {s}")
    return errors


# ---------------------------------------------------------------- crossings

def check_crossing(x, fam: ref.FamilyReference, source: str, k) -> list[str]:
    """A reported crossing must bracket the threshold to within BRACKET."""
    threshold = 0.0 if k is None else ref.k_threshold(fam.n, k)
    label = f"crossing[{source}, k={k}]"
    if x is None:
        if fam.bound(source, 1.0) > threshold:
            return [f"{label}: none reported but the reference detects at 1"]
        return []
    below, above = fam.bound(source, x - BRACKET), fam.bound(source, x + BRACKET)
    if below <= threshold < above:
        return []
    return [f"{label} = {x!r}: reference bound {below!r} / {above!r} around {threshold!r}"]


def _crossing_value(text):
    if text is None or text == "no crossing":
        return None
    return float(text)


# ---------------------------------------------------------------- sweep

def parse_sweep(fmt: str, text: str, stdout: str):
    if fmt == "json":
        doc = json.loads(text)
        crossings = {c["source"]: c["crossing"] for c in doc["crossings"]}
        return doc["rows"], crossings
    crossings = {}
    for line in stdout.splitlines():
        m = _CROSSING_LINE.match(line.strip())
        if m:
            crossings[m.group(1)] = _crossing_value(m.group(2))
    return _rows(fmt, text), crossings


def check_sweep(out, fmt: str, fam: ref.FamilyReference, grid: list[float],
                sources: list[str], k) -> list[str]:
    rows, crossings = parse_sweep(fmt, out.text, out.stdout)
    if len(rows) != len(grid):
        return [f"{len(rows)} sweep rows, expected {len(grid)}"]
    threshold = None if k is None else ref.k_threshold(fam.n, k)
    errors = []
    for row, x in zip(rows, grid):
        if not close(float(row["param"]), x):
            errors.append(f"param {row['param']!r} != {x!r}")
            continue
        table = fam.table(x)
        got_pairs = {_pair_key(key): float(v) for key, v in row.items() if key.startswith("C_")}
        errors += check_pairs(got_pairs, table)
        for s in sources:
            want = fam.bound(s, x)
            if not close(float(row[f"bound_on_C[{s}]"]), want) or \
                    not close(float(row[f"bound_on_C2[{s}]"]), want * want):
                errors.append(f"x={x} {s}: bound {row[f'bound_on_C[{s}]']!r}, reference {want!r}")
            if threshold is not None:
                errors += _verdict_errors(want, float(row["threshold"]),
                                          _truthy(row[f"detected[{s}]"]), want, threshold,
                                          f"x={x} {s}")
    if sorted(crossings) != sorted(sources):
        return errors + [f"crossings for {sorted(crossings)}, expected {sorted(sources)}"]
    for s in sources:
        errors += check_crossing(crossings[s], fam, s, k)
    return errors


# ---------------------------------------------------------------- threshold

def parse_threshold(fmt: str, text: str) -> dict:
    if fmt == "json":
        return {c["source"]: c["crossing"] for c in json.loads(text)["crossings"]}
    if fmt == "csv":
        return {r["source"]: _crossing_value(r["crossing"]) for r in _rows("csv", text)}
    out = {}
    for line in text.splitlines()[1:]:
        parts = line.split(None, 4)
        if len(parts) == 5:
            out[parts[3]] = _crossing_value(parts[4].strip())
    return out


def check_threshold(out, fmt: str, fam: ref.FamilyReference, sources: list[str], k,
                    closed_form: float | None = None) -> list[str]:
    crossings = parse_threshold(fmt, out.text)
    if list(crossings) != sources:
        return [f"threshold sources {list(crossings)} != {sources}"]
    errors = []
    for s in sources:
        errors += check_crossing(crossings[s], fam, s, k)
        if closed_form is not None and (crossings[s] is None
                                        or abs(crossings[s] - closed_form) > BRACKET):
            errors.append(f"crossing {crossings[s]!r} != closed form {closed_form!r}")
    return errors


# ---------------------------------------------------------------- other jobs

def check_reproduce(out) -> list[str]:
    lines = out.stdout.splitlines()
    errors = [f"case {c} did not print PASS" for c in range(1, 7)
              if f"PASS case {c}" not in lines]
    return errors + [line for line in lines if "FAIL" in line]


def check_rejected(out) -> list[str]:
    """Malformed input must end in a named error with exit code 2 or 3."""
    if out.rc not in (2, 3):
        return [f"malformed input gave exit {out.rc}"]
    if not out.stderr.startswith("error: "):
        return [f"malformed input gave no named error: {out.stderr[:200]!r}"]
    return []


def check_cut_profile(profile, n: int, cuts: dict[int, float]) -> list[str]:
    if profile.n_qubits != n or set(profile.per_subset) != set(cuts):
        return ["cut profile covers the wrong masks"]
    errors = [f"cut {bits:#x}: {profile.per_subset[bits]!r}, reference {cuts[bits]!r}"
              for bits in sorted(cuts) if not close(profile.per_subset[bits], cuts[bits])]
    for size, total in profile.size_sums.items():
        want = sum(v for b, v in cuts.items() if bin(b).count("1") == size)
        if not close(total, want, 1e-9 * len(cuts)):
            errors.append(f"size {size} sum {total!r}, reference {want!r}")
    return errors[:10]


def check_pure_concurrence(value: float, n: int, cuts: dict[int, float],
                           closed_form: float | None) -> list[str]:
    """Compare C^2, which stays well conditioned for (near-)product states."""
    want = ref.pure_concurrence_squared(cuts, n)
    errors = []
    if not close(value * value, want):
        errors.append(f"C^2 = {value * value!r}, reference {want!r}")
    if closed_form is not None and not close(value, closed_form):
        errors.append(f"C = {value!r}, closed form {closed_form!r}")
    return errors
