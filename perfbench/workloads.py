"""Seeded job lists for the four benchmark workloads.

Each workload has a fixed job-mix shape: the same commands, qubit counts,
grid sizes and number of sources and k values in every run, so its cost
barely depends on the seed.  The seed (numpy ``default_rng``) picks the
parameters inside that shape: families of equal cost, grids, k values
that keep whether a crossing exists, sources, output formats, random
states and file corruptions.  Inputs never come from entbound itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import reference as ref

FORMATS = ("table", "csv", "json")
EXT = {"table": "txt", "csv": "csv", "json": "json"}


@dataclass
class Outcome:
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    text: str | None = None  # the --out file, when the job writes one
    value: object = None  # return value of a library job
    error: str | None = None  # traceback of an exception that escaped


@dataclass
class Job:
    name: str
    check: Callable[[Outcome], list[str]]
    argv: list[str] | None = None  # CLI job, run through entbound.cli.main
    out: str | None = None
    call: tuple | None = None  # library job: (op, n_qubits, amplitudes)
    rejects: bool = False  # malformed input the program must refuse
    tags: set = field(default_factory=set)


class Builder:
    """Collects jobs for one workload; owns the rng and the output dir."""

    def __init__(self, seed: int, tmp: str):
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.jobs: list[Job] = []
        self._families: dict = {}

    def family(self, name: str, n: int) -> ref.FamilyReference:
        key = (name, n)
        if key not in self._families:
            self._families[key] = ref.FamilyReference(name, n)
        return self._families[key]

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def param(self, low: float = 0.3) -> str:
        return f"{self.rng.uniform(low, 1.0):.4f}"

    def cli(self, name: str, argv: list[str], check, fmt: str | None = None,
            rejects: bool = False, tags=()) -> None:
        out = None
        if fmt is not None:
            out = os.path.join(self.tmp, f"{len(self.jobs):02d}-{name}.{EXT[fmt]}")
            argv = argv + ["--format", fmt, "--out", out]
        self.jobs.append(Job(name, check, argv=argv, out=out, rejects=rejects,
                             tags=set(tags)))

    def ks_crossing(self, fam: ref.FamilyReference, source: str, crossing: bool):
        """k values (None = plain entanglement) whose crossing exists or not."""
        ks = [None] + list(range(2, fam.n + 1))
        return [k for k in ks if ref.crosses(fam, source, k) == crossing]

    # ------------------------------------------------------------ job kinds

    def bound_family(self, family: str, n: int, closed_form=None) -> None:
        fmt, x = self.pick(FORMATS), self.param()
        fam = self.family(family, n)

        def check(out, fam=fam, x=float(x), fmt=fmt):
            want = fam.table(x)
            errors = checks.check_bound(out, fmt, n, want)
            if closed_form is not None:
                errors += checks.check_pairs(checks.parse_bound(fmt, out.text)[0],
                                             {p: closed_form(x) for p in want})
            return errors

        self.cli(f"bound-{family}-n{n}",
                 ["bound", "--family", family, "--n", str(n), "--param", x], check, fmt)

    def witness_family(self, family: str, n: int, sources: list[str], ks: list[int],
                       threshold_closed_form=None) -> None:
        fmt, x = self.pick(FORMATS), self.param()
        fam = self.family(family, n)
        argv = ["witness", "--family", family, "--n", str(n), "--param", x]
        for k in ks:
            argv += ["--k", str(k)]
        for s in sources:
            argv += ["--source", s]

        def check(out, fam=fam, x=float(x), fmt=fmt):
            errors = checks.check_witness(out, fmt, n, ks, sources,
                                          lambda s: fam.bound(s, x))
            if threshold_closed_form is not None:
                for row in checks.parse_witness(fmt, out.text):
                    if not checks.close(float(row["threshold"]), threshold_closed_form):
                        errors.append(f"threshold {row['threshold']} != closed form")
            return errors

        self.cli(f"witness-{family}-n{n}", argv, check, fmt)

    def sweep(self, family: str, n: int, steps: int, sources: list[str], k) -> None:
        fmt = self.pick(FORMATS)
        start = self.pick([0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        stop = self.pick([0.8, 0.85, 0.9, 0.95, 1.0])
        grid = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
        fam = self.family(family, n)
        argv = ["sweep", "--family", family, "--n", str(n), "--grid", f"{start}:{stop}:{steps}"]
        if k is not None:
            argv += ["--k", str(k)]
        for s in sources:
            argv += ["--source", s]
        self.cli(f"sweep-{family}-n{n}", argv,
                 lambda out, fmt=fmt: checks.check_sweep(out, fmt, fam, grid, sources, k),
                 fmt, tags={"sweep"})

    def threshold(self, family: str, n: int, sources: list[str], k,
                  closed_form: float | None = None) -> None:
        fmt = self.pick(FORMATS)
        fam = self.family(family, n)
        argv = ["threshold", "--family", family, "--n", str(n)]
        if k is not None:
            argv += ["--k", str(k)]
        for s in sources:
            argv += ["--source", s]
        self.cli(f"threshold-{family}-n{n}", argv,
                 lambda out, fmt=fmt: checks.check_threshold(out, fmt, fam, sources, k,
                                                             closed_form), fmt)

    def crossing_job(self, kind: str, families, n: int, sources_options, steps: int = 0,
                     crossing: bool = True) -> None:
        """A sweep or threshold whose crossing exists (or not) for every choice."""
        family = self.pick(families)
        sources = self.pick(sources_options)
        fam = self.family(family, n)
        ks = [k for k in self.ks_crossing(fam, sources[0], crossing)
              if all(ref.crosses(fam, s, k) == crossing for s in sources)]
        k = self.pick(ks)
        if kind == "sweep":
            self.sweep(family, n, steps, sources, k)
        else:
            self.threshold(family, n, sources, k)


# ---------------------------------------------------------------- workloads

def _two_ks(b: Builder, n: int) -> list[int]:
    return sorted(int(k) for k in b.rng.choice(range(2, n + 1), 2, replace=False))


def family_sweep(b: Builder) -> None:
    # 20 jobs in cost groups, so the median and p80 fall inside a group:
    # 9 tiny, 2 n=8 point jobs (median), 4 near 0.1 s, 3 n=7 crossings (p80), 2 top
    wd = ["w-noise", "dicke-noise"]
    b.crossing_job("threshold", ["ghz-noise"], 6, [["ghz-exact"]])
    b.crossing_job("threshold", ["ghz-noise"], 7, [["ghz-exact"]])
    b.crossing_job("threshold", ["ghz-noise"], 8, [["ghz-exact"]])
    b.witness_family("ghz-noise", 6, ["ghz-exact"], [int(b.rng.integers(2, 7))])
    b.witness_family("ghz-noise", 7, ["ghz-exact"], [int(b.rng.integers(2, 8))])
    for n in (6, 7):
        b.bound_family(b.pick(wd + ["ghz-noise"]), n)
        b.witness_family(b.pick(wd), n, [b.pick(["t2", "t3"]) if n == 6 else "t2"],
                         _two_ks(b, n))

    b.bound_family(b.pick(wd + ["ghz-noise"]), 8)
    b.witness_family(b.pick(wd), 8, [b.pick(["t2", "t3"])], _two_ks(b, 8))

    b.crossing_job("threshold", ["ghz-noise"], 6, [["t2"], ["t3"]], crossing=False)
    b.crossing_job("sweep", wd, 6, [["t2"], ["t3"]], steps=11, crossing=False)
    b.bound_family(b.pick(wd + ["ghz-noise"]), 9)
    b.witness_family(b.pick(wd), 9, ["t2"], _two_ks(b, 9))

    b.crossing_job("sweep", wd, 7, [["t2"]], steps=11)
    b.crossing_job("threshold", wd, 7, [["t2"]])
    b.crossing_job("threshold", wd, 7, [["t2"]])

    b.crossing_job("sweep", ["ghz-noise"], 9, [["ghz-exact"]], steps=3)
    b.crossing_job("sweep", wd, 8, [["t2"], ["t3"]], steps=6)


def small_n(b: Builder) -> None:
    # 22 jobs in cost groups: 8 tiny, 6 near 0.05 s (median), 6 near 0.1 s (p80), 2 top
    w4 = lambda t: max(0.0, (t - np.sqrt(1 - t * t)) / 2)  # paper: W4 pairwise
    b.bound_family("w-noise", 4, closed_form=w4)
    b.bound_family(b.pick(["ex3", "ex4", "dicke-noise"]), 4)
    b.bound_family(b.pick(["w-noise", "dicke-noise", "ghz-noise"]), 5)
    b.witness_family("ex4", 4, ["t1"], [3], threshold_closed_form=np.sqrt(22) / 4)
    b.witness_family(b.pick(["w-noise", "dicke-noise", "ex3"]), 4, ["t1"],
                     [int(b.rng.integers(2, 5))])
    b.witness_family(b.pick(["w-noise", "dicke-noise"]), 5, ["t2"], _two_ks(b, 5))
    b.witness_family("ghz-noise", b.pick([4, 5]), ["ghz-exact"], [2])  # paper: GHZ
    b.crossing_job("threshold", ["ghz-noise"], 5, [["ghz-exact"]])

    b.threshold("ex4", 4, ["t1"], None, closed_form=1 / 3)  # paper: Bell-pair crossing
    b.threshold("dicke-noise", 4, ["t1"], None, closed_form=0.6)
    b.crossing_job("threshold", ["ex3", "ex4", "w-noise", "dicke-noise"], 4, [["t1"]])
    b.crossing_job("threshold", ["ghz-noise"], 4, [["t1"]], crossing=False)
    b.crossing_job("sweep", ["ghz-noise"], 4, [["ghz-exact"]], steps=21)
    b.crossing_job("sweep", ["ghz-noise"], 5, [["ghz-exact"]], steps=21)

    b.crossing_job("sweep", ["ex3", "ex4"], 4, [["t1"]], steps=21)
    b.crossing_job("sweep", ["ex3", "ex4"], 4, [["t1"]], steps=21)
    b.crossing_job("sweep", ["w-noise", "dicke-noise"], 4, [["t1"]], steps=21)
    for _ in range(3):
        b.crossing_job("threshold", ["w-noise", "dicke-noise"], 5, [["t2"]])

    b.crossing_job("sweep", ["w-noise", "dicke-noise"], 5, [["t2"]], steps=21)
    b.cli("reproduce-all", ["reproduce", "all"], checks.check_reproduce)


# ---------------------------------------------------------------- state files

def _write_csv(path: str, rho: np.ndarray, nan_at=None) -> None:
    d = rho.shape[0]
    re_rows, im_rows = rho.real.tolist(), rho.imag.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n_qubits = {d.bit_length() - 1}\n")
        for i in range(d):
            fh.write("".join([f"{i},{j},{a!r},{c!r}\n"
                              for j, (a, c) in enumerate(zip(re_rows[i], im_rows[i]))]))
            if nan_at is not None and nan_at[0] == i:
                fh.write(f"{i},{nan_at[1]},nan,0.0\n")


def _json_text(rho: np.ndarray, count: int | None = None) -> str:
    d = rho.shape[0]
    pairs = np.stack([rho.real.ravel(), rho.imag.ravel()], axis=1).tolist()
    if count is not None:
        pairs = (pairs * 2)[:count]
    return json.dumps({"n_qubits": d.bit_length() - 1, "entries": pairs}) + "\n"


def _with_negative_eigenvalue(rho: np.ndarray, eps: float) -> np.ndarray:
    """Push one null direction of a rank-deficient rho to eigenvalue -eps."""
    _, v = np.linalg.eigh(rho)
    null = v[:, 0]
    out = rho - eps * np.outer(null, null.conj())
    out = (out + out.conj().T) / 2
    return out / np.trace(out).real


def state_file(b: Builder) -> None:
    rng = b.rng
    # 15 jobs in cost groups: 6 tiny malformed or n=5 ones, three n=7 JSON
    # jobs (median), one n=7 CSV, three n=8 JSON jobs (p75), n=9 CSV, n=10 JSON
    valid = [(7, "json", "bound", False), (7, "json", "witness", False),
             (7, "json", "bound", False), (7, "csv", "witness", True),
             (8, "json", "bound", False), (8, "json", "bound", False),
             (8, "json", "bound", False), (9, "csv", "bound", False),
             (10, "json", "bound", False)]
    for index, (n, ext, cmd, clamp) in enumerate(valid):
        d = 2**n
        rank = b.pick([1, 2, 3, 8, d // 4, d])
        rho = ref.random_mixed(rng, n, rank)
        path = os.path.join(b.tmp, f"rho{index}-n{n}-r{rank}.{ext}")
        if ext == "csv":
            _write_csv(path, rho)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_json_text(rho))
        _state_job(b, f"{cmd}-state-n{n}-{ext}", cmd, path, n,
                   ref.clamp_psd(rho) if clamp else rho, clamp)

    # malformed inputs: each must end in a named error with exit 2 or 3
    n = 5
    d = 2**n
    rho = ref.random_mixed(rng, n, b.pick([2, 3, 4]))
    text = _json_text(rho)
    cut = int(rng.integers(10, len(text) - 2))
    _bad_file(b, "bad-json", "json", text[:cut])
    _bad_file(b, "entry-count", "json",
              _json_text(rho, d * d + b.pick([-3, -1, 1, 2])))
    # an anti-Hermitian defect: the Hermitian part is still a valid state,
    # so only a Hermiticity check can reject it
    herm = rho.copy()
    i, j = rng.choice(d, 2, replace=False)
    herm[[i, j], [j, i]] += 1j * rng.uniform(1e-6, 1e-2)
    _bad_file(b, "non-hermitian", "csv", herm)
    _bad_file(b, "below-clamp-floor", "csv",
              _with_negative_eigenvalue(rho, 10 ** rng.uniform(-6, -2)), clamp=True)
    _bad_file(b, "nan-entry", "csv", rho, nan_at=tuple(rng.integers(0, d, 2)))
    near = _with_negative_eigenvalue(rho, 10 ** rng.uniform(-9.7, -8.3))
    path = os.path.join(b.tmp, "near-psd.csv")
    _write_csv(path, near)
    _state_job(b, "near-psd-clamp", b.pick(["bound", "witness"]), path, n,
               ref.clamp_psd(near), True)


def _state_job(b: Builder, name: str, cmd: str, path: str, n: int, rho: np.ndarray,
               clamp: bool) -> None:
    fmt = b.pick(FORMATS)
    argv = [cmd, "--state", path] + (["--clamp"] if clamp else [])
    ks = []
    if cmd == "witness":
        ks = _two_ks(b, n)
        for k in ks:
            argv += ["--k", str(k)]
    cache = {}

    def want():
        if "pairs" not in cache:
            cache["pairs"] = ref.pair_table_dense(rho, n)
        return cache["pairs"]

    def check(out):
        if cmd == "bound":
            return checks.check_bound(out, fmt, n, want())
        pair_sum = sum(v * v for v in want().values())
        return checks.check_witness(
            out, fmt, n, ks, ref.theorems_for(n),
            lambda s: float(np.sqrt(ref.coefficient(s, n) * pair_sum)))

    b.cli(name, argv, check, fmt)


def _bad_file(b: Builder, name: str, ext: str, content, clamp: bool = False,
              nan_at=None) -> None:
    path = os.path.join(b.tmp, f"{name}.{ext}")
    if isinstance(content, str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        _write_csv(path, content, nan_at=nan_at)
    cmd = b.pick(["bound", "witness"])
    argv = [cmd, "--state", path] + (["--clamp"] if clamp else [])
    b.cli(f"{cmd}-{name}", argv, checks.check_rejected, b.pick(FORMATS), rejects=True)


# ---------------------------------------------------------------- pure states

def _local_unitaries(rng, amps: np.ndarray, n: int) -> np.ndarray:
    """Apply a Haar-ish random unitary to every qubit; concurrence is unchanged."""
    t = amps.reshape((2,) * n)
    for q in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
    out = t.reshape(-1)
    return out / np.linalg.norm(out)


def pure_state(b: Builder) -> None:
    rng = b.rng
    haar = {n: ref.haar_amplitudes(rng, n) for n in (8, 9, 10, 11, 12)}
    product = {n: ref.product_amplitudes(rng, n) for n in (9, 10, 11)}
    ghz = _local_unitaries(rng, ref.ghz_amplitudes(10), 10)
    w = _local_unitaries(rng, ref.w_amplitudes(11), 11)
    jobs = [("haar", 8, haar[8], "pc", None), ("haar", 8, haar[8], "cp", None),
            ("haar", 9, haar[9], "pc", None), ("haar", 9, haar[9], "cp", None),
            ("product", 9, product[9], "pc", None),
            ("haar", 10, haar[10], "pc", None), ("haar", 10, haar[10], "cp", None),
            ("haar", 11, haar[11], "pc", None), ("haar", 12, haar[12], "pc", None),
            ("product", 10, product[10], "pc", None), ("product", 11, product[11], "cp", None),
            ("ghz", 10, ghz, "pc", ref.ghz_pure_concurrence(10)),
            ("w", 11, w, "pc", ref.w_pure_concurrence(11))]
    cuts_cache: dict[int, dict] = {}
    for kind, n, amps, op, closed in jobs:
        key = id(amps)

        def cuts(amps=amps, n=n, key=key):
            if key not in cuts_cache:
                cuts_cache[key] = ref.cut_squares(amps, n)
            return cuts_cache[key]

        if op == "pc":
            check = lambda out, n=n, cuts=cuts, closed=closed: \
                checks.check_pure_concurrence(out.value, n, cuts(), closed)
        else:
            check = lambda out, n=n, cuts=cuts: checks.check_cut_profile(out.value, n, cuts())
        b.jobs.append(Job(f"{'pure_concurrence' if op == 'pc' else 'cut_profile'}-{kind}-n{n}",
                          check, call=(op, n, amps)))


WORKLOADS = {
    # name: (builder, minimum measured passes, host probe kind); state-file
    # jobs spend their time parsing, which slows with the host unlike the
    # numpy and interpreter work of the others (see run.HostProbe)
    "family-sweep": (family_sweep, 3, "compute"),
    "small-n": (small_n, 4, "compute"),
    "state-file": (state_file, 3, "parse"),
    "pure-state": (pure_state, 5, "compute"),
}
