#!/usr/bin/env python3
"""entbound benchmark: one seeded workload per run, checked against references.

    python3 perfbench/run.py --workload family-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  A closed loop with one client runs the
workload's fixed job list once as a warm-up, then back to back, pass after
pass, for --seconds (at least the workload's minimum number of passes).
CLI jobs go through ``entbound.cli.main(argv)`` in this process with stdout
captured and ``--out`` in a scratch directory; pure-state jobs call the
library.  Every output is checked outside the timed region.

--trace 0 prints the end-to-end metrics, in seconds scaled to a reference
host speed (see ``HostProbe``).  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracing
overhead.  The last stdout line is the JSON result; a fuller record
(environment, per-job times, failures, baseline cross-check) and the spans
go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 9
SETUP_PER_PASS = 2
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
# reference host speed: HostProbe of each kind takes this long
PROBE_REF_S = {"compute": 6e-4, "parse": 1.6e-3}
# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6): mean inclusive
# seconds per call, keyed by (span, qubit count).
BASELINE = {("states.white_noise_mix", 8): 0.018, ("concurrence.pairwise_table", 8): 0.015,
            ("concurrence.pure_concurrence", 10): 0.072,
            ("concurrence.pure_concurrence", 12): 1.0}


def _limit_blas_threads() -> int:
    """Keep BLAS at no more threads than this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)
    return nproc


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("family-sweep", "small-n", "state-file", "pure-state"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- environment

def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "entbound").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas(np) -> dict:
    info = {"env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["vendor"] = None
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["threads"] = func()
                return info
    info["threads"] = None
    return info


def environment(np, args, nproc: int) -> dict:
    return {
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(np),
        "nproc": nproc, "machine": platform.machine(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


class HostProbe:
    """Times a fixed ~1 ms mix of interpreter and LAPACK work.

    The 2-vCPU host this benchmark was tuned on switches between a fast
    state and one about 1.45x slower, for seconds to minutes at a time, so
    raw times of the same code spread by 0.2-0.45 of their median from run
    to run.  The probe, run before and after every timed job, tracks that
    state: dividing a job's time by the mean of its two probes and
    multiplying by PROBE_REF_S gives the time at the reference speed.  On
    that host it cut the spread of one job's median over 5 s windows from
    0.47 to 0.05 of the median.

    Parsing state files slows with the host differently: over 15 s windows
    an n=8 JSON job scaled by this probe still spread 0.125, and 0.054 once
    the probe also parsed floats from text, while a family job went the
    other way (0.036 against 0.167).  The "parse" kind adds that part.
    """

    def __init__(self, np, kind: str):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((48, 48))
        self.matrix, self.eigh = matrix + matrix.T, np.linalg.eigh
        self.lines = ([",".join(map(repr, row)) for row in rng.standard_normal((400, 4)).tolist()]
                      if kind == "parse" else [])
        self.ref_s = PROBE_REF_S[kind]

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(4000):
            total += i * i
        self.eigh(self.matrix)
        for line in self.lines:
            [float(x) for x in line.split(",")]
        return time.perf_counter() - start

    def __call__(self) -> float:
        # the best of three drops a run hit by an interrupt
        return min(self._kernel() for _ in range(3))

    def scaled(self, elapsed: float, before: float, after: float) -> float:
        return elapsed * self.ref_s * 2 / (before + after)


def measure_setup(samples: int, probe: HostProbe) -> list[float]:
    """Seconds from spawning a fresh interpreter until entbound.cli is imported,
    scaled to the reference host speed.

    The child prints its own perf_counter, a system-wide monotonic clock.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import time, entbound.cli; print(repr(time.perf_counter()))"
    times = []
    for _ in range(samples):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed = float(proc.stdout.strip()) - start
        times.append(probe.scaled(elapsed, before, probe()))
    return times


# ---------------------------------------------------------------- running jobs

class Runner:
    """Runs jobs closed-loop, times each, checks each distinct output once."""

    def __init__(self, jobs, outcome_cls, probe: HostProbe):
        import entbound.cli
        import entbound.concurrence
        import entbound.states
        self.cli, self.conc, self.states = entbound.cli, entbound.concurrence, entbound.states
        self.jobs, self.Outcome, self.probe = jobs, outcome_cls, probe
        self.verdicts: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.tracer = None
        self.main_ident = threading.get_ident()

    def _execute(self, job):
        out = self.Outcome()
        if job.call is not None:
            op, n, amps = job.call
            start = time.perf_counter()
            try:
                psi = self.states.PureState(n, amps)
                fn = self.conc.pure_concurrence if op == "pc" else self.conc.cut_profile
                out.value = fn(psi)
            except Exception:
                out.error = traceback.format_exc()
            return time.perf_counter() - start, out
        so, se = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                out.rc = self.cli.main(job.argv)
        except SystemExit as exc:
            out.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            out.error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        out.stdout, out.stderr = so.getvalue(), se.getvalue()
        if job.out and os.path.exists(job.out):
            with open(job.out, encoding="utf-8") as fh:
                out.text = fh.read()
            os.remove(job.out)
        return elapsed, out

    @staticmethod
    def _digest(out) -> str:
        value = out.value
        if hasattr(value, "per_subset"):
            value = (sorted(value.per_subset.items()), sorted(value.size_sums.items()))
        return hashlib.sha256(repr((out.rc, out.stdout, out.stderr, out.text, value,
                                    out.error)).encode()).hexdigest()

    def _verdict(self, job, out) -> list[str]:
        if out.error is not None:
            return [out.error.strip().splitlines()[-1]]
        if job.argv is not None and not job.rejects and out.rc != 0:
            return [f"exit {out.rc}: {out.stderr.strip()[:200]}"]
        try:
            return job.check(out)
        except Exception as exc:  # an output the parser cannot read is wrong
            return [f"unreadable output ({type(exc).__name__}: {exc})"]

    def run_pass(self) -> tuple[list[float], list[float]]:
        """Runs every job once; returns their scaled and their raw times."""
        times, raw = [], []
        before = self.probe()
        for index, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = index
            elapsed, out = self._execute(job)
            after = self.probe()
            times.append(self.probe.scaled(elapsed, before, after))
            raw.append(elapsed)
            before = after
            self.attempted += 1
            key = (index, self._digest(out))
            if key not in self.verdicts:
                self.verdicts[key] = self._verdict(job, out)
            if self.verdicts[key]:
                self.failures.append(f"{job.name}: {'; '.join(self.verdicts[key][:3])}")
        return times, raw


# ---------------------------------------------------------------- statistics

def quantile(values: list[float], pct: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(min_jobs: int) -> int:
    """Highest ladder percentile with at least ten jobs beyond it."""
    for pct in TAIL_LADDER:
        if min_jobs * (100 - pct) / 100 >= 10:
            return pct
    return TAIL_LADDER[-1]


def _median_dict(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entbound" / "cli.py").is_file():
        print(f"error: no entbound sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracing
    import workloads

    build, min_passes, probe_kind = workloads.WORKLOADS[args.workload]
    if args.trace:
        min_passes = max(2, min_passes)
    env = environment(np, args, nproc)
    # set-up samples are spread over the run, a few after each pass, so that
    # one slow stretch of the machine does not set them all
    setup_times: list[float] = []
    setup_quota = 0 if args.trace else SETUP_SAMPLES

    TMP_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        builder = workloads.Builder(args.seed, tmp)
        build(builder)
        jobs = builder.jobs
        probe = HostProbe(np, probe_kind)
        runner = Runner(jobs, workloads.Outcome, probe)
        walls = {False: [], True: []}
        job_times: list[list[float]] = []
        raw_times: list[list[float]] = []
        layer_passes, traced_spans, missing = [], [], []
        sweep_jobs = {i for i, j in enumerate(jobs) if "sweep" in j.tags}
        start = time.perf_counter()
        # warm-up: outputs checked (the first check of each job is slow),
        # times not used
        longest = sum(runner.run_pass()[1])
        while len(job_times) < min_passes or time.perf_counter() - start + longest <= args.seconds:
            pass_start = time.perf_counter()
            traced = bool(args.trace) and len(job_times) % 2 == 1
            if traced:
                runner.tracer = tracing.Tracer()
                missing = runner.tracer.install()
            try:
                times, raw = runner.run_pass()
            finally:
                if traced:
                    runner.tracer.uninstall()
            if traced:
                spans = runner.tracer.spans
                layer_passes.append(tracing.layer_metrics(spans, runner.main_ident, sweep_jobs))
                traced_spans.append(spans)
                runner.tracer = None
            walls[traced].append(sum(times))
            job_times.append(times)
            raw_times.append(raw)
            longest = max(longest, time.perf_counter() - pass_start)
            setup_times += measure_setup(min(SETUP_PER_PASS, setup_quota - len(setup_times)),
                                         probe)
        setup_times += measure_setup(setup_quota - len(setup_times), probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    all_times = [t for times in job_times for t in times]
    pct = tail_percentile(len(jobs) * min_passes)
    detail = {
        "environment": env, "passes": len(job_times), "jobs_per_pass": len(jobs),
        "jobs": [{"name": j.name, "argv": j.argv,
                  "times_s": [times[i] for times in job_times],
                  "raw_times_s": [raw[i] for raw in raw_times]}
                 for i, j in enumerate(jobs)],
        "failures": runner.failures[:50],
    }
    failed = len(runner.failures)
    if args.trace:
        layer = _median_dict(layer_passes)
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        layer["trace.overhead"] = overhead
        metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
        detail["walls"] = {"untraced_s": walls[False], "traced_s": walls[True]}
        detail["baseline_check"] = _baseline_check(traced_spans, tracing, runner.main_ident)
        detail["untraced_targets"] = missing
        _write_spans(args, traced_spans)
    else:
        metrics = {
            "wall_s": (sum(statistics.median(times) for times in zip(*job_times)), "s"),
            "job_s.p50": (statistics.median(all_times), "s"),
            "job_s.tail": (quantile(all_times, pct), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        detail.update(walls_s=walls[False], raw_walls_s=[sum(raw) for raw in raw_times],
                      setup_samples_s=setup_times,
                      tail={"percentile": pct, "jobs": len(all_times),
                            "beyond": sum(t > metrics["job_s.tail"][0] for t in all_times)},
                      fail_ratio=failed / runner.attempted)
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    _print_report(args, env, detail, metrics, failed, runner.attempted)
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith((".calls", ".dim_cubed", ".states_per_call")):
        return "count"
    return "ratio"


def _baseline_check(traced_spans, tracing, main_ident: int) -> list[dict]:
    """Compare mean inclusive per-call times with the ROADMAP baseline.

    Traced spans include the wrappers of nested calls, so they read a
    little high; a ratio outside 0.5..2 is reported as a disagreement.
    """
    names = {name for name, _ in BASELINE}
    spans = [s for pass_spans in traced_spans for s in pass_spans]
    measured = tracing.inclusive_by_size(spans, main_ident, names)
    rows = []
    for (name, n), base in BASELINE.items():
        if (name, n) in measured:
            ratio = measured[(name, n)] / base
            rows.append({"span": name, "n": n, "baseline_s": base,
                         "measured_s": measured[(name, n)], "ratio": ratio,
                         "agrees": 0.5 <= ratio <= 2.0})
    return rows


def _write_spans(args, traced_spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["pass", "id", "parent", "job", "name", "start_s", "end_s", "thread", "size"]\n')
        for index, spans in enumerate(traced_spans):
            fh.writelines(json.dumps([index] + s) + "\n" for s in spans)


def _print_report(args, env, detail, metrics, failed, attempted) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{detail['passes']} passes x {detail['jobs_per_pass']} jobs")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    if not args.trace:
        tail = detail["tail"]
        print(f"  job_s.tail is p{tail['percentile']} of {tail['jobs']} jobs "
              f"({tail['beyond']} beyond it)")
        print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
        print(f"  unscaled median pass time {statistics.median(detail['raw_walls_s']):.6g} s")
    for row in detail.get("baseline_check", []):
        verdict = "agrees" if row["agrees"] else "DISAGREES"
        print(f"  baseline {row['span']} n={row['n']}: {row['measured_s']:.4g} s vs "
              f"{row['baseline_s']:.4g} s ({verdict})")
    for target in detail.get("untraced_targets", []):
        print(f"  not traced (missing from the package): {target}")
    for line in detail["failures"][:10]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
