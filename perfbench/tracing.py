"""Span tracing of entbound from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
of ``entbound.*`` that binds it (including names copied by ``from ...
import``) and on the classes that own traced methods.  Each call records
one span: name, start, end, parent span, job id, thread, and the qubit
count or matrix dimension of its first argument.  Spans stay in memory;
``uninstall`` puts the original functions back.

Worker threads of ``cmd_sweep``'s pool start with an empty span stack; their
outermost spans are parented to the span open on the main thread, which is
the job's ``cli.main`` while the pool runs.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np

# (layer, module, attribute or Class.method, span name)
TARGETS = [
    ("cli", "entbound.cli", "main", "cli.main"),
    ("witness", "entbound.witness", "detection_threshold", "witness.detection_threshold"),
    ("witness", "entbound.witness", "certified_bound", "witness.certified_bound"),
    ("witness", "entbound.witness", "detect_k_nonseparability",
     "witness.detect_k_nonseparability"),
    ("bounds", "entbound.bounds", "best_bound", "bounds.best_bound"),
    ("bounds", "entbound.bounds", "theorem1_bound", "bounds.theorem_bound"),
    ("bounds", "entbound.bounds", "theorem2_bound", "bounds.theorem_bound"),
    ("bounds", "entbound.bounds", "theorem3_bound", "bounds.theorem_bound"),
    ("concurrence", "entbound.concurrence", "pairwise_table", "concurrence.pairwise_table"),
    ("concurrence", "entbound.concurrence", "wootters_concurrence",
     "concurrence.wootters_concurrence"),
    ("concurrence", "entbound.concurrence", "pure_concurrence", "concurrence.pure_concurrence"),
    ("concurrence", "entbound.concurrence", "cut_profile", "concurrence.cut_profile"),
    ("concurrence", "entbound.concurrence", "subset_purity_deficit",
     "concurrence.subset_purity_deficit"),
    ("states", "entbound.states", "load_density_matrix", "states.load_density_matrix"),
    ("states", "entbound.states", "white_noise_mix", "states.white_noise_mix"),
    ("states", "entbound.states", "DensityMatrix.reduced", "states.reduced"),
    ("states", "entbound.states", "DensityMatrix.__post_init__", "states.validate"),
    ("linalg", "entbound.linalg", "partial_trace", "linalg.partial_trace"),
    ("linalg", "entbound.linalg", "hermitian_eigensystem", "linalg.hermitian_eigensystem"),
]

SPAN_NAMES = list(dict.fromkeys(t[3] for t in TARGETS))


def _size(args) -> int:
    """Qubit count of a state argument, or the leading dimension of an array."""
    if not args:
        return 0
    first = args[0]
    n = getattr(first, "n_qubits", None)
    if isinstance(n, int):
        return n
    shape = np.shape(first) if isinstance(first, np.ndarray) else ()
    return int(shape[0]) if shape else 0


class Tracer:
    """Records spans while installed; ``spans`` rows are
    [id, parent, job, name, start, end, thread_id, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._local = threading.local()
        self.main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            row = [sid, parent, self.job, name, clock(), 0.0, threading.get_ident(), _size(args)]
            stack.append(sid)
            try:
                return func(*args, **kwargs)
            finally:
                row[5] = clock()
                stack.pop()
                spans.append(row)

        traced.__wrapped_original__ = func
        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the targets the package no longer has."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "entbound" or k.startswith("entbound."))]
        missing = []
        for _, modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(owner, cls_name, object)).get(meth)
                if original is None:
                    missing.append(f"{modname}.{attr}")
                else:
                    self._patch(getattr(owner, cls_name), meth, original,
                                self._wrap(name, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return missing

    def _patch(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[list], main_ident: int, sweep_jobs: set) -> dict:
    """Per-layer figures for one traced pass of the job list.

    Self time of a span is its duration minus the union of its children's
    intervals (children on pool threads may overlap each other).
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    dim_cubed = 0
    validations = derived = 0
    threshold_calls = states_under_crossing = 0
    busy = union = 0.0
    for s in spans:
        sid, parent, job, name, start, end, thread, size = s
        calls[name] += 1
        self_s[name] += (end - start) - _union(children.get(sid, ()))
        if name == "linalg.hermitian_eigensystem":
            dim_cubed += size**3
        elif name == "states.validate":
            validations += 1
            if parent in by_id and by_id[parent][3] in ("states.white_noise_mix", "states.reduced"):
                derived += 1
        elif name == "witness.detection_threshold":
            threshold_calls += 1
        elif name == "states.white_noise_mix" and _has_ancestor(s, by_id, "witness.detection_threshold"):
            states_under_crossing += 1
    for job in sweep_jobs:
        roots = [(s[4], s[5]) for s in spans
                 if s[2] == job and s[6] != main_ident
                 and (s[1] is None or by_id.get(s[1], [0, 0, 0, ""])[3] == "cli.main")]
        busy += sum(e - b for b, e in roots)
        union += _union(roots)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["cli.sweep.parallelism"] = busy / union if union else 0.0
    out["witness.detection_threshold.states_per_call"] = (
        states_under_crossing / threshold_calls if threshold_calls else 0.0)
    out["states.validate.derived_share"] = derived / validations if validations else 0.0
    out["linalg.hermitian_eigensystem.dim_cubed"] = dim_cubed
    return out


def _has_ancestor(span, by_id, name) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] == name:
            return True
        parent = by_id.get(parent[1])
    return False


def inclusive_by_size(spans: list[list], main_ident: int, names) -> dict:
    """Mean inclusive duration per (span name, size), main-thread spans only."""
    acc: dict[tuple[str, int], list[float]] = {}
    for s in spans:
        if s[3] in names and s[6] == main_ident:
            acc.setdefault((s[3], s[7]), []).append(s[5] - s[4])
    return {key: sum(v) / len(v) for key, v in acc.items()}
