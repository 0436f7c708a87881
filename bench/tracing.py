"""Spans around the calls into rotorcut's public functions.

The tracer replaces each target function with a timing wrapper in every
rotorcut module namespace that binds it, so a call through
``rotorcut.vmc.log_psi`` is timed just like one through
``rotorcut.rbm.log_psi``. Spans (name, start, end, parent) are kept in
flat arrays in memory and written out when the benchmark ends; self
times are computed from them afterwards. The benchmark opens one root
span per set-up and per round, so every wrapped call belongs to a root.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

import numpy as np

# (defining module, attribute path): the public functions named per layer,
# plus the experiment writers whose time is artifact writing
TARGETS = (
    ("rbm", "log_psi"),
    ("rbm", "log_derivatives"),
    ("rbm", "RbmParams.pack"),
    ("rbm", "RbmParams.unpack"),
    ("rbm", "RbmParams.__init__"),
    ("vmc", "chain_init"),
    ("vmc", "mh_step"),
    ("vmc", "sample_batch"),
    ("vmc", "estimate_forces"),
    ("vmc", "apply_metric"),
    ("vmc", "minres_solve"),
    ("vmc", "sr_iteration"),
    ("vmc", "run_vmc"),
    ("vmc", "write_trace_csv"),
    ("objective", "cost"),
    ("objective", "cost_gradient"),
    ("objective", "cost_hessian"),
    ("bmz", "bmz_minimize"),
    ("bmz", "procedure_cut"),
    ("graph", "generate_graph"),
    ("graph", "parse_edge_list"),
    ("experiments", "run_experiment"),
    ("experiments", "run_seed"),
    ("experiments", "write_stats_csv"),
    ("experiments", "_write_summary_json"),
)

# per-layer metric -> (unit, "self" seconds or "calls", spans it sums).
# A metric whose spans name a function that no longer exists is absent.
SPAN_METRICS = {
    "rbm.log_psi_s": ("s", "self", ["rbm.log_psi"]),
    "rbm.log_psi_calls": ("count", "calls", ["rbm.log_psi"]),
    "rbm.log_derivatives_s": ("s", "self", ["rbm.log_derivatives"]),
    "rbm.log_derivatives_calls": ("count", "calls", ["rbm.log_derivatives"]),
    "rbm.params_s": (
        "s", "self",
        ["rbm.RbmParams.pack", "rbm.RbmParams.unpack", "rbm.RbmParams.__init__"],
    ),
    "vmc.sample_self_s": (
        "s", "self", ["vmc.chain_init", "vmc.mh_step", "vmc.sample_batch"],
    ),
    "vmc.mh_steps": ("count", "calls", ["vmc.mh_step"]),
    "vmc.forces_s": ("s", "self", ["vmc.estimate_forces"]),
    "vmc.sr_solve_s": ("s", "self", ["vmc.minres_solve", "vmc.apply_metric"]),
    "vmc.sr_matvecs": ("count", "calls", ["vmc.apply_metric"]),
    "vmc.iter_self_s": ("s", "self", ["vmc.sr_iteration", "vmc.run_vmc"]),
    "objective.cost_s": ("s", "self", ["objective.cost"]),
    "objective.cost_calls": ("count", "calls", ["objective.cost"]),
    "objective.gradient_s": ("s", "self", ["objective.cost_gradient"]),
    "objective.hessian_s": ("s", "self", ["objective.cost_hessian"]),
    "objective.hessian_calls": ("count", "calls", ["objective.cost_hessian"]),
    "bmz.minimize_self_s": ("s", "self", ["bmz.bmz_minimize"]),
    "bmz.procedure_cut_s": ("s", "self", ["bmz.procedure_cut"]),
    "experiments.artifacts_s": (
        "s", "self",
        [
            "vmc.write_trace_csv", "experiments.write_stats_csv",
            "experiments._write_summary_json",
        ],
    ),
}
# these are taken from the set-up root; every other metric from the rounds
SETUP_METRICS = {
    "graph.generate_s": ("s", "self", ["graph.generate_graph"]),
    "graph.parse_s": ("s", "self", ["graph.parse_edge_list"]),
}
PEAK_MB_NAME = "bmz.procedure_cut"


@dataclass
class RootTable:
    spans: dict[str, tuple[float, int]]  # name -> (self seconds, calls)
    peak_bytes: int                      # largest tracemalloc peak of a call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.missing: set[str] = set()
        self.peak_bytes: list[tuple[int, int]] = []  # (span index, bytes)
        self._restore: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.stack.pop()

    @contextmanager
    def root(self, name: str):
        """A root span ("setup" or "round") around the with-block."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, name: str, fn):
        tracer = self
        perf = time.perf_counter

        if name == PEAK_MB_NAME:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                tracemalloc.start()
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes.append((idx, peak))
                    tracer._close(idx, t0, t1)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, t0, perf())

        return functools.wraps(fn)(wrapper)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every target in every rotorcut namespace that binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "rotorcut" or key.startswith("rotorcut."))
        ]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            home = sys.modules.get(f"rotorcut.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or leaf not in vars(owner):
                self.missing.add(name)
                continue
            if owner_name:  # a method: replace it on the class itself
                raw = vars(owner)[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((owner, leaf, raw, new))
                setattr(owner, leaf, new)
                continue
            original = vars(owner)[leaf]
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original, wrapper))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put the originals back, except where a binding was replaced again
        since install."""
        for obj, key, original, wrapper in reversed(self._restore):
            if vars(obj).get(key) is wrapper:
                setattr(obj, key, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------
    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.intp)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def per_root(self, root_name: str) -> list["RootTable"]:
        """Self seconds and calls per span name, for each root called root_name."""
        name, parent, start, end = self.arrays()
        total = name.size
        dur = end - start
        child = np.zeros(total)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        # spans open in call order, so a parent's index precedes its children
        root = np.empty(total, dtype=np.intp)
        for k in range(total):
            p = parent[k]
            root[k] = k if p < 0 else root[p]
        out = []
        for r in np.flatnonzero(parent < 0):
            if self.names[name[r]] != root_name:
                continue
            members = np.flatnonzero(root == r)
            spans = {}
            for nid in np.unique(name[members]):
                sel = members[name[members] == nid]
                spans[self.names[nid]] = (float(self_time[sel].sum()), int(sel.size))
            peak = max((b for idx, b in self.peak_bytes if root[idx] == r), default=0)
            out.append(RootTable(spans, peak))
        return out

    def write(self, path) -> None:
        """Spans as CSV: index, name, parent index, start and end seconds."""
        name, parent, start, end = self.arrays()
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for k in range(name.size):
                fh.write(
                    f"{k},{self.names[name[k]]},{parent[k]},"
                    f"{start[k]!r},{end[k]!r}\n"
                )


def span_metric(tables, spec, missing) -> float | None:
    """Median over roots of a SPAN_METRICS/SETUP_METRICS entry; None if absent."""
    _, kind, names = spec
    if any(n in missing for n in names) or not tables:
        return None
    pos = 0 if kind == "self" else 1
    return median(sum(t.spans.get(n, (0.0, 0))[pos] for n in names) for t in tables)
