"""The three benchmark workloads: set-up, one timed round, and the checks.

A workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times) and then runs identical rounds. One round
is a fixed list of solves; a solve is one ``run_vmc`` or one
``bmz_minimize`` followed by ``procedure_cut``. Repeating the same round
makes every round's outputs equal, so the benchmark can both take medians
over rounds and check that reruns reproduce.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

OUT_DIR = Path(__file__).resolve().parent / "out"

# acceptance suite schedule, (n_iter, n_samp) by graph size, shortened
# uniformly so that a round of all eight graphs takes a few seconds
SUITE_SHORTEN = 20


def suite_tier(n: int) -> tuple[int, int]:
    if n <= 4:
        return 300 // SUITE_SHORTEN, 10
    if n <= 6:
        return 1000 // SUITE_SHORTEN, 40
    return 4000 // SUITE_SHORTEN, 40


@dataclass
class Solve:
    """What one operation returned, with what the checks need."""

    graph: str
    cut: float
    x: object
    theta: object
    energy: float
    opt_s: float           # optimizer time: run_vmc, or bmz_minimize alone
    opt_iters: int         # SR iterations, or trust-region iterations
    trace: object = None   # RunTrace of an NQS solve
    theta0: object = None  # BMZ starting angles
    n_samp: int = 0


@dataclass
class Round:
    elapsed_s: float
    outcomes: list         # Solve or the exception the solve raised
    artifact_bytes: int = 0
    passed: list = field(default_factory=list)  # solves that passed the checks
    traced: bool = False


def _round_trip(rc, g):
    return rc.parse_edge_list(rc.serialize_edge_list(g))


class Workload:
    name = ""

    def __init__(self, rc, seed: int):
        self.rc = rc
        self.graphs: dict = {}
        self.setup_edges = 0      # edges generated or parsed during set-up
        self._tables: dict = {}

    def table(self, name):
        if name not in self._tables:
            self._tables[name] = checks.edge_table(self.graphs[name].edges)
        return self._tables[name]

    def round(self) -> Round:
        raise NotImplementedError

    def check(self, s: Solve) -> None:
        g = self.graphs[s.graph]
        t = self.table(s.graph)
        checks.check_assignment(s.x, g.n)
        checks.check_cut_value(t, s.x, s.cut)
        checks.check_cut_above_average(t, s.theta, s.cut)
        checks.check_energy(t, s.theta, s.energy)
        if s.trace is not None:
            tr = s.trace
            checks.check_trace(
                tr.e_mean, tr.accept_rate, tr.residual, tr.min_e_loc, tr.best_energy
            )

    def close(self) -> None:
        pass


def _nqs_solve(name, trace, wall_s, cfg) -> Solve:
    return Solve(
        graph=name, cut=trace.best_cut_value, x=trace.best_cut_assignment,
        theta=trace.best_theta, energy=trace.best_energy, opt_s=wall_s,
        opt_iters=cfg.n_iter, trace=trace, n_samp=cfg.n_samp,
    )


class NqsG50(Workload):
    """run_experiment on the acceptance suite's 50-node graph, artifacts on."""

    name = "nqs-g50"
    n_seeds = 3
    n_iter = 100

    def __init__(self, rc, seed):
        super().__init__(rc, seed)
        g = rc.generate_graph(50, 619, weight_mode=(0.0, 15.0), seed=2024)
        g = _round_trip(rc, g)
        self.setup_edges = 2 * g.m
        self.graphs["g50"] = g
        OUT_DIR.mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT_DIR))
        self.spec = rc.ExperimentSpec(
            graph=g,
            solver="nqs",
            seeds=tuple(self.n_seeds * seed + k for k in range(self.n_seeds)),
            vmc=rc.VmcConfig(
                n_samp=40, n_warm=0, n_iter=self.n_iter, lambda_reg=1e-9
            ),
            init="random",
            label="bench",
            out_dir=str(self.out),
            workers=1,
        )
        # run_experiment returns statistics only; keep each RunTrace it
        # produces. This rebinds experiments.run_vmc for the life of the
        # process, and looks vmc.run_vmc up at call time so a tracer sees it.
        self.captured = []
        vmc = rc.vmc

        def capture(g, cfg, init):
            t0 = time.perf_counter()
            trace = vmc.run_vmc(g, cfg, init)
            self.captured.append((trace, time.perf_counter() - t0, cfg))
            return trace

        rc.experiments.run_vmc = capture

    def round(self) -> Round:
        self.captured.clear()
        t0 = time.perf_counter()
        try:
            self.rc.run_experiment(self.spec)
            error = None
        except Exception as exc:  # a failed solve is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - t0
        outcomes = [
            _nqs_solve("g50", trace, wall, cfg) for trace, wall, cfg in self.captured
        ]
        missing = error or RuntimeError("run_experiment returned no trace")
        outcomes += [missing] * (self.n_seeds - len(outcomes))
        size = sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())
        return Round(elapsed, outcomes[: self.n_seeds], artifact_bytes=size)

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


def named_graphs(rc) -> dict:
    def complete(n):
        return [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]

    def cycle(n):
        return [(i, (i + 1) % n, 1.0) for i in range(n)]

    cube = [(u, u ^ b, 1.0) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    petersen = (
        [(i, (i + 1) % 5, 1.0) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5, 1.0) for i in range(5)]
        + [(i, 5 + i, 1.0) for i in range(5)]
    )
    return {
        "K3": rc.Graph(3, complete(3)),
        "K4": rc.Graph(4, complete(4)),
        "C4": rc.Graph(4, cycle(4)),
        "C5": rc.Graph(5, cycle(5)),
        "C6": rc.Graph(6, cycle(6)),
        "K33": rc.Graph(6, [(i, 3 + j, 1.0) for i in range(3) for j in range(3)]),
        "Q3": rc.Graph(8, cube),
        "Petersen": rc.Graph(10, petersen),
    }


# maximum cuts in closed form
SUITE_OPTIMA = {
    "K3": 2.0, "K4": 4.0, "C4": 4.0, "C5": 4.0,
    "C6": 6.0, "K33": 9.0, "Q3": 12.0, "Petersen": 12.0,
}


class NqsSuite(Workload):
    """run_vmc on the eight certification graphs, one seed each."""

    name = "nqs-suite"

    def __init__(self, rc, seed):
        super().__init__(rc, seed)
        self.jobs = []
        for name, g in named_graphs(rc).items():
            g = _round_trip(rc, g)
            self.setup_edges += g.m
            self.graphs[name] = g
            n_iter, n_samp = suite_tier(g.n)
            cfg = rc.VmcConfig(
                n_samp=n_samp, n_warm=0, n_iter=n_iter, lambda_reg=1e-9, seed=seed
            )
            self.jobs.append((name, g, cfg, rc.init_random(g.n, seed=[seed, 1])))

    def round(self) -> Round:
        outcomes = []
        elapsed = 0.0
        for name, g, cfg, init in self.jobs:
            t0 = time.perf_counter()
            try:
                trace = self.rc.run_vmc(g, cfg, init)
                outcomes.append(_nqs_solve(name, trace, time.perf_counter() - t0, cfg))
            except Exception as exc:  # a failed solve is counted, not fatal
                outcomes.append(exc)
            elapsed += time.perf_counter() - t0
        return Round(elapsed, outcomes)

    def check(self, s):
        super().check(s)
        checks.check_at_most_optimum(s.cut, SUITE_OPTIMA[s.graph])


class BmzSparse(Workload):
    """BMZ plus Procedure-Cut from several starts on two generated graphs."""

    name = "bmz-sparse"
    # (n, m): G1-sized, and a larger graph with a sixth of its mean degree
    sizes = {"g800": (800, 19176), "g2000": (2000, 8000)}
    n_starts = 5

    def __init__(self, rc, seed):
        super().__init__(rc, seed)
        self.jobs = []
        for k, (name, (n, m)) in enumerate(self.sizes.items()):
            g = rc.generate_graph(n, m, weight_mode="unit", seed=[seed, k])
            g = _round_trip(rc, g)
            self.setup_edges += 2 * g.m
            self.graphs[name] = g
            for s in range(self.n_starts):
                self.jobs.append((name, g, rc.random_start(n, seed=[seed, k, s])))

    def round(self) -> Round:
        outcomes = []
        elapsed = 0.0
        for name, g, theta0 in self.jobs:
            t0 = time.perf_counter()
            try:
                theta, energy, iters = self.rc.bmz_minimize(g, theta0)
                t1 = time.perf_counter()
                cut, x = self.rc.procedure_cut(g, theta)
                outcomes.append(Solve(
                    graph=name, cut=cut, x=x, theta=theta, energy=energy,
                    opt_s=t1 - t0, opt_iters=iters, theta0=theta0,
                ))
            except Exception as exc:  # a failed solve is counted, not fatal
                outcomes.append(exc)
            elapsed += time.perf_counter() - t0
        return Round(elapsed, outcomes)

    def check(self, s):
        super().check(s)
        g = self.graphs[s.graph]
        t = self.table(s.graph)
        checks.check_descent(t, s.theta0, s.energy)
        checks.check_stationary(t, g.n, s.theta)


WORKLOADS = {w.name: w for w in (NqsG50, NqsSuite, BmzSparse)}
