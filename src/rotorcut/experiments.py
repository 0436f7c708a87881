"""Multi-seed experiment driver: runs solvers over seed lists, aggregates
mean/std/min statistics, and writes the CSV/JSON artifacts the CLI exposes.

Seed-level parallelism uses a process pool; each worker owns its solver
state end to end, and aggregation happens in the parent. Per-seed RNG
streams are derived so the three consumers never collide: the Metropolis
chain seeds from `seed`, RBM initialization from `[seed, 1]`, and the BMZ
starting point from `[seed, 2]`.
"""

from __future__ import annotations

import json
import operator
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .bmz import bmz_minimize, procedure_cut, random_start
from .graph import Graph, _integer, _real
from .rbm import init_pretrained, init_random
from .vmc import RunTrace, VmcConfig, _write_csv, run_vmc, write_trace_csv

SOLVERS = ("bmz", "nqs", "both")
INIT_MODES = ("random", "pretrained")
# sweep axis -> the VmcConfig fields that one grid point sets, in order
SWEEP_AXES = {
    "n_iter": ("n_iter",),
    "samp_warm": ("n_samp", "n_warm"),
    "lambda_reg": ("lambda_reg",),
}


@dataclass(frozen=True)
class SeedStats:
    """Aggregate of one solver's energies over the seed list.

    std is the population standard deviation (ddof=0); per_seed rows are
    (seed, energy, cut_value, wall_time_s) in seed order.
    """

    mean: float
    std: float
    min: float
    per_seed: tuple[tuple[int, float, float, float], ...]

    @property
    def max(self) -> float:
        """Largest per-seed energy."""
        return float(max(energy for _, energy, _, _ in self.per_seed))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one campaign needs: graph, solver, VMC config, seeds, output.

    The RBM of the nqs stage has round(alpha * n) hidden units and
    N(0, sigma^2) couplings. init="pretrained" also starts its visible
    biases from a BMZ solution of the same graph (radius r on the visible
    bias circle).
    """

    graph: Graph
    solver: str = "nqs"
    seeds: tuple[int, ...] = tuple(range(10))
    vmc: VmcConfig = VmcConfig()
    init: str = "random"
    alpha: float = 1.0
    r: float = 1.0
    sigma: float = 0.1
    label: str = "experiment"
    out_dir: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        # a bad campaign fails here, before its first seed runs
        if not isinstance(self.graph, Graph):
            raise ValueError(f"graph must be a Graph, got {type(self.graph).__name__}")
        if not isinstance(self.vmc, VmcConfig):
            raise ValueError(f"vmc must be a VmcConfig, got {type(self.vmc).__name__}")
        if not (self.out_dir is None or isinstance(self.out_dir, (str, os.PathLike))):
            raise ValueError(f"out_dir must be None, a str or a path, got {self.out_dir!r}")
        # the label starts the artifact file names inside out_dir
        label = self.label
        if (not isinstance(label, str) or label in ("", ".", "..")
                or any(sep in label for sep in (os.sep, os.altsep, "\0") if sep)):
            raise ValueError(f"label must be a file name, not a path, got {label!r}")
        try:  # stored as Python ints, which the summary JSON can hold
            object.__setattr__(self, "seeds", tuple(map(operator.index, self.seeds)))
        except TypeError:
            raise ValueError(f"seeds must be integers, got {self.seeds}") from None
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        for name, strict in (("alpha", True), ("r", False), ("sigma", False)):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, strict))
        if len(self.seeds) < 1:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        object.__setattr__(self, "workers", _integer("workers", self.workers, 1))


@dataclass
class SeedResult:
    solver: str
    seed: int
    energy: float
    cut_value: float
    wall_time_s: float
    trace: Optional[RunTrace] = None


def run_seed(spec: ExperimentSpec, seed: int) -> list[SeedResult]:
    """Run one seed's full pipeline; returns one row per solver stage.

    For solver="both" the BMZ stage always runs first, so a pretrained NQS
    stage can reuse its rotor solution directly.
    """
    g = spec.graph
    rows: list[SeedResult] = []
    theta_star = None

    if spec.solver in ("bmz", "both") or spec.init == "pretrained":
        theta0 = random_start(g.n, seed=[seed, 2])
        t0 = time.perf_counter()
        theta_star, energy, _ = bmz_minimize(g, theta0)
        elapsed = time.perf_counter() - t0
        if spec.solver in ("bmz", "both"):
            cut_value, _ = procedure_cut(g, theta_star)
            rows.append(SeedResult("bmz", seed, energy, cut_value, elapsed))

    if spec.solver in ("nqs", "both"):
        if spec.init == "pretrained":
            params = init_pretrained(
                theta_star, alpha=spec.alpha, r=spec.r,
                sigma=spec.sigma, seed=[seed, 1],
            )
        else:
            params = init_random(
                g.n, alpha=spec.alpha, sigma=spec.sigma, seed=[seed, 1]
            )
        cfg = replace(spec.vmc, seed=seed)
        trace = run_vmc(g, cfg, params)
        rows.append(
            SeedResult(
                "nqs", seed, trace.best_energy, trace.best_cut_value,
                trace.wall_time_s, trace,
            )
        )
    return rows


def aggregate(rows: list[SeedResult]) -> SeedStats:
    """Mean/population-std/min of energy over one solver's seed rows."""
    if not rows:
        raise ValueError("no rows to aggregate")
    energies = np.array([r.energy for r in rows])
    per_seed = tuple(
        (r.seed, r.energy, r.cut_value, r.wall_time_s) for r in rows
    )
    return SeedStats(
        mean=float(energies.mean()),
        std=float(energies.std()),
        min=float(energies.min()),
        per_seed=per_seed,
    )


def _make_out_dir(spec: ExperimentSpec) -> Optional[Path]:
    """spec.out_dir, made (with its parents) before the first seed runs, so
    the OS rejects a bad directory up front; None when artifacts are off."""
    if spec.out_dir is None:
        return None
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_experiment(spec: ExperimentSpec) -> dict[str, SeedStats]:
    """Run every seed (optionally in parallel) and aggregate per solver.

    When spec.out_dir is set, it is made before the first seed runs; each
    seed's NQS trace CSV is written as soon as that seed finishes, so a
    failing seed keeps the traces of the seeds before it, and a stats CSV
    and a JSON summary follow the last seed. A worker process that dies
    raises ChildProcessError.
    """
    out = _make_out_dir(spec)
    rows: list[SeedResult] = []
    with ExitStack() as stack:
        if spec.workers == 1:
            results = map(run_seed, repeat(spec), spec.seeds)
        else:
            # imported here, so that `import rotorcut` does not load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=spec.workers))
            results = _pool_results(pool.map(run_seed, repeat(spec), spec.seeds), spec.seeds)
        for seed_rows in results:  # in seed order, each as it comes back
            rows += seed_rows
            for row in seed_rows:
                if out is not None and row.trace is not None:
                    write_trace_csv(
                        row.trace, out / f"trace_{row.solver}_seed{row.seed}.csv"
                    )

    stats = {
        solver: aggregate([r for r in rows if r.solver == solver])
        for solver in ("bmz", "nqs")
        if any(r.solver == solver for r in rows)
    }
    if out is not None:
        write_stats_csv(rows, out / f"{spec.label}_stats.csv")
        _write_summary_json(spec, stats, out / f"{spec.label}_summary.json")
    return stats


def _pool_results(results, seeds):
    """A pool's results for seeds; a dead worker process (BrokenExecutor) is
    re-raised as a ChildProcessError naming the first seed left without one."""
    from concurrent.futures import BrokenExecutor

    for seed in seeds:
        try:
            seed_rows = next(results)
        except BrokenExecutor as exc:
            raise ChildProcessError(
                f"a worker process died before seed {seed} returned its result"
            ) from exc
        yield seed_rows


def run_sweep(
    spec: ExperimentSpec, axis: str, values
) -> list[tuple[object, SeedStats]]:
    """One multi-seed NQS run per grid point along a single parameter axis.

    axis is a key of SWEEP_AXES. A point of a one-field axis is a scalar,
    and a point of "samp_warm" an (n_samp, n_warm) pair; entries are
    converted to the type of the VmcConfig field they set, so strings are
    accepted too; a non-integral value for an integer field is an error,
    not truncated. The table pairs each converted point with its statistics.
    When out_dir is set, it is made before the first point runs, and a
    min/mean/max table is written after the last.
    """
    if spec.solver != "nqs":
        raise ValueError("sweeps are defined for solver='nqs' only")
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    fields = SWEEP_AXES[axis]
    points = [_sweep_point(axis, value) for value in values]
    if not points:
        raise ValueError("sweep grid is empty")
    out = _make_out_dir(spec)

    table: list[tuple[object, SeedStats]] = []
    for point in points:
        cfg = replace(spec.vmc, **dict(zip(fields, point)))
        stats = run_experiment(replace(spec, vmc=cfg, out_dir=None))["nqs"]
        table.append((point if len(point) > 1 else point[0], stats))

    if out is not None:
        write_sweep_csv(axis, table, out / f"{spec.label}_sweep_{axis}.csv")
    return table


def _sweep_point(axis: str, value) -> tuple:
    """A grid point as a tuple with one typed entry per field of its axis."""
    fields = SWEEP_AXES[axis]
    entries = tuple(value) if np.ndim(value) else (value,)
    if len(entries) != len(fields):
        raise ValueError(
            f"sweep axis {axis!r} takes {len(fields)} value(s) per point "
            f"({':'.join(fields)}), got {len(entries)}: {value!r}"
        )
    point = []
    for name, entry in zip(fields, entries):
        integral = type(getattr(VmcConfig, name)) is int
        try:
            value = float(entry)
        except (TypeError, ValueError):
            value = None
        if value is None or (integral and not value.is_integer()):
            kind = "an integer" if integral else "a number"
            raise ValueError(f"sweep axis {axis!r}: {name} must be {kind}, got {entry!r}")
        point.append(int(value) if integral else value)
    return tuple(point)


def write_stats_csv(rows: list[SeedResult], path) -> None:
    """Per-seed table, sorted by (solver, seed).

    The wall_time_s column is the only non-deterministic field; strip it
    when comparing bodies across runs.
    """
    header = ("solver", "seed", "energy", "cut_value", "wall_time_s")
    rows = sorted(rows, key=lambda r: (r.solver, r.seed))
    _write_csv(path, header, ([getattr(r, name) for name in header] for r in rows))


def write_sweep_csv(axis: str, table, path) -> None:
    """min/mean/max of per-seed best energies at each grid point of
    run_sweep's table, one column per field of the axis."""
    rows = (
        (*(value if isinstance(value, tuple) else (value,)), s.min, s.mean, s.max)
        for value, s in table
    )
    _write_csv(path, SWEEP_AXES[axis] + ("min", "mean", "max"), rows)


def _write_summary_json(
    spec: ExperimentSpec, stats: dict[str, SeedStats], path
) -> None:
    # every setting by name; graph and vmc in a form of their own below, and
    # not where the artifacts go or how many processes ran the seeds
    own = ("graph", "vmc", "out_dir", "workers")
    payload = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name not in own}
    payload["graph"] = {name: getattr(spec.graph, name) for name in ("n", "m", "total_weight")}
    # each run's chain seeds from its entry of "seeds", not from vmc.seed
    payload["vmc_config"] = {k: v for k, v in asdict(spec.vmc).items() if k != "seed"}
    payload["stats"] = {solver: asdict(s) for solver, s in stats.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
