"""Benchmark of rotorcut's two Max-Cut routes, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload nqs-g50 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0 --seconds 30      # every workload, both modes

One workload runs in this process, which imports rotorcut from the
checkout's ``src`` directory. It times set-up, then repeats identical
rounds of solves for ``--seconds`` and checks every solve's output with
the independent checks in ``checks.py``. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced rounds
with rounds in which every public layer function is wrapped
(``tracing.py``), and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
Without ``--workload`` it runs every workload in both modes, each in a
fresh process.
"""

import os

# one BLAS and OpenMP thread, set before numpy is imported here or in the
# child processes that inherit this environment
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the keys of workloads.WORKLOADS, named here so that parsing arguments
# imports nothing that set-up (which includes importing numpy) should time
WORKLOAD_NAMES = ("nqs-g50", "nqs-suite", "bmz-sparse")
# set-ups per run (this process and fresh interpreters); setup_s is the median
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def import_rotorcut():
    sys.path.insert(0, str(SRC))
    try:
        import rotorcut
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rotorcut from {SRC}: {exc}")
    if Path(rotorcut.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: rotorcut was imported from {rotorcut.__file__}, not {SRC}")
    return rotorcut


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    if not (HERE.parent / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE.parent,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pinned": {v: os.environ[v] for v in PINNED},
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


class Tally:
    """Attempted and failed solves, and whether repeated rounds agree."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference = None
        self.reproducible = True

    def add(self, rnd) -> None:
        signature = []
        for k, out in enumerate(rnd.outcomes):
            self.attempted += 1
            error = out if isinstance(out, BaseException) else None
            if error is None:
                try:
                    self.work.check(out)
                except Exception as exc:  # a check that cannot run also fails
                    error = exc
            if error is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"solve {k}: {type(error).__name__}: {error}")
                signature.append(None)
                continue
            rnd.passed.append(out)
            signature.append((out.cut, out.energy))
        if self.reference is None:
            self.reference = signature
        elif signature != self.reference:
            self.reproducible = False


def run_rounds(work, tally, budget_s, tracer=None, between=None) -> list:
    """Whole rounds until the next one would end past budget_s.

    With a tracer, rounds alternate untraced and traced (at least one of
    each), so that a drift in the machine's speed cancels out of the
    tracing overhead. between(), if given, runs after each round but the
    last; its time does not count against the budget.
    """
    rounds = []
    t_begin = time.perf_counter()
    paused = 0.0
    while True:
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.install()
            try:
                with tracer.root("round"):
                    rnd = work.round()
            finally:
                tracer.uninstall()
            rnd.traced = True
        else:
            rnd = work.round()
        tally.add(rnd)
        rounds.append(rnd)
        spent = time.perf_counter() - t_begin - paused
        enough = tracer is None or len(rounds) >= 2
        if enough and spent * (len(rounds) + 1) / len(rounds) > budget_s:
            return rounds
        if between is not None:
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0


def setup_in_child(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(setups, rounds) -> dict:
    metrics = {
        "setup_s": (median(setups), "s"),
        "run_s": (median(r.elapsed_s for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # optimizer time over optimizer iterations within a round: a median over
    # single solves would pick whichever unlike graph sits in the middle
    per_iter = [
        1e3 * sum(s.opt_s for s in r.passed) / sum(s.opt_iters for s in r.passed)
        for r in rounds if sum(s.opt_iters for s in r.passed) > 0
    ]
    if per_iter:
        metrics["iter_ms"] = (median(per_iter), "ms")
    if rounds[0].passed:
        metrics["best_cut"] = (fmean(s.cut for s in rounds[0].passed), "cut")
    return metrics


def layer_metrics(tracing, tracer, tables, work, plain, traced) -> dict:
    metrics = {}
    for name, spec in tracing.SPAN_METRICS.items():
        value = tracing.span_metric(tables, spec, tracer.missing)
        if value is not None:
            metrics[name] = (value, spec[0])
    setup_tables = tracer.per_root("setup")
    for name, spec in tracing.SETUP_METRICS.items():
        value = tracing.span_metric(setup_tables, spec, tracer.missing)
        if value is not None:
            metrics[name] = (value, spec[0])

    solves = [s for r in traced for s in r.passed]
    nqs = [s for s in solves if s.trace is not None]
    proposed = sum(s.n_samp * s.opt_iters for s in nqs)
    accepted = sum(float(s.trace.accept_rate.sum()) * s.n_samp for s in nqs)
    metrics["vmc.accept_rate"] = (accepted / proposed if proposed else 0.0, "ratio")
    residuals = [float(v) for s in nqs for v in s.trace.residual]
    metrics["vmc.sr_residual"] = (median(residuals) if residuals else 0.0, "norm")
    metrics["bmz.iters"] = (
        median(sum(s.opt_iters for s in r.passed if s.theta0 is not None) for r in traced),
        "count",
    )
    metrics["bmz.procedure_cut_peak_mb"] = (
        median(t.peak_bytes for t in tables) / 2**20, "MB",
    )
    metrics["graph.edges"] = (work.setup_edges, "count")
    metrics["experiments.artifact_bytes"] = (
        median(r.artifact_bytes for r in traced), "bytes",
    )
    traced_s = median(r.elapsed_s for r in traced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - median(r.elapsed_s for r in plain), "s")
    # share of each traced round spent inside some wrapped layer function
    metrics["trace.accounted_share"] = (
        median(1.0 - t.spans["round"][0] / sum(v[0] for v in t.spans.values())
               for t in tables),
        "ratio",
    )
    return metrics


def function_table(tables) -> dict:
    """Median self seconds and calls per wrapped function over traced rounds."""
    names = sorted({k for t in tables for k in t.spans})
    return {
        n: {
            "self_s": median(t.spans.get(n, (0.0, 0))[0] for t in tables),
            "calls": median(t.spans.get(n, (0.0, 0))[1] for t in tables),
        }
        for n in names
    }


def run_one(args) -> int:
    t_start = time.perf_counter()
    rc = import_rotorcut()
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        work = cls(rc, args.seed)
        elapsed = time.perf_counter() - t_start
        work.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        work = cls(rc, args.seed)
    else:
        tracer.install()
        with tracer.root("setup"):
            work = cls(rc, args.seed)
        tracer.uninstall()
    setups = [time.perf_counter() - t_start]

    tally = Tally(work)
    try:
        if tracer is None:
            # spread the set-ups over the run, so that one slow spell of a
            # shared machine does not hit them all
            def more_setups():
                if len(setups) < SETUP_REPEATS:
                    setups.append(setup_in_child(args))

            rounds = run_rounds(work, tally, args.seconds, between=more_setups)
            while len(setups) < SETUP_REPEATS:
                more_setups()
            metrics = end_to_end(setups, rounds)
        else:
            rounds = run_rounds(work, tally, args.seconds, tracer)
            plain = [r for r in rounds if not r.traced]
            traced = [r for r in rounds if r.traced]
            tables = tracer.per_root("round")
            metrics = layer_metrics(tracing, tracer, tables, work, plain, traced)
    finally:
        work.close()

    correct = tally.reproducible and any(r.passed for r in rounds)
    env = environment()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workloads.OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "round_s": [r.elapsed_s for r in rounds], "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env,
    }
    if tracer is not None:
        record["absent"] = sorted(tracer.missing)
        record["functions"] = function_table(tables)
        tracer.write(workloads.OUT_DIR / f"spans_{args.workload}.csv")
    (workloads.OUT_DIR / f"result_{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    for error in tally.errors:
        print(f"failed {error}", file=sys.stderr)
    if not tally.reproducible:
        print("repeated rounds returned different results", file=sys.stderr)
    if tracer is not None and tracer.missing:
        print(f"absent (function no longer exists): {sorted(tracer.missing)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {len(rounds)} rounds, {tally.attempted} solves, "
          f"{tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    summary = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S + 2 * args.seconds)
            sys.stdout.write(out.stdout[: out.stdout.rstrip().rfind("\n") + 1])
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                status = 1
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            summary.setdefault(workload, {})["traced" if trace else "untraced"] = result
            if not result["correct"] or result["failed"]:
                status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, each in a child)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
