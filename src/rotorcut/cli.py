"""Command-line front end: gen-graph, bruteforce, run, sweep."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bmz import BmzConfig
from .experiments import ExperimentSpec, run_experiment, run_sweep
from .graph import (
    brute_force_max_cut,
    generate_graph,
    parse_edge_list,
    serialize_edge_list,
)
from .vmc import VmcConfig


def _load_graph(path: str):
    return parse_edge_list(Path(path).read_text())


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def cmd_gen_graph(args) -> int:
    mode = "unit" if args.weights == "unit" else (args.lo, args.hi)
    g = generate_graph(args.n, args.m, weight_mode=mode, seed=args.seed)
    Path(args.out).write_text(serialize_edge_list(g))
    print(f"wrote {args.out}: n={g.n} m={g.m} total_weight={g.total_weight:g}")
    return 0


def cmd_bruteforce(args) -> int:
    g = _load_graph(args.graph)
    value, x = brute_force_max_cut(g)
    print(f"optimal cut value: {value!r}")
    print("assignment:", " ".join(f"{v:+d}" for v in x))
    return 0


def _spec_from_args(args) -> ExperimentSpec:
    vmc = VmcConfig(
        n_samp=args.n_samp,
        n_warm=args.n_warm,
        n_iter=args.n_iter,
        lambda_reg=args.lambda_reg,
        learning_rate=args.learning_rate,
        alpha=args.alpha,
        proposal_step=args.step,
    )
    bmz = BmzConfig(max_iters=args.max_iters, grad_tol=args.grad_tol)
    return ExperimentSpec(
        graph=_load_graph(args.graph),
        solver=args.solver,
        seeds=_parse_seeds(args.seeds),
        vmc=vmc,
        bmz=bmz,
        init=args.init,
        r=args.r,
        sigma=args.sigma,
        label=args.label,
        out_dir=args.out,
        workers=args.workers,
    )


def _print_stats(stats) -> None:
    for solver in sorted(stats):
        s = stats[solver]
        print(f"{solver}: mean={s.mean:.6f} std={s.std:.6f} min={s.min:.6f}")
        for seed, energy, cut, wall in s.per_seed:
            print(
                f"  seed={seed} energy={energy:.6f} cut={cut:g} "
                f"wall={wall:.2f}s"
            )


def cmd_run(args) -> int:
    stats = run_experiment(_spec_from_args(args))
    _print_stats(stats)
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    if args.axis == "samp_warm":
        values = [tuple(int(v) for v in tok.split(":")) for tok in args.values.split(",")]
    elif args.axis == "n_iter":
        values = [int(tok) for tok in args.values.split(",")]
    else:
        values = [float(tok) for tok in args.values.split(",")]
    table = run_sweep(spec, args.axis, values)
    for value, s in table:
        peak = max(e for _, e, _, _ in s.per_seed)
        print(f"{value}: min={s.min:.6f} mean={s.mean:.6f} max={peak:.6f}")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--solver", choices=("bmz", "nqs", "both"), default="nqs")
    p.add_argument("--seeds", default=",".join(str(s) for s in range(10)),
                   help="comma-separated seed list")
    p.add_argument("--n-samp", type=int, default=40)
    p.add_argument("--n-warm", type=int, default=0)
    p.add_argument("--n-iter", type=int, default=1000)
    p.add_argument("--lambda-reg", type=float, default=1e-6)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.3,
                   help="Metropolis proposal half-width (radians)")
    p.add_argument("--init", choices=("random", "pretrained"), default="random")
    p.add_argument("--r", type=float, default=1.0,
                   help="visible-bias radius for pretrained init")
    p.add_argument("--sigma", type=float, default=0.1,
                   help="stddev of random parameter init")
    p.add_argument("--max-iters", type=int, default=500,
                   help="BMZ trust-region iteration cap")
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--label", default="experiment")
    p.add_argument("--out", default=None, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorcut",
        description="Max-Cut via rotor relaxation: BMZ trust-region solver "
        "and rotor-RBM variational Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="write a random edge-list file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weights", choices=("unit", "random"), default="unit")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("bruteforce", help="exact Max-Cut by enumeration (n <= 24)")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("run", help="multi-seed solver run with statistics")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="parameter sweep (one axis) over seeds")
    _add_solver_flags(p)
    p.add_argument("--axis", choices=("n_iter", "samp_warm", "lambda_reg"),
                   required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated grid; samp_warm pairs as samp:warm")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
