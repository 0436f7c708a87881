"""Command-line front end: gen-graph, bruteforce, run, sweep."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .experiments import (
    INIT_MODES,
    SOLVERS,
    SWEEP_AXES,
    ExperimentSpec,
    run_experiment,
    run_sweep,
)
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
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _parse_grid(text: str) -> list[tuple]:
    """--values as grid points: ","-separated points of ":"-separated
    numbers, each an int if int() reads it and a float otherwise."""
    def number(token: str):
        try:
            return int(token)
        except ValueError:
            return float(token)
    try:
        return [tuple(map(number, tok.split(":"))) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


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


def _settings(cls, args) -> dict:
    """The fields of dataclass cls that args holds: each flag's dest is the
    name of the setting it sets, and an absent flag is absent from args."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _spec_from_args(args) -> ExperimentSpec:
    settings = _settings(ExperimentSpec, args)
    settings["graph"] = _load_graph(args.graph)
    return ExperimentSpec(vmc=VmcConfig(**_settings(VmcConfig, args)), **settings)


def cmd_run(args) -> int:
    stats = run_experiment(_spec_from_args(args))
    for solver, s in sorted(stats.items()):
        print(f"{solver}: mean={s.mean:.6f} std={s.std:.6f} min={s.min:.6f}")
        for seed, energy, cut, wall in s.per_seed:
            print(f"  seed={seed} energy={energy:.6f} cut={cut:g} wall={wall:.2f}s")
    return 0


def cmd_sweep(args) -> int:
    table = run_sweep(_spec_from_args(args), args.axis, args.values)
    for value, s in table:
        print(f"{value}: min={s.min:.6f} mean={s.mean:.6f} max={s.max:.6f}")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    # no defaults: the subparser drops an absent flag, so its field keeps its own
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list")
    p.add_argument("--n-samp", type=int)
    p.add_argument("--n-warm", type=int)
    p.add_argument("--n-iter", type=int)
    p.add_argument("--lambda-reg", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--step", dest="proposal_step", type=float,
                   help="Metropolis proposal half-width (radians)")
    p.add_argument("--init", choices=INIT_MODES)
    p.add_argument("--r", type=float, help="visible-bias radius for pretrained init")
    p.add_argument("--sigma", type=float, help="stddev of random parameter init")
    p.add_argument("--workers", type=int)
    p.add_argument("--label")
    p.add_argument("--out", dest="out_dir", help="artifact directory")


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

    p = sub.add_parser("run", help="multi-seed solver run with statistics",
                       argument_default=argparse.SUPPRESS)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="parameter sweep (one axis) over seeds",
                       argument_default=argparse.SUPPRESS)
    _add_solver_flags(p)
    p.add_argument("--axis", choices=tuple(SWEEP_AXES), required=True)
    p.add_argument("--values", type=_parse_grid, required=True,
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
