"""Max-Cut via planar rotor relaxation.

Two solvers over the same rank-2 rotor objective: a deterministic
trust-region minimizer (BMZ) and a rotor-RBM variational Monte Carlo with
stochastic reconfiguration, plus Procedure-Cut rounding back to a binary
cut and a brute-force oracle for certification on small graphs.
"""

from .bmz import bmz_minimize, procedure_cut, random_start
from .experiments import ExperimentSpec, SeedStats, run_experiment, run_sweep
from .graph import (
    Graph,
    GraphFormatError,
    brute_force_max_cut,
    cut_value,
    generate_graph,
    parse_edge_list,
    serialize_edge_list,
)
from .objective import cost, cost_gradient, cost_hessian, wrap_angles
from .rbm import (
    RbmParams,
    init_pretrained,
    init_random,
    load_params,
    log_derivatives,
    log_psi,
    save_params,
)
from .vmc import RunTrace, VmcConfig, run_vmc, write_trace_csv

__all__ = [
    "ExperimentSpec",
    "Graph",
    "GraphFormatError",
    "RbmParams",
    "RunTrace",
    "SeedStats",
    "VmcConfig",
    "bmz_minimize",
    "brute_force_max_cut",
    "cost",
    "cost_gradient",
    "cost_hessian",
    "cut_value",
    "generate_graph",
    "init_pretrained",
    "init_random",
    "load_params",
    "log_derivatives",
    "log_psi",
    "parse_edge_list",
    "procedure_cut",
    "random_start",
    "run_experiment",
    "run_sweep",
    "run_vmc",
    "save_params",
    "serialize_edge_list",
    "wrap_angles",
    "write_trace_csv",
]

__version__ = "0.1.0"
