"""Max-Cut via planar rotor relaxation.

Two solvers over the same rank-2 rotor objective: a deterministic
trust-region minimizer (BMZ) and a rotor-RBM variational Monte Carlo with
stochastic reconfiguration, plus Procedure-Cut rounding back to a binary
cut and a brute-force oracle for certification on small graphs.
"""

from .bmz import BmzConfig, bmz_minimize, procedure_cut, random_start
from .experiments import (
    ExperimentSpec,
    SeedStats,
    aggregate,
    run_experiment,
    run_seed,
    run_sweep,
)
from .graph import (
    Graph,
    GraphFormatError,
    brute_force_max_cut,
    cut_value,
    generate_graph,
    parse_edge_list,
    serialize_edge_list,
)
from .objective import (
    cost,
    cost_gradient,
    cost_hessian,
    wrap_angles,
)
from .rbm import (
    RbmParams,
    bessel_ratio,
    init_pretrained,
    init_random,
    load_params,
    log_bessel_i0,
    log_derivatives,
    log_psi,
    save_params,
    visible_vectors,
)
from .vmc import (
    ChainState,
    RunTrace,
    SrBatch,
    VmcConfig,
    apply_metric,
    chain_init,
    estimate_forces,
    mh_step,
    minres_solve,
    run_vmc,
    sample_batch,
    sr_iteration,
    trace_summary,
    write_trace_csv,
)

__all__ = [
    "BmzConfig",
    "ChainState",
    "ExperimentSpec",
    "Graph",
    "GraphFormatError",
    "RbmParams",
    "RunTrace",
    "SeedStats",
    "SrBatch",
    "VmcConfig",
    "aggregate",
    "apply_metric",
    "bessel_ratio",
    "bmz_minimize",
    "brute_force_max_cut",
    "chain_init",
    "cost",
    "cost_gradient",
    "cost_hessian",
    "cut_value",
    "estimate_forces",
    "generate_graph",
    "init_pretrained",
    "init_random",
    "load_params",
    "log_bessel_i0",
    "log_derivatives",
    "log_psi",
    "mh_step",
    "minres_solve",
    "parse_edge_list",
    "procedure_cut",
    "random_start",
    "run_experiment",
    "run_seed",
    "run_sweep",
    "run_vmc",
    "sample_batch",
    "save_params",
    "serialize_edge_list",
    "sr_iteration",
    "trace_summary",
    "visible_vectors",
    "wrap_angles",
    "write_trace_csv",
]

__version__ = "0.1.0"
