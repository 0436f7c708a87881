import os
import re
import subprocess
import sys
from pathlib import Path

import rotorcut

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "ExperimentSpec", "Graph", "GraphFormatError", "RbmParams",
    "RunTrace", "SeedStats", "VmcConfig",
    "bmz_minimize", "procedure_cut", "random_start",
    "run_experiment", "run_sweep",
    "brute_force_max_cut", "cut_value", "generate_graph", "parse_edge_list",
    "serialize_edge_list",
    "cost", "cost_gradient", "cost_hessian", "wrap_angles",
    "init_pretrained", "init_random", "load_params", "log_derivatives",
    "log_psi", "save_params",
    "run_vmc", "write_trace_csv",
}


def test_public_surface_is_pinned():
    # a helper added to __init__.py must be added here on purpose
    assert len(rotorcut.__all__) == len(PUBLIC) == 29
    assert set(rotorcut.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rotorcut, name).__module__.startswith("rotorcut."), name
    # the README's Library example imports only public names
    block = README.read_text().split("## Library", 1)[1]
    imported = re.search(r"from rotorcut import \(([^)]*)\)", block).group(1)
    names = {tok.strip() for tok in imported.split(",") if tok.strip()}
    assert names and names <= PUBLIC, names - PUBLIC


def test_import_does_not_load_scipy_solvers():
    # only minres_solve, which the package never calls, uses scipy.sparse.linalg
    src = Path(rotorcut.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, rotorcut; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
