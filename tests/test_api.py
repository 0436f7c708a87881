import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rotorcut
from conftest import complete_graph
from rotorcut import (
    ExperimentSpec,
    GraphFormatError,
    VmcConfig,
    bmz_minimize,
    cost,
    cost_gradient,
    cost_hessian,
    generate_graph,
    init_pretrained,
    init_random,
    log_derivatives,
    log_psi,
    procedure_cut,
    random_start,
)

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "ExperimentSpec", "Graph", "GraphFormatError", "RbmParams",
    "RunTrace", "SeedStats", "VmcConfig",
    "bmz_minimize", "procedure_cut", "random_start",
    "run_experiment", "run_sweep",
    "brute_force_max_cut", "cut_value", "generate_graph", "parse_edge_list",
    "serialize_edge_list",
    "cost", "cost_gradient", "cost_hessian", "wrap_angles",
    "init_pretrained", "init_random", "log_derivatives", "log_psi",
    "run_vmc", "write_trace_csv",
}


def test_public_surface_is_pinned():
    # a helper added to __init__.py must be added here on purpose
    assert len(rotorcut.__all__) == len(PUBLIC) == 27
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


BMZ_ONLY = """
import sys
import numpy as np
import rotorcut as rc

g = rc.parse_edge_list(rc.serialize_edge_list(rc.generate_graph(60, 200, "unit", 0)))
theta, _, _ = rc.bmz_minimize(g, rc.random_start(g.n, seed=1))
rc.procedure_cut(g, theta)
rc.run_experiment(rc.ExperimentSpec(graph=g, solver="bmz", seeds=(0, 1)))
rc.brute_force_max_cut(rc.generate_graph(10, 20, "unit", 0))
unused = ("scipy.special", "concurrent.futures.process", "multiprocessing")
print(sorted(set(unused) & set(sys.modules)))
p, t = rc.init_random(6, seed=0), np.linspace(0.0, 6.0, 6)
value = rc.log_psi(p, t)
print("scipy.special" in sys.modules)
from oracles import former_log_psi
print(value == former_log_psi(p, t))
"""


def test_bmz_only_process_never_loads_bessel_or_process_pool():
    # a process that only parses, generates and runs BMZ does not import
    # scipy.special or the process pool; the first log psi loads the former
    tests = Path(__file__).resolve().parent
    src = Path(rotorcut.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    out = subprocess.run([sys.executable, "-c", BMZ_ONLY], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:3] == ["[]", "True", "True"]


K3 = complete_graph(3)

# (the setting, a call giving it a wrong-typed value, the error it must
# raise): each message starts with the setting's name. A spec fails when it
# is built, so a wrong-typed out_dir is caught before any seed runs.
BAD_SETTINGS = {
    "VmcConfig-lambda_reg": ("lambda_reg", lambda: VmcConfig(lambda_reg="1e-6"), ValueError),
    "VmcConfig-learning_rate": ("learning_rate", lambda: VmcConfig(learning_rate=None), ValueError),
    "ExperimentSpec-alpha": ("alpha", lambda: ExperimentSpec(graph=K3, alpha="1"), ValueError),
    "ExperimentSpec-sigma": ("sigma", lambda: ExperimentSpec(graph=K3, sigma=None), ValueError),
    "ExperimentSpec-graph": ("graph", lambda: ExperimentSpec(graph=None), ValueError),
    "ExperimentSpec-vmc": ("vmc", lambda: ExperimentSpec(graph=K3, vmc=None), ValueError),
    "ExperimentSpec-out_dir": ("out_dir", lambda: ExperimentSpec(graph=K3, out_dir=3), ValueError),
    "generate_graph-m_edges": (
        "m_edges", lambda: generate_graph(10, 5.0, "unit", 0), GraphFormatError
    ),
    "generate_graph-weight_mode": (
        "weight_mode", lambda: generate_graph(10, 5, (0, "x"), 0), GraphFormatError
    ),
    "init_random-n": ("n", lambda: init_random(3.5), ValueError),
    "init_random-alpha": ("alpha", lambda: init_random(4, alpha="1"), ValueError),
    "init_random-sigma": ("sigma", lambda: init_random(4, sigma="0.1"), ValueError),
    "init_pretrained-r": ("r", lambda: init_pretrained(np.zeros(4), r="1"), ValueError),
    "random_start-n": ("n", lambda: random_start(3.5, seed=0), ValueError),
}


@pytest.mark.parametrize("case", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_wrong_typed_setting_raises_named_error(case):
    name, call, error = case
    with pytest.raises(error, match=rf"^{name}\b"):
        call()


def test_real_settings_are_stored_as_floats(tmp_path):
    spec = ExperimentSpec(graph=K3, alpha=np.float32(2), r=1, out_dir=tmp_path)
    assert (spec.alpha, spec.r) == (2.0, 1.0)
    assert type(spec.alpha) is float and type(spec.r) is float
    # finite as an integer, but not as a double
    for field in ("lambda_reg", "learning_rate", "proposal_step"):
        with pytest.raises(ValueError, match=field):
            VmcConfig(**{field: 10**400})


P3 = init_random(3, seed=0)

# every public function that takes rotor angles, called on K3 (or a
# 3-visible RBM), and whether it also takes a (K, n) batch
ANGLE_ENTRIES = {
    "bmz_minimize": (lambda t: bmz_minimize(K3, t), False),
    "procedure_cut": (lambda t: procedure_cut(K3, t), False),
    "cost": (lambda t: cost(K3, t), True),
    "cost_gradient": (lambda t: cost_gradient(K3, t), False),
    "cost_hessian": (lambda t: cost_hessian(K3, t), False),
    "log_psi": (lambda t: log_psi(P3, t), False),
    "log_derivatives": (lambda t: log_derivatives(P3, t), True),
}


@pytest.mark.parametrize("entry", ANGLE_ENTRIES.values(), ids=ANGLE_ENTRIES.keys())
def test_angle_shape_checked_once_where_it_enters(entry):
    call, batched = entry
    need = r"\(3,\) or \(K, 3\)" if batched else r"\(3,\)"
    bad = [np.zeros(4), np.zeros(()), np.zeros((2, 4)), np.zeros((2, 2, 3))]
    if not batched:
        bad.append(np.zeros((2, 3)))  # a batch where one configuration is needed
    for theta in bad:
        message = rf"^rotor angles must have shape {need}, got {re.escape(str(theta.shape))}$"
        with pytest.raises(ValueError, match=message) as info:
            call(theta)
        # the one shape check in the package raised it
        assert info.traceback[-1].name == "_angles"
    if batched:
        thetas = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (5, 3))
        out = call(thetas)
        assert len(out) == 5
        for row, theta in zip(out, thetas):
            np.testing.assert_array_equal(row, call(theta))


@pytest.mark.parametrize(
    "entry",
    [*ANGLE_ENTRIES.values(), (lambda t: init_pretrained(t, seed=0), False)],
    ids=[*ANGLE_ENTRIES.keys(), "init_pretrained"],
)
def test_angle_dtype_checked_once_where_it_enters(entry):
    # only integer and float arrays are angles: a complex array is not
    # cast to its real part, nor strings parsed as numbers
    call, _ = entry
    bad = [np.full(3, 1j), ["0.5"] * 3, np.ones(3, dtype=bool),
           np.array([0.5, None, 1.0], dtype=object)]
    for theta in bad:
        dtype = np.asarray(theta).dtype
        message = rf"^rotor angles must be real numbers, got dtype {dtype}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message) as info:
                call(theta)
        assert info.traceback[-1].name == "_angles"
    for theta in (np.arange(3), np.arange(3, dtype=np.uint8), np.arange(3, dtype=np.float32)):
        call(theta)


def test_pretrained_angles_checked_where_they_enter():
    # theta* is one configuration, so any other shape fails in _angles,
    # which names the one-dimensional shape of the same size
    for theta, need in ((np.zeros((2, 3)), r"\(6,\)"), (np.zeros(()), r"\(1,\)")):
        message = rf"^rotor angles must have shape {need}, got {re.escape(str(theta.shape))}$"
        with pytest.raises(ValueError, match=message) as info:
            init_pretrained(theta)
        assert info.traceback[-1].name == "_angles"
    assert init_pretrained([0.0, 1.0, 2.0], seed=0).n == 3


def test_empty_batch_scores_to_empty_rows():
    # a (0, n) batch is a batch: cost gives (0,) and log_derivatives (0, P)
    empty = np.zeros((0, 3))
    assert cost(K3, empty).shape == (0,)
    assert log_derivatives(P3, empty).shape == (0, P3.n_params)
