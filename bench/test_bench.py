"""Tests of the benchmark's own checks and tracer.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py

Every check must pass on real solver output and reject the same output
once it is deliberately corrupted.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import rotorcut as rc  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import SUITE_OPTIMA, named_graphs  # noqa: E402


@pytest.fixture(scope="module")
def bmz_solve():
    g = rc.generate_graph(30, 120, weight_mode="unit", seed=5)
    theta0 = rc.random_start(g.n, seed=1)
    theta, energy, _ = rc.bmz_minimize(g, theta0)
    cut, x = rc.procedure_cut(g, theta)
    return g, checks.edge_table(g.edges), theta0, theta, energy, cut, x


@pytest.fixture(scope="module")
def nqs_solve():
    g = named_graphs(rc)["C5"]
    cfg = rc.VmcConfig(n_samp=20, n_iter=15, lambda_reg=1e-9, seed=3)
    trace = rc.run_vmc(g, cfg, rc.init_random(g.n, seed=[3, 1]))
    return g, checks.edge_table(g.edges), trace


def test_checks_pass_on_real_output(bmz_solve, nqs_solve):
    g, t, theta0, theta, energy, cut, x = bmz_solve
    checks.check_assignment(x, g.n)
    checks.check_cut_value(t, x, cut)
    checks.check_cut_above_average(t, theta, cut)
    checks.check_energy(t, theta, energy)
    checks.check_descent(t, theta0, energy)
    checks.check_stationary(t, g.n, theta)

    g, t, tr = nqs_solve
    checks.check_assignment(tr.best_cut_assignment, g.n)
    checks.check_cut_value(t, tr.best_cut_assignment, tr.best_cut_value)
    checks.check_cut_above_average(t, tr.best_theta, tr.best_cut_value)
    checks.check_energy(t, tr.best_theta, tr.best_energy)
    checks.check_trace(tr.e_mean, tr.accept_rate, tr.residual, tr.min_e_loc, tr.best_energy)
    checks.check_at_most_optimum(tr.best_cut_value, SUITE_OPTIMA["C5"])


def test_assignment_rejects_bad_vectors(bmz_solve):
    g, *_, x = bmz_solve
    with pytest.raises(CheckFailed):
        checks.check_assignment(x[:-1], g.n)
    for bad in (0, 2):
        y = x.copy()
        y[3] = bad
        with pytest.raises(CheckFailed):
            checks.check_assignment(y, g.n)


def test_cut_value_rejects_wrong_total(bmz_solve):
    _, t, _, _, _, cut, x = bmz_solve
    with pytest.raises(CheckFailed):
        checks.check_cut_value(t, x, cut + 1.0)
    y = x.copy()
    y[0] = -y[0]  # vertex 0 has edges, so its side changes the cut
    with pytest.raises(CheckFailed):
        checks.check_cut_value(t, y, cut)


def test_split_average_rejects_low_cut(bmz_solve):
    _, t, _, theta, _, cut, _ = bmz_solve
    with pytest.raises(CheckFailed):
        checks.check_cut_above_average(t, theta, 0.5 * cut)


def test_energy_rejects_mismatch(bmz_solve):
    _, t, _, theta, energy, _, _ = bmz_solve
    with pytest.raises(CheckFailed):
        checks.check_energy(t, theta, energy + 1e-3)
    with pytest.raises(CheckFailed):
        checks.check_energy(t, theta + 0.1 * np.arange(theta.size), energy)


@pytest.mark.parametrize("column", ["e_mean", "accept_rate", "residual", "min_e_loc"])
def test_trace_rejects_non_finite(nqs_solve, column):
    _, _, tr = nqs_solve
    cols = {c: np.array(getattr(tr, c), dtype=float) for c in
            ("e_mean", "accept_rate", "residual", "min_e_loc")}
    cols[column][2] = np.nan
    with pytest.raises(CheckFailed):
        checks.check_trace(**cols, best_energy=tr.best_energy)


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_trace_rejects_rate_outside_unit_interval(nqs_solve, rate):
    _, _, tr = nqs_solve
    rates = tr.accept_rate.copy()
    rates[0] = rate
    with pytest.raises(CheckFailed):
        checks.check_trace(tr.e_mean, rates, tr.residual, tr.min_e_loc, tr.best_energy)


def test_trace_rejects_best_energy_not_minimum(nqs_solve):
    _, _, tr = nqs_solve
    with pytest.raises(CheckFailed):
        checks.check_trace(
            tr.e_mean, tr.accept_rate, tr.residual, tr.min_e_loc, tr.best_energy + 1.0
        )


def test_optimum_rejects_impossible_cut():
    with pytest.raises(CheckFailed):
        checks.check_at_most_optimum(SUITE_OPTIMA["C5"] + 1.0, SUITE_OPTIMA["C5"])


def test_descent_rejects_rise(bmz_solve):
    _, t, theta0, _, _, _, _ = bmz_solve
    start = checks.rotor_energy(t, theta0)
    with pytest.raises(CheckFailed):
        checks.check_descent(t, theta0, start + 1.0)


def test_stationary_rejects_moved_angles(bmz_solve):
    g, t, _, theta, _, _, _ = bmz_solve
    moved = theta.copy()
    moved[0] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_stationary(t, g.n, moved)


def test_suite_optima_match_brute_force():
    for name, g in named_graphs(rc).items():
        assert rc.brute_force_max_cut(g)[0] == SUITE_OPTIMA[name], name


def test_tracer_wraps_every_binding_and_restores():
    originals = (rc.log_psi, rc.rbm.log_psi, rc.vmc.log_psi, rc.RbmParams.unpack)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rc.rbm.log_psi is rc.vmc.log_psi is rc.log_psi
        assert rc.rbm.log_psi is not originals[1]
        g = named_graphs(rc)["K3"]
        with tracer.root("round"):
            rc.run_vmc(g, rc.VmcConfig(n_samp=4, n_iter=3, seed=0), rc.init_random(3, seed=0))
    finally:
        tracer.uninstall()
    assert (rc.log_psi, rc.rbm.log_psi, rc.vmc.log_psi) == originals[:3]
    assert rc.RbmParams.unpack == originals[3]
    assert not tracer.missing

    (table,) = tracer.per_root("round")
    spans = table.spans
    assert spans["vmc.mh_step"][1] == 12
    assert spans["rbm.log_psi"][1] == 13  # chain_init, then one per step
    assert spans["vmc.sr_iteration"][1] == 3
    assert spans["rbm.RbmParams.unpack"][1] == 3
    assert spans["bmz.procedure_cut"][1] == 1 and table.peak_bytes > 0
    name, parent, start, end = tracer.arrays()
    root_total = end[0] - start[0]
    self_total = sum(v[0] for v in spans.values())
    assert self_total == pytest.approx(root_total, rel=1e-9)


def test_tracer_reports_a_deleted_function_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("vmc", "no_such_solver"),))
    spec = ("s", "self", ["vmc.no_such_solver", "vmc.apply_metric"])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"vmc.no_such_solver"}
    table = tracing.RootTable({"vmc.apply_metric": (1.0, 1)}, 0)
    assert tracing.span_metric([table], spec, tracer.missing) is None
    assert tracing.span_metric([table], spec, set()) == 1.0
