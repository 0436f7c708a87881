import re
import tracemalloc

import numpy as np
import pytest

import rotorcut.bmz
import rotorcut.objective
from rotorcut import (
    Graph,
    bmz_minimize,
    brute_force_max_cut,
    cost,
    cost_gradient,
    cost_hessian,
    cut_value,
    generate_graph,
    procedure_cut,
    random_start,
)
from oracles import (
    dense_procedure_cut,
    former_steihaug_cg,
    hessian_every_iteration_bmz,
)

# rotor minima with closed forms: complete graphs give (|sum of unit
# vectors|^2 - n)/2 >= -n/2 for odd frustration, cycles of odd length n
# give -n*cos(pi/n), bipartite graphs reach -total_weight
K3_MIN = -1.5
K4_MIN = -2.0
C5_MIN = -5.0 * np.cos(np.pi / 5.0)


def test_k3_minimum(k3):
    theta, energy, iters = bmz_minimize(k3, random_start(3, seed=0))
    assert energy == pytest.approx(K3_MIN, abs=1e-9)
    assert iters <= 500
    assert np.max(np.abs(cost_gradient(k3, theta))) <= 1e-6


def test_k4_minimum(k4):
    _, energy, _ = bmz_minimize(k4, random_start(4, seed=1))
    assert energy == pytest.approx(K4_MIN, abs=1e-9)


def test_c5_minimum(c5):
    _, energy, _ = bmz_minimize(c5, random_start(5, seed=2))
    assert energy == pytest.approx(C5_MIN, abs=1e-9)


def test_bipartite_minima(small_suite):
    for name in ("C4", "C6", "K33", "Q3"):
        g = small_suite[name]
        best = min(
            bmz_minimize(g, random_start(g.n, seed=s))[1] for s in range(5)
        )
        assert best == pytest.approx(-g.total_weight, abs=1e-8), name


def test_monotone_energy_trace():
    g = generate_graph(15, 40, weight_mode=(0.0, 15.0), seed=9)
    energies = []
    bmz_minimize(g, random_start(15, seed=3), callback=lambda _, e: energies.append(e))
    assert len(energies) >= 2
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_gradient_at_termination():
    for seed in range(5):
        g = generate_graph(12, 30, weight_mode=(0.0, 15.0), seed=seed)
        theta, _, _ = bmz_minimize(g, random_start(12, seed=seed))
        assert np.max(np.abs(cost_gradient(g, theta))) <= 1e-6


def test_deterministic():
    g = generate_graph(10, 20, weight_mode=(0.0, 15.0), seed=4)
    theta0 = random_start(10, seed=5)
    a = bmz_minimize(g, theta0)
    b = bmz_minimize(g, theta0)
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1] and a[2] == b[2]


def test_starts_at_stationary_point(k3):
    # theta = 0 is a stationary maximum; the solver must stop cleanly there
    theta, energy, iters = bmz_minimize(k3, np.zeros(3))
    assert iters == 0
    assert energy == pytest.approx(3.0)


def test_output_wrapped():
    g = generate_graph(8, 15, weight_mode=(0.0, 15.0), seed=6)
    theta, _, _ = bmz_minimize(g, random_start(8, seed=7))
    assert np.all(theta >= 0.0) and np.all(theta < 2.0 * np.pi)


def test_shape_mismatch(k3):
    with pytest.raises(ValueError):
        bmz_minimize(k3, np.zeros(4))


def assert_matches_reference_loop(g, theta0):
    theta, energy, iters = bmz_minimize(g, theta0)
    ref_theta, ref_energy, ref_iters = hessian_every_iteration_bmz(g, theta0)
    np.testing.assert_array_equal(theta, ref_theta)
    assert energy == ref_energy and iters == ref_iters
    value, x = procedure_cut(g, theta)
    ref_value, ref_x = procedure_cut(g, ref_theta)
    assert value == ref_value
    np.testing.assert_array_equal(x, ref_x)


def test_matches_reference_loop_on_named_suite(small_suite):
    for g in small_suite.values():
        for seed in range(4):
            assert_matches_reference_loop(g, random_start(g.n, seed=seed))


def test_matches_reference_loop_on_random_graphs():
    rng = np.random.default_rng(30)
    for k in range(40):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, min(n * (n - 1) // 2, 6 * n) + 1))
        mode = "unit" if k % 2 else (0.0, 15.0)
        g = generate_graph(n, m, mode, int(rng.integers(1 << 30)))
        assert_matches_reference_loop(g, random_start(n, seed=int(rng.integers(1 << 30))))


def test_matches_reference_loop_on_bmz_sparse_graph():
    # both bmz-sparse shapes: G1-sized, and larger and six times sparser
    graphs = generate_graph(800, 19176, "unit", 0), generate_graph(2000, 8000, "unit", [0, 1])
    for g in graphs:
        for seed in range(2):
            assert_matches_reference_loop(g, random_start(g.n, seed=seed))


def bmz_cases(k3):
    """A stationary start and weighted starts that include rejected steps."""
    return [(k3, np.zeros(3))] + [
        (generate_graph(40, 200, (0.0, 15.0), seed), random_start(40, seed=seed))
        for seed in range(5)
    ]


def test_one_hessian_per_accepted_point(monkeypatch, k3):
    # at most one fill per accepted point, and only where a CG path is
    # built: a point the gradient test stops at (the stationary K3 start,
    # the last point of a converged solve) gets none
    fills = cg_runs = 0
    fill_hessian = rotorcut.bmz._fill_hessian
    steihaug_cg = rotorcut.bmz._steihaug_cg

    def counted_fill(*args):
        nonlocal fills
        fills += 1
        return fill_hessian(*args)

    def counted_cg(*args):
        nonlocal cg_runs
        cg_runs += 1
        return steihaug_cg(*args)

    monkeypatch.setattr(rotorcut.bmz, "_fill_hessian", counted_fill)
    monkeypatch.setattr(rotorcut.bmz, "_steihaug_cg", counted_cg)
    rejected = 0
    for g, theta0 in bmz_cases(k3):
        fills = cg_runs = 0
        points = []
        _, _, iters = bmz_minimize(g, theta0, callback=lambda t, e: points.append(e))
        assert fills == cg_runs
        assert fills <= len(points)
        if iters == 0:
            assert fills == 0
        else:
            assert fills >= len(points) - 1
        rejected += iters - (len(points) - 1)
    assert rejected > 0  # the cases include steps the old loop re-assembled for


def test_one_krylov_path_per_point(monkeypatch, k3):
    # log: m = a trial model, p = an accepted point (the start first),
    # h = a Hessian fill, c = a CG run; every point an iteration starts
    # from fills the Hessian and runs CG once, before its first trial, and
    # rejected steps reuse both; a point the gradient test stops at, such
    # as the stationary start, gets neither
    log = []
    fill_hessian = rotorcut.bmz._fill_hessian
    steihaug_cg = rotorcut.bmz._steihaug_cg
    cartesian = rotorcut.bmz._cartesian

    def counted(tag, fn):
        def wrapper(*args):
            log.append(tag)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(rotorcut.bmz, "_fill_hessian", counted("h", fill_hessian))
    monkeypatch.setattr(rotorcut.bmz, "_steihaug_cg", counted("c", steihaug_cg))
    monkeypatch.setattr(rotorcut.bmz, "_cartesian", counted("m", cartesian))
    rejected = 0
    for g, theta0 in bmz_cases(k3):
        log.clear()
        _, _, iters = bmz_minimize(g, theta0, callback=lambda t, e: log.append("p"))
        first, *per_point = "".join(log).split("p")
        assert first == "m"
        assert all(re.fullmatch("(hcm+)?", s) for s in per_point)
        rejected += iters - (len(per_point) - 1)
    assert rejected > 0


def exit_kind(path, radius):
    """How CG ends at this radius: curvature, boundary or interior."""
    steps, _ = path
    for _, _, reach in steps:
        if reach >= radius:
            return "curvature" if reach == np.inf else "boundary"
    return "interior"


def test_replayed_step_equals_fresh_cg(k3):
    # points from real solves, plus one near the maximum theta = 0 of K3,
    # where the Hessian is negative definite on the gradient
    cases = [(k3, np.array([0.0, 1e-3, -2e-3]))]
    big = generate_graph(800, 19176, "unit", 0)
    for g, theta0 in bmz_cases(k3) + [(big, random_start(big.n, seed=0))]:
        points = []
        bmz_minimize(g, theta0, callback=lambda t, e: points.append(t))
        cases += [(g, t) for t in points[:: 1 + len(points) // 12]]
    seen = set()
    for g, theta in cases:
        grad, hess = cost_gradient(g, theta), cost_hessian(g, theta)
        for built in (rotorcut.bmz._RADIUS_INIT, rotorcut.bmz._RADIUS_MAX):
            path = rotorcut.bmz._steihaug_cg(grad, hess, built)
            # also at each iterate's own norm, where the exit test is a tie
            reaches = [r for _, _, r in path[0] if r < built]
            for radius in [built / 4.0**j for j in range(21)] + reaches:
                step = rotorcut.bmz._path_step(path, radius)
                np.testing.assert_array_equal(
                    step, former_steihaug_cg(grad, hess, radius)
                )
                seen.add(exit_kind(path, radius))
    assert seen == {"curvature", "boundary", "interior"}


def test_replayed_step_at_the_iteration_cap():
    # a symmetric positive definite Hessian meets the forcing tolerance in
    # at most n CG steps in exact arithmetic, so the 2n cap is a guard;
    # a rotation-like operator has d.H.d = |d|^2 > 0 on every direction
    # yet keeps the residual from shrinking, and a wide region lets the
    # walk reach the cap
    grad = np.array([1.0, 0.0])
    hess = np.array([[1.0, -10.0], [10.0, 1.0]])
    built = 8.0
    path = rotorcut.bmz._steihaug_cg(grad, hess, built)
    steps, end = path
    assert len(steps) == 2 * grad.size and end is not None
    assert all(reach < built for _, _, reach in steps)
    # the residual at the end point never met the tolerance 0.5*||g||
    assert np.linalg.norm(grad + hess @ end) > 0.5
    for j in range(21):
        radius = built / 4.0**j
        np.testing.assert_array_equal(
            rotorcut.bmz._path_step(path, radius), former_steihaug_cg(grad, hess, radius)
        )


def test_one_model_per_trial_point(monkeypatch, k3):
    # the start, one trial point per iteration, and the final cost at the
    # wrapped angles; the gradient and Hessian reuse the trial point's model
    models = 0
    cartesian = rotorcut.objective._cartesian

    def counted(*args, **kwargs):
        nonlocal models
        models += 1
        return cartesian(*args, **kwargs)

    monkeypatch.setattr(rotorcut.objective, "_cartesian", counted)
    monkeypatch.setattr(rotorcut.bmz, "_cartesian", counted)
    for g, theta0 in bmz_cases(k3):
        models = 0
        _, _, iters = bmz_minimize(g, theta0)
        assert models == iters + 2


def test_minimize_leaves_adjacency_unchanged():
    g = generate_graph(40, 200, (0.0, 15.0), 3)
    a = g.adjacency
    before = [x.copy() for x in (a.data, a.indices, a.indptr)]
    bmz_minimize(g, random_start(g.n, seed=3))
    assert g.adjacency is a
    for x, y in zip(before, (a.data, a.indices, a.indptr)):
        np.testing.assert_array_equal(x, y)
    h1 = cost_hessian(g, random_start(g.n, seed=4))
    h2 = cost_hessian(g, random_start(g.n, seed=5))
    for field in ("data", "indices", "indptr"):
        for x, y in ((h1, h2), (h1, a), (h2, a)):
            assert not np.shares_memory(getattr(x, field), getattr(y, field)), field


def test_random_start_deterministic():
    np.testing.assert_array_equal(random_start(6, seed=11), random_start(6, seed=11))
    theta = random_start(100, seed=12)
    assert np.all(theta >= 0.0) and np.all(theta < 2.0 * np.pi)


def test_procedure_cut_ideal_bipartition(c4):
    value, x = procedure_cut(c4, np.array([0.0, np.pi, 0.0, np.pi]))
    assert value == 4.0
    assert cut_value(c4, x) == value


def test_procedure_cut_k3_spread(k3):
    value, x = procedure_cut(k3, np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]))
    assert value == 2.0
    assert abs(int(x.sum())) == 1


def test_procedure_cut_rotation_invariant():
    g = generate_graph(9, 18, weight_mode=(0.0, 15.0), seed=8)
    theta = random_start(9, seed=9)
    base, _ = procedure_cut(g, theta)
    for shift in (0.7, 2.9, 5.1):
        rotated, _ = procedure_cut(g, np.mod(theta + shift, 2 * np.pi))
        assert rotated == pytest.approx(base, abs=1e-12)


def test_best_of_starts_reaches_optimum(small_suite):
    for name in ("K3", "C5", "K33"):
        g = small_suite[name]
        opt, _ = brute_force_max_cut(g)
        best = max(
            procedure_cut(g, bmz_minimize(g, random_start(g.n, seed=s))[0])[0]
            for s in range(5)
        )
        assert best == opt, name


def assert_same_cut(g, theta):
    value, x = procedure_cut(g, theta)
    ref_value, ref_x = dense_procedure_cut(g, theta)
    assert value == ref_value
    np.testing.assert_array_equal(x, ref_x)
    assert x.dtype == ref_x.dtype


def unit_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        yield generate_graph(n, m, "unit", int(rng.integers(1 << 30))), rng


def test_procedure_cut_matches_dense_on_random_unit_graphs():
    for g, rng in unit_instances(60, seed=20):
        assert_same_cut(g, rng.uniform(0.0, 2.0 * np.pi, g.n))
        theta0 = random_start(g.n, seed=int(rng.integers(1 << 30)))
        assert_same_cut(g, theta0)
        assert_same_cut(g, bmz_minimize(g, theta0)[0])


def test_procedure_cut_matches_dense_on_named_and_degenerate_graphs(small_suite):
    graphs = list(small_suite.values()) + [
        Graph(2, ((0, 1, 1.0),)),
        Graph(2, ()),
        Graph(7, ()),
    ]
    for g in graphs:
        for seed in range(4):
            theta0 = random_start(g.n, seed=seed)
            assert_same_cut(g, theta0)
            assert_same_cut(g, bmz_minimize(g, theta0)[0])


def test_procedure_cut_matches_dense_on_structured_angles():
    rng = np.random.default_rng(21)
    for g, _ in unit_instances(40, seed=22):
        n = g.n
        base = rng.uniform(0.0, 2.0 * np.pi)
        for theta in (
            rng.integers(-8, 16, n) * (np.pi / 4),
            rng.integers(-6, 12, n) * (np.pi / 3),
            rng.choice(rng.uniform(0.0, 2.0 * np.pi, 3), n),  # repeated angles
            np.full(n, base),                                 # all equal
            base + np.pi * rng.integers(0, 2, n),             # offsets of exactly pi
            rng.choice([0.0, np.pi, -1e-17, 1e-300, 2.0 * np.pi], n),
        ):
            assert_same_cut(g, theta)


def test_procedure_cut_real_weights_match_dense():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = generate_graph(n, m, (0.0, 15.0), int(rng.integers(1 << 30)))
        for theta in (
            rng.uniform(0.0, 2.0 * np.pi, n),
            bmz_minimize(g, random_start(n, seed=int(rng.integers(1 << 30))))[0],
        ):
            value, x = procedure_cut(g, theta)
            ref_value, _ = dense_procedure_cut(g, theta)
            assert abs(value - ref_value) <= 1e-9 * g.total_weight
            assert cut_value(g, x) == value


def traced_peak_mb(g, theta):
    g.edge_arrays  # cached per graph; not part of one call's footprint
    tracemalloc.start()
    try:
        result = procedure_cut(g, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_procedure_cut_memory_is_linear():
    # the dense rounding peaked at 427 MB here (n x m label products)
    g = generate_graph(2000, 8000, "unit", 1)
    (value, x), peak_mb = traced_peak_mb(g, random_start(g.n, seed=0))
    assert peak_mb < 16.0
    assert cut_value(g, x) == value


def test_procedure_cut_scales_to_large_sparse_graph():
    # each n x m array of the dense rounding would take 4 GB here
    g = generate_graph(10_000, 50_000, "unit", 2)
    theta = random_start(g.n, seed=3)
    (value, x), peak_mb = traced_peak_mb(g, theta)
    assert peak_mb < 32.0
    assert cut_value(g, x) == value
    # no worse than the average over split lines, sum w_ij * d_ij / pi
    ii, jj, ww = g.edge_arrays
    d = np.abs(np.mod(theta[ii] - theta[jj] + np.pi, 2.0 * np.pi) - np.pi)
    assert value >= float(ww @ d) / np.pi


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_rejected(k4, bad):
    theta = np.array([0.1, bad, 2.0, 4.0])
    with pytest.raises(ValueError, match="finite"):
        procedure_cut(k4, theta)
    with pytest.raises(ValueError, match="finite"):
        bmz_minimize(k4, theta)
