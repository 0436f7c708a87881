import tracemalloc

import numpy as np
import pytest

from rotorcut import (
    BmzConfig,
    Graph,
    bmz_minimize,
    brute_force_max_cut,
    cost,
    cost_gradient,
    cut_value,
    generate_graph,
    procedure_cut,
    random_start,
)
from oracles import dense_procedure_cut

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


def test_config_validation():
    with pytest.raises(ValueError):
        BmzConfig(max_iters=0)
    with pytest.raises(ValueError):
        BmzConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        BmzConfig(tr_radius_init=0.0)
    with pytest.raises(ValueError):
        BmzConfig(accept_ratio_lo=0.8, accept_ratio_hi=0.3)


def test_shape_mismatch(k3):
    with pytest.raises(ValueError):
        bmz_minimize(k3, np.zeros(4))


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
