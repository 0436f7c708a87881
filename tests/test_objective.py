import numpy as np
import pytest

from rotorcut import (
    cost,
    cost_gradient,
    cost_hessian,
    generate_graph,
    heisenberg_expectation,
    wrap_angles,
)
from oracles import fd_gradient, fd_hessian_column, rotor_cost, triplet_hessian


def random_instances(count, n_range=(3, 9), seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(*n_range))
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        g = generate_graph(n, m, weight_mode=(0.0, 15.0), seed=int(rng.integers(1 << 30)))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        out.append((g, theta))
    return out


def test_cost_aligned_and_antipodal(k3):
    assert cost(k3, np.zeros(3)) == pytest.approx(3.0)
    theta = np.array([0.0, np.pi, 0.0])
    assert cost(k3, theta) == pytest.approx(-1.0)


def test_cost_matches_reference():
    for g, theta in random_instances(10, seed=3):
        assert cost(g, theta) == pytest.approx(rotor_cost(g.edges, theta), rel=1e-12)


def test_cost_invariant_under_global_rotation():
    for g, theta in random_instances(5, seed=4):
        shift = 1.2345
        assert cost(g, theta + shift) == pytest.approx(cost(g, theta), rel=1e-12)


def test_gradient_matches_finite_differences():
    for g, theta in random_instances(10, seed=5):
        grad = cost_gradient(g, theta)
        ref = fd_gradient(lambda t: cost(g, t), theta)
        np.testing.assert_allclose(grad, ref, rtol=1e-6, atol=1e-7)


def test_hessian_matches_finite_differences():
    for g, theta in random_instances(6, seed=6):
        hess = cost_hessian(g, theta).toarray()
        for k in range(g.n):
            ref = fd_hessian_column(lambda t: cost_gradient(g, t), theta, k)
            np.testing.assert_allclose(hess[:, k], ref, rtol=1e-5, atol=1e-6)


def test_hessian_matches_triplet_assembly():
    cases = random_instances(10, n_range=(2, 30), seed=8)
    cases.append((generate_graph(5, 0, "unit", 0), np.arange(5.0)))
    for g, theta in cases:
        hess = cost_hessian(g, theta)
        ref = triplet_hessian(g, theta).tocsr()
        for field in ("indptr", "indices", "data"):
            got, want = getattr(hess, field), getattr(ref, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)


def test_hessian_symmetric():
    for g, theta in random_instances(6, seed=7):
        hess = cost_hessian(g, theta).toarray()
        np.testing.assert_allclose(hess, hess.T, atol=1e-14)


def test_heisenberg_expectation_equals_cost():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = generate_graph(n, m, weight_mode=(0.0, 15.0), seed=int(rng.integers(1 << 30)))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        assert heisenberg_expectation(g, theta) == pytest.approx(
            cost(g, theta), abs=1e-10
        )


def test_heisenberg_size_guard():
    g = generate_graph(11, 12, weight_mode="unit", seed=0)
    with pytest.raises(ValueError, match="10"):
        heisenberg_expectation(g, np.zeros(11))


def test_wrap_angles():
    theta = np.array([-0.5, 7.0, 2.0 * np.pi])
    wrapped = wrap_angles(theta)
    assert np.all(wrapped >= 0.0)
    assert np.all(wrapped < 2.0 * np.pi)
    np.testing.assert_allclose(np.cos(wrapped), np.cos(theta), atol=1e-12)
    # np.mod alone rounds these up to exactly 2*pi
    np.testing.assert_array_equal(wrap_angles([-1e-17, -1e-300]), [0.0, 0.0])
