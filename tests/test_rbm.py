import warnings

import numpy as np
import pytest

from rotorcut import (
    RbmParams,
    init_pretrained,
    init_random,
    log_derivatives,
    log_psi,
)
from rotorcut.rbm import _fields, _log_i0, _ratio, visible_vectors
from oracles import former_log_psi, mp_bessel_ratio, mp_log_i0, quadrature_log_psi


def random_params(n, m, sigma=0.8, seed=0):
    rng = np.random.default_rng(seed)
    return RbmParams(
        a=rng.normal(0.0, sigma, (m, n)),
        b=rng.normal(0.0, sigma, (m, 2)),
        c=rng.normal(0.0, sigma, (n, 2)),
    )


def test_bessel_trivial_values():
    zero = np.zeros(1)
    assert _log_i0(zero)[0] == 0.0
    assert _ratio(zero)[0] == 0.0


def test_bessel_against_mpmath():
    # numpy scalars and 0-d arrays, on both sides of the series switch
    grid = np.logspace(-8, 6, 60)
    for x in grid:
        for arg in (x, np.array(x)):
            assert float(_log_i0(arg)) == pytest.approx(mp_log_i0(x), rel=1e-10, abs=1e-300)
            assert float(_ratio(arg)) == pytest.approx(mp_bessel_ratio(x), rel=1e-10)


def test_bessel_ratio_monotone_bounded():
    grid = np.logspace(-8, 6, 200)
    vals = _ratio(grid)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)


def test_bessel_vectorized_matches_scalar():
    # a grid reaching the series branch agrees with one-element calls,
    # which take the large-argument path whenever x > 0.05
    grid = np.array([0.0, 0.5, 3.0, 50.0])
    np.testing.assert_array_equal(
        _log_i0(grid), [_log_i0(np.array([x]))[0] for x in grid]
    )


def test_log_psi_and_derivatives_reject_non_finite_angles():
    p = random_params(3, 2, seed=4)
    for bad in (np.nan, np.inf, -np.inf):
        theta = np.array([0.3, bad, 5.5])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            log_psi(p, theta)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            log_derivatives(p, theta)


def test_visible_vectors():
    theta = np.array([0.0, np.pi / 2.0])
    v = visible_vectors(theta)
    np.testing.assert_allclose(v, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0)


def test_pack_unpack_round_trip():
    p = random_params(4, 3, seed=1)
    q = RbmParams.unpack(p.pack(), 4, 3)
    np.testing.assert_array_equal(p.a, q.a)
    np.testing.assert_array_equal(p.b, q.b)
    np.testing.assert_array_equal(p.c, q.c)


def test_packing_order_pinned():
    # layout is a (row-major), then b, then c; P = n*m + 2*(n + m)
    a = np.arange(6, dtype=float).reshape(2, 3)
    b = np.arange(10, 14, dtype=float).reshape(2, 2)
    c = np.arange(20, 26, dtype=float).reshape(3, 2)
    p = RbmParams(a=a, b=b, c=c)
    assert p.n_params == 2 * 3 + 2 * (3 + 2)
    np.testing.assert_array_equal(
        p.pack(), [0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 20, 21, 22, 23, 24, 25]
    )


def test_unpack_length_check():
    with pytest.raises(ValueError):
        RbmParams.unpack(np.zeros(7), 2, 2)


def test_params_shape_validation():
    with pytest.raises(ValueError):
        RbmParams(a=np.zeros((2, 3)), b=np.zeros((3, 2)), c=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        RbmParams(a=np.zeros((2, 3)), b=np.zeros((2, 2)), c=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        RbmParams(
            a=np.full((2, 3), np.nan), b=np.zeros((2, 2)), c=np.zeros((3, 2))
        )
    # a field of any dtype but integer or float is refused, not cast
    fields = {"a": np.zeros((1, 2)), "b": np.zeros((1, 2)), "c": np.zeros((2, 2))}
    for name, bad in (
        ("a", np.array([[1 + 2j, 0.5]])),
        ("b", np.array([["0.1", "0.2"]])),
        ("c", np.ones((2, 2), dtype=bool)),
        ("a", np.array([[0.1, 0.2]], dtype=object)),
    ):
        with pytest.raises(ValueError, match=f"^RbmParams.{name} .*dtype {bad.dtype}$"):
            RbmParams(**{**fields, name: bad})
    with pytest.raises(ValueError, match="dtype complex128$"):
        RbmParams.unpack(np.arange(8) * (1 + 1j), 2, 1)
    # integer and float32 fields are stored as float64
    p = RbmParams(a=np.ones((1, 2), int), b=np.zeros((1, 2), np.float32), c=[[0, 1], [2, 3]])
    assert all(arr.dtype == np.float64 for arr in (p.a, p.b, p.c))
    np.testing.assert_array_equal(RbmParams.unpack(np.arange(8), 2, 1).pack(), np.arange(8.0))


def test_hidden_fields_formula():
    p = random_params(3, 2, seed=2)
    thetas = np.array([[0.3, 2.0, 5.5], [1.0, 4.0, 0.2]])
    for theta in thetas:
        _, u, norms = _fields(p, theta)
        v = visible_vectors(theta)
        for i in range(2):
            expected = p.b[i] + sum(p.a[i, j] * v[j] for j in range(3))
            np.testing.assert_allclose(u[i], expected, rtol=1e-14)
        np.testing.assert_allclose(norms, np.linalg.norm(u, axis=1), rtol=1e-15)
    v, u, norms = _fields(p, thetas)
    assert (v.shape, u.shape, norms.shape) == ((2, 3, 2), (2, 2, 2), (2, 2))
    for k, theta in enumerate(thetas):
        for got, want in zip((v[k], u[k], norms[k]), _fields(p, theta)):
            np.testing.assert_array_equal(got, want)


def test_log_psi_equals_former_formula():
    # the in-place evaluator keeps every operand and its order, so it is
    # bit-identical to the former one; sigma = 0.01 puts hidden fields
    # below 0.05, on the series branch of log I0
    rng = np.random.default_rng(40)
    series = 0
    for n in (2, 3, 10, 50):
        for k, sigma in enumerate((0.01, 0.3, 2.0)):
            p = random_params(n, max(1, n // (k + 1)), sigma=sigma, seed=n + k)
            thetas = rng.uniform(-10.0, 10.0, (700, n))
            for theta in thetas:
                assert log_psi(p, theta) == former_log_psi(p, theta)
            series += int((_fields(p, thetas)[2] <= 0.05).any(axis=1).sum())
    assert series >= 1000


def test_log_psi_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        p = random_params(n, m, seed=int(rng.integers(1 << 30)))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        ref = quadrature_log_psi(p.a, p.b, p.c, theta)
        assert log_psi(p, theta) == pytest.approx(ref, abs=1e-8)


def test_log_derivatives_match_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        p = random_params(n, m, seed=int(rng.integers(1 << 30)))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        analytic = log_derivatives(p, theta)
        vec = p.pack()
        h = 1e-5
        for k in range(p.n_params):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            fd = (
                log_psi(RbmParams.unpack(vp, n, m), theta)
                - log_psi(RbmParams.unpack(vm, n, m), theta)
            ) / (2.0 * h)
            assert analytic[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_zero_hidden_field_derivatives():
    # b = 0 and a = 0 makes every hidden field vanish; the a and b blocks
    # of the log-derivative must be exactly zero, not NaN
    n, m = 3, 2
    p = RbmParams(a=np.zeros((m, n)), b=np.zeros((m, 2)), c=np.ones((n, 2)))
    theta = np.array([0.1, 1.0, 4.0])
    derivs = log_derivatives(p, theta)
    np.testing.assert_array_equal(derivs[: m * n + 2 * m], 0.0)
    np.testing.assert_allclose(derivs[m * n + 2 * m :], visible_vectors(theta).ravel())


def test_batched_log_derivatives_equal_stacked():
    rng = np.random.default_rng(9)
    # hidden unit 1 has a = 0 and b = 0, so its field vanishes everywhere
    q = random_params(4, 3, seed=9)
    a, b = q.a.copy(), q.b.copy()
    a[1] = 0.0
    b[1] = 0.0
    q = RbmParams(a=a, b=b, c=q.c)
    big = init_random(50, seed=[0, 1])    # P = 2700, as on the 50-node graph
    for p, k in ((q, 6), (q, 1), (big, 40)):
        thetas = rng.uniform(0.0, 2.0 * np.pi, (k, p.n))
        batch = log_derivatives(p, thetas)
        assert batch.shape == (k, p.n_params)
        np.testing.assert_array_equal(
            batch, np.stack([log_derivatives(p, t) for t in thetas])
        )
    m, n = q.m, q.n
    zero_unit = log_derivatives(q, rng.uniform(0.0, 2.0 * np.pi, (3, n)))
    np.testing.assert_array_equal(zero_unit[:, n : 2 * n], 0.0)
    np.testing.assert_array_equal(zero_unit[:, m * n + 2 : m * n + 4], 0.0)


def test_log_psi_and_derivatives_reject_bad_shapes():
    p = random_params(3, 2, seed=3)
    for bad in (np.zeros(()), np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            log_derivatives(p, bad)
        with pytest.raises(ValueError):
            log_psi(p, bad)
    # log_psi scores one configuration, never a batch
    with pytest.raises(ValueError):
        log_psi(p, np.zeros((2, 3)))


def test_init_random():
    p = init_random(5, alpha=1.0, sigma=0.1, seed=3)
    assert (p.m, p.n) == (5, 5)
    np.testing.assert_array_equal(p.b, 0.0)
    np.testing.assert_array_equal(p.c, 0.0)
    q = init_random(5, alpha=1.0, sigma=0.1, seed=3)
    np.testing.assert_array_equal(p.a, q.a)
    assert init_random(5, alpha=2.0, sigma=0.1, seed=3).m == 10
    np.testing.assert_array_equal(init_random(5, sigma=0.0, seed=3).a, 0.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            init_random(5, sigma=bad)
        with pytest.raises(ValueError, match="sigma"):
            init_pretrained(np.zeros(3), sigma=bad)


def test_init_pretrained():
    theta_star = np.array([0.0, np.pi / 2.0, np.pi])
    p = init_pretrained(theta_star, alpha=1.0, r=2.0, sigma=0.1, seed=4)
    np.testing.assert_allclose(p.c, 2.0 * visible_vectors(theta_star), atol=1e-15)
    np.testing.assert_array_equal(p.b, 0.0)
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="r must"):
            init_pretrained(theta_star, r=bad)


def test_pretrained_rejects_non_finite_angles():
    # the same message as log_psi and BMZ give, raised before any arithmetic
    # on theta*, so nothing warns first
    for bad in (np.nan, np.inf, -np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^rotor angles must be finite$"):
                init_pretrained([0.3, bad, 5.5], seed=0)


def test_pretrained_density_concentrates():
    theta_star = np.array([0.7, 3.9])
    p = init_pretrained(theta_star, r=2.0, sigma=0.0)
    far = np.mod(theta_star + np.pi, 2.0 * np.pi)
    assert log_psi(p, theta_star) > log_psi(p, far) + 1.0


def test_npz_round_trip(tmp_path):
    # np.savez of the three arrays is the way to keep parameters
    p = random_params(4, 2, seed=5)
    path = tmp_path / "params.npz"
    np.savez(path, a=p.a, b=p.b, c=p.c)
    with np.load(path) as saved:
        q = RbmParams(**saved)
    assert (q.n, q.m) == (4, 2)
    np.testing.assert_array_equal(p.pack(), q.pack())
