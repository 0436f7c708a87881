"""End-to-end acceptance suite.

Each test certifies one headline guarantee of the package at its stated
tolerance and prints a single PASS line with the measured margin. The
heavyweight optimization runs (50-node random-weight graph, certification
suite of 8 named graphs) make this module take several minutes; everything
is fixed-seed and deterministic.
"""

import numpy as np
import pytest
from scipy import special

from rotorcut import (
    RbmParams,
    VmcConfig,
    bmz_minimize,
    brute_force_max_cut,
    cost,
    cost_gradient,
    generate_graph,
    init_pretrained,
    init_random,
    log_derivatives,
    log_psi,
    procedure_cut,
    random_start,
    run_vmc,
)
from rotorcut.rbm import _log_i0, _ratio
from rotorcut.vmc import (
    SrBatch,
    apply_metric,
    chain_init,
    estimate_forces,
    mh_step,
    minres_solve,
    sr_solve,
)
from oracles import (
    dense_sr_metric,
    heisenberg_expectation,
    mp_bessel_ratio,
    mp_log_i0,
    per_step_draw,
    quadrature_log_psi,
)

BIG_SEED = 2024


def appendix_tier(n):
    """(n_iter, n_samp) schedule by graph size for the certification suite."""
    if n <= 4:
        return 300, 10
    if n <= 6:
        return 1000, 40
    return 4000, 40


@pytest.fixture(scope="module")
def big_graph():
    return generate_graph(50, 619, weight_mode=(0.0, 15.0), seed=BIG_SEED)


@pytest.fixture(scope="module")
def long_runs(big_graph):
    """One 4000-iteration NQS run per seed on the 50-node graph.

    Because the chain and updates depend only on the iteration prefix,
    shorter runs with the same seed are exact prefixes of these (verified
    in test_vmc.py::test_run_vmc_prefix_property), so milestone statistics
    at 250/1000/4000 iterations come from a single run per seed.
    """
    traces = {}
    for seed in range(10):
        cfg = VmcConfig(
            n_samp=40, n_warm=0, n_iter=4000, lambda_reg=1e-9, seed=seed
        )
        traces[seed] = run_vmc(big_graph, cfg, init_random(50, seed=[seed, 1]))
    return traces


def test_bessel_numerics():
    # log I0 and I1/I0 match mpmath to 1e-10 relative across [1e-8, 1e6];
    # the ratio is strictly increasing and stays inside [0, 1)
    grid = np.logspace(-8.0, 6.0, 141)
    worst = 0.0
    for x in grid:
        ref_log = mp_log_i0(x)
        ref_ratio = mp_bessel_ratio(x)
        err_log = abs(float(_log_i0(x)) - ref_log) / abs(ref_log)
        err_ratio = abs(float(_ratio(x)) - ref_ratio) / abs(ref_ratio)
        worst = max(worst, err_log, err_ratio)
        assert err_log <= 1e-10, f"log I0 at x={x}"
        assert err_ratio <= 1e-10, f"I1/I0 at x={x}"
    vals = _ratio(grid)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)
    print(f"\nPASS bessel numerics: worst relative error {worst:.2e} <= 1e-10")


def test_heisenberg_equivalence():
    # the product-state expectation of the XX+ZZ Hamiltonian equals the
    # rotor cost to 1e-10 on 50 random (graph, angles) pairs
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m_max = n * (n - 1) // 2
        m = int(rng.integers(1, m_max + 1))
        g = generate_graph(n, m, weight_mode=(0.0, 15.0), seed=int(rng.integers(1 << 30)))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        err = abs(heisenberg_expectation(g, theta) - cost(g, theta))
        worst = max(worst, err)
        assert err <= 1e-10
    print(f"\nPASS heisenberg equivalence: worst |deviation| {worst:.2e} <= 1e-10")


def test_wavefunction_closed_form():
    # closed-form log psi matches 4096-node trapezoid quadrature of the
    # defining integral to 1e-8 absolute on 50 random instances, m <= 3
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        p = RbmParams(
            a=rng.normal(0.0, 0.8, (m, n)),
            b=rng.normal(0.0, 0.8, (m, 2)),
            c=rng.normal(0.0, 0.8, (n, 2)),
        )
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        err = abs(log_psi(p, theta) - quadrature_log_psi(p.a, p.b, p.c, theta))
        worst = max(worst, err)
        assert err <= 1e-8
    print(f"\nPASS wavefunction closed form: worst |deviation| {worst:.2e} <= 1e-8")


def test_analytic_derivatives():
    # packed log-derivatives match central finite differences, relative
    # 1e-6 with 1e-8 absolute floor near zeros, on 100 random instances
    rng = np.random.default_rng(303)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        p = RbmParams(
            a=rng.normal(0.0, 0.6, (m, n)),
            b=rng.normal(0.0, 0.6, (m, 2)),
            c=rng.normal(0.0, 0.6, (n, 2)),
        )
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        analytic = log_derivatives(p, theta)
        vec = p.pack()
        for k in range(p.n_params):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            fd = (
                log_psi(RbmParams.unpack(vp, n, m), theta)
                - log_psi(RbmParams.unpack(vm, n, m), theta)
            ) / (2.0 * h)
            tol = max(1e-8, 1e-6 * abs(fd))
            err = abs(analytic[k] - fd)
            worst = max(worst, err / tol)
            assert err <= tol, f"component {k}"
    print(f"\nPASS analytic derivatives: worst error/tolerance {worst:.3f} <= 1")


def test_sr_machinery():
    # matrix-free metric application matches dense assembly to 1e-12;
    # MINRES matches direct solves to 1e-9 on random SPD 20x20 systems;
    # the exact SR solve matches direct dense solves to 1e-9, on the
    # parameter side (N > P) at every lambda and on the sample side
    # (N < P) where the dense metric is well conditioned;
    # the metric operator is symmetric and PSD on 100 random vectors
    rng = np.random.default_rng(404)
    worst_metric = 0.0
    worst_exact = 0.0
    for lam in (0.0, 1e-9, 1e-6, 0.1):
        o = rng.normal(0.0, 1.0, (30, 18))
        batch = SrBatch(
            samples=np.zeros((30, 3)), o_matrix=o,
            e_loc=rng.normal(0.0, 1.0, 30), counts=np.ones(30, dtype=int), accept_rate=0.5,
        )
        dense = dense_sr_metric(o, lam)
        for _ in range(5):
            x = rng.normal(0.0, 1.0, 18)
            err = np.max(np.abs(apply_metric(batch, x, lam) - dense @ x))
            worst_metric = max(worst_metric, err)
            assert err <= 1e-12
        force = estimate_forces(batch)
        err = np.max(np.abs(sr_solve(batch, force, lam)[0] - np.linalg.solve(dense, force)))
        worst_exact = max(worst_exact, err)
        assert err <= 1e-9

    worst_solve = 0.0
    for _ in range(5):
        root = rng.normal(0.0, 1.0, (20, 20))
        spd = root @ root.T + 0.5 * np.eye(20)
        rhs = rng.normal(0.0, 1.0, 20)
        x, _, _ = minres_solve(lambda v, A=spd: A @ v, rhs, 1e-12, 400)
        err = np.max(np.abs(x - np.linalg.solve(spd, rhs)))
        worst_solve = max(worst_solve, err)
        assert err <= 1e-9

    o = rng.normal(0.0, 1.0, (25, 12))
    batch = SrBatch(
        samples=np.zeros((25, 3)), o_matrix=o,
        e_loc=rng.normal(0.0, 1.0, 25), counts=np.ones(25, dtype=int), accept_rate=0.5,
    )
    for _ in range(100):
        x = rng.normal(0.0, 1.0, 12)
        y = rng.normal(0.0, 1.0, 12)
        sym = abs(x @ apply_metric(batch, y, 1e-8) - y @ apply_metric(batch, x, 1e-8))
        assert sym <= 1e-10
        assert x @ apply_metric(batch, x, 0.0) >= -1e-12

    for _ in range(5):
        o = rng.normal(0.0, 1.0, (18, 30))
        batch = SrBatch(
            samples=np.zeros((18, 3)), o_matrix=o,
            e_loc=rng.normal(0.0, 1.0, 18), counts=np.ones(18, dtype=int), accept_rate=0.5,
        )
        force = estimate_forces(batch)
        direct = np.linalg.solve(dense_sr_metric(o, 0.1), force)
        err = np.max(np.abs(sr_solve(batch, force, 0.1)[0] - direct))
        worst_exact = max(worst_exact, err)
        assert err <= 1e-9
    print(
        f"\nPASS SR machinery: metric vs dense {worst_metric:.2e} <= 1e-12, "
        f"MINRES vs direct {worst_solve:.2e} <= 1e-9, "
        f"exact SR solve vs direct {worst_exact:.2e} <= 1e-9, symmetry/PSD 100/100"
    )


def test_bmz_certification(small_suite):
    # best of 10 random starts, rounded by Procedure-Cut, hits the
    # brute-force optimum on every suite graph; every run ends with
    # gradient infinity-norm <= 1e-6
    for name, g in small_suite.items():
        opt, _ = brute_force_max_cut(g)
        best = -np.inf
        for s in range(10):
            theta, _, _ = bmz_minimize(g, random_start(g.n, seed=s))
            assert np.max(np.abs(cost_gradient(g, theta))) <= 1e-6, (name, s)
            best = max(best, procedure_cut(g, theta)[0])
        assert best == pytest.approx(opt, abs=1e-9), name
    print("\nPASS BMZ certification: optimum reached on all 8 graphs, "
          "all 80 runs at gradient tolerance")


def test_sampler_total_variation():
    # 1e6 Metropolis samples of a fixed 2-rotor Born density vs the
    # quadrature-normalized density on a 64x64 grid: TV distance <= 0.02
    theta_star = np.array([1.0, 4.2])
    a = np.array([[0.3, -0.2], [0.15, 0.25]])
    b = np.array([[0.1, -0.1], [0.0, 0.2]])
    c = 4.0 * np.column_stack([np.cos(theta_star), np.sin(theta_star)])
    p = RbmParams(a=a, b=b, c=c)

    bins, oversample = 64, 16
    fine = bins * oversample
    grid = (np.arange(fine) + 0.5) * (2.0 * np.pi / fine)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    v = np.stack(
        [np.stack([np.cos(t1), np.sin(t1)], -1), np.stack([np.cos(t2), np.sin(t2)], -1)],
        axis=-2,
    )
    u = b[None, None, :, :] + np.einsum("ij,xyjc->xyic", a, v)
    norms = np.linalg.norm(u, axis=-1)
    log_pi = 2.0 * (
        (v * c[None, None]).sum((-1, -2))
        + (norms + np.log(special.i0e(norms))).sum(-1)
    )
    weights = np.exp(log_pi - log_pi.max())
    ref = weights.reshape(bins, oversample, bins, oversample).sum(axis=(1, 3))
    ref /= ref.sum()

    n_samp, n_warm, step = 1_000_000, 1000, 0.6
    s = chain_init(p, seed=42)
    thetas = np.empty((n_samp, 2))
    for k in range(-n_warm, n_samp):
        mh_step(p, s, *per_step_draw(s.rng, 2, step))
        if k >= 0:
            thetas[k] = s.theta
    hist, _, _ = np.histogram2d(
        thetas[:, 0], thetas[:, 1], bins=bins,
        range=[[0.0, 2.0 * np.pi], [0.0, 2.0 * np.pi]],
    )
    tv = 0.5 * np.abs(hist / n_samp - ref).sum()
    assert tv <= 0.02
    print(f"\nPASS sampler correctness: TV distance {tv:.4f} <= 0.02")


def test_small_graph_optimality(small_suite):
    # NQS with 10 seeds per graph: the rounded best sample equals the
    # brute-force optimum for >= 9/10 seeds everywhere, 10/10 for n <= 6
    failures = {}
    for name, g in small_suite.items():
        opt, _ = brute_force_max_cut(g)
        n_iter, n_samp = appendix_tier(g.n)
        hits = 0
        for seed in range(10):
            cfg = VmcConfig(
                n_samp=n_samp, n_warm=0, n_iter=n_iter,
                lambda_reg=1e-9, seed=seed,
            )
            trace = run_vmc(g, cfg, init_random(g.n, seed=[seed, 1]))
            if abs(trace.best_cut_value - opt) <= 1e-9:
                hits += 1
        failures[name] = 10 - hits
        assert hits >= 9, f"{name}: {hits}/10 seeds reached the optimum"
        if g.n <= 6:
            assert hits == 10, f"{name}: {hits}/10 (all required for n <= 6)"
    detail = ", ".join(f"{k}:{10 - v}/10" for k, v in failures.items())
    print(f"\nPASS small-graph optimality: {detail}")


def test_monotone_improvement(long_runs):
    # on the 50-node graph, the median (over 10 seeds) best-sampled energy
    # strictly improves across the 250 / 1000 / 4000 iteration milestones
    milestones = (250, 1000, 4000)
    best_at = {ms: [] for ms in milestones}
    for trace in long_runs.values():
        running = np.minimum.accumulate(trace.min_e_loc)
        for ms in milestones:
            best_at[ms].append(running[ms - 1])
    medians = [float(np.median(best_at[ms])) for ms in milestones]
    assert medians[1] < medians[0]
    assert medians[2] < medians[1]
    print(
        "\nPASS monotone improvement: median best energy "
        f"{medians[0]:.2f} -> {medians[1]:.2f} -> {medians[2]:.2f}"
    )


def test_pretrained_initialization(big_graph, long_runs):
    # with paired seeds, pretrained initialization is at least as good as
    # random initialization at iteration 100 in >= 8/10 pairs
    wins = 0
    margins = []
    for seed in range(10):
        theta_star, _, _ = bmz_minimize(big_graph, random_start(50, seed=[seed, 2]))
        cfg = VmcConfig(n_samp=40, n_warm=0, n_iter=100, lambda_reg=1e-9, seed=seed)
        warm = run_vmc(
            big_graph, cfg,
            init_pretrained(theta_star, r=1.0, sigma=0.1, seed=[seed, 1]),
        )
        cold_e100 = long_runs[seed].e_mean[99]
        margins.append(cold_e100 - warm.e_mean[99])
        if warm.e_mean[99] <= cold_e100:
            wins += 1
    assert wins >= 8, f"pretrained won only {wins}/10 pairs"
    print(
        f"\nPASS pretrained initialization: {wins}/10 pairs, "
        f"median margin {float(np.median(margins)):.1f}"
    )
