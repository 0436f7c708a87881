import numpy as np
import pytest

from rotorcut import (
    RbmParams,
    VmcConfig,
    apply_metric,
    chain_init,
    cost,
    estimate_forces,
    init_random,
    log_derivatives,
    log_psi,
    mh_step,
    minres_solve,
    run_vmc,
    sample_batch,
    sr_iteration,
    trace_summary,
    write_trace_csv,
)
from rotorcut.vmc import SrBatch
from oracles import dense_sr_metric, direct_forces


def make_batch(n_rows, n_params, seed=0):
    rng = np.random.default_rng(seed)
    return SrBatch(
        samples=rng.uniform(0, 2 * np.pi, (n_rows, 3)),
        o_matrix=rng.normal(0, 1, (n_rows, n_params)),
        e_loc=rng.normal(0, 2, n_rows),
        accept_rate=0.5,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        VmcConfig(n_samp=3, n_warm=2)
    with pytest.raises(ValueError):
        VmcConfig(n_warm=-1)
    with pytest.raises(ValueError):
        VmcConfig(n_iter=0)
    with pytest.raises(ValueError):
        VmcConfig(lambda_reg=-1e-9)
    with pytest.raises(ValueError):
        VmcConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        VmcConfig(proposal_step=0.0)


def test_chain_init_deterministic():
    p = init_random(4, seed=0)
    a = chain_init(p, seed=9)
    b = chain_init(p, seed=9)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.log_psi == log_psi(p, a.theta)


def test_mh_step_stays_on_torus():
    p = init_random(3, sigma=0.5, seed=1)
    s = chain_init(p, seed=2)
    for _ in range(200):
        s = mh_step(p, s, step=1.5)
        assert np.all(s.theta >= 0.0) and np.all(s.theta < 2.0 * np.pi)
        assert s.log_psi == pytest.approx(log_psi(p, s.theta), rel=1e-12)


def test_mh_step_uniform_density_always_accepts():
    # all-zero parameters make psi constant, so every proposal is accepted
    p = RbmParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)), c=np.zeros((2, 2)))
    s = chain_init(p, seed=3)
    for _ in range(50):
        s = mh_step(p, s, step=0.7)
        assert s.accepted


def test_sample_batch_shapes_and_warm_discard(k3):
    p = init_random(3, seed=4)
    s = chain_init(p, seed=5)
    cfg = VmcConfig(n_samp=7, n_warm=3, n_iter=1)
    batch, s2 = sample_batch(k3, p, s, cfg)
    assert batch.samples.shape == (4, 3)
    assert batch.o_matrix.shape == (4, p.n_params)
    assert batch.e_loc.shape == (4,)
    assert 0.0 <= batch.accept_rate <= 1.0
    assert not np.array_equal(s.theta, s2.theta) or s2.log_psi == s.log_psi
    np.testing.assert_array_equal(batch.samples[-1], s2.theta)
    assert_rows_evaluated(k3, p, batch)

    # a first kept step that is rejected must still be evaluated: find a
    # chain seed whose step n_warm + 1 is rejected, then sample from it
    p = init_random(3, sigma=2.0, seed=4)
    cfg = VmcConfig(n_samp=6, n_warm=2, n_iter=1, proposal_step=3.0)
    for seed in range(100):
        s = chain_init(p, seed=seed)
        for _ in range(cfg.n_warm):
            s = mh_step(p, s, cfg.proposal_step)
        warm_end = s.theta
        if not mh_step(p, s, cfg.proposal_step).accepted:
            break
    else:
        pytest.fail("no seed rejects the first kept step")
    batch, _ = sample_batch(k3, p, chain_init(p, seed=seed), cfg)
    np.testing.assert_array_equal(batch.samples[0], warm_end)
    assert_rows_evaluated(k3, p, batch)


def assert_rows_evaluated(g, p, batch):
    for theta, o_row, e in zip(batch.samples, batch.o_matrix, batch.e_loc):
        np.testing.assert_array_equal(o_row, log_derivatives(p, theta))
        assert e == cost(g, theta)


def test_estimate_forces_matches_direct():
    batch = make_batch(50, 12, seed=6)
    e_mean, grad, o_mean = estimate_forces(batch)
    ref_mean, ref_grad = direct_forces(batch.o_matrix, batch.e_loc)
    assert e_mean == pytest.approx(ref_mean, rel=1e-14)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(o_mean, batch.o_matrix.mean(axis=0), rtol=1e-14)


def test_constant_energy_gives_zero_force():
    batch = make_batch(30, 8, seed=7)
    flat = SrBatch(batch.samples, batch.o_matrix, np.full(30, 2.5), 0.5)
    _, grad, _ = estimate_forces(flat)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_estimate_forces_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_forces(make_batch(1, 4))


def test_apply_metric_matches_dense():
    rng = np.random.default_rng(8)
    for lam in (0.0, 1e-6, 0.1):
        batch = make_batch(40, 15, seed=int(rng.integers(1 << 30)))
        dense = dense_sr_metric(batch.o_matrix, lam)
        for _ in range(5):
            x = rng.normal(0, 1, 15)
            np.testing.assert_allclose(
                apply_metric(batch, x, lam), dense @ x, rtol=1e-12, atol=1e-12
            )


def test_metric_symmetric_and_psd():
    batch = make_batch(25, 10, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        assert x @ apply_metric(batch, y, 1e-8) == pytest.approx(
            y @ apply_metric(batch, x, 1e-8), rel=1e-10, abs=1e-12
        )
        assert x @ apply_metric(batch, x, 0.0) >= -1e-12


def test_apply_metric_shape_check():
    with pytest.raises(ValueError):
        apply_metric(make_batch(10, 5), np.zeros(6), 0.0)


def test_minres_matches_direct_solve():
    rng = np.random.default_rng(11)
    for _ in range(5):
        root = rng.normal(0, 1, (20, 20))
        spd = root @ root.T + 0.5 * np.eye(20)
        rhs = rng.normal(0, 1, 20)
        x, residual, iters = minres_solve(lambda v: spd @ v, rhs, 1e-12, 200)
        np.testing.assert_allclose(x, np.linalg.solve(spd, rhs), rtol=1e-9, atol=1e-9)
        assert residual <= 1e-9 * np.linalg.norm(rhs)
        assert iters <= 200


def test_minres_zero_rhs():
    x, residual, iters = minres_solve(lambda v: v, np.zeros(5), 1e-10, 10)
    np.testing.assert_array_equal(x, 0.0)
    assert residual == 0.0 and iters == 0


def test_minres_singular_metric_consistent_system():
    # SR metrics are rank-deficient; MINRES must still solve consistent
    # systems in the range space
    batch = make_batch(6, 12, seed=12)
    lam = 1e-9
    target = np.random.default_rng(13).normal(0, 1, 12)
    rhs = apply_metric(batch, target, lam)
    x, residual, _ = minres_solve(
        lambda v: apply_metric(batch, v, lam), rhs, 1e-10, 200
    )
    assert residual <= 1e-8 * max(np.linalg.norm(rhs), 1.0)


def test_sr_iteration_moves_params(k3):
    p = init_random(3, seed=14)
    s = chain_init(p, seed=15)
    cfg = VmcConfig(n_samp=10, n_iter=1, seed=15)
    p2, s2, diag = sr_iteration(k3, p, s, cfg)
    assert p2.n == p.n and p2.m == p.m
    assert not np.array_equal(p2.pack(), p.pack())
    assert diag.best_energy <= max(diag.e_mean, diag.best_energy)
    assert 0.0 <= diag.accept_rate <= 1.0
    assert diag.best_energy == pytest.approx(cost(k3, diag.best_theta), rel=1e-12)


def test_run_vmc_deterministic(k3):
    cfg = VmcConfig(n_samp=10, n_iter=25, seed=7)
    init = init_random(3, seed=[7, 1])
    a = run_vmc(k3, cfg, init)
    b = run_vmc(k3, cfg, init)
    np.testing.assert_array_equal(a.e_mean, b.e_mean)
    np.testing.assert_array_equal(a.accept_rate, b.accept_rate)
    np.testing.assert_array_equal(a.residual, b.residual)
    np.testing.assert_array_equal(a.best_theta, b.best_theta)
    np.testing.assert_array_equal(a.final_params.pack(), b.final_params.pack())
    assert a.best_energy == b.best_energy


def test_run_vmc_prefix_property(k3):
    # a run of n_iter=N reproduces the first N iterations of a longer run:
    # the chain persists and parameter updates depend only on the prefix
    cfg_short = VmcConfig(n_samp=10, n_iter=10, seed=3)
    cfg_long = VmcConfig(n_samp=10, n_iter=30, seed=3)
    init = init_random(3, seed=[3, 1])
    short = run_vmc(k3, cfg_short, init)
    long = run_vmc(k3, cfg_long, init)
    np.testing.assert_array_equal(short.e_mean, long.e_mean[:10])
    np.testing.assert_array_equal(short.min_e_loc, long.min_e_loc[:10])
    assert long.best_energy <= short.best_energy


def test_run_vmc_best_tracking(k3):
    cfg = VmcConfig(n_samp=10, n_iter=40, seed=5)
    trace = run_vmc(k3, cfg, init_random(3, seed=[5, 1]))
    assert trace.best_energy == trace.min_e_loc.min()
    assert trace.best_energy == pytest.approx(cost(k3, trace.best_theta), rel=1e-12)
    running = np.minimum.accumulate(trace.min_e_loc)
    assert np.all(np.diff(running) <= 0.0)
    assert trace.best_cut_value >= 0.0
    assert set(np.unique(trace.best_cut_assignment)) <= {-1, 1}
    assert trace.wall_time_s > 0.0


def test_run_vmc_size_mismatch(k3):
    with pytest.raises(ValueError):
        run_vmc(k3, VmcConfig(n_samp=10, n_iter=1), init_random(4, seed=0))


def test_trace_csv_and_summary(k3, tmp_path):
    cfg = VmcConfig(n_samp=10, n_iter=6, seed=1)
    trace = run_vmc(k3, cfg, init_random(3, seed=[1, 1]))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,e_mean,accept_rate,residual"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == trace.e_mean[0]

    summary = trace_summary(trace)
    assert summary["best_energy"] == trace.best_energy
    assert summary["config"]["n_iter"] == 6
    assert len(summary["best_cut_assignment"]) == 3
