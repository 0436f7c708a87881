import numpy as np
import pytest

from rotorcut import (
    Graph,
    RbmParams,
    VmcConfig,
    cost,
    generate_graph,
    init_random,
    log_derivatives,
    log_psi,
    run_vmc,
    write_trace_csv,
)
from rotorcut.vmc import (
    SrBatch,
    apply_metric,
    chain_init,
    estimate_forces,
    mh_step,
    minres_solve,
    sample_batch,
    sr_iteration,
    sr_solve,
)
from oracles import dense_sr_metric, direct_forces, per_step_draw


def make_batch(n_rows, n_params, seed=0):
    rng = np.random.default_rng(seed)
    return SrBatch(
        samples=rng.uniform(0, 2 * np.pi, (n_rows, 3)),
        o_matrix=rng.normal(0, 1, (n_rows, n_params)),
        e_loc=rng.normal(0, 2, n_rows),
        counts=np.ones(n_rows, dtype=int),
        accept_rate=0.5,
    )


def expanded(batch):
    """The same kept steps with one row per step (all counts 1)."""
    c = batch.counts
    return SrBatch(
        np.repeat(batch.samples, c, axis=0), np.repeat(batch.o_matrix, c, axis=0),
        np.repeat(batch.e_loc, c), np.ones(c.sum(), dtype=int), batch.accept_rate,
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
    for field in ("lambda_reg", "learning_rate", "proposal_step"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=field):
                VmcConfig(**{field: bad})
    # finite, but the sampler's offset width 2*step overflows
    for bad in (1e308, float(np.finfo(float).max)):
        with pytest.raises(ValueError, match="proposal_step"):
            VmcConfig(proposal_step=bad)
    assert VmcConfig(proposal_step=float(np.finfo(float).max) / 2).proposal_step > 0
    for field, bad in (("n_warm", 1.5), ("n_iter", 2.5), ("n_samp", 10.0)):
        with pytest.raises(ValueError, match=field):
            VmcConfig(**{"n_samp": 10, field: bad})
    for bad in (-1, 1.5, "0"):
        with pytest.raises(ValueError, match="seed"):
            VmcConfig(seed=bad)
    cfg = VmcConfig(
        n_samp=np.int64(10), n_warm=np.int64(1), n_iter=np.int64(3), seed=np.uint32(7)
    )
    assert all(type(v) is int for v in (cfg.n_samp, cfg.n_warm, cfg.n_iter, cfg.seed))
    assert cfg.seed == 7


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
        mh_step(p, s, *per_step_draw(s.rng, 3, 1.5))
        assert np.all(s.theta >= 0.0) and np.all(s.theta < 2.0 * np.pi)
        assert s.log_psi == pytest.approx(log_psi(p, s.theta), rel=1e-12)


def test_mh_step_uniform_density_always_accepts():
    # all-zero parameters make psi constant, so every proposal is accepted
    p = RbmParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)), c=np.zeros((2, 2)))
    s = chain_init(p, seed=3)
    for _ in range(50):
        assert mh_step(p, s, *per_step_draw(s.rng, 2, 0.7))


def test_mh_step_is_deterministic_given_its_draws():
    # the step draws nothing; a rejection keeps the walker and its cache, an
    # acceptance rebinds theta and leaves the former position's array alone
    p = init_random(3, sigma=0.5, seed=1)
    s = chain_init(p, seed=2)
    state = s.rng.bit_generator.state
    theta, lp = s.theta, s.log_psi
    delta = np.array([0.4, -0.2, 6.0])
    assert not mh_step(p, s, delta, np.inf)
    assert s.theta is theta and s.log_psi == lp
    kept = theta.copy()
    assert mh_step(p, s, delta, -np.inf)
    np.testing.assert_array_equal(theta, kept)
    np.testing.assert_array_equal(s.theta, np.mod(kept + delta, 2.0 * np.pi))
    assert s.log_psi == log_psi(p, s.theta)
    assert s.rng.bit_generator.state == state


def test_sample_batch_shapes_and_warm_discard(k3):
    p = init_random(3, seed=4)
    s = chain_init(p, seed=5)
    cfg = VmcConfig(n_samp=7, n_warm=3, n_iter=1)
    batch = sample_batch(k3, p, s, cfg)
    n_rows = batch.counts.size
    assert batch.counts.min() >= 1
    assert batch.samples.shape == (n_rows, 3)
    assert batch.o_matrix.shape == (n_rows, p.n_params)
    assert batch.e_loc.shape == (n_rows,)
    assert 0.0 <= batch.accept_rate <= 1.0
    assert s.log_psi == log_psi(p, s.theta)
    np.testing.assert_array_equal(batch.samples[-1], s.theta)
    assert_rows_evaluated(k3, p, batch)
    assert_kept_steps(p, chain_init(p, seed=5), cfg, batch)

    # a first kept step that is rejected must still be evaluated: find a
    # chain seed whose step n_warm + 1 is rejected, then sample from it
    p = init_random(3, sigma=2.0, seed=4)
    cfg = VmcConfig(n_samp=6, n_warm=2, n_iter=1, proposal_step=3.0)
    for seed in range(100):
        s = chain_init(p, seed=seed)
        for _ in range(cfg.n_warm + 1):
            warm_end = s.theta
            accepted = mh_step(p, s, *per_step_draw(s.rng, 3, cfg.proposal_step))
        if not accepted:
            break
    else:
        pytest.fail("no seed rejects the first kept step")
    batch = sample_batch(k3, p, chain_init(p, seed=seed), cfg)
    np.testing.assert_array_equal(batch.samples[0], warm_end)
    assert batch.counts[0] >= 2
    assert_rows_evaluated(k3, p, batch)
    assert_kept_steps(p, chain_init(p, seed=seed), cfg, batch)

    # consecutive segments continue one stream: each segment's draw takes
    # up exactly the numbers its steps would have drawn one at a time
    s, replay = chain_init(p, seed=6), chain_init(p, seed=6)
    for _ in range(3):
        batch = sample_batch(k3, p, s, cfg)
        replay = assert_kept_steps(p, replay, cfg, batch)
        np.testing.assert_array_equal(s.theta, replay.theta)
        assert s.log_psi == replay.log_psi


def assert_kept_steps(p, s, cfg, batch):
    # the rows repeated by their counts are the kept positions, stepped by
    # hand with the randomness drawn one step at a time
    kept = []
    for k in range(cfg.n_samp):
        mh_step(p, s, *per_step_draw(s.rng, p.n, cfg.proposal_step))
        if k >= cfg.n_warm:
            kept.append(s.theta)
    assert batch.counts.sum() == cfg.n_samp - cfg.n_warm
    np.testing.assert_array_equal(np.repeat(batch.samples, batch.counts, axis=0), kept)
    return s


def assert_rows_evaluated(g, p, batch):
    for theta, o_row, e in zip(batch.samples, batch.o_matrix, batch.e_loc):
        np.testing.assert_array_equal(o_row, log_derivatives(p, theta))
        assert e == cost(g, theta)


def test_estimate_forces_matches_direct():
    for batch in (make_batch(50, 12, seed=6), repeated_rows_batch(50, 12, seed=6)):
        grad = estimate_forces(batch)
        o = np.repeat(batch.o_matrix, batch.counts, axis=0)
        e = np.repeat(batch.e_loc, batch.counts)
        ref_mean, ref_grad = direct_forces(o, e)
        assert batch.e_mean == e.mean()
        assert batch.e_mean == pytest.approx(ref_mean, rel=1e-14)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(batch.o_mean, o.mean(axis=0), rtol=1e-14)


def test_constant_energy_gives_zero_force():
    batch = make_batch(30, 8, seed=7)
    flat = SrBatch(batch.samples, batch.o_matrix, np.full(30, 2.5), batch.counts, 0.5)
    grad = estimate_forces(flat)
    np.testing.assert_array_equal(grad, 0.0)


def test_estimate_forces_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_forces(make_batch(1, 4))
    # a walker that never moved: one distinct row kept for N >= 2 steps
    # is a valid batch, whose force and step are exactly zero
    one = make_batch(1, 4, seed=1)
    for n_kept in (2, 3, 40):
        batch = SrBatch(one.samples, one.o_matrix, one.e_loc, np.array([n_kept]), 0.0)
        force = estimate_forces(batch)
        np.testing.assert_array_equal(force, 0.0)
        for lam in SR_LAMBDAS:
            delta, residual = sr_solve(batch, lam)
            np.testing.assert_array_equal(delta, 0.0)
            assert residual == 0.0


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


def repeated_rows_batch(n_kept, n_params, seed):
    # rejected Metropolis steps leave the walker in place: about half of
    # the n_kept steps move, each distinct row counts the steps spent there
    batch = make_batch(n_kept, n_params, seed)
    moved = np.random.default_rng(seed).random(n_kept) < 0.5
    moved[0] = True
    starts = np.flatnonzero(moved)
    return SrBatch(
        batch.samples[starts], batch.o_matrix[starts], batch.e_loc[starts],
        np.diff(starts, append=n_kept), 0.3,
    )


SR_SHAPES = [(12, 30), (20, 20), (40, 15)]
SR_LAMBDAS = [0.0, 1e-9, 1e-6, 0.1]


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("lam", SR_LAMBDAS)
@pytest.mark.parametrize("shape", SR_SHAPES)
def test_sr_solve_residual_and_dense_oracle(shape, lam, repeated):
    n_rows, n_params = shape
    seed = 20 + n_rows
    batch = (repeated_rows_batch if repeated else make_batch)(n_rows, n_params, seed)
    force = estimate_forces(batch)
    delta, residual = sr_solve(batch, lam)
    assert delta.shape == (n_params,)
    direct = np.linalg.norm(apply_metric(batch, delta, lam) - force)
    assert residual == direct
    assert residual <= 1e-10 * np.linalg.norm(force)
    if lam == 0.1:
        o = np.repeat(batch.o_matrix, batch.counts, axis=0)
        dense = np.linalg.solve(dense_sr_metric(o, lam), force)
        np.testing.assert_allclose(delta, dense, rtol=1e-9, atol=1e-9 * np.abs(dense).max())


@pytest.mark.parametrize("shape", SR_SHAPES)
def test_sr_solve_lambda_zero_is_minimum_norm(shape):
    # at lam = 0 the metric is singular (centring removes one direction,
    # repeated rows more); the solve must return the pseudo-inverse solution
    batch = repeated_rows_batch(*shape, seed=30)
    force = estimate_forces(batch)
    delta, _ = sr_solve(batch, 0.0)
    o = np.repeat(batch.o_matrix, batch.counts, axis=0)
    ref = np.linalg.lstsq(dense_sr_metric(o, 0.0), force, rcond=1e-10)[0]
    np.testing.assert_allclose(delta, ref, rtol=1e-8, atol=1e-8 * np.abs(ref).max())


@pytest.mark.parametrize("shape", SR_SHAPES)
def test_sr_solve_constant_energy_gives_zero_step(shape):
    batch = make_batch(*shape, seed=31)
    flat = SrBatch(batch.samples, batch.o_matrix, np.full(shape[0], 2.5), batch.counts, 0.5)
    delta, residual = sr_solve(flat, 1e-6)
    np.testing.assert_array_equal(delta, 0.0)
    assert residual == 0.0


@pytest.mark.parametrize("lam", SR_LAMBDAS)
@pytest.mark.parametrize("shape", [(24, 30), (60, 15)])
def test_compressed_batch_matches_expanded_twin(shape, lam):
    # K distinct rows with counts against the N rows they stand for:
    # (24, 30) solves in sample space (K < P), (60, 15) in parameter space
    batch = repeated_rows_batch(*shape, seed=33)
    twin = expanded(batch)
    n_rows, n_params = batch.o_matrix.shape
    assert n_rows < shape[0] and (n_rows < n_params) == (shape[1] == 30)

    def close(a, b):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    force = estimate_forces(batch)
    twin_force = estimate_forces(twin)
    assert batch.e_mean == twin.e_mean
    close(force, twin_force)
    close(batch.o_mean, twin.o_mean)
    x = np.random.default_rng(34).normal(0, 1, n_params)
    close(apply_metric(batch, x, lam), apply_metric(twin, x, lam))
    close(sr_solve(batch, lam)[0], sr_solve(twin, lam)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", SR_SHAPES)
def test_sr_solve_rejects_non_finite(shape, bad):
    batch = make_batch(*shape, seed=32)
    o = batch.o_matrix.copy()
    o[1, 2] = bad
    broken = SrBatch(batch.samples, o, batch.e_loc, batch.counts, 0.5)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        sr_solve(broken, 1e-6)


def test_sr_iteration_moves_params(k3):
    p = init_random(3, seed=14)
    s = chain_init(p, seed=15)
    cfg = VmcConfig(n_samp=10, n_iter=1, seed=15)
    p2, batch, residual = sr_iteration(k3, p, s, cfg)
    assert p2.n == p.n and p2.m == p.m
    assert not np.array_equal(p2.pack(), p.pack())
    assert batch.n_kept == cfg.n_samp and residual >= 0.0
    assert 0.0 <= batch.accept_rate <= 1.0
    np.testing.assert_array_equal(batch.samples[-1], s.theta)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: the walker's cached log psi is not refreshed after an SR "
    "update, so a segment's first steps compare log psi under two parameter sets "
    "(ROADMAP item 15)"))
def test_chain_cache_tracks_the_sampled_parameters():
    # Metropolis needs log psi of the current position under the parameters
    # being sampled, at every segment start
    g = generate_graph(20, 60, (0, 15), 3)
    cfg = VmcConfig(n_samp=40, n_iter=3, lambda_reg=1e-9, seed=0)
    p = init_random(g.n, seed=[0, 1])
    chain = chain_init(p, cfg.seed)
    for _ in range(cfg.n_iter):
        assert chain.log_psi == pytest.approx(log_psi(p, chain.theta), rel=1e-12)
        p, _, _ = sr_iteration(g, p, chain, cfg)


@pytest.mark.parametrize("edgeless", [False, True])
def test_run_vmc_records_each_iteration(k3, edgeless):
    # the trace holds each iteration's batch and residual, as returned by
    # sr_iteration stepped by hand, and the best theta is the first
    # occurrence of the lowest sampled energy; on the edgeless graph every
    # energy is 0, so that is the first kept position of the first batch
    g = Graph(3, ()) if edgeless else k3
    cfg = VmcConfig(n_samp=8, n_warm=2, n_iter=6, seed=12)
    init = init_random(3, seed=[12, 1])
    trace = run_vmc(g, cfg, init)
    p, chain = init, chain_init(init, cfg.seed)
    energies, samples = [], []
    for it in range(cfg.n_iter):
        p, batch, residual = sr_iteration(g, p, chain, cfg)
        assert trace.e_mean[it] == batch.e_mean
        assert trace.accept_rate[it] == batch.accept_rate
        assert trace.residual[it] == residual
        assert trace.min_e_loc[it] == batch.e_loc.min()
        energies.extend(batch.e_loc)
        samples.extend(batch.samples)
    np.testing.assert_array_equal(trace.final_params.pack(), p.pack())
    first = int(np.argmin(energies))
    assert trace.best_energy == energies[first]
    np.testing.assert_array_equal(trace.best_theta, samples[first])
    if edgeless:
        assert first == 0 and len(samples) > 1
        assert not np.array_equal(samples[0], samples[-1])


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


def test_runaway_run_names_its_iteration(k3, monkeypatch):
    # a step of 1e160 breaks RbmParams' overflow bound at the first update,
    # before any energy is recorded
    cfg = VmcConfig(n_samp=10, n_iter=300, learning_rate=1e160, seed=0)
    with pytest.raises(ValueError) as info:
        run_vmc(k3, cfg, init_random(3, seed=[0, 1]))
    assert str(info.value).startswith("RbmParams.a, b: |b_i| + sum_j |a_ij| must be <=")
    assert str(info.value).endswith(
        "; the run stopped at iteration 1 of 300, learning_rate=1e+160, "
        "no finite e_mean recorded"
    )
    assert type(info.value.__cause__) is ValueError
    # a solve that fails at the third iteration names the second's energy
    cfg = VmcConfig(n_samp=10, n_iter=5, seed=0)
    normal = run_vmc(k3, cfg, init_random(3, seed=[0, 1]))
    calls = []

    def fail_third(batch, lam):
        calls.append(lam)
        if len(calls) == 3:
            raise FloatingPointError("non-finite values in the SR solution")
        return sr_solve(batch, lam)

    monkeypatch.setattr("rotorcut.vmc.sr_solve", fail_third)
    with pytest.raises(FloatingPointError) as info:
        run_vmc(k3, cfg, init_random(3, seed=[0, 1]))
    assert str(info.value) == (
        "non-finite values in the SR solution; the run stopped at iteration 3 of 5, "
        f"learning_rate=0.01, last finite e_mean {float(normal.e_mean[1])!r}"
    )
    assert type(info.value.__cause__) is FloatingPointError


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
