import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rotorcut import (
    ExperimentSpec,
    VmcConfig,
    bmz_minimize,
    random_start,
    run_experiment,
    run_sweep,
)
from rotorcut import experiments
from rotorcut.experiments import (
    SeedResult, aggregate, run_seed, write_stats_csv, write_sweep_csv,
)
from rotorcut.rbm import init_random
from rotorcut.vmc import RunTrace, write_trace_csv

FAST = VmcConfig(n_samp=10, n_iter=15)


def strip_wall_column(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n")]


def test_spec_validation(k3):
    with pytest.raises(ValueError):
        ExperimentSpec(graph=k3, solver="sdp")
    with pytest.raises(ValueError):
        ExperimentSpec(graph=k3, init="warm")
    with pytest.raises(ValueError):
        ExperimentSpec(graph=k3, seeds=())
    with pytest.raises(ValueError, match="distinct"):
        ExperimentSpec(graph=k3, seeds=(0, 0))
    for bad in ((1.5,), (-1,), ("0",)):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec(graph=k3, seeds=bad)
    seeds = ExperimentSpec(graph=k3, seeds=tuple(np.arange(2))).seeds
    assert seeds == (0, 1) and all(type(s) is int for s in seeds)
    with pytest.raises(ValueError):
        ExperimentSpec(graph=k3, workers=0)
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match="workers must be an integer"):
            ExperimentSpec(graph=k3, workers=bad)
    assert type(ExperimentSpec(graph=k3, workers=np.int64(2)).workers) is int
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentSpec(graph=k3, alpha=bad)
    for field in ("r", "sigma"):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=field):
                ExperimentSpec(graph=k3, **{field: bad})
    ExperimentSpec(graph=k3, r=0.0, sigma=0.0)


def test_spec_rejects_unwritable_artifact_names(k3, tmp_path):
    # the label starts every artifact's file name, so a label that is not a
    # file name fails when the spec is built, before any seed runs
    out = tmp_path / "out"
    for bad in ("a/b", "", ".", "..", "a\0b", 3, None):
        with pytest.raises(ValueError, match=r"^label must be a file name"):
            ExperimentSpec(graph=k3, solver="bmz", seeds=(0, 1), label=bad, out_dir=out)
    assert not out.exists()
    spec = ExperimentSpec(graph=k3, solver="bmz", seeds=(0,), label="a.b-c", out_dir=out / "x")
    assert spec.label == "a.b-c"


def test_bad_out_dir_fails_before_any_seed(k3, tmp_path, monkeypatch):
    # out_dir is made before the first seed, so the OS rejects a directory
    # that is, or lies under, a file, and no seed runs
    seeds_run = []
    monkeypatch.setattr("rotorcut.experiments.run_seed",
                        lambda spec, seed: seeds_run.append(seed) or [])
    a_file = tmp_path / "taken.txt"
    a_file.write_text("")
    for bad in (a_file, str(a_file), a_file / "sub"):
        spec = ExperimentSpec(graph=k3, seeds=(0, 1), vmc=FAST, out_dir=bad)
        with pytest.raises(OSError):
            run_experiment(spec)
        with pytest.raises(OSError):
            run_sweep(spec, "n_iter", [5])
    assert seeds_run == []
    # a directory that does not exist yet is made, with its parents
    run_experiment(ExperimentSpec(graph=k3, seeds=(0,), out_dir=tmp_path / "a" / "b"))
    assert (tmp_path / "a" / "b").is_dir() and seeds_run == [0]


def test_failing_seed_keeps_earlier_traces(k3, tmp_path, monkeypatch):
    # each seed's trace is written when it finishes, so a seed that raises
    # leaves the traces of the seeds before it, byte for byte
    base = dict(graph=k3, solver="nqs", seeds=(0, 1, 2), vmc=FAST)
    run_experiment(ExperimentSpec(out_dir=tmp_path / "clean", **base))
    real = experiments.run_vmc

    def fail_seed_1(g, cfg, params):
        if cfg.seed == 1:
            raise FloatingPointError("seed 1 failed")
        return real(g, cfg, params)

    monkeypatch.setattr(experiments, "run_vmc", fail_seed_1)
    with pytest.raises(FloatingPointError, match="seed 1 failed"):
        run_experiment(ExperimentSpec(out_dir=tmp_path / "cut", **base))
    name = "trace_nqs_seed0.csv"
    assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == [name]


def test_csv_cells_parse_back_to_the_written_floats(tmp_path):
    # every CSV artifact goes through one writer: a float cell, numpy scalar
    # or not, is repr(float(v)); ints and solver names print bare
    values = np.array([0.1, 1 / 3, 5e-324, -0.0, 1e300])
    trace = RunTrace(
        e_mean=values, accept_rate=values[::-1].copy(), residual=-values,
        min_e_loc=values, final_params=init_random(2, seed=0), best_theta=np.zeros(2),
        best_energy=values[1], best_cut_value=values[0], best_cut_assignment=np.ones(2),
        config=FAST, wall_time_s=values[2],
    )
    write_trace_csv(trace, tmp_path / "trace.csv")
    rows = [SeedResult("nqs", np.int64(s), e, c, w)
            for s, e, c, w in zip(range(3), values, values[1:], values[2:])]
    write_stats_csv(rows, tmp_path / "stats.csv")
    stats = aggregate(rows)
    assert stats.max == max(e for _, e, _, _ in stats.per_seed) == values[:3].max()
    table = [((20, 4), stats), ((10, 0), replace(stats, mean=values[3], min=values[4]))]
    write_sweep_csv("samp_warm", table, tmp_path / "sweep.csv")

    def parsed(name):
        text = (tmp_path / name).read_text()
        assert "np.float64(" not in text and text.endswith("\n")
        return [line.split(",") for line in text.splitlines()]

    def same_float(cell, value):
        x = float(cell)
        return x == value and math.copysign(1.0, x) == math.copysign(1.0, value)

    lines = parsed("trace.csv")
    assert len(lines) == 1 + values.size
    assert lines[0] == ["iteration", "e_mean", "accept_rate", "residual"]
    for k, (it, *cells) in enumerate(lines[1:]):
        assert it == str(k + 1)
        expected = (trace.e_mean[k], trace.accept_rate[k], trace.residual[k])
        assert all(map(same_float, cells, expected))
    lines = parsed("stats.csv")
    assert len(lines) == 1 + len(rows)
    assert lines[0] == ["solver", "seed", "energy", "cut_value", "wall_time_s"]
    for row, (solver, seed, *cells) in zip(rows, lines[1:]):
        assert (solver, seed) == ("nqs", str(row.seed))
        assert all(map(same_float, cells, (row.energy, row.cut_value, row.wall_time_s)))
    lines = parsed("sweep.csv")
    assert len(lines) == 1 + len(table)
    assert lines[0] == ["n_samp", "n_warm", "min", "mean", "max"]
    for ((n_samp, n_warm), s), (samp, warm, *cells) in zip(table, lines[1:]):
        assert (samp, warm) == (str(n_samp), str(n_warm))
        assert all(map(same_float, cells, (s.min, s.mean, s.max)))


def test_aggregate_matches_recomputation():
    rows = [
        SeedResult("nqs", s, e, c, w)
        for s, e, c, w in [(0, -1.0, 2.0, 0.1), (1, -1.5, 2.0, 0.2), (2, -0.5, 1.0, 0.3)]
    ]
    stats = aggregate(rows)
    energies = np.array([r.energy for r in rows])
    assert stats.mean == pytest.approx(energies.mean(), abs=1e-12)
    assert stats.std == pytest.approx(energies.std(ddof=0), abs=1e-12)
    assert stats.min == pytest.approx(energies.min(), abs=1e-12)
    assert len(stats.per_seed) == 3
    assert stats.min <= stats.mean
    assert stats.std >= 0.0


def test_aggregate_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_run_seed_both_solvers(k4):
    spec = ExperimentSpec(graph=k4, solver="both", seeds=(0,), vmc=FAST)
    rows = run_seed(spec, 0)
    assert [r.solver for r in rows] == ["bmz", "nqs"]
    assert rows[0].trace is None
    assert rows[1].trace is not None
    assert rows[0].energy == pytest.approx(-2.0, abs=1e-8)


def test_pretrained_starts_near_bmz_solution(k4):
    base = dict(graph=k4, solver="nqs", seeds=(0,), vmc=FAST, r=2.0)
    cold = run_seed(ExperimentSpec(init="random", **base), 0)[0]
    warm = run_seed(ExperimentSpec(init="pretrained", **base), 0)[0]
    assert warm.trace.e_mean[0] < cold.trace.e_mean[0]
    assert warm.trace.e_mean[0] < -0.5


def test_run_experiment_stats_and_artifacts(k3, tmp_path):
    spec = ExperimentSpec(
        graph=k3, solver="both", seeds=(0, 1, 2), vmc=FAST,
        init="pretrained", alpha=2.0, r=1.5, sigma=0.2,
        label="unit", out_dir=str(tmp_path),
    )
    stats = run_experiment(spec)
    assert set(stats) == {"bmz", "nqs"}
    for s in stats.values():
        assert len(s.per_seed) == 3
        energies = np.array([e for _, e, _, _ in s.per_seed])
        assert s.mean == pytest.approx(energies.mean(), abs=1e-12)
        assert s.std == pytest.approx(energies.std(), abs=1e-12)
        assert s.min == pytest.approx(energies.min(), abs=1e-12)

    assert (tmp_path / "unit_stats.csv").exists()
    for seed in (0, 1, 2):
        assert (tmp_path / f"trace_nqs_seed{seed}.csv").exists()
    summary = json.loads((tmp_path / "unit_summary.json").read_text())
    assert summary["graph"]["n"] == 3
    assert set(summary["stats"]) == {"bmz", "nqs"}
    assert summary["stats"]["nqs"]["min"] <= summary["stats"]["nqs"]["mean"]
    init = {key: summary[key] for key in ("init", "alpha", "r", "sigma")}
    assert init == {"init": "pretrained", "alpha": 2.0, "r": 1.5, "sigma": 0.2}
    assert "alpha" not in summary["vmc_config"]
    # each run's chain seeds from its entry of "seeds", so FAST.seed is not echoed
    assert "seed" not in summary["vmc_config"]
    assert summary["seeds"] == [0, 1, 2]

    spec = ExperimentSpec(
        graph=k3, solver="bmz", seeds=tuple(np.arange(3, 5)),
        label="numpy_seeds", out_dir=str(tmp_path),
    )
    run_experiment(spec)
    summary = json.loads((tmp_path / "numpy_seeds_summary.json").read_text())
    assert summary["seeds"] == [3, 4]


def test_rerun_reproduces_csv_bodies(k3, tmp_path):
    def once(out):
        spec = ExperimentSpec(
            graph=k3, solver="nqs", seeds=(0, 1), vmc=FAST,
            label="rep", out_dir=str(out),
        )
        run_experiment(spec)
        return out

    a = once(tmp_path / "a")
    b = once(tmp_path / "b")
    assert strip_wall_column((a / "rep_stats.csv").read_text()) == strip_wall_column(
        (b / "rep_stats.csv").read_text()
    )
    for seed in (0, 1):
        name = f"trace_nqs_seed{seed}.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parallel_matches_serial(k3):
    base = dict(graph=k3, solver="nqs", seeds=(0, 1, 2, 3), vmc=FAST)
    serial = run_experiment(ExperimentSpec(workers=1, **base))
    parallel = run_experiment(ExperimentSpec(workers=2, **base))
    assert serial["nqs"].per_seed == parallel["nqs"].per_seed or [
        row[:3] for row in serial["nqs"].per_seed
    ] == [row[:3] for row in parallel["nqs"].per_seed]


def test_sweep_table_and_csv(k3, tmp_path):
    spec = ExperimentSpec(
        graph=k3, solver="nqs", seeds=(0, 1), vmc=FAST,
        label="sw", out_dir=str(tmp_path),
    )
    table = run_sweep(spec, "n_iter", [5, 10])
    assert len(table) == 2
    assert table[0][0] == 5
    lines = (tmp_path / "sw_sweep_n_iter.csv").read_text().strip().split("\n")
    assert lines[0] == "n_iter,min,mean,max"
    assert len(lines) == 3

    pairs = run_sweep(spec, "samp_warm", [(10, 0), (12, 2)])
    assert len(pairs) == 2
    lam = run_sweep(spec, "lambda_reg", [1e-9, 1e-7])
    assert len(lam) == 2


def test_sweep_guards(k3):
    spec = ExperimentSpec(graph=k3, solver="bmz", seeds=(0,), vmc=FAST)
    with pytest.raises(ValueError):
        run_sweep(spec, "n_iter", [5])
    nqs = ExperimentSpec(graph=k3, solver="nqs", seeds=(0,), vmc=FAST)
    with pytest.raises(ValueError):
        run_sweep(nqs, "bogus", [1])
    with pytest.raises(ValueError):
        run_sweep(nqs, "n_iter", [])
    with pytest.raises(ValueError, match="'samp_warm' takes 2 value"):
        run_sweep(nqs, "samp_warm", [(10, 0), 10])
    with pytest.raises(ValueError, match="'n_iter' takes 1 value"):
        run_sweep(nqs, "n_iter", [(5, 3)])
    with pytest.raises(ValueError, match="n_iter must be an integer, got 5.7"):
        run_sweep(nqs, "n_iter", [5.7])
    with pytest.raises(ValueError, match="n_warm must be an integer"):
        run_sweep(nqs, "samp_warm", [(10, 0.5)])
    with pytest.raises(ValueError, match="'n_iter': n_iter must be an integer, got 'ten'"):
        run_sweep(nqs, "n_iter", ["ten"])
    with pytest.raises(ValueError, match="'lambda_reg': lambda_reg must be a number"):
        run_sweep(nqs, "lambda_reg", ["tiny"])
    # integral spellings of an integer, as the CLI passes them, are accepted
    table = run_sweep(nqs, "samp_warm", [("1e1", "2.0"), (8.0, "0")])
    assert [point for point, _ in table] == [(10, 2), (8, 0)]
    assert all(type(v) is int for point, _ in table for v in point)


def test_seed_streams_are_separated(k3):
    # the chain, the parameter init, and the BMZ start must draw from
    # distinct streams derived from the same seed
    theta_bmz = random_start(k3.n, seed=[0, 2])
    rows = run_seed(
        ExperimentSpec(graph=k3, solver="bmz", seeds=(0,), vmc=FAST), 0
    )
    ref_theta, ref_energy, _ = bmz_minimize(k3, theta_bmz)
    assert rows[0].energy == pytest.approx(ref_energy, abs=1e-12)
