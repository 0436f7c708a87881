import argparse
import json
import multiprocessing
import os
import time
from dataclasses import asdict, fields

import pytest

from rotorcut import experiments
from rotorcut import ExperimentSpec, VmcConfig, brute_force_max_cut, parse_edge_list
from rotorcut.cli import build_parser, main

K3_TEXT = "3 3\n1 2 1.0\n2 3 1.0\n1 3 1.0\n"


def test_gen_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main([
        "gen-graph", "--n", "10", "--m", "20", "--weights", "random",
        "--lo", "0", "--hi", "15", "--seed", "3", "-o", str(out),
    ])
    assert code == 0
    g = parse_edge_list(out.read_text())
    assert g.n == 10 and g.m == 20
    assert "n=10 m=20" in capsys.readouterr().out


def test_gen_graph_rejects_impossible(tmp_path, capsys):
    code = main(["gen-graph", "--n", "4", "--m", "99", "-o", str(tmp_path / "g.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # a weight range wider than a double is refused, not left to numpy's OverflowError
    code = main(["gen-graph", "--n", "4", "--m", "3", "--weights", "random",
                 "--lo=-1e308", "--hi=1e308", "-o", str(tmp_path / "g.txt")])
    assert code == 2
    assert "error: invalid weight range" in capsys.readouterr().err


def test_bruteforce(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    assert main(["bruteforce", str(path)]) == 0
    out = capsys.readouterr().out
    g = parse_edge_list(K3_TEXT)
    value, _ = brute_force_max_cut(g)
    assert f"optimal cut value: {value!r}" in out


def test_bruteforce_missing_file(capsys):
    assert main(["bruteforce", "/nonexistent/g.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_command(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    art = tmp_path / "art"
    code = main([
        "run", str(path), "--solver", "both", "--seeds", "0,1",
        "--n-samp", "10", "--n-iter", "10", "--label", "cli",
        "--out", str(art),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bmz: mean=" in out and "nqs: mean=" in out
    assert (art / "cli_stats.csv").exists()
    summary = json.loads((art / "cli_summary.json").read_text())
    assert summary["solver"] == "both"


def test_run_pretrained_flags(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main([
        "run", str(path), "--solver", "nqs", "--seeds", "0",
        "--n-samp", "10", "--n-iter", "5", "--init", "pretrained",
        "--r", "1.5", "--step", "0.5", "--lambda-reg", "1e-9",
        "--learning-rate", "0.02", "--alpha", "2.0",
        "--label", "pre", "--out", str(tmp_path / "art"),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "art" / "pre_summary.json").read_text())
    assert (summary["alpha"], summary["r"]) == (2.0, 1.5)
    assert summary["vmc_config"]["proposal_step"] == 0.5


def test_sweep_command(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main([
        "sweep", str(path), "--seeds", "0,1", "--n-samp", "10",
        "--axis", "n_iter", "--values", "5,10",
        "--label", "sw", "--out", str(tmp_path / "art"),
    ])
    assert code == 0
    assert (tmp_path / "art" / "sw_sweep_n_iter.csv").exists()
    assert "min=" in capsys.readouterr().out


def test_sweep_samp_warm_pairs(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main([
        "sweep", str(path), "--seeds", "0", "--axis", "samp_warm",
        "--values", "10:0,12:2", "--n-iter", "5",
    ])
    assert code == 0
    assert "(12, 2): min=" in capsys.readouterr().out
    code = main([
        "sweep", str(path), "--seeds", "0", "--axis", "samp_warm",
        "--values", "10", "--n-iter", "5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: sweep axis 'samp_warm' takes 2 value" in err
    assert "n_samp:n_warm" in err


def test_sweep_values_are_read_as_numbers(tmp_path, capsys):
    # a --values token is an int if int() reads it, else a float; VmcConfig
    # then checks it as it checks the flag of the same setting
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    sweep = ["sweep", str(path), "--seeds", "0", "--n-samp", "10", "--n-iter", "5"]
    for bad in ("3,x", "3,,5", "10:x", "True"):
        with pytest.raises(SystemExit) as exit_info:
            main([*sweep, "--axis", "n_iter", "--values", bad])
        assert exit_info.value.code == 2
        assert "argument --values: not a list of numbers" in capsys.readouterr().err
    for bad in ("3.0", "1e1", "nan"):
        code = main([*sweep, "--axis", "n_iter", "--values", bad])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: n_iter must be an integer"), err
    assert main([*sweep, "--axis", "lambda_reg", "--values", "1e-9,0,1e-7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["1e-09", "0.0", "1e-07"]


def test_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_invalid_config_is_reported(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main(["run", str(path), "--n-samp", "1"])
    assert code == 2
    assert "n_samp" in capsys.readouterr().err
    for bad in ("-1", "nan"):
        code = main(["run", str(path), "--sigma", bad])
        assert code == 2
        assert "sigma" in capsys.readouterr().err
    for flag, field in (
        ("--step", "proposal_step"),
        ("--learning-rate", "learning_rate"),
        ("--lambda-reg", "lambda_reg"),
    ):
        for bad in ("inf", "nan"):
            code = main(["run", str(path), flag, bad])
            assert code == 2
            assert field in capsys.readouterr().err
    code = main(["run", str(path), "--step", "1e308"])
    assert code == 2
    assert "proposal_step" in capsys.readouterr().err
    code = main(["run", str(path), "--seeds", "0,0"])
    assert code == 2
    assert "distinct" in capsys.readouterr().err
    code = main(["run", str(path), "--seeds", "-1"])
    assert code == 2
    assert "seeds" in capsys.readouterr().err
    # a token that is not an integer is a usage error of the flag itself
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(path), "--seeds", "0,x"])
    assert exit_info.value.code == 2
    assert "argument --seeds" in capsys.readouterr().err


def test_numerical_failure_is_reported(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise FloatingPointError("non-finite values in the SR solution")

    monkeypatch.setattr("rotorcut.vmc.sr_solve", fail)
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main(["run", str(path), "--solver", "nqs", "--seeds", "0",
                 "--n-samp", "10", "--n-iter", "5"])
    assert code == 2
    assert "error: non-finite values in the SR solution" in capsys.readouterr().err


def test_runaway_run_is_reported(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main(["run", str(path), "--solver", "nqs", "--seeds", "0",
                 "--n-samp", "10", "--n-iter", "5", "--learning-rate", "1e160"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RbmParams.a, b:") and "Traceback" not in err
    assert "the run stopped at iteration 1 of 5, learning_rate=1e+160" in err


def test_bad_out_dir_is_reported_before_any_seed(tmp_path, capsys, monkeypatch):
    seeds_run = []
    monkeypatch.setattr("rotorcut.experiments.run_seed",
                        lambda spec, seed: seeds_run.append(seed) or [])
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    for out in (path, path / "sub"):
        for command in (["run"], ["sweep", "--axis", "n_iter", "--values", "5"]):
            assert main([*command, str(path), "--out", str(out)]) == 2
            assert "error:" in capsys.readouterr().err
    assert seeds_run == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_vmc reaches the workers only by fork")
def test_crashed_worker_is_reported(tmp_path, capsys, monkeypatch):
    # a worker process that dies breaks the pool; the campaign ends in an
    # OSError naming the first seed without a result, which main reports
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    out = tmp_path / "out"
    kept = out / "trace_nqs_seed0.csv"
    real = experiments.run_vmc

    def die_on_seed_1(g, cfg, params):
        if cfg.seed == 1:
            deadline = time.monotonic() + 60.0
            while not kept.exists() and time.monotonic() < deadline:
                time.sleep(0.01)  # so that seed 0 finishes first
            os._exit(1)
        return real(g, cfg, params)

    monkeypatch.setattr(experiments, "run_vmc", die_on_seed_1)
    code = main(["run", str(path), "--seeds", "0,1,2", "--workers", "2",
                 "--n-iter", "5", "--n-samp", "10", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed 1 " in err
    assert [p.name for p in out.iterdir()] == [kept.name]
    assert len(kept.read_text().splitlines()) == 6


def test_every_solver_flag_sets_the_field_it_names():
    # _spec_from_args builds the configs by field name, so a flag whose dest
    # is not a field name would be dropped silently
    names = {f.name for cls in (VmcConfig, ExperimentSpec) for f in fields(cls)}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for parser in (sub.choices["run"], sub.choices["sweep"]):
        options = [a for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        dests = {a.dest for a in options} - {"axis", "values"}
        assert len(dests) == 15
        assert dests <= names, dests - names


def test_run_without_flags_takes_the_library_defaults(tmp_path, monkeypatch):
    specs = []
    monkeypatch.setattr("rotorcut.experiments.run_seed",
                        lambda spec, seed: specs.append(spec) or [])
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    art = tmp_path / "art"
    assert main(["run", str(path), "--out", str(art)]) == 0
    default = ExperimentSpec(graph=parse_edge_list(K3_TEXT), out_dir=str(art))
    assert specs == [default] * 10
    summary = json.loads((art / "experiment_summary.json").read_text())
    assert summary["seeds"] == list(range(10))
    vmc = asdict(VmcConfig())
    del vmc["seed"]
    assert summary["vmc_config"] == vmc
    for key in ("label", "solver", "init", "alpha", "r", "sigma"):
        assert summary[key] == getattr(default, key), key
