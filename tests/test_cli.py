import json

import pytest

from rotorcut import brute_force_max_cut, parse_edge_list
from rotorcut.cli import main

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
    ])
    assert code == 0


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


def test_sweep_samp_warm_pairs(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main([
        "sweep", str(path), "--seeds", "0", "--axis", "samp_warm",
        "--values", "10:0,12:2", "--n-iter", "5",
    ])
    assert code == 0


def test_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_invalid_config_is_reported(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code = main(["run", str(path), "--n-samp", "1"])
    assert code == 2
    assert "n_samp" in capsys.readouterr().err


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
