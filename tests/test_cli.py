import os
import subprocess
import sys
from pathlib import Path

import pytest

from starfdr import cli as cli_module
from starfdr.cli import cli
from starfdr.experiments import CSV_HEADER

SRC = Path(__file__).resolve().parents[1] / "src"


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    code = cli([
        "experiment", "1", "--trials", "1", "--seed", "7",
        "--out", str(out), "--methods", "no_comm",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sweep,method,")
    assert len(lines) > 1


def test_experiment_bad_id_usage_error(tmp_path):
    assert cli(["experiment", "9"]) == 1


def test_missing_subcommand_usage_error():
    assert cli([]) == 1


def test_unreadable_config_runtime_error(capsys):
    assert cli(["simulate", "--config", "/nonexistent/path.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_runtime_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    assert cli(["simulate", "--config", str(cfg)]) == 2


def test_simulate_custom_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "id = unit\n"
        "sweep = n\n"
        "sweep_values = 300\n"
        "mu_slope = 1.5\n"
        "trials = 2\n"
        "methods = no_comm,greedy\n"
    )
    out = tmp_path / "sim.csv"
    assert cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "no_comm" in text and "greedy" in text


def test_optimal_region_all_null(tmp_path, capsys):
    cfg = tmp_path / "null.cfg"
    cfg.write_text("q = 1.0\nr0 = 1.0\nmu = 0.0\n")
    assert cli(["optimal-region", "--config", str(cfg), "--alpha", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "(empty)" in out
    assert "asymptotic FDR 0.000000" in out


def test_optimal_region_two_nodes(tmp_path, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("q = 0.6, 0.4\nr0 = 0.7, 0.8\nmu = 2.0, 3.0\nkind = gaussian\n")
    assert cli(["optimal-region", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "node 0:" in out and "node 1:" in out
    assert "asymptotic power" in out


def test_mismatched_config_lengths(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q = 1.0\nr0 = 0.5, 0.7\nmu = 2.0\n")
    assert cli(["optimal-region", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, text, where", [
    ("simulate", "sweep_values = 300\ntrails = 3\nmethod = no_comm\n", "2: unknown key 'trails'"),
    ("optimal-region", "q = 1.0\nr0 = 0.7\nmu = 2.0\nkinds = cauchy\n",
     "4: unknown key 'kinds'"),
])
def test_unknown_config_key_runtime_error(tmp_path, capsys, command, text, where):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    args = [command, "--config", str(cfg)]
    if command == "simulate":
        args += ["--out", str(out)]
    assert cli(args) == 2
    captured = capsys.readouterr()
    assert f"{cfg}:{where}" in captured.err and captured.out == "" and not out.exists()


def test_bench_times_a_sweep_point(capsys):
    assert cli(["bench"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and lines[-1].startswith("sweep 2c@3, 40 trials:  ")
    # the whole oracle op: optimal_region and the three bound calculators
    assert [line.split(":")[0] for line in lines[3:7]] == [
        "optimal region search", "null FDR bound", "alt heterogeneity", "alt bounds"]
    assert all(line.endswith(" s") for line in lines)


def test_bench_alt_bounds_do_their_work(monkeypatch, capsys):
    """The bench times alt_heterogeneity_bounds on a network where it
    computes both bounds, not on one where it returns None early."""
    got = []
    real = cli_module.alt_heterogeneity_bounds
    monkeypatch.setattr(cli_module, "alt_heterogeneity_bounds",
                        lambda *a: got.append(real(*a)) or got[-1])
    assert cli(["bench"]) == 0
    assert len(got) == 1 and got[0] is not None


def test_unknown_method_runtime_error(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert cli(["experiment", "2c", "--trials", "1", "--methods", "greedy,bh",
                "--out", str(out)]) == 2
    assert "unknown methods" in capsys.readouterr().err and not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "exp.csv"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "starfdr", "experiment", "2b", "--trials", "2",
         "--methods", "no_comm", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(",".join(CSV_HEADER) + "\n")


def test_simulate_empty_node_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("sweep = n\nsweep_values = 2\ntrials = 2\n")
    out = tmp_path / "tiny.csv"
    assert cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "sweep value n=2 leaves node 5 with no p-values" in capsys.readouterr().err
    assert not out.exists()
