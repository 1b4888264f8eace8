import json
import math

import numpy as np
import pytest

from noncollide.cli import main


def run_cli(args):
    return main(args)


def test_sample_rows_sorted(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = run_cli(["sample", "--kind", "gue", "--n", "2", "--t", "1", "--count", "10",
                  "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# gue,2,1,7"
    assert len(lines) == 11
    for row in lines[1:]:
        a, b = map(float, row.split(","))
        assert a < b


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        rc = run_cli(["sample", "--kind", "gue", "--n", "2", "--t", "1", "--count", "10",
                      "--seed", "7", "--out", str(p)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_classd_symmetric_quadruples(tmp_path):
    out = tmp_path / "d.csv"
    rc = run_cli(["sample", "--kind", "classd", "--n", "2", "--count", "5",
                  "--seed", "3", "--out", str(out)])
    assert rc == 0
    for row in out.read_text().strip().split("\n")[1:]:
        vals = np.array([float(v) for v in row.split(",")])
        assert len(vals) == 4
        assert np.allclose(np.sort(vals) + np.sort(-vals)[::-1], 0.0, atol=1e-9)


def test_bad_kind_exit_2(capsys):
    assert run_cli(["sample", "--kind", "nosuch", "--n", "2"]) == 2


def test_bad_flag_exit_2(capsys):
    assert run_cli(["sample", "--kind", "gue", "--n", "2", "--bogus", "1"]) == 2


def test_runtime_failure_exit_3(capsys):
    # gse needs N >= 2: construction fails at runtime with a clean message
    assert run_cli(["sample", "--kind", "gse", "--n", "1"]) == 3


def test_table_tw_grid(tmp_path):
    out = tmp_path / "tw.csv"
    rc = run_cli(["table", "--what", "tw", "--alpha-min", "-1", "--alpha-max", "0",
                  "--step", "0.1", "--out", str(out), "--plot"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "alpha,F_fredholm,F_painleve,abs_diff"
    assert len(lines) == 2 + 11
    diffs = [float(r.split(",")[3]) for r in lines[2:]]
    assert max(diffs) <= 1e-6
    # plot script emitted and self-contained
    script = (tmp_path / "tw.csv.plot.py").read_text()
    assert "matplotlib" in script and "tw.csv" in script


def test_table_kernel_sine_diagonal(tmp_path):
    out = tmp_path / "k.csv"
    rc = run_cli(["table", "--what", "kernel", "--family", "sine", "--s", "1",
                  "--t", "1", "--x-min", "-2", "--x-max", "2", "--step", "0.5",
                  "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().split("\n")[2:]
    for row in rows:
        assert float(row.split(",")[4]) == pytest.approx(1 / math.pi, abs=1e-12)
    # two-time Airy diagonal at s - t = 0.107, where the kernel once raised
    rc = run_cli(["table", "--what", "kernel", "--family", "airy", "--s", "1.107",
                  "--t", "1", "--x-min", "-2", "--x-max", "2", "--step", "0.5",
                  "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().split("\n")[2:]
    assert len(rows) == 9
    assert all(math.isfinite(float(row.split(",")[4])) for row in rows)


def test_table_kernel_plot_uses_x_and_value(tmp_path):
    out = tmp_path / "k.csv"
    rc = run_cli(["table", "--what", "kernel", "--family", "hermite", "--n", "3",
                  "--x-min", "-1", "--x-max", "1", "--step", "0.5", "--out", str(out),
                  "--plot"])
    assert rc == 0
    script = (tmp_path / "k.csv.plot.py").read_text()
    assert "x, y = float(row[1]), float(row[4])" in script
    assert "plt.xlabel('x')" in script
    compile(script, "k.csv.plot.py", "exec")
    # the columns the script reads are x and the kernel value
    header = out.read_text().split("\n")[1].split(",")
    assert (header[1], header[4]) == ("x", "value")


def test_table_density_bm_is_gaussian(tmp_path):
    out = tmp_path / "d.csv"
    rc = run_cli(["table", "--what", "density", "--fn", "bm", "--t", "0.5",
                  "--x-min", "-1", "--x-max", "1", "--step", "0.5", "--out", str(out)])
    assert rc == 0
    for row in out.read_text().strip().split("\n")[2:]:
        y, v = map(float, row.split(","))
        assert v == pytest.approx(math.exp(-y * y) / math.sqrt(math.pi), rel=1e-12)


def test_verify_suite_hc(tmp_path, capsys):
    out = tmp_path / "hc.json"
    rc = run_cli(["verify", "--suite", "hc", "--seed", "1", "--out", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    assert all(all(r["verdicts"].values()) for r in reports)


def test_verify_sde_dt_override(tmp_path):
    out = tmp_path / "sde.json"
    rc = run_cli(["verify", "--suite", "sde", "--seed", "0", "--dt-max", "2e-3",
                  "--out", str(out)])
    assert rc == 0


def test_verify_dt_max_rejected_without_sde(capsys):
    rc = run_cli(["verify", "--suite", "fredholm", "--seed", "0", "--dt-max", "0.5"])
    assert rc == 2
    assert "--suite fredholm" in capsys.readouterr().err


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("NONCOLLIDE_SEED", "99")
    out = tmp_path / "s.csv"
    rc = run_cli(["sample", "--kind", "gue", "--n", "2", "--count", "1",
                  "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("# gue,2,1,99")
