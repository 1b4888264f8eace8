import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_workloads_check_their_outputs():
    # one round of each workload: a library change that breaks a workload's output
    # checks fails here, not first in a benchmark run
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    results = dict(line.split(": ", 1) for line in proc.stdout.strip().splitlines())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(results) == {w["name"] for w in declared}, proc.stdout
    for name, line in results.items():
        last = json.loads(line)
        assert last["correct"] is True and last["failed"] == 0, (name, last)
        assert last["attempted"] > 0, name


def test_setup_probe_builds_the_painleve_table(monkeypatch):
    # setup_s counts the Painleve table only while the probe's set-up builds it
    from noncollide import fredholm

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("setup_probe", ROOT / "bench" / "setup_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    monkeypatch.setattr(fredholm, "_TABLE", None)
    probe.setup(fredholm)
    assert isinstance(fredholm._TABLE, fredholm._PainleveTable)
