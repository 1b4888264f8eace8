import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noncollide import ensembles as ens
from noncollide import experiments as ex
from noncollide.core import RngStream
from noncollide.errors import RouteInapplicable


def test_ks_identical_samples():
    a = np.linspace(0, 1, 50)
    r = ex.ks_statistic(a, a.copy())
    assert r.d == 0.0


def test_ks_vs_own_ecdf():
    a = np.sort(RngStream(1, 0).normal(200))

    def ecdf(x):
        return np.searchsorted(a, x, side="right") / len(a)

    r = ex.ks_statistic(a, ecdf)
    assert r.d <= 1.0 / len(a) + 1e-12


def test_ks_gaussian_sample():
    a = RngStream(2, 0).normal(10_000)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    r = ex.ks_statistic(a, cdf)
    assert r.critical_1pct == pytest.approx(1.628 / 100.0, rel=1e-12)
    assert r.passed


def test_gamma_q_and_chi2_critical():
    # Q(1/2, x/2) = erfc(sqrt(x/2)): chi-square dof 1
    for x in (0.5, 2.0, 5.0):
        assert ex._gamma_q(0.5, x / 2) == pytest.approx(
            math.erfc(math.sqrt(x / 2)), rel=1e-10
        )
    # textbook 1% critical values
    assert ex.chi2_critical(19) == pytest.approx(36.191, abs=2e-3)
    assert ex.chi2_critical(9) == pytest.approx(21.666, abs=2e-3)


def test_chi2_statistic_on_uniform():
    vals = RngStream(3, 0).uniform(5000)
    edges = np.linspace(0, 1, 21)
    r = ex.chi2_statistic(vals, edges, np.full(20, 0.05))
    assert r.dof == 19
    assert r.passed


def test_equal_mass_bins():
    dens = lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    edges, probs = ex.equal_mass_bins(dens, -8, 8, 10)
    assert len(edges) == 11
    assert np.all(np.diff(edges) > 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # median edge at 0 by symmetry
    assert abs(edges[5]) <= 1e-6


def test_report_roundtrip():
    rep = ex.ExperimentReport(
        experiment_id="x", parameters={"n": 2}, seed=0, streams=[1]
    )
    rep.add("stat", 0.5, True, stderr=0.1)
    rep.add("gate", 2.0, False, critical_value=1.5)
    text = rep.to_json()
    back = ex.ExperimentReport.from_json(text)
    assert back.to_json() == text
    assert back.passed is False
    assert back.verdicts == {"stat": True, "gate": False}


def test_report_json_deterministic():
    reps1 = ex.run_suite("densities", 0)
    reps2 = ex.run_suite("densities", 0)
    assert reps1[0].to_json() == reps2[0].to_json()


def test_run_equivalence_validation():
    with pytest.raises(RouteInapplicable):
        ex.run_equivalence_check("sde", "sde", {"n": 2}, RngStream(0, 0))


def test_run_equivalence_unknown_route_rejected_before_drawing():
    stream = RngStream(0, 0)
    params = {"system": "dyson", "beta": 2.0, "n": 2, "n_samples": 100}
    for routes in (("matrix", "kernal"), ("kernal", "matrix")):
        with pytest.raises(RouteInapplicable, match="kernal"):
            ex.run_equivalence_check(*routes, params, stream)
    # the stream is untouched: its next draw is a fresh stream's first
    assert stream.normal() == RngStream(0, 0).normal()


def test_run_equivalence_matrix_kernel():
    rep = ex.run_equivalence_check(
        "matrix", "kernel",
        {"system": "dyson", "beta": 2.0, "n": 4, "t": 0.5, "n_samples": 5000},
        RngStream(9, 1),
    )
    assert rep.passed


def test_run_equivalence_kernel_route_is_beta2_only():
    for beta in (1.0, 4.0):
        with pytest.raises(RouteInapplicable):
            ex.run_equivalence_check(
                "matrix", "kernel", {"system": "dyson", "beta": beta, "n": 2},
                RngStream(0, 0),
            )


def test_run_equivalence_independent_of_hash_seed():
    code = (
        "from noncollide import experiments as ex\n"
        "from noncollide.core import RngStream\n"
        "print(ex.run_equivalence_check('sde', 'matrix', {'system': 'dyson', 'beta': 2.0,"
        " 'n': 2, 't': 0.2, 'n_samples': 300, 'dt_max': 1e-2}, RngStream(3, 9)).to_json())\n"
    )
    src = str(Path(ex.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def test_run_marginal_requires_known_kind():
    with pytest.raises(RouteInapplicable):
        ex.run_marginal_check(ens.EnsembleKind("wishart", 2, nu=0), 1.0, 100, RngStream(0, 0))


def test_suite_unknown_name():
    from noncollide.errors import DomainError

    with pytest.raises(DomainError):
        ex.run_suite("nope", 0)
