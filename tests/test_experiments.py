import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noncollide import ensembles as ens
from noncollide import experiments as ex
from noncollide import karlin_mcgregor as km
from noncollide.core import Chamber, RngStream, validate_chamber
from noncollide.errors import RouteInapplicable


def _ordered_moments(density, pts, w):
    """(int p_2 f, int p_4 f) over an ordered grid of configurations."""
    f = np.array([density(p) for p in pts])
    x2 = pts * pts
    return np.array([np.dot(w * f, x2.sum(axis=1)), np.dot(w * f, (x2 * x2).sum(axis=1))])


@pytest.mark.parametrize("tag,beta,n", [
    ("gue", 2.0, 1), ("gue", 2.0, 2), ("gue", 2.0, 3), ("goe", 1.0, 2), ("goe", 1.0, 3),
    ("gse", 4.0, 2), ("gse", 4.0, 3),
])
def test_gaussian_moments_vs_eigen_density(tag, beta, n):
    # 64 nodes per axis: N = 3 reads <= 4.7e-12 (GOE), against 2e-9 at 56 nodes
    t = 0.7
    kind = ens.EnsembleKind(tag, n)
    h = (2.0 * math.sqrt(n) + 8.0) * math.sqrt(t)
    pts, w = km._ordered_tensor_grid(64, -h, h, n)
    got = _ordered_moments(
        lambda p: ens.eigen_density_exact(kind, validate_chamber(p, Chamber.A), t), pts, w
    )
    assert np.max(np.abs(got / ex._gaussian_moments(beta, n, t) - 1.0)) <= 1e-10


def test_gaussian_moments_harer_zagier_integers():
    for n in range(1, 9):
        assert ex._gaussian_moments(2.0, n, 1.0) == (n * n, 2 * n ** 3 + n)


@pytest.mark.parametrize("nu", [0.0, 0.5, -0.5, 2.3])
def test_laguerre_moments_vs_p_n_nu_origin(nu):
    # ordered grid on (0, 1)^2 mapped by x = h u^4, which flattens the x^(2 nu + 1) edge;
    # 96 nodes per axis read <= 4.9e-15, 48 nodes 3.7e-8 (nu = 2.3)
    t = 0.7
    h = 18.0 * math.sqrt(t)
    u, wu = km._ordered_tensor_grid(96, 0.0, 1.0, 2)
    pts = h * u ** 4
    w = wu * np.prod(4.0 * h * u ** 3, axis=1)
    got = _ordered_moments(
        lambda p: km.p_n_nu_origin(nu, t, validate_chamber(p, Chamber.C)), pts, w
    )
    assert np.max(np.abs(got / ex._laguerre_moments(nu, 2, t) - 1.0)) <= 1e-12


def test_bridge_moments_end_at_goe_and_gue():
    for n in range(1, 9):
        for t in (0.25, 1.0, 3.0):
            assert ex._bridge_moments(n, t, 0.0) == ex._gaussian_moments(1.0, n, t)
            assert ex._bridge_moments(n, t, t) == ex._gaussian_moments(2.0, n, t)


def test_moment_gate_statistic():
    levels = np.array([[0.5, -1.0], [2.0, 0.0], [-1.5, 1.0], [0.0, 0.3], [1.0, 1.0]])
    exact = (3.0, 9.0)
    p2 = np.sum(levels ** 2, axis=1)
    p4 = np.sum(levels ** 4, axis=1)
    d2, d4 = p2.mean() - exact[0], p4.mean() - exact[1]
    s22, s44 = p2.var(ddof=1), p4.var(ddof=1)
    s24 = np.sum((p2 - p2.mean()) * (p4 - p4.mean())) / 4.0
    by_hand = 5.0 * (s44 * d2 * d2 - 2.0 * s24 * d2 * d4 + s22 * d4 * d4) / (s22 * s44 - s24 ** 2)
    rep = ex.ExperimentReport(experiment_id="x", parameters={}, seed=0, streams=[])
    ex._moment_gate(rep, "g", levels, exact)
    assert rep.statistics[0]["value"] == pytest.approx(by_hand, rel=1e-12)
    assert rep.statistics[0]["critical_value"] == pytest.approx(18.420680743952364, rel=1e-15)
    assert rep.verdicts["g"] == (by_hand <= 18.420680743952364)
    # the scalar gates use the two-sided normal point at the same level
    assert math.erfc(ex._Z_CRIT / math.sqrt(2.0)) == pytest.approx(1e-4, rel=1e-6)


def test_run_marginal_any_beta_and_size():
    for kind in (ens.EnsembleKind("beta_tridiagonal", 4, beta=3.0), ens.EnsembleKind("gue", 5)):
        rep = ex.run_marginal_check(kind, 1.0, 4000, RngStream(17, 0))
        assert rep.passed and "moments" in rep.verdicts


@pytest.mark.parametrize("kind", [ens.EnsembleKind("laguerre", 3, nu=2),
                                  ens.EnsembleKind("class_c", 3), ens.EnsembleKind("class_d", 3)],
                         ids=lambda k: k.tag)
def test_run_marginal_bessel_system_spectra(kind):
    """Laguerre and class C/D spectra are the Bessel system from 0: gated on
    the Laguerre moments at nu, +1/2 and -1/2."""
    rep = ex.run_marginal_check(kind, 0.7, 4000, RngStream(17, 1))
    assert rep.passed and "moments" in rep.verdicts


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
