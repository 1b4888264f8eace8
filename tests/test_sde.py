import math
import sys
import threading

import numpy as np
import pytest

from noncollide import ensembles as ens
from noncollide import core, sde
from noncollide.core import RngStream, TimeGrid, validate_chamber
from noncollide.errors import BetaOutOfRange, DomainError, NuOutOfRange, StepFloorReached
from oracles import two_sample_ks

A = lambda *v: validate_chamber(list(v), "A")
GRID1 = TimeGrid.of([1.0])


def test_beta_range():
    with pytest.raises(BetaOutOfRange):
        sde.simulate_dyson(0.5, A(0.0, 1.0), GRID1, RngStream(0, 0))


def test_nu_range():
    with pytest.raises(NuOutOfRange):
        sde.simulate_bessel_system(-0.7, [0.0, 0.0], GRID1, RngStream(0, 0))


def test_single_particle_is_brownian():
    cloud = sde.dyson_cloud(2.0, [0.0], GRID1, RngStream(21, 0), 1e-2, 10_000)
    v = cloud[:, 0, 0].var()
    se = v * math.sqrt(2.0 / len(cloud))
    assert abs(v - 1.0) <= 3 * se


def test_dyson_beta2_matches_gue():
    cloud = sde.dyson_cloud(2.0, [0.0, 0.0], GRID1, RngStream(21, 1), 1e-3, 10_000)
    gue = ens.sample_spectra(ens.EnsembleKind("gue", 2), 1.0, 100_000, RngStream(21, 2))
    d, crit = two_sample_ks(cloud[:, 0, :].ravel(), gue.ravel())
    assert d <= crit


def test_dyson_ordering_hard_assertion():
    run = sde.simulate_dyson(
        2.0, A(-1.0, 0.0, 1.0), TimeGrid.of([0.25, 0.5, 1.0]), RngStream(21, 3)
    )
    assert np.all(np.diff(run.paths, axis=1) > 0.0)


def test_bessel3_second_moment():
    cloud = sde.bessel_cloud(0.5, [0.0], GRID1, RngStream(21, 4), 1e-3, 10_000)
    m = (cloud[:, 0, 0] ** 2).mean()
    se = (cloud[:, 0, 0] ** 2).std() / math.sqrt(len(cloud))
    assert abs(m - 3.0) <= 3 * se


def test_bessel_nu0_matches_sqrt_laguerre():
    cloud = sde.bessel_cloud(0.0, [0.0, 0.0], GRID1, RngStream(21, 5), 1e-3, 8_000)
    lam = ens.sample_spectra(
        ens.EnsembleKind("laguerre", 2, nu=0), 1.0, 80_000, RngStream(21, 6)
    )
    d, crit = two_sample_ks(cloud[:, 0, :].ravel(), np.sqrt(lam).ravel())
    assert d <= crit


def test_bessel_positivity():
    cloud = sde.bessel_cloud(0.5, [0.0, 0.0], GRID1, RngStream(21, 7), 1e-3, 2_000)
    assert cloud.min() > 0.0
    refl = sde.bessel_cloud(-0.5, [0.0, 0.0], GRID1, RngStream(21, 8), 1e-3, 2_000)
    assert refl.min() >= 0.0


def test_exchangeability_across_streams():
    a = sde.dyson_cloud(2.0, [0.0, 0.0], GRID1, RngStream(21, 9), 2e-3, 4_000)
    b = sde.dyson_cloud(2.0, [0.0, 0.0], GRID1, RngStream(77, 10), 2e-3, 4_000)
    d, crit = two_sample_ks(a[:, 0, :].ravel(), b[:, 0, :].ravel())
    assert d <= crit


def test_step_halving_weak_convergence():
    # independent streams, as the stderr below assumes
    x0 = A(-0.5, 0.5)
    a = sde.dyson_cloud(2.0, x0, GRID1, RngStream(21, 11), 1e-3, 4_000)
    b = sde.dyson_cloud(2.0, x0, GRID1, RngStream(21, 15), 5e-4, 4_000)
    ma, mb = a[:, 0, 1].mean(), b[:, 0, 1].mean()
    se = math.hypot(a[:, 0, 1].std(), b[:, 0, 1].std()) / math.sqrt(4000)
    assert abs(ma - mb) <= 3 * se


def test_determinism():
    r1 = sde.simulate_dyson(2.0, A(-1.0, 1.0), GRID1, RngStream(3, 3), 1e-2)
    r2 = sde.simulate_dyson(2.0, A(-1.0, 1.0), GRID1, RngStream(3, 3), 1e-2)
    assert np.array_equal(r1.paths, r2.paths)


def test_zero_start_unrealizable_nu():
    with pytest.raises(DomainError):
        sde.simulate_bessel_system(0.25, [0.0, 0.0], GRID1, RngStream(0, 0))


def test_zero_start_beta3_via_tridiagonal():
    run = sde.simulate_dyson(3.0, [0.0, 0.0], GRID1, RngStream(21, 12), 1e-2)
    assert np.all(np.diff(run.paths, axis=1) > 0.0)


def test_interior_bessel_start():
    run = sde.simulate_bessel_system(
        0.5, validate_chamber([0.5, 1.5], "C"), GRID1, RngStream(21, 13), 1e-3
    )
    assert run.paths.min() > 0.0


def test_dump_path_csv():
    run = sde.simulate_dyson(2.0, A(-1.0, 1.0), TimeGrid.of([0.5, 1.0]), RngStream(9, 0))
    text = sde.dump_path_csv(run, seed=9)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# system=dyson")
    assert lines[1] == "time,particle_index,position"
    assert len(lines) == 2 + 2 * 2
    t, idx, pos = lines[2].split(",")
    assert float(t) == 0.5 and int(idx) == 0
    assert float(pos) == run.paths[0, 0]


def test_step_stats_recorded():
    run = sde.simulate_dyson(2.0, A(-0.01, 0.01), GRID1, RngStream(21, 14), 5e-2)
    assert "rejected_steps" in run.step_stats


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 17, 128, 129, 300])
def test_row_sum_matches_contiguous_reduce(k):
    """The (N, K, P) row sum adds in the order of numpy's sum along a
    contiguous axis, so the particle-major engine keeps the path-major bits."""
    rng = np.random.default_rng(k)
    a = rng.standard_normal((3, k, 5)) * np.exp(8.0 * rng.standard_normal((3, k, 5)))
    path_major = np.ascontiguousarray(a.transpose(2, 0, 1))
    assert np.array_equal(sde._row_sum(a), np.add.reduce(path_major, axis=-1).T)


# Pinned random-number path of the halving engine: (system, param, x0, output
# times, stream id, dt_max, paths) -> (rejected_steps, max_halving_depth) and
# the coordinates [0, -1, 0], [paths // 2, 0, 1], [-1, -1, -1] of the cloud.
# Any change to the draws or to the step arithmetic moves these values.
RNG_PATH_CASES = {
    # the first drift kick splits the pair; nothing is rejected
    "dyson_b2_wall_5e-2": (
        ("dyson", 2.0, [-0.01, 0.01], (0.5, 1.0), 40, 5e-2, 400), (0, 0),
        (-2.5726684174613466, 3.1410633356407254, 1.4422638714405478)),
    "dyson_b2_wall_1e-2": (
        ("dyson", 2.0, [-0.01, 0.01], (0.5, 1.0), 40, 1e-2, 400), (43, 3),
        (-1.57177650383229, 1.6978909463467597, 3.1898116926437985)),
    "dyson_b1_n5_zero_start": (
        ("dyson", 1.0, [0.0] * 5, (0.5, 1.0), 41, 2e-2, 200), (4245, 5),
        (-1.7396511399157981, -1.3322798434744125, 2.0186347117812478)),
    "bessel_reflecting": (
        ("bessel", -0.5, [0.05, 0.3], (0.5, 1.0), 42, 1e-2, 400), (705, 3),
        (0.33877697946867763, 1.8963787143524957, 2.9062054355179634)),
    "bessel_nu0_n8_interior": (
        ("bessel", 0.0, [0.5 * (k + 1) for k in range(8)], (0.5, 1.0), 43, 1e-2, 100),
        (2124, 4), (0.597254381408896, 0.8646477966060998, 9.093041779294078)),
    # N = 9: the pairwise sum over 8 terms and more, with a remainder of 1
    "dyson_b4_n9_interior": (
        ("dyson", 4.0, [0.3 * (k - 4) for k in range(9)], (0.5, 1.0), 45, 1e-2, 120),
        (2787, 4), (-7.037919192702657, -3.349357954912628, 5.642055302304877)),
    # N = 17: two blocks of 8 and a remainder of 1
    "bessel_nu1_n17_interior": (
        ("bessel", 1.0, [0.3 * (k + 1) for k in range(17)], (0.5, 1.0), 46, 1e-2, 60),
        (11819, 7), (1.0765598420846998, 0.8337514682120635, 12.546949130291166)),
    # steps of 16 reach the floor dt_max / 2**10 and its same-size retries
    "bessel_floor_retries": (
        ("bessel", 0.0, [0.5, 1.0, 1.5], (16.0,), 44, 16.0, 50), (2430, 11),
        (2.784417943785862, 11.307910588920441, 16.124733731139514)),
}


@pytest.mark.parametrize("case", sorted(RNG_PATH_CASES))
def test_rng_path_pinned(case):
    (system, param, x0, times, sid, dt_max, paths), stats, coords = RNG_PATH_CASES[case]
    out, got = sde._run_cloud(system, param, x0, TimeGrid.of(times), RngStream(21, sid),
                              dt_max, paths)
    assert (got["rejected_steps"], got["max_halving_depth"]) == stats
    assert (out[0, -1, 0], out[paths // 2, 0, 1], out[-1, -1, -1]) == coords


@pytest.mark.parametrize("case", ["dyson_b2_wall_1e-2", "bessel_nu0_n8_interior"])
def test_drift_once_per_proposal(case, monkeypatch):
    """Each proposal costs one drift evaluation, plus one per advance segment."""
    (system, param, x0, times, sid, dt_max, paths), _, _ = RNG_PATH_CASES[case]
    calls = {"drift": 0}
    name = "_dyson_drift" if system == "dyson" else "_bessel_drift"
    make_drift = getattr(sde, name)

    def counted_make(p):
        drift = make_drift(p)

        def counted(x):
            calls["drift"] += 1
            return drift(x)

        return counted

    monkeypatch.setattr(sde, name, counted_make)
    _, stats = sde._run_cloud(system, param, x0, TimeGrid.of(times), RngStream(21, sid),
                              dt_max, paths)
    assert stats["max_halving_depth"] > 0
    assert calls["drift"] == stats["proposals"] + len(times)


def test_chunked_philox_normals_equal_one_draw():
    """Gaussian draws in chunks are one draw of the total size, in order, and
    leave the generator in the same state: the prefetched blocks rest on this."""
    sizes = (8000, 3, 1, 65536, 17)
    a, b = RngStream(5, 1), RngStream(5, 1)
    chunks = np.concatenate([a.normal(k) for k in sizes])
    assert np.array_equal(chunks, b.normal(sum(sizes)))
    # the state dict holds small uint64 arrays; their repr shows every element
    assert repr(a._gen.bit_generator.state) == repr(b._gen.bit_generator.state)


@pytest.mark.parametrize("k", [0, 1, 999, 1000, 1001, 2500])
@pytest.mark.parametrize("threaded", [True, False])
def test_prefetch_takes_in_stream_order(k, threaded, monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2 if threaded else 1)
    a, b = RngStream(6, 2), RngStream(6, 2)
    sizes = (k, 7, k)
    with core.NormalPrefetch(a, 1000) as src:
        got = np.concatenate([src.take(n) for n in sizes])
    assert np.array_equal(got, b.normal(sum(sizes)))
    assert np.array_equal(a.normal(5), b.normal(5))


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("case", sorted(RNG_PATH_CASES))
def test_cloud_leaves_stream_where_direct_draws_would(case, threaded, monkeypatch):
    """With the helper thread on and off: the pinned cloud, and the stream
    after it advanced by exactly the normals the engine took."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2 if threaded else 1)
    (system, param, x0, times, sid, dt_max, paths), pinned, coords = RNG_PATH_CASES[case]
    stream = RngStream(21, sid)
    out, stats = sde._run_cloud(system, param, x0, TimeGrid.of(times), stream, dt_max, paths)
    assert (stats["rejected_steps"], stats["max_halving_depth"]) == pinned
    assert (out[0, -1, 0], out[paths // 2, 0, 1], out[-1, -1, -1]) == coords
    # a twin advanced as direct draws would have: the zero-start bootstrap, then
    # the engine's normals
    twin = RngStream(21, sid)
    if not any(x0):
        ens.origin_spectra(system, param, len(x0), min(dt_max, times[0]), paths, twin)
    twin.normal(stats["normals"])
    assert np.array_equal(stream.normal(5), twin.normal(5))


@pytest.mark.parametrize("threaded", [True, False])
def test_raising_cloud_rewinds_stream_and_stops_helper(threaded, monkeypatch):
    """NaN drift rejects every proposal: one per halving down to the floor,
    then the floor retries, then StepFloorReached; the stream is rewound to
    exactly those draws and the helper thread is gone."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2 if threaded else 1)
    monkeypatch.setattr(sde, "_dyson_drift", lambda beta: lambda x: np.full_like(x, np.nan))
    n, paths = 3, 50
    before = set(threading.enumerate())
    stream = RngStream(21, 16)
    with pytest.raises(StepFloorReached):
        sde.dyson_cloud(2.0, A(-1.0, 0.0, 1.0), GRID1, stream, 1e-2, paths)
    assert set(threading.enumerate()) <= before
    twin = RngStream(21, 16)
    twin.normal((sde._MAX_HALVINGS + 1 + sde._FLOOR_RETRIES) * n * paths)
    assert np.array_equal(stream.normal(5), twin.normal(5))


def test_prefetch_under_frequent_thread_switches(monkeypatch):
    """Thread switches at any bytecode leave the handed-out values and the
    stream's end state those of direct draws."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        a, b = RngStream(8, 3), RngStream(8, 3)
        sizes = [int(k) for k in np.random.default_rng(0).integers(0, 700, 400)]
        with core.NormalPrefetch(a, 1024) as src:
            got = np.concatenate([src.take(n) for n in sizes])
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, b.normal(sum(sizes)))
    assert np.array_equal(a.normal(5), b.normal(5))
