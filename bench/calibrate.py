"""Size and power of the benchmark's stochastic checks.

    python3 bench/calibrate.py --first-seed 100000 --seeds 100

Size: runs the ``mc-paths`` round (untimed) on fresh seeds and counts how
often each |z| passes the workload's bound Z_BOUND, and the looser 2.576
and 3.0, against the Gaussian rates 1e-2 and 2.7e-3.

Power: integrates Dyson's model, beta = 2, N = 2, from (-0.01, 0.01) to
t = 1 with the workload's path count, at dt_max = 1e-2 (a step with known
weak bias: E gap^2(1) is about 7.08, exactly 6.0004) and at the workload's
dt_max = 1e-3, and applies the workload's identity check
E sum x_i^2(1) = sum x_i(0)^2 + (N + beta N (N - 1) / 2) t to each.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import noncollide.cli  # noqa: E402,F401
import workloads  # noqa: E402

NC = sys.modules["noncollide"]
DEFECT_X0 = (-0.01, 0.01)


def size(first_seed: int, seeds: int) -> None:
    zs = []
    for seed in range(first_seed, first_seed + seeds):
        rnd = workloads.Round()
        workloads.mc_paths(rnd, np.random.default_rng([seed, 0]), NC)
        zs += rnd.zs
    z = np.abs(np.array(zs))
    print(f"size: {seeds} seeds, {len(z)} z-checks, mean z {np.mean(zs):.3f}, "
          f"max |z| {z.max():.2f}")
    for bound, nominal in ((2.576, 1e-2), (3.0, 2.7e-3), (workloads.Z_BOUND, 5.7e-7)):
        k = int(np.sum(z > bound))
        print(f"  |z| > {bound}: {k} ({k / len(z):.4f}; Gaussian {nominal:.2g})")


def power(first_seed: int, seeds: int) -> None:
    sde, core = NC.sde, NC.core
    paths = workloads.DYSON[0][2]
    x0 = np.array(DEFECT_X0)
    exact = float(x0 @ x0) + 4.0  # N + beta N (N - 1) / 2 = 4 at t = 1
    exact_gap2 = (x0[1] - x0[0]) ** 2 + 6.0  # the gap's drift gives (2 + 2 beta) t
    for dt_max in (1e-2, workloads.DT_MAX):
        rejected, gap2, zs = 0, [], []
        for seed in range(first_seed, first_seed + seeds):
            rnd = workloads.Round()
            cloud = sde.dyson_cloud(2.0, core.validate_chamber(x0, "A"), core.TimeGrid.of([1.0]),
                                    core.RngStream(seed, 0), dt_max, paths)[:, 0, :]
            rejected += bool(rnd.mean_check("defect", np.sum(cloud**2, axis=1), exact))
            zs += rnd.zs
            gap2.append(float(np.mean((cloud[:, 1] - cloud[:, 0]) ** 2)))
        print(f"power: dt_max={dt_max:g}, {paths} paths, {seeds} seeds: rejected {rejected}"
              f"/{seeds}, mean z {np.mean(zs):.2f}, E gap^2(1) {np.mean(gap2):.3f}"
              f" (exact {exact_gap2:.4f})")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=100_000)
    p.add_argument("--seeds", type=int, default=100)
    args = p.parse_args()
    size(args.first_seed, args.seeds)
    power(args.first_seed, args.seeds)


if __name__ == "__main__":
    main()
