"""Benchmark of noncollide: one workload per process, metrics as JSON.

    python3 bench/run.py --workload tw-edge --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Runs rounds of the workload until ``--seconds`` have passed, then prints
one JSON object as the last line of stdout: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` wraps the program's public functions (see ``spans.py``) and
gives the per-layer metrics, writing the spans to ``bench/out/``.  ``all``
runs every workload in its own process and prints their results.
Run it from the root of a source checkout; the program is imported from
``src/``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; inherited by the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "values_per_s": "1/s"}


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Median over fresh processes of import plus lazy set-up; the probes run
    one at a time after the rounds, so nothing else competes with them."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def run_all(args) -> int:
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "noncollide" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import noncollide.cli  # noqa: F401  (imports every module)
    import numpy as np
    import setup_probe
    import workloads

    nc = sys.modules["noncollide"]
    if Path(nc.__file__).resolve().parent != SRC / "noncollide":
        print(f"error: imported noncollide from {nc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(nc)
    setup_probe.setup(nc.fredholm)
    if tracer is not None:
        mark = tracer.mark()

    run_round = workloads.WORKLOADS[args.workload]
    rounds = []
    t_begin = time.perf_counter()
    while not rounds or time.perf_counter() - t_begin < args.seconds:
        rnd = workloads.Round()
        run_round(rnd, np.random.default_rng([args.seed % 2**64, len(rounds)]), nc)
        rounds.append(rnd)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not any(r.mismatched for r in rounds)
    if tracer is None:
        wall_s, values_per_s = workloads.run_timings(rounds)
        values = {
            "setup_s": setup_seconds(),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "values_per_s": values_per_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layers = spans.layer_metrics(tracer, mark, rounds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
