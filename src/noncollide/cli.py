"""Batch command-line front end.

Subcommands:
  sample  - eigenvalue samples of an ensemble, CSV, one row per sample
  table   - tabulate densities / kernels / Tracy-Widom / gap probabilities
  verify  - run verification suites and write ExperimentReport JSON

Every run echoes its resolved configuration into the output header, prints
numbers at 17 significant digits (round-trip exact), and honors the
NONCOLLIDE_SEED environment variable as the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .core import RngStream
from . import densities1d as dens
from . import ensembles as ens
from . import experiments as ex
from . import fredholm as fred
from . import kernels as ker

__all__ = ["main", "build_parser"]

_ENV_SEED = "NONCOLLIDE_SEED"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed() -> int:
    return int(os.environ.get(_ENV_SEED, "0"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="noncollide", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="sample ensemble eigenvalues")
    ps.add_argument("--kind", required=True,
                    help="ensemble tag: " + ", ".join(t.replace("_", "-") for t in ens.TAGS))
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--nu", type=int, default=0)
    ps.add_argument("--beta", type=float, default=0.0)
    ps.add_argument("--horizon", type=float, default=0.0)
    ps.add_argument("--t", type=float, default=1.0)
    ps.add_argument("--count", type=int, default=1)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--stream", type=int, default=0)
    ps.add_argument("--distinct", action="store_true",
                    help="collapse GSE pairs / keep positive class C-D levels")
    ps.add_argument("--out", default="-")

    pt = sub.add_parser("table", help="tabulate a function on a grid")
    pt.add_argument("--what", required=True,
                    choices=["density", "kernel", "tw", "sine-gap", "rightmost"])
    pt.add_argument("--fn", default="bm", choices=["bm", "bessel"],
                    help="density selector (for --what density)")
    pt.add_argument("--family", default="sine",
                    choices=["hermite", "laguerre", "sine", "airy", "bessel-hard"])
    pt.add_argument("--n", type=int, default=1)
    pt.add_argument("--nu", type=float, default=0.0)
    pt.add_argument("--t", type=float, default=1.0)
    pt.add_argument("--s", type=float, default=1.0)
    pt.add_argument("--x-min", type=float, default=-5.0)
    pt.add_argument("--x-max", type=float, default=5.0)
    pt.add_argument("--alpha-min", type=float, default=-5.0)
    pt.add_argument("--alpha-max", type=float, default=2.0)
    pt.add_argument("--a-min", type=float, default=0.1)
    pt.add_argument("--a-max", type=float, default=2.0)
    pt.add_argument("--step", type=float, default=0.1)
    pt.add_argument("--out", default="-")
    pt.add_argument("--plot", action="store_true",
                    help="emit a self-contained plotting script next to the CSV")

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", required=True,
                    choices=sorted(ex.SUITES) + ["all"])
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--dt-max", type=float, default=None,
                    help="override the SDE suite integrator cap; the scheme's weak "
                         "bias grows with it (E gap^2(1) = 7.03 at 1e-2 against an "
                         "exact 6.0004 for beta = 2, N = 2)")
    pv.add_argument("--out", default="-")
    return p


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_KIND_ALIASES = {t.replace("_", ""): t for t in ens.TAGS}


def _resolve_kind(text: str) -> Optional[str]:
    """The ensemble tag a --kind spelling names, or None for an unknown kind."""
    return _KIND_ALIASES.get(text.lower().replace("-", "").replace("_", ""))


def _cmd_sample(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    tag = _resolve_kind(args.kind)
    if tag is None:
        print(f"error: unknown ensemble kind {args.kind!r}; options: "
              + ", ".join(t.replace("_", "-") for t in ens.TAGS), file=sys.stderr)
        return 2
    kind = ens.EnsembleKind(
        tag, args.n, nu=args.nu, beta=args.beta, horizon=args.horizon,
    )
    stream = RngStream(seed, args.stream)
    lines = [f"# {kind.tag},{args.n},{_fmt(args.t)},{seed}"]
    if kind.tag == "ginibre":
        for _ in range(args.count):
            z = np.linalg.eigvals(ens.sample_matrix(kind, args.t, stream).entries)
            z = z[np.lexsort((z.imag, z.real))]
            lines.append(",".join(f"{_fmt(v.real)},{_fmt(v.imag)}" for v in z))
    else:
        lam = ens.sample_spectra(kind, args.t, args.count, stream, distinct=args.distinct)
        for row in lam:
            lines.append(",".join(_fmt(v) for v in row))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# self-contained plot script; run next to {csv}
import csv
import matplotlib.pyplot as plt

xs, ys = [], []
with open({csv!r}) as fh:
    for row in csv.reader(fh):
        if not row or row[0].startswith("#"):
            continue
        try:
            x, y = float(row[{xcol}]), float(row[{ycol}])
        except ValueError:
            continue  # column-header row
        xs.append(x)
        ys.append(y)
plt.plot(xs, ys)
plt.xlabel({xlabel!r})
plt.ylabel({ylabel!r})
plt.title({title!r})
plt.savefig({png!r}, dpi=150)
print("wrote", {png!r})
"""


def _emit_plot(out: str, xlabel: str, ylabel: str, title: str, xcol: int = 0, ycol: int = 1):
    """Write a plot script for the CSV at ``out``: column ``ycol`` against ``xcol``."""
    if out == "-":
        return
    script = _PLOT_TEMPLATE.format(
        csv=out, xlabel=xlabel, ylabel=ylabel, title=title, png=out + ".png",
        xcol=xcol, ycol=ycol,
    )
    with open(out + ".plot.py", "w", encoding="utf-8") as fh:
        fh.write(script)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def _cmd_table(args) -> int:
    what = args.what
    header = (
        f"# table what={what} fn={args.fn} family={args.family} n={args.n} "
        f"nu={_fmt(args.nu)} s={_fmt(args.s)} t={_fmt(args.t)}"
    )
    rows = [header]
    if what == "tw":
        rows.append("alpha,F_fredholm,F_painleve,abs_diff")
        for a in _grid(args.alpha_min, args.alpha_max, args.step):
            f1 = fred.tracy_widom_fredholm(float(a))
            f2 = fred.tracy_widom_painleve(float(a))
            rows.append(f"{_fmt(a)},{_fmt(f1)},{_fmt(f2)},{_fmt(abs(f1 - f2))}")
        _write(args.out, "\n".join(rows) + "\n")
        _emit_plot(args.out, "alpha", "F(alpha)", "Tracy-Widom CDF")
        return 0
    if what == "sine-gap":
        rows.append("a,gap_probability")
        for a in _grid(args.a_min, args.a_max, args.step):
            rows.append(f"{_fmt(a)},{_fmt(fred.sine_gap(float(a)))}")
        _write(args.out, "\n".join(rows) + "\n")
        _emit_plot(args.out, "a", "P(no particle in (-a,a))", "sine-kernel gap")
        return 0
    if what == "rightmost":
        rows.append("alpha,cdf")
        for a in _grid(args.alpha_min, args.alpha_max, args.step):
            rows.append(f"{_fmt(a)},{_fmt(fred.rightmost_cdf(args.n, args.t, float(a)))}")
        _write(args.out, "\n".join(rows) + "\n")
        _emit_plot(args.out, "alpha", "CDF", f"rightmost particle, N={args.n}")
        return 0
    if what == "kernel":
        fam = args.family
        kern = {
            "hermite": lambda: ker.hermite_kernel(args.n),
            "laguerre": lambda: ker.laguerre_kernel(args.n, args.nu),
            "sine": ker.sine_kernel,
            "airy": ker.airy_kernel,
            "bessel-hard": lambda: ker.bessel_hard_kernel(args.nu),
        }[fam]()
        rows.append("s,x,t,y,value")
        for x in _grid(args.x_min, args.x_max, args.step):
            if kern.domain == "halfline" and x < 0.0:
                continue
            v = kern.evaluate(args.s, float(x), args.t, float(x))
            rows.append(f"{_fmt(args.s)},{_fmt(x)},{_fmt(args.t)},{_fmt(x)},{_fmt(v)}")
        _write(args.out, "\n".join(rows) + "\n")
        _emit_plot(args.out, "x", "K", f"{fam} kernel diagonal", xcol=1, ycol=4)
        return 0
    # densities: one-particle tables from the origin
    rows.append("y,value")
    for y in _grid(args.x_min, args.x_max, args.step):
        y = float(y)
        if args.fn == "bessel":
            v = dens.bessel_density(args.nu, args.t, y, 0.0) if y >= 0 else 0.0
        else:
            v = dens.bm_density(args.t, y, 0.0)
        rows.append(f"{_fmt(y)},{_fmt(v)}")
    _write(args.out, "\n".join(rows) + "\n")
    _emit_plot(args.out, "y", "density", f"{args.fn} density")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    overrides = {}
    if args.dt_max is not None:
        if args.suite not in ("sde", "all"):
            print(f"error: --dt-max sets the sde suite's step cap; --suite {args.suite} "
                  "has no SDE", file=sys.stderr)
            return 2
        overrides["dt_max"] = args.dt_max
    reports = ex.run_suite(args.suite, seed, **overrides)
    payload = "[" + ",".join(r.to_json() for r in reports) + "]"
    _write(args.out, payload + "\n")
    ok = all(r.passed for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.experiment_id}: {status} ({r.wall_time:.1f}s)", file=sys.stderr)
    return 0 if ok else 1


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_verify(args)
    except BrokenPipeError:  # pragma: no cover
        return 0
    except Exception as exc:  # runtime failure contract: exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
