"""Time the set-up a fresh noncollide process pays, and print it in seconds.

Set-up is the import of every module (numpy included) plus the lazy
set-up: the Painleve II table behind ``tracy_widom_painleve`` and the
Gauss-Legendre rules the workloads use.  ``run.py`` starts this script
several times per run and reports the median as ``setup_s``.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Gauss-Legendre sizes of the library's own quadratures and of the workloads' calls
LEGENDRE_SIZES = (16, 30, 32, 40, 60, 61, 64, 80, 96, 128, 160, 200)


def setup(fredholm) -> None:
    """Build the lazily cached tables so that timed rounds do not pay for them."""
    fredholm.tracy_widom_painleve(4.0)
    for m in LEGENDRE_SIZES:
        fredholm.gauss_legendre(m, -1.0, 1.0)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import noncollide.cli  # noqa: F401  (imports every module)
    from noncollide import fredholm

    setup(fredholm)
    print(repr(time.perf_counter() - _T0))
