"""Span tracer that wraps noncollide's public functions from outside.

Each public function of a ``noncollide`` module is replaced, in every module
namespace that holds it, by a wrapper that records a span: name, start, end
and the index of the enclosing span.  Patching every namespace matters
because callers look names up where they imported them: ``ensembles`` calls
``constants`` through its own global, not through ``karlin_mcgregor``.
Kernel factories get their ``evaluate`` and ``equal_time_matrix`` closures
wrapped as ``kernels.evaluate`` and ``kernels.gram``.  ``RngStream.normal``
and ``gl_nodes`` are counted without spans, since they run thousands of
times per operation.

Spans live in flat arrays in memory and are written to one ``.npz`` file
when the run ends; ``layer_metrics`` turns them into the benchmark's
per-layer metrics.  The program's code is not modified.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import types
from array import array

import numpy as np

from workloads import run_timings

MODULES = ("core", "densities1d", "karlin_mcgregor", "ensembles", "sde",
           "kernels", "fredholm", "experiments", "_quad")
# traced names outside the modules' __all__: the lazy Painleve table, and
# the pooled-marginal functions the marginal workload calls
EXTRA_NAMES = {"fredholm": ("_table",),
               "experiments": ("pooled_marginal_2", "pooled_marginal_3")}
SDE_CLOUDS = ("sde.dyson_cloud", "sde.bessel_cloud")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # 0 when a same-name span encloses it
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.normals_drawn = 0
        self.sde_normals = 0
        self.gl_nodes_calls = 0
        self.gram_entries = 0
        self.spectra_drawn = 0

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            d = depth.get(nid, 0)
            self.outermost.append(d == 0)
            depth[nid] = d + 1
            stack.append(idx)
            self.end.append(math.nan)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
                depth[nid] = d

        return wrapper

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    # -- installing ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module in MODULES, in place."""
        mods = {m: getattr(package, m) for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for name in list(public) + list(EXTRA_NAMES.get(short, ())):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    originals[fn] = self._wrap(f"{short.lstrip('_')}.{name}", fn)
        for mod in mods.values():
            for name, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in originals:
                    setattr(mod, name, originals[val])
        self._count_normals(mods["core"].RngStream)

    def _wrap(self, name: str, fn):
        if name == "quad.gl_nodes":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.gl_nodes_calls += 1
                return fn(*args, **kwargs)
            return counted
        wrapped = self.span(name, fn)
        if name == "ensembles.sample_spectra":
            @functools.wraps(fn)
            def drawn(kind, t, count, *args, **kwargs):
                self.spectra_drawn += count
                return wrapped(kind, t, count, *args, **kwargs)
            return drawn
        if name.startswith("kernels.") and name.endswith("_kernel"):
            return self._wrap_factory(wrapped)
        return wrapped

    def _wrap_factory(self, factory):
        gram_span = self.span("kernels.gram", lambda f, t, xs: f(t, xs))
        eval_span = self.span("kernels.evaluate", lambda f, *a: f(*a))

        @functools.wraps(factory)
        def make(*args, **kwargs):
            k = factory(*args, **kwargs)
            gram, evaluate = k.equal_time_matrix, k.evaluate

            def traced_gram(t, xs):
                self.gram_entries += len(xs) ** 2
                return gram_span(gram, t, xs)

            return dataclasses.replace(
                k, equal_time_matrix=traced_gram,
                evaluate=lambda *a: eval_span(evaluate, *a),
            )

        return make

    def _count_normals(self, rng_cls) -> None:
        normal = rng_cls.normal

        def counted(stream, size=None):
            n = 1 if size is None else int(np.prod(size))
            self.normals_drawn += n
            if self.current() in SDE_CLOUDS:
                self.sde_normals += n
            return normal(stream, size)

        rng_cls.normal = counted

    # -- reading ---------------------------------------------------------

    def mark(self) -> dict[str, int]:
        """Span count and counters now, so that later metrics can leave set-up out."""
        return {"spans": len(self.start), **{k: getattr(self, k) for k in (
            "normals_drawn", "sde_normals", "gl_nodes_calls", "gram_entries", "spectra_drawn")}}

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8).astype(bool),
        }

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, over spans from index ``first`` on: calls, inclusive
        seconds (outermost spans only) and self seconds (duration minus the
        time of directly enclosed spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        k = len(self.names)
        keep = slice(first, None)
        ids = a["name_id"][keep]
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=np.where(a["outermost"], dur, 0.0)[keep], minlength=k)
        own = np.bincount(ids, weights=(dur - child)[keep], minlength=k)
        return {
            n: {"calls": float(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer, mark: dict, rounds: list) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per round and with set-up
    left out, except the one-time ``fredholm.painleve_table_s``."""
    summ = tracer.summary(mark["spans"])
    k = len(rounds)

    def incl(*names):
        return sum(summ.get(n, {}).get("incl_s", 0.0) for n in names) / k

    def own(*names):
        return sum(summ.get(n, {}).get("self_s", 0.0) for n in names) / k

    def calls(name):
        return summ.get(name, {}).get("calls", 0.0) / k

    def counted(attr):
        return (getattr(tracer, attr) - mark[attr]) / k

    nominal = sum(r.nominal_increments for r in rounds)
    worst = {}
    for r in rounds:
        for name, v in r.diag.items():
            worst[name] = max(worst.get(name, 0.0), v)
    return {
        "kernels.gram_s": (incl("kernels.gram"), "s"),
        "kernels.gram_entries": (counted("gram_entries"), "count"),
        "kernels.evaluate_s": (incl("kernels.evaluate"), "s"),
        "kernels.evaluate_calls": (calls("kernels.evaluate"), "count"),
        "fredholm.det_self_s": (own("fredholm.fredholm_det"), "s"),
        "fredholm.det_calls": (calls("fredholm.fredholm_det"), "count"),
        "fredholm.painleve_s": (incl("fredholm.tracy_widom_painleve"), "s"),
        "fredholm.painleve_table_s": (
            tracer.summary().get("fredholm._table", {}).get("incl_s", 0.0), "s"),
        "quad.gl_nodes_calls": (counted("gl_nodes_calls"), "count"),
        "ensembles.eigen_density_s": (incl("ensembles.eigen_density_exact"), "s"),
        "ensembles.eigen_density_calls": (calls("ensembles.eigen_density_exact"), "count"),
        "karlin_mcgregor.constants_s": (incl("karlin_mcgregor.constants"), "s"),
        "karlin_mcgregor.constants_calls": (calls("karlin_mcgregor.constants"), "count"),
        "core.validate_chamber_s": (incl("core.validate_chamber"), "s"),
        "core.validate_chamber_calls": (calls("core.validate_chamber"), "count"),
        "experiments.pooled_marginal_self_s": (
            own("experiments.pooled_marginal_2", "experiments.pooled_marginal_3"), "s"),
        "karlin_mcgregor.km_density_s": (incl("karlin_mcgregor.km_density"), "s"),
        "karlin_mcgregor.survival_s": (incl("karlin_mcgregor.survival_n"), "s"),
        "sde.cloud_self_s": (own(*SDE_CLOUDS), "s"),
        "core.normals_drawn": (counted("normals_drawn"), "count"),
        "sde.normals_per_nominal_increment": (
            (tracer.sde_normals - mark["sde_normals"]) / nominal if nominal else 0.0, "ratio"),
        "ensembles.sample_spectra_s": (incl("ensembles.sample_spectra"), "s"),
        "ensembles.spectra_drawn": (counted("spectra_drawn"), "count"),
        "ensembles.harish_chandra_s": (incl("ensembles.harish_chandra_check"), "s"),
        "traced_wall_s": (run_timings(rounds)[0], "s"),
        "accuracy.tw_fredholm_max_abs_err": (worst.get("tw_fredholm_abs_err", 0.0), "abs"),
        "accuracy.tw_painleve_max_abs_err": (worst.get("tw_painleve_abs_err", 0.0), "abs"),
        "accuracy.max_abs_z": (worst.get("max_abs_z", 0.0), "sigma"),
    }
