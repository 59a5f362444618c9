"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps every public module-level function of the
``halfpoisson`` layers, plus ``KernelBatch.eval``, and rebinds each wrapper
wherever the package holds the original: module attributes (``resolvent``,
``parabolic`` and ``rbound`` import ``kernel_batch`` by name) and module-level
dicts (``cli.COMMANDS``, ``model.BUNDLED``).  Each call is a span on one
in-memory stack; a span's self time is its duration minus its child spans.
Spans of functions pooled into one reported group (e.g. ``poisson.sweeps``)
add up, and a group's inclusive time counts only its outermost span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "model", "companion", "poisson", "resolvent", "parabolic",
          "spaces", "rbound")

# function -> reported group, where one group pools several functions
POOLED = {
    "poisson.decay_sweep": "poisson.sweeps",
    "poisson.singularity_sweep": "poisson.sweeps",
    "poisson.KernelBatch.eval": "poisson.eval",
    "resolvent.interior_residual_fd": "resolvent.fd",
    "resolvent.boundary_trace_fd": "resolvent.fd",
    "spaces.space_norm": "spaces.norms",
    "spaces.param_norm": "spaces.norms",
    "spaces.sobolev_mixed_norm": "spaces.norms",
    "spaces.mixed_lifting_check": "spaces.norms",
}

# reported group -> (extra per-job counters, workloads that must call it)
REPORTED = {
    "model.check_lopatinskii_shapiro": ((), ("sweep",)),
    "companion.boundary_map_conditioning": ((), ("sweep",)),
    "companion.build_companion": ((), ("sweep",)),
    "companion.propagate": ((), ("sweep",)),
    "poisson.kernel_batch": (("modes", "rootbasis_ratio"),
                             ("contour", "sweep", "estimate")),
    "poisson.eval": (("points",), ("contour", "sweep")),
    "poisson.sweeps": ((), ("sweep",)),
    "resolvent.seeley_extend": ((), ("contour",)),
    "resolvent.whole_space_resolvent": ((), ("contour",)),
    "resolvent.halfspace_resolvent": ((), ("contour",)),
    "resolvent.semigroup_apply": (("contour_nodes",), ("contour",)),
    "resolvent.fd": ((), ("sweep",)),
    "parabolic.parabolic_boundary_solve": ((), ("contour", "sweep")),
    "parabolic.ibvp_solve": ((), ("contour",)),
    "spaces.hardy_norm": (("points",), ("estimate",)),
    "spaces.norms": ((), ("estimate", "sweep")),
    "rbound.rademacher_ratio": (("sign_draws",), ("estimate",)),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_kernel_batch(tracer, args, kwargs, result):
    tracer.counts["poisson.kernel_batch.modes"] += result.taus.shape[0]
    tracer.counts["poisson.kernel_batch.rootbasis_modes"] += int((~result.fallback).sum())


def _count_eval(tracer, args, kwargs, result):
    tracer.counts["poisson.eval.points"] += result.size


def _count_contour_node(tracer, args, kwargs, result):
    if tracer.open["resolvent.semigroup_apply"]:
        tracer.counts["resolvent.semigroup_apply.contour_nodes"] += 1


def _count_hardy(tracer, args, kwargs, result):
    tracer.counts["spaces.hardy_norm.points"] += _arg(args, kwargs, 2, "grid").n_points


def _count_rademacher(tracer, args, kwargs, result):
    trial = _arg(args, kwargs, 0, "trial")
    tracer.counts["rbound.rademacher_ratio.sign_draws"] += trial.trials * trial.N


COUNTERS = {
    "poisson.kernel_batch": _count_kernel_batch,
    "poisson.KernelBatch.eval": _count_eval,
    "resolvent.halfspace_resolvent": _count_contour_node,
    "spaces.hardy_norm": _count_hardy,
    "rbound.rademacher_ratio": _count_rademacher,
}


def _group(layer: str, qualname: str) -> str:
    if layer == "cli":
        return "cli"
    name = f"{layer}.{qualname}"
    return POOLED.get(name, name)


def layer_functions():
    """(layer, owner, attribute, function) for every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"halfpoisson.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                out.append((layer, mod, attr, obj))
    poisson = sys.modules["halfpoisson.poisson"]
    out.append(("poisson", poisson.KernelBatch, "eval", poisson.KernelBatch.eval))
    return out


class Tracer:
    """Span stack and per-group totals for one traced window."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()
        self.open = Counter()
        self._stack: list[list[float]] = []   # child time per open span

    def wrap(self, group: str, fn, counter=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            self.open[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.open[group] -= 1
                self.calls[group] += 1
                self.self_s[group] += dt - child[0]
                if not self.open[group]:
                    self.incl_s[group] += dt
                if self._stack:
                    self._stack[-1][0] += dt
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return span

    def install(self):
        """Wrap every layer function; returns a callable that undoes it."""
        originals = {}          # id(original) -> wrapper
        undo = []
        for layer, owner, attr, fn in layer_functions():
            qual = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
            wrapper = self.wrap(_group(layer, qual), fn, COUNTERS.get(f"{layer}.{qual}"))
            originals[id(fn)] = wrapper
            if not inspect.ismodule(owner):
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for mod in [m for n, m in sys.modules.items()
                    if n == "halfpoisson" or n.startswith("halfpoisson.")]:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, originals[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in originals:
                            undo.append((val, key, item))
                            val[key] = originals[id(item)]

        def restore():
            for owner, key, val in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = val
                else:
                    setattr(owner, key, val)
        return restore

    def metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-job layer metrics: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        modules = Counter()
        for group, s in self.self_s.items():
            modules[group.split(".")[0]] += s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (modules[layer] / jobs, "s/job")
        for group, (extras, _) in REPORTED.items():
            out[f"{group}.calls"] = (self.calls[group] / jobs, "count/job")
            out[f"{group}.self_s"] = (self.self_s[group] / jobs, "s/job")
            out[f"{group}.incl_s"] = (self.incl_s[group] / jobs, "s/job")
            for extra in extras:
                if extra == "rootbasis_ratio":
                    modes = self.counts[f"{group}.modes"]
                    ratio = self.counts[f"{group}.rootbasis_modes"] / modes if modes else 0.0
                    out[f"{group}.{extra}"] = (ratio, "1")
                else:
                    out[f"{group}.{extra}"] = (self.counts[f"{group}.{extra}"] / jobs,
                                               "count/job")
        return out

    def missing(self, workload: str) -> list[str]:
        """Reported groups expected to do work on ``workload`` but never called."""
        return [g for g, (_, where) in REPORTED.items()
                if workload in where and not self.calls[g]]
