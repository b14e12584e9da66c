"""Spans around the package's public functions, installed from outside it.

A Tracer replaces each public function of the traced modules by a wrapper
wherever a module of the package holds a reference to it, so a call is
caught at the name its caller looks up (for example both
``torus_action.operators.action_value`` and
``torus_action.minimize.action_value``).  Potentials are traced by wrapping
the value, gradient and Hessian callables of every Potential constructed
after installation, transforms at the entry points of ``numpy.fft`` and
``scipy.fft``.  Spans (name, start, end, parent) stay in memory;
``layer_totals`` turns one batch of them into additive per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = ("cli", "grid", "potentials", "operators", "minimize", "certify", "oracle")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
WRITERS = ("cli.dump_field", "cli.write_trace", "cli.write_report")
POTENTIAL_CALLS = ("potentials.value", "potentials.gradient", "potentials.hessian")
G_EVALS = ("certify.MeanPotentialG.value", "certify.MeanPotentialG.gradient")

# Additive figures of one batch of spans; ratios are formed after summing.
TOTALS = (
    "write_s", "fields", "pot_calls", "pot_self_s", "trigpath_s", "transforms",
    "transform_s", "solve_s", "solve_outside_s", "solve_transforms",
    "iterations", "trials", "polish_s", "cg_iters", "certify_s",
    "stationary_mean_s", "probe_s", "G_evals", "assemble_s", "dense_solve_s",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self._in_fft = False

    def take(self):
        """Hand over the spans recorded so far and start a new batch."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, Counter()
        return spans, counts

    def wrap(self, name, fn, on_return=None):
        stack, clock = self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_return is not None:
                on_return(result)
            return result

        traced._bench_traced = True
        return traced

    def wrap_fft(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._in_fft:
                return fn(*args, **kwargs)
            tracer._in_fft = True
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._in_fft = False

        inner = self.wrap(name, fn)
        traced._bench_traced = True
        return traced

    def install(self):
        """Wrap the package's public functions where its modules look them up."""
        package = [importlib.import_module(f"torus_action.{m}") for m in MODULES]
        modules = [sys.modules["torus_action"]] + package
        replace = {}
        for mod, short in zip(package, MODULES):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                hook = self._solve_hook if f"{short}.{attr}" == "minimize.solve" else None
                replace[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj, hook))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    setattr(mod, attr, replace[id(obj)][1])

        potentials = sys.modules["torus_action.potentials"]
        certify = sys.modules["torus_action.certify"]
        grid = sys.modules["torus_action.grid"]
        trig = potentials.TrigPath
        trig.__call__ = self.wrap("potentials.TrigPath.__call__", trig.__call__)
        for method in ("value", "gradient"):
            cls = certify.MeanPotentialG
            setattr(cls, method, self.wrap(f"certify.MeanPotentialG.{method}", getattr(cls, method)))

        field_init = grid.Field.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["grid.fields"] += 1
            field_init(obj, *args, **kwargs)

        grid.Field.__init__ = counted_init

        pot_init = potentials.Potential.__init__

        def traced_potential(obj, *args, **kwargs):
            pot_init(obj, *args, **kwargs)
            for attr in ("value", "gradient", "hessian"):
                fn = getattr(obj, attr)
                if fn is not None and not getattr(fn, "_bench_traced", False):
                    object.__setattr__(obj, attr, self.wrap(f"potentials.{attr}", fn))

        potentials.Potential.__init__ = traced_potential

        import numpy.fft
        import scipy.fft

        for mod in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is not None:
                    setattr(mod, attr, self.wrap_fft(f"fft.{mod.__name__}.{attr}", fn))

    def _solve_hook(self, result):
        self.counts["minimize.iterations"] += int(result.iterations)


def layer_totals(spans, counts):
    """Additive per-layer figures of one batch of spans (see TOTALS)."""
    out = {k: 0.0 if k.endswith("_s") else 0 for k in TOTALS}
    out["fields"] = counts.get("grid.fields", 0)
    out["iterations"] = counts.get("minimize.iterations", 0)
    count = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * count
    solve_of = [-1] * count  # index of the enclosing solve span
    refine_of = [-1] * count
    under_work = [False] * count  # inside an operators or potentials span
    trials = Counter()
    outside = {}
    for i, (name, _, _, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        work = layer in ("operators", "potentials", "fft")
        if parent >= 0:
            child_time[parent] += duration[i]
            solve_of[i] = solve_of[parent]
            refine_of[i] = refine_of[parent]
            under_work[i] = under_work[parent] or spans[parent][0].split(".", 1)[0] in (
                "operators", "potentials", "fft")
        if name == "minimize.solve":
            solve_of[i] = i
            outside[i] = duration[i]
            out["solve_s"] += duration[i]
        elif name == "minimize.newton_krylov_refine":
            refine_of[i] = i
            out["polish_s"] += duration[i]
        if work and not under_work[i] and solve_of[i] >= 0:
            outside[solve_of[i]] -= duration[i]
        if name == "operators.action_value" and parent >= 0 and spans[parent][0] == "minimize.solve":
            trials[parent] += 1
        if layer == "fft":
            out["transforms"] += 1
            out["transform_s"] += duration[i]
            if solve_of[i] >= 0:
                out["solve_transforms"] += 1
        elif name in POTENTIAL_CALLS:
            out["pot_calls"] += 1
            if name == "potentials.hessian" and refine_of[i] >= 0:
                out["cg_iters"] += 1
        elif name == "potentials.TrigPath.__call__":
            out["trigpath_s"] += duration[i]
        elif name in WRITERS:
            out["write_s"] += duration[i]
        elif name == "certify.certify":
            out["certify_s"] += duration[i]
        elif name == "certify.find_stationary_mean":
            out["stationary_mean_s"] += duration[i]
        elif name == "certify.coercivity_probe":
            out["probe_s"] += duration[i]
        elif name in G_EVALS:
            out["G_evals"] += 1
        elif name == "oracle.assemble_quadratic_system":
            out["assemble_s"] += duration[i]
        elif name == "oracle.dense_solve":
            out["dense_solve_s"] += duration[i]
    for i, (name, _, _, _) in enumerate(spans):
        if name in POTENTIAL_CALLS:
            out["pot_self_s"] += duration[i] - child_time[i]
    out["solve_outside_s"] = sum(outside.values())
    # Each solve evaluates the action once before its first iteration.
    out["trials"] = sum(trials.values()) - len(outside)
    return out


def add_totals(a, b):
    return {k: a.get(k, 0) + b.get(k, 0) for k in TOTALS}


def layer_metrics(totals):
    """Per-layer metrics of one pass from its summed totals."""
    iters = totals["iterations"]
    ratio = lambda x, y: x / y if y else 0.0
    return {
        "cli.write_s": (totals["write_s"], "s"),
        "grid.fields": (totals["fields"], "count"),
        "potentials.calls": (totals["pot_calls"], "count"),
        "potentials.self_s": (totals["pot_self_s"], "s"),
        "potentials.trigpath_s": (totals["trigpath_s"], "s"),
        "operators.transforms": (totals["transforms"], "count"),
        "operators.transform_s": (totals["transform_s"], "s"),
        "minimize.iterations": (iters, "count"),
        "minimize.trials": (totals["trials"], "count"),
        "minimize.trials_per_iter": (ratio(totals["trials"], iters), "trial/iter"),
        "minimize.transforms_per_iter": (ratio(totals["solve_transforms"], iters), "fft/iter"),
        "minimize.iter_s": (ratio(totals["solve_s"], iters), "s"),
        "minimize.self_s": (totals["solve_outside_s"], "s"),
        "minimize.polish_s": (totals["polish_s"], "s"),
        "minimize.cg_iters": (totals["cg_iters"], "count"),
        "certify.s": (totals["certify_s"], "s"),
        "certify.stationary_mean_s": (totals["stationary_mean_s"], "s"),
        "certify.probe_s": (totals["probe_s"], "s"),
        "certify.G_evals": (totals["G_evals"], "count"),
        "oracle.assemble_s": (totals["assemble_s"], "s"),
        "oracle.dense_solve_s": (totals["dense_solve_s"], "s"),
    }
