"""Per-layer counts and self times, recorded from outside circlepol.

The traced run wraps, in every loaded circlepol module, each public
function of the five layers below, plus ``Kernel.eval``, ``Configuration.__init__`` and the
callable fields of each kernel the workload uses.  A wrapper opens a span
for its layer; a layer's self time is the time of its spans minus the time
of the spans they contain.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

from circlepol import circle_config, kernels, optimizer, potential, transport

LAYERS = {
    "kernels": kernels,
    "potential": potential,
    "circle_config": circle_config,
    "transport": transport,
    "optimizer": optimizer,
}

# potential functions that minimize over arcs, with their arc count (None:
# every nonempty gap); the rest evaluate points
ARC_MINIMIZERS = {"polarization": None, "minimum_on_arc": 1, "arc_minimum": 1}

# a restart succeeds when it ends this close to the best value found
RESTART_TOL = 1e-7


def _configuration(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, circle_config.Configuration):
            return value
    return None


class Tracer:
    """Counts and self times of the layers, kept in memory."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._open = []          # child seconds of each open span
        self._depth = Counter()  # open spans per layer
        self._saved = []         # (owner, name, original) to restore

    # --- spans -----------------------------------------------------------

    def _span(self, layer, fn, outer_hook=None, count=None):
        """``fn`` timed as a span of ``layer``.

        ``count`` is incremented on every call; ``outer_hook(args, kwargs,
        result, before)`` runs after calls not nested in the same layer, with
        ``before`` the base counters at entry.
        """
        counts, open_spans, depth, self_s = (
            self.counts, self._open, self._depth, self.self_s)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            outer = depth[layer] == 0
            before = self._base() if outer_hook is not None and outer else None
            depth[layer] += 1
            children = [0.0]
            open_spans.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_spans.pop()
                depth[layer] -= 1
                self_s[layer] += elapsed - children[0]
                if open_spans:
                    open_spans[-1][0] += elapsed
            if before is not None:
                outer_hook(args, kwargs, result, before)
            return result
        return traced

    def _base(self):
        c = self.counts
        return c["kernels.calls"], c["kernels.evals"], c["potential.calls"]

    # --- hooks -----------------------------------------------------------

    def _potential_hook(self, name):
        def hook(args, kwargs, result, before):
            c = self.counts
            c["potential.calls"] += 1
            c["potential.kernel_calls"] += c["kernels.calls"] - before[0]
            config = _configuration(args, kwargs)
            if name not in ARC_MINIMIZERS or config is None:
                return
            arcs = ARC_MINIMIZERS[name] or int(
                np.count_nonzero(np.asarray(config.gaps) > 0.0))
            c["potential.arc_evals"] += c["kernels.evals"] - before[1]
            c["potential.arc_node_points"] += config.n * arcs
        return hook

    def _min_curve_hook(self, args, kwargs, result, before):
        self.counts["transport.curves"] += 1
        self.counts["transport.arc_calls"] += self.counts["potential.calls"] - before[2]

    def _optimizer_hook(self, args, kwargs, result, before):
        c = self.counts
        c["optimizer.objective_calls"] += c["potential.calls"] - before[2]
        best = getattr(result, "best_value", None)
        for record in getattr(result, "per_restart", ()):
            c["optimizer.iterations"] += record.iterations
            c["optimizer.restarts"] += 1
            c["optimizer.restarts_succeeded"] += abs(record.value - best) <= RESTART_TOL

    # --- installation ----------------------------------------------------

    def kernel(self, kernel):
        """``kernel`` with every callable field counted and timed."""
        counts = self.counts

        def counted(fn):
            timed = self._span("kernels", fn)

            @functools.wraps(fn)
            def call(theta, *args, **kwargs):
                counts["kernels.calls"] += 1
                counts["kernels.evals"] += np.size(theta)
                return timed(theta, *args, **kwargs)
            return call

        changes = {f.name: counted(getattr(kernel, f.name))
                   for f in dataclasses.fields(kernel)
                   if f.init and callable(getattr(kernel, f.name))}
        return dataclasses.replace(kernel, **changes)

    def install(self):
        """Wrap the layers' public functions wherever they are referenced."""
        wrapped = {}
        for layer, module in LAYERS.items():
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                hook = None
                if layer == "potential":
                    hook = self._potential_hook(name)
                elif fn is getattr(transport, "min_curve", None):
                    hook = self._min_curve_hook
                elif fn is getattr(optimizer, "maximize_polarization", None):
                    hook = self._optimizer_hook
                wrapped[fn] = self._span(layer, fn, outer_hook=hook)
        modules = [m for key, m in sys.modules.items()
                   if key == "circlepol" or key.startswith("circlepol.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._replace(module, name, wrapped[value])
        self._replace(circle_config.Configuration, "__init__", self._span(
            "circle_config", circle_config.Configuration.__init__,
            count="circle_config.configs_built"))
        if hasattr(kernels.Kernel, "eval"):
            self._replace(kernels.Kernel, "eval",
                          self._span("kernels", kernels.Kernel.eval))
        return self

    def _replace(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # --- results ---------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics for one round (every round is the same work)."""
        c = self.counts

        def per_round(value):
            v = value / rounds
            return int(v) if float(v).is_integer() else v

        def ratio(a, b):
            return a / b if b else 0.0

        s = self.self_s
        values = {
            "kernels.calls": (per_round(c["kernels.calls"]), "count"),
            "kernels.evals": (per_round(c["kernels.evals"]), "count"),
            "kernels.evals_per_call": (ratio(c["kernels.evals"], c["kernels.calls"]), "ratio"),
            "kernels.ns_per_eval": (ratio(s["kernels"] * 1e9, c["kernels.evals"]), "ns"),
            "kernels.self_s": (s["kernels"] / rounds, "s"),
            "potential.calls": (per_round(c["potential.calls"]), "count"),
            "potential.points_per_arc": (ratio(c["potential.arc_evals"],
                                               c["potential.arc_node_points"]), "ratio"),
            "potential.passes_per_call": (ratio(c["potential.kernel_calls"],
                                                c["potential.calls"]), "ratio"),
            "potential.self_s": (s["potential"] / rounds, "s"),
            "transport.arc_calls_per_curve": (ratio(c["transport.arc_calls"],
                                                    c["transport.curves"]), "ratio"),
            "transport.self_s": (s["transport"] / rounds, "s"),
            "circle_config.configs_built": (per_round(c["circle_config.configs_built"]), "count"),
            "circle_config.self_s": (s["circle_config"] / rounds, "s"),
            "optimizer.objective_calls": (per_round(c["optimizer.objective_calls"]), "count"),
            "optimizer.iterations": (per_round(c["optimizer.iterations"]), "count"),
            "optimizer.restart_success_ratio": (ratio(c["optimizer.restarts_succeeded"],
                                                      c["optimizer.restarts"]), "ratio"),
            "optimizer.self_s": (s["optimizer"] / rounds, "s"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
