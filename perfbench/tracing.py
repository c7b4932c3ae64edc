"""Outside-in tracing of fbcontrol: swap module attributes for timing and
counting wrappers, then put every original back.

Spans (name, start, end, parent) are recorded around calls into each
layer's public functions and kept in memory.  High-frequency boundaries
(banded solves, coefficient callables, Philox constructions) are counted
only, because a span per call would cost more than the call.

A target whose attribute no longer exists is skipped and recorded in
``Tracer.missing``; the metrics it feeds are then reported missing instead of
crashing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Span and counter store for one traced operation sequence."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = []        # "module:attr" targets that could not be wrapped
        self._stack = []
        self._saved = []         # (owner, attr, original), in install order

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self):
        """Self time per layer and per span name: span duration minus the
        time its children cover.  A span's layer is its name's first part."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer, by_name = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            by_layer[name.split(".", 1)[0]] += own
            by_name[name] += own
        return by_layer, by_name

    def totals(self):
        """Summed duration and call count per span name."""
        dur, calls = Counter(), Counter()
        for name, start, end, _ in self.spans:
            dur[name] += end - start
            calls[name] += 1
        return dur, calls

    # -- attribute swapping --------------------------------------------------

    def _resolve(self, target):
        mod_name, attr = target.split(":")
        try:
            owner = importlib.import_module(mod_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if target not in self.missing:
                self.missing.append(target)
            return None, None, None
        return owner, attr, original

    def install_span(self, target, name, before=None, after=None):
        """Wrap ``module:attr`` in a span named ``name`` (no span if None).

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` may return a replacement result.
        """
        owner, attr, original = self._resolve(target)
        if owner is None:
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                idx = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(idx)
            if after is not None:
                new = after(args, kwargs, result)
                if new is not None:
                    result = new
            return result

        self._swap(owner, attr, original, wrapper)

    def install_count(self, target, counter, points=None):
        """Count calls into ``module:attr`` under ``counter``, without a span.

        ``points(counts, args, kwargs)`` may add to further counters.
        """
        owner, attr, original = self._resolve(target)
        if owner is None:
            return
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if points is not None:
                points(counts, args, kwargs)
            return original(*args, **kwargs)

        self._swap(owner, attr, original, wrapper)

    def _swap(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every swapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- coefficient callables -----------------------------------------------

    def counted_callables(self, obj, counter, points_counter):
        """Copy of a frozen dataclass with every callable field counted.

        Nested dataclasses (the terminal split, the Monte Carlo cost
        decomposition) are copied the same way.  A call's points are the
        number of values it returns.
        """
        counts = self.counts
        changes = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                changes[f.name] = self.counted_callables(value, counter, points_counter)
            elif callable(value):
                def wrapper(*args, _fn=value, **kwargs):
                    out = _fn(*args, **kwargs)
                    counts[counter] += 1
                    counts[points_counter] += getattr(out, "size", 1)
                    return out
                changes[f.name] = wrapper
        return dataclasses.replace(obj, **changes)


# ---------------------------------------------------------------------------
# fbcontrol probes and the per-layer metrics they feed
# ---------------------------------------------------------------------------

RICCATI_SOLVERS = ("solve_riccati_lq", "solve_meanfield_riccati", "solve_planner",
                   "meanvar_equilibrium")


def _out_dir(args):
    argv = list(args[0]) if args else []
    return argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None


def install_fbcontrol(tracer):
    """Wrap the public entry points of every fbcontrol layer."""
    c = tracer.counts

    def artifact_bytes(args, kwargs, result):
        out = _out_dir(args)
        if out is not None and Path(out).is_dir():
            c["cli.artifact_bytes"] += sum(p.stat().st_size for p in Path(out).iterdir()
                                           if p.is_file())

    def picard(args, kwargs, result):
        c["pde.picard_iters"] += result[3].iterations

    def drawn(args, kwargs, result):
        c["mc.normals_drawn"] += result.size

    def simulated(args, kwargs, result):
        paths = result.paths_tn
        c["mc.path_steps"] += (paths.shape[0] - 1) * paths.shape[1]
        c["mc.path_bytes"] += paths.nbytes + (0 if result.controls_tn is None
                                              else result.controls_tn.nbytes)

    def counted_rhs(args, kwargs):
        rhs, rest = args[0], args[1:]
        steps = rest[2] if len(rest) > 2 else kwargs["steps"]
        c["riccati.rk4_steps"] += steps

        def rhs_counted(s, y):
            c["riccati.rhs_evals"] += 1
            return rhs(s, y)
        return (rhs_counted,) + rest, kwargs

    def banded_cols(counts, args, kwargs):
        b = args[2] if len(args) > 2 else kwargs["b"]
        counts["pde.banded_rhs_cols"] += 1 if b.ndim == 1 else b.shape[1]

    def counted_spec(args, kwargs, result):
        return tracer.counted_callables(result, "model.coeff_calls", "model.coeff_points")

    tracer.install_span("fbcontrol.cli:run", "cli.run", after=artifact_bytes)
    tracer.install_span("fbcontrol.model:make_spec", None, after=counted_spec)
    tracer.install_span("fbcontrol.pde:equilibrium_fixed_point",
                        "pde.equilibrium_fixed_point", after=picard)
    for fn in ("solve_theta", "solve_theta0_family", "extract_diagonal"):
        tracer.install_span(f"fbcontrol.pde:{fn}", f"pde.{fn}")
    tracer.install_count("fbcontrol.pde:solve_banded", "pde.banded_solves", banded_cols)
    tracer.install_span("fbcontrol.mc:verify_equilibrium", "mc.verify_equilibrium")
    tracer.install_span("fbcontrol.mc:path_normals", "mc.path_normals", after=drawn)
    tracer.install_span("fbcontrol.mc:simulate_forward", "mc.simulate_forward",
                        after=simulated)
    tracer.install_span("fbcontrol.mc:evaluate_cost", "mc.evaluate_cost")
    tracer.install_count("numpy.random:Philox", "mc.stream_builds")
    for fn in RICCATI_SOLVERS:
        tracer.install_span(f"fbcontrol.riccati:{fn}", f"riccati.{fn}")
    tracer.install_span("fbcontrol.riccati:rk4_backward", "riccati.rk4_backward",
                        before=counted_rhs)


# name -> (unit, targets it needs, table, keys summed).  Tables: "dur" and
# "calls" per span name, "self" (self time per span name), "count" (counters).
_FP = "fbcontrol.pde:equilibrium_fixed_point"
PER_LAYER = {
    "cli.overhead_s": ("s", ["fbcontrol.cli:run"], "self", ["cli.run"]),
    "cli.artifact_bytes": ("bytes", ["fbcontrol.cli:run"], "count", ["cli.artifact_bytes"]),
    "pde.fixed_point_s": ("s", [_FP], "dur", ["pde.equilibrium_fixed_point"]),
    "pde.picard_iters": ("count", [_FP], "count", ["pde.picard_iters"]),
    "pde.minimize_s": ("s", [_FP, "fbcontrol.pde:solve_theta",
                             "fbcontrol.pde:solve_theta0_family",
                             "fbcontrol.pde:extract_diagonal"],
                       "self", ["pde.equilibrium_fixed_point"]),
    "pde.solve_theta_s": ("s", ["fbcontrol.pde:solve_theta"], "dur", ["pde.solve_theta"]),
    "pde.cost_field_s": ("s", ["fbcontrol.pde:solve_theta0_family"], "dur",
                         ["pde.solve_theta0_family"]),
    "pde.diagonal_s": ("s", ["fbcontrol.pde:extract_diagonal"], "dur",
                       ["pde.extract_diagonal"]),
    "pde.banded_solves": ("count", ["fbcontrol.pde:solve_banded"], "count",
                          ["pde.banded_solves"]),
    "pde.banded_rhs_cols": ("count", ["fbcontrol.pde:solve_banded"], "count",
                            ["pde.banded_rhs_cols"]),
    "model.coeff_calls": ("count", ["fbcontrol.model:make_spec"], "count",
                          ["model.coeff_calls"]),
    "model.coeff_points": ("count", ["fbcontrol.model:make_spec"], "count",
                           ["model.coeff_points"]),
    "mc.verify_s": ("s", ["fbcontrol.mc:verify_equilibrium"], "dur",
                    ["mc.verify_equilibrium"]),
    "mc.normals_s": ("s", ["fbcontrol.mc:path_normals"], "dur", ["mc.path_normals"]),
    "mc.normals_drawn": ("count", ["fbcontrol.mc:path_normals"], "count",
                         ["mc.normals_drawn"]),
    "mc.stream_builds": ("count", ["numpy.random:Philox"], "count", ["mc.stream_builds"]),
    "mc.simulate_s": ("s", ["fbcontrol.mc:simulate_forward", "fbcontrol.mc:path_normals"],
                      "self", ["mc.simulate_forward"]),
    "mc.path_steps": ("count", ["fbcontrol.mc:simulate_forward"], "count",
                      ["mc.path_steps"]),
    "mc.path_bytes": ("bytes_computed", ["fbcontrol.mc:simulate_forward"], "count",
                      ["mc.path_bytes"]),
    "mc.evaluate_cost_calls": ("count", ["fbcontrol.mc:evaluate_cost"], "calls",
                               ["mc.evaluate_cost"]),
    "mc.evaluate_cost_s": ("s", ["fbcontrol.mc:evaluate_cost"], "dur", ["mc.evaluate_cost"]),
    "riccati.solve_s": ("s", [f"fbcontrol.riccati:{fn}" for fn in RICCATI_SOLVERS], "dur",
                        [f"riccati.{fn}" for fn in RICCATI_SOLVERS]),
    "riccati.rk4_s": ("s", ["fbcontrol.riccati:rk4_backward"], "dur",
                      ["riccati.rk4_backward"]),
    "riccati.rk4_steps": ("count", ["fbcontrol.riccati:rk4_backward"], "count",
                          ["riccati.rk4_steps"]),
    "riccati.rhs_evals": ("count", ["fbcontrol.riccati:rk4_backward"], "count",
                          ["riccati.rhs_evals"]),
}


def layer_metrics(tracer):
    """Per-layer metrics of one traced sequence, plus each layer's self time.

    Returns (metrics, missing_metric_names).  The model layer has counts but
    no spans, so its time is part of the self time of its callers.
    """
    dur, calls = tracer.totals()
    layer_self, self_by_name = tracer.self_times()
    tables = {"dur": dur, "calls": calls, "self": self_by_name, "count": tracer.counts}
    gone = set(tracer.missing)
    metrics, missing = {}, []
    for name, (_, targets, table, keys) in PER_LAYER.items():
        if gone.intersection(targets):
            missing.append(name)
        else:
            metrics[name] = sum(tables[table][k] for k in keys)
    for layer in ("bench", "pde", "mc", "riccati"):    # cli's is cli.overhead_s
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["bench.traced_wall_s"] = sum(end - start for name, start, end, parent
                                         in tracer.spans if parent < 0)
    return metrics, missing
