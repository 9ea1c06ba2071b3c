"""Span tracing of the program's public calls, from outside the program.

``Tracer.install`` wraps a fixed list of public functions with spans.  Each
span records its name, start, end, parent span and command id; spans stay in
memory (compact arrays) until ``Tracer.save`` writes them out.

A wrapped name is patched in every ``spinorflow`` module that holds it, the
defining module included, because ``from x import f`` copies the binding:
``cli`` calls ``theta_exact``, ``curvature_report`` and ``integrate_to``
through its own globals.  ``LapseProfile`` methods are patched on the
class, the RK4 kernel on the ``numeric._kern`` module object, and scipy's
``expm`` only where ``exact`` bound it.

Self time is a span's duration minus the durations of its child spans.
Private helpers are not wrapped, so their time lands in their caller's self
time: ``_integrate_fixed_var`` (the variable-lapse RK4 loop) in
``numeric.integrate_to``, ``_render_table`` and ``_flow_row`` in
``cli.main``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "pairs", "lapse", "exact", "numeric", "lorentz", "frames", "verify")

# (span name, module, attribute path inside the module)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("pairs.validate", "pairs", "validate"),
    ("pairs.classify", "pairs", "classify"),
    ("pairs.constraints", "pairs", "constraints"),
    ("pairs.invariants", "pairs", "invariants"),
    ("lapse.beta", "lapse", "LapseProfile.beta"),
    ("lapse.b_integral", "lapse", "LapseProfile.b_integral"),
    ("lapse.solve_b", "lapse", "LapseProfile.solve_b"),
    ("exact.branch", "exact", "branch"),
    ("exact.lifespan", "exact", "lifespan"),
    ("exact.theta_exact", "exact", "theta_exact"),
    ("exact.frame_exact", "exact", "frame_exact"),
    ("exact.hamiltonian_exact", "exact", "hamiltonian_exact"),
    ("exact.nonqd_coefficients", "exact", "nonqd_coefficients"),
    ("exact.expm", "exact", "expm"),
    ("numeric.integrate_to", "numeric", "integrate_to"),
    ("numeric.hamiltonian_of", "numeric", "hamiltonian_of"),
    ("numeric.flow_residuals", "numeric", "flow_residuals"),
    ("numeric.ode_rhs", "numeric", "ode_rhs"),
    ("numeric.rk4_path", "numeric", "_kern.rk4_path"),
    ("lorentz.coframe4_at", "lorentz", "coframe4_at"),
    ("lorentz.ricci4", "lorentz", "ricci4"),
    ("lorentz.verify_ricci_identity", "lorentz", "verify_ricci_identity"),
    ("lorentz.curvature_report", "lorentz", "curvature_report"),
    ("lorentz.dirac_current_frame", "lorentz", "dirac_current_frame"),
    ("frames.structure_constants_from_theta", "frames", "structure_constants_from_theta"),
    ("frames.ricci3", "frames", "ricci3"),
    ("frames.frame_ricci", "frames", "frame_ricci"),
    ("frames.levi_civita", "frames", "levi_civita"),
    ("frames.eigen2x2", "frames", "eigen2x2"),
    ("verify.run_suite", "verify", "run_suite"),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)
_RK4 = SPAN_NAMES.index("numeric.rk4_path")
# share of the traced command time the layer self times may miss
SELF_TIME_TOL = 0.02


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{s}.{k}" for s in SPAN_NAMES for k in ("calls", "self_s")]
    names += [f"{layer}.{k}" for layer in LAYERS for k in ("self_s", "share")]
    names += ["numeric.rk4_path.steps", "numeric.rk4_path.steps_per_s",
              "lapse.b_integral.per_solve_b", "exact.theta_exact.per_curvature_report",
              "exact.branch.per_theta_exact", "trace.overhead"]
    return names


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rk4_steps = 0
        self.cmd_id = -1
        self._stack = [-1]
        self._undo = []

    def _wrap(self, sid, fn):
        name, parent, cmd, start, end = self.name, self.parent, self.cmd, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            i = len(start)
            name.append(sid)
            parent.append(stack[-1])
            cmd.append(tracer.cmd_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if sid == _RK4:
                tracer.rk4_steps += int(result[1])  # steps the kernel reports done
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for sid, (_, modname, attr) in enumerate(TARGETS):
            owner = importlib.import_module("spinorflow." + modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(sid, original)
            holders = {id(owner): owner}
            for mname, mod in list(sys.modules.items()):
                if mname.split(".")[0] == "spinorflow" and getattr(mod, leaf, None) is original:
                    holders[id(mod)] = mod
            for holder in holders.values():
                self._undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)

    def uninstall(self):
        while self._undo:
            holder, leaf, original = self._undo.pop()
            setattr(holder, leaf, original)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.cmd, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        name, parent, cmd, start, end = self.arrays()
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES), name=name,
                            parent=parent, cmd=cmd, start=start, end=end)

    def metrics(self, traced_wall, untraced_wall, blocks):
        """Per-layer metrics, per block of rounds, plus the overhead figures.

        ``traced_wall``/``untraced_wall`` are the harness-measured command
        times of the same commands with and without tracing.
        """
        name, parent, _, start, end = self.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        self_by = np.bincount(name, weights=self_t, minlength=len(SPAN_NAMES))
        out = {}
        for sid, s in enumerate(SPAN_NAMES):
            out[f"{s}.calls"] = (calls[sid] / blocks, "calls/block")
            out[f"{s}.self_s"] = (self_by[sid] / blocks, "s/block")
        layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in SPAN_NAMES])
        for li, layer in enumerate(LAYERS):
            t = float(self_by[layer_of == li].sum())
            out[f"{layer}.self_s"] = (t / blocks, "s/block")
            out[f"{layer}.share"] = (t / traced_wall, "ratio")
        rk4_time = float(dur[name == _RK4].sum())
        out["numeric.rk4_path.steps"] = (self.rk4_steps / blocks, "steps/block")
        out["numeric.rk4_path.steps_per_s"] = (
            self.rk4_steps / rk4_time if rk4_time > 0 else 0.0, "1/s")

        def sid(s):
            return SPAN_NAMES.index(s)

        def ratio(num, den):
            return float(num) / den if den else 0.0

        in_solve = np.sum((name == sid("lapse.b_integral")) & (parent >= 0)
                          & (name[np.maximum(parent, 0)] == sid("lapse.solve_b")))
        out["lapse.b_integral.per_solve_b"] = (
            ratio(in_solve, calls[sid("lapse.solve_b")]), "ratio")
        out["exact.theta_exact.per_curvature_report"] = (
            ratio(np.sum((name == sid("exact.theta_exact"))
                         & _has_ancestor(name, parent, sid("lorentz.curvature_report"))),
                  calls[sid("lorentz.curvature_report")]), "ratio")
        out["exact.branch.per_theta_exact"] = (
            ratio(calls[sid("exact.branch")], calls[sid("exact.theta_exact")]), "ratio")
        out["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
        return out

    def problems(self, traced_wall, commands) -> list[str]:
        """Ways in which the spans are not a well-formed record of
        ``commands`` traced commands that took ``traced_wall`` seconds, as
        timed by the harness around each command."""
        name, parent, cmd, start, end = self.arrays()
        found = []
        top = parent < 0
        if np.any(end < start):
            found.append("a span ends before it starts")
        if np.any(name[top] != 0) or np.sum(top) != commands:
            found.append(f"{np.sum(top)} top-level spans for {commands} commands, "
                         "or one that is not cli.main")
        if len(np.unique(cmd[top])) != np.sum(top):
            found.append("two commands share a command id")
        p = parent[~top]
        if np.any(start[~top] < start[p]) or np.any(end[~top] > end[p]):
            found.append("a span reaches outside its parent")
        if np.any(cmd[~top] != cmd[p]):
            found.append("a span has another command id than its parent")
        dur = end - start
        self_total = float(dur.sum() - dur[~top].sum()) if len(dur) else 0.0
        # self times partition the cli.main spans, which the harness times
        # from one call further out
        if abs(self_total - traced_wall) > SELF_TIME_TOL * traced_wall:
            found.append(f"self times add up to {self_total:.4f} s of {traced_wall:.4f} s")
        return found


def _has_ancestor(name, parent, target):
    """Boolean mask: spans with a span named ``target`` above them."""
    found = np.zeros(len(name), dtype=bool)
    cur = parent.copy()
    while np.any(cur >= 0):
        live = cur >= 0
        found[live] |= name[cur[live]] == target
        cur[live] = parent[cur[live]]
    return found
