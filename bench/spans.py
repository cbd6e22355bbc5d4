"""Span tracing installed from outside the package.

The tracer replaces selected idcurv functions with timing wrappers on every
module attribute that refers to them, so a call is caught whether its caller
reached the function through its home module (`geometry.admissible`) or
imported it by name (`from .curvature import angle_deficits` in flows and
potential). Nothing inside idcurv is edited.

A span is (name, start, end, parent, job). Spans are kept in flat lists and
written out once, when the traced run ends. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _matrix_bytes(args, kwargs, result):
    return result.matrix.nbytes


def _file_bytes(position):
    """Size of the file a writer was given as argument `position` (or `path=`)."""

    def size(args, kwargs, result):
        return os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])

    return size


# span name -> functions it times, as (module, qualified attribute, bytes or None);
# `bytes` maps (args, kwargs, result) to the computed size the call produced
SPAN_HOOKS = {
    "surface.build": [("idcurv.surface", "WeightedTriangulation.__init__", None)],
    "surface.load": [
        ("idcurv.surface", "load_surface", None),
        ("idcurv.surface", "load_radii", None),
    ],
    "geometry.face_lengths": [("idcurv.geometry", "face_lengths", None)],
    "geometry.corner_angles": [("idcurv.geometry", "corner_angles", None)],
    "geometry.admissible": [("idcurv.geometry", "admissible", None)],
    "geometry.triangle_slack": [("idcurv.geometry", "triangle_slack", None)],
    "curvature.angle_deficits": [("idcurv.curvature", "angle_deficits", None)],
    "curvature.curvature_jacobian": [
        ("idcurv.curvature", "curvature_jacobian", _matrix_bytes),
    ],
    "curvature.laplacian_spectrum": [("idcurv.curvature", "laplacian_spectrum", None)],
    "flows.run_flow": [("idcurv.flows", "run_flow", None)],
    "potential.newton_solve": [("idcurv.potential", "newton_solve", None)],
    "cli.main": [("idcurv.cli", "main", None)],
    "cli.write": [
        ("idcurv.flows", "FlowTrace.write_csv", _file_bytes(1)),  # (self, path)
        ("idcurv.flows", "FlowTrace.write_events", _file_bytes(1)),
        ("idcurv.surface", "save_radii", _file_bytes(0)),  # (path, radii)
    ],
}

# counter name -> (module, attribute, predicate on the result or None).
# These private step-control hooks are counted but not timed, so their cost
# stays in the self time of flows.run_flow. A hook the package no longer
# has is skipped and reported in Tracer.missing.
COUNT_HOOKS = {
    "flows.candidates": ("idcurv.flows", "_propose", None),
    "flows.accepted": ("idcurv.flows", "_legal", bool),
}


def _resolve(module_name, qualname):
    owner = sys.modules[module_name]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _referrers(func):
    """Every (module, name) among the loaded idcurv modules bound to func."""
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "idcurv" or mod_name.startswith("idcurv.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is func:
                yield mod, name


class Tracer:
    """In-memory span recorder with wrappers it can install and remove."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[object] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.active = False
        self.job: object = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, original, size):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if size is not None:
                tracer.bytes[name] += size(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, original, predicate):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.active and (predicate is None or predicate(result)):
                tracer.counts[name] += 1
            return result

        return wrapper

    # -- installation ------------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every hooked function wherever an idcurv module refers to it."""
        for name, targets in SPAN_HOOKS.items():
            for module_name, qualname, size in targets:
                owner, attr = _resolve(module_name, qualname)
                original = getattr(owner, attr)
                wrapper = self._span_wrapper(name, original, size)
                if "." in qualname:  # a method: patch the class, callers use the instance
                    self._patch(owner, attr, wrapper)
                else:
                    for mod, bound_name in list(_referrers(original)):
                        self._patch(mod, bound_name, wrapper)
        for name, (module_name, attr, predicate) in COUNT_HOOKS.items():
            module = sys.modules[module_name]
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            wrapper = self._count_wrapper(name, original, predicate)
            for mod, bound_name in list(_referrers(original)):
                self._patch(mod, bound_name, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------------

    def summary(self):
        """Per span name: calls and self seconds; plus ancestry-derived counts.

        Parents always precede their children in the lists, so one forward
        pass knows, for every span, whether run_flow / newton_solve encloses it.
        """
        n = len(self.names)
        child_time = [0.0] * n
        under_flow = [False] * n
        under_newton = [False] * n
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        derived = {"flows.rhs_evals": 0, "potential.newton.iterations": 0}
        admissible_checks = 0
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
                under_flow[i] = under_flow[p] or self.names[p] == "flows.run_flow"
                under_newton[i] = under_newton[p] or self.names[p] == "potential.newton_solve"
            name = self.names[i]
            if name == "curvature.angle_deficits" and under_flow[i]:
                derived["flows.rhs_evals"] += 1
            if name == "curvature.curvature_jacobian" and under_newton[i]:
                derived["potential.newton.iterations"] += 1
            if name == "geometry.admissible" and p >= 0 and self.names[p] == "potential.newton_solve":
                admissible_checks += 1
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            self_s[name] += (self.ends[i] - self.starts[i]) - child_time[i]
        # each newton_solve checks its start once before any line-search trial
        derived["potential.line_search.trials"] = (
            admissible_checks - calls.get("potential.newton_solve", 0)
        )
        return dict(calls), dict(self_s), derived

    def write_csv(self, path):
        lines = ["name,start,end,parent,job"]
        for i in range(len(self.names)):
            lines.append(
                f"{self.names[i]},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                f"{self.parents[i]},{self.jobs[i]}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
