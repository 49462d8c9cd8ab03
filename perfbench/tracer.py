"""Per-layer tracing of reebkit from outside the package.

The tracer replaces public functions of reebkit with timing wrappers for the
duration of a traced phase and puts the originals back afterwards.  A
wrapper is installed in every ``reebkit.*`` namespace that binds the
function, because the modules import each other's functions by name
(``section.flow``, ``section.orbit_index`` and ``orbits.flow`` are separate
bindings of two functions).

Three kinds of wrapper:

* span     -- records (job, id, parent id, name, start, end) in memory;
              self time is the span's duration minus its children's.
* kernel   -- high-frequency leaf functions (tens of thousands of calls per
              job); only calls and time are summed, and the time is charged
              to the enclosing span as child time.  No span is recorded.
* probe    -- timed or counted without being a child of the enclosing span:
              numpy's ``eigh`` inside ``index.spectrum`` (so the matrix
              assembly time is ``spectrum.self_s - spectrum.eigh_s``) and the
              quadrature levels of ``section.disk_area_bound``.

The package is single-threaded and has no queues, so no layer has a waiting
time to report.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import reebkit.bookkeeping
import reebkit.cli
import reebkit.geometry
import reebkit.index
import reebkit.integrate
import reebkit.knots
import reebkit.orbits
import reebkit.section

clock = time.perf_counter

# (reported name, module, attribute)
SPANS = [
    ("cli.main", reebkit.cli, "main"),
    ("integrate.dopri45", reebkit.integrate, "dopri45"),
    ("index.random_nondegenerate_path", reebkit.index, "random_nondegenerate_path"),
    ("index.path_from_loop", reebkit.index, "path_from_loop"),
    ("index.spectrum", reebkit.index, "spectrum"),
    ("index.cz_geometric", reebkit.index, "cz_geometric"),
    ("index.winding_interval", reebkit.index, "winding_interval"),
    ("index.rotation_number_with_error", reebkit.index, "rotation_number_with_error"),
    ("orbits.orbit_index", reebkit.orbits, "orbit_index"),
    ("orbits.disk_frame", reebkit.orbits, "disk_frame"),
    ("orbits.linearized_path", reebkit.orbits, "linearized_path"),
    ("orbits.index_table", reebkit.orbits, "index_table"),
    ("knots.binding_sl_numeric", reebkit.knots, "binding_sl_numeric"),
    ("section.return_map", reebkit.section, "return_map"),
    ("section.brentq", reebkit.section, "brentq"),
    ("section.disk_area_bound", reebkit.section, "disk_area_bound"),
    ("section.fixed_point", reebkit.section, "fixed_point"),
    ("section.linking_with_binding", reebkit.section, "linking_with_binding"),
    ("section.quad_dlambda_area", reebkit.section, "quad_dlambda_area"),
    ("bookkeeping.sigma_gap", reebkit.bookkeeping, "sigma_gap"),
]
KERNELS = [
    ("geometry.flow", reebkit.geometry, "flow"),
    ("geometry.reeb_vector", reebkit.geometry, "reeb_vector"),
    ("geometry.lambda_eval", reebkit.geometry, "lambda_eval"),
    ("geometry.dlambda_eval", reebkit.geometry, "dlambda_eval"),
    ("index.delta_phi", reebkit.index, "delta_phi"),
]
# functions with traced children get a total_s besides self_s
WITH_CHILDREN = {
    "cli.main", "integrate.dopri45", "index.random_nondegenerate_path", "index.cz_geometric",
    "index.rotation_number_with_error", "orbits.orbit_index", "orbits.disk_frame",
    "orbits.linearized_path", "orbits.index_table", "section.return_map", "section.brentq",
    "section.fixed_point", "section.linking_with_binding",
}
# reported per-layer metrics beyond calls/self_s/total_s: name -> (unit, better)
DERIVED = {
    "integrate.dopri45.steps": ("count", "lower"),
    "integrate.dopri45.fev": ("count", "lower"),
    "index.spectrum.eigh_s": ("s", "lower"),
    "index.accept_ratio": ("ratio", "higher"),
    "index.birkhoff_used_ratio": ("ratio", "higher"),
    "orbits.linearized_path.distinct_ratio": ("ratio", "higher"),
    "section.brentq.fev": ("count", "lower"),
    "section.flow_per_return": ("count", "lower"),
    "section.disk_area_bound.levels": ("count", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    specs = [("setup.numpy_s", "s", "lower"), ("setup.scipy_s", "s", "lower"),
             ("setup.reebkit_s", "s", "lower")]
    for name, _mod, _attr in SPANS + KERNELS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in WITH_CHILDREN:
            specs.append((f"{name}.total_s", "s", "lower"))
    specs += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    specs += [("trace.jobs", "count", "higher"), ("trace.job_total_s", "s", "lower"),
              ("trace.overhead_frac", "ratio", "lower")]
    return specs


class Tracer:
    """Spans and counters of one traced phase; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []   # [span id, name, start, child seconds, parent id]
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.job = -1
        self.job_keys: set = set()    # distinct linearized_path inputs of the current job
        self._patched: list[tuple] = []
        self._next_id = 0
        self._hooks = {
            "integrate.dopri45": self._on_dopri45,
            "index.random_nondegenerate_path": self._on_accept,
            "index.rotation_number_with_error": self._on_rotation,
            "orbits.linearized_path": self._on_linearized,
        }

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([self._next_id, name, clock(), 0.0, parent])
        self._next_id += 1
        self.depth[name] += 1

    def leave(self) -> float:
        end = clock()
        span_id, name, start, child, parent = self.stack.pop()
        dur = end - start
        self.depth[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.depth[name] == 0:
            self.total_s[name] += dur
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((self.job, span_id, parent, name, start, end))
        return dur

    def begin_job(self, index: int) -> None:
        self.job = index
        self.job_keys = set()
        self.enter("job")

    def end_job(self) -> float:
        dur = self.leave()
        self.counts["linearized_path.distinct"] += len(self.job_keys)
        return dur

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            hook = self._hooks.get(name)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    def _kernel(self, name, fn):
        in_return = name == "geometry.flow"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self.calls[name] += 1
                self.self_s[name] += dur
                if self.stack:
                    self.stack[-1][3] += dur
                if in_return and self.depth["section.return_map"]:
                    self.counts["flow_in_return"] += 1

        return wrapper

    def _brentq(self, name, fn):
        span = self._span(name, fn)

        def wrapper(f, *args, **kwargs):
            def counted(*fargs):
                self.counts["brentq.fev"] += 1
                return f(*fargs)

            return span(counted, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _eigh(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s["spectrum.eigh"] += clock() - start

        return wrapper

    def _levels(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["disk_area_bound.levels"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks ----------------------------------------------------------

    def _on_dopri45(self, res, _args, _kwargs):
        self.counts["dopri45.steps"] += res.n_steps
        self.counts["dopri45.fev"] += res.n_fev

    def _on_accept(self, _res, _args, _kwargs):
        self.counts["accepted_paths"] += 1

    def _on_rotation(self, res, _args, _kwargs):
        self.counts["birkhoff_used"] += res[1] != 0.0

    def _on_linearized(self, _res, args, kwargs):
        orbit = args[0] if args else kwargs["orbit"]
        frame = args[1] if len(args) > 1 else kwargs.get("frame")
        offset = frame.cls.offset if frame is not None else 0
        self.job_keys.add((orbit.system, tuple(orbit.anchor.tolist()), orbit.period,
                           orbit.multiplicity, offset))

    # -- install / remove ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "reebkit" and not mod_name.startswith("reebkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for name, module, attr in SPANS:
            original = getattr(module, attr)
            make = self._brentq if name == "section.brentq" else self._span
            self._replace_everywhere(original, make(name, original))
        for name, module, attr in KERNELS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._kernel(name, original))
        original = reebkit.section._page_form_integral
        self._replace_everywhere(original, self._levels(original))
        self._patched.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._eigh(np.linalg.eigh)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer values of the traced phase (setup and overhead are added by the caller)."""
        out: dict[str, float] = {}
        for name, _mod, _attr in SPANS + KERNELS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in WITH_CHILDREN:
                out[f"{name}.total_s"] = self.total_s[name]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["integrate.dopri45.steps"] = c["dopri45.steps"]
        out["integrate.dopri45.fev"] = c["dopri45.fev"]
        out["index.spectrum.eigh_s"] = self.total_s["spectrum.eigh"]
        out["index.accept_ratio"] = ratio(c["accepted_paths"], self.calls["index.path_from_loop"])
        out["index.birkhoff_used_ratio"] = ratio(
            c["birkhoff_used"], self.calls["index.rotation_number_with_error"])
        out["orbits.linearized_path.distinct_ratio"] = ratio(
            c["linearized_path.distinct"], self.calls["orbits.linearized_path"])
        out["section.brentq.fev"] = c["brentq.fev"]
        out["section.flow_per_return"] = ratio(c["flow_in_return"],
                                               self.calls["section.return_map"])
        out["section.disk_area_bound.levels"] = ratio(
            c["disk_area_bound.levels"], self.calls["section.disk_area_bound"])
        out["trace.jobs"] = self.calls["job"]
        out["trace.job_total_s"] = self.total_s["job"]
        return out
