"""Span tracing of becosmo's modules from outside, for the traced run.

``install`` replaces every public becosmo function on each name a caller
looks it up by (its own module, every module that imported it, the package
namespace), and the trajectory lookup methods ``ScaleTrajectory.b/bdot/
clock/horizon_integral`` and ``LinearExpansion.b/bdot``, with a wrapper that
records a span: name, start, end and parent. A call from a layer into the
same layer is not a boundary and passes straight through, so a layer's self
time is its spans' durations minus the spans they caused in other layers.
``solve_ivp`` is wrapped where ``scaling`` and ``threed`` look it up, to
count right-hand-side evaluations. ``uninstall`` puts every original back.

Spans stay in memory and are written out once, at the end.
Nothing here touches the package's source.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import time

import numpy as np

MODULES = ("condensate", "scaling", "geometry", "q2d", "threed", "specfun",
           "scenarios", "cli")
LOOKUP_METHODS = {"ScaleTrajectory": ("b", "bdot", "clock", "horizon_integral"),
                  "LinearExpansion": ("b", "bdot")}
MARK = "_bench_wrapper"


def _count(key, value):
    def hook(tracer, result):
        tracer.counts[key] = tracer.counts.get(key, 0) + value(result)
    return hook


# Counters taken from return values at the layer boundary.
RESULT_HOOKS = {
    "q2d.spectrum_2d_grid": _count("q2d.grid_points", lambda r: r.kappa_grid.size),
    "threed.spectrum_3d_grid": _count("threed.grid_points", lambda r: r.kappa_grid.size),
    "threed.integrate_mode": _count("threed.frozen", lambda r: r.frozen_value is not None),
}


class Tracer:
    """In-memory span store.

    A span is (id, name id, parent id, start ns, end ns), appended when it
    ends. The spans of one root span (one benchmark op) are packed into an
    int64 array when the root ends, so memory stays at 40 bytes a span.
    A wrapper reads the clock first and last, so its own bookkeeping counts
    in the callee's span and not in the caller's self time.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._open: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._next_id = itertools.count().__next__
        self._merged = 0
        self._stack = [-1]
        self._layers = [None]
        self._patches: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_span(self, name: str, layer: str):
        sid = self._next_id()
        self._stack.append(sid)
        self._layers.append(layer)
        return sid, self.intern(name), time.perf_counter_ns()

    def end_span(self, token) -> None:
        sid, nid, start = token
        self._stack.pop()
        self._layers.pop()
        self._open.append((sid, nid, self._stack[-1], start, time.perf_counter_ns()))
        if len(self._stack) == 1:
            self._pack()

    def _pack(self) -> None:
        if self._open:
            self._chunks.append(np.array(self._open, dtype=np.int64).reshape(-1, 5))
            self._open.clear()

    def spans(self) -> np.ndarray:
        """All spans so far as an (n, 5) array sorted by span id."""
        self._pack()
        if not self._chunks:
            return np.zeros((0, 5), dtype=np.int64)
        spans = np.concatenate(self._chunks)
        return spans[np.argsort(spans[:, 0], kind="stable")]

    def span_wrapper(self, fn, name: str, layer: str, on_result=None):
        nid = self.intern(name)
        layers, stack = self._layers, self._stack
        push_layer, pop_layer = layers.append, layers.pop
        push_span, pop_span = stack.append, stack.pop
        record, next_id = self._open.append, self._next_id
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            start = clock()
            sid = next_id()
            push_span(sid)
            push_layer(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop_span()
                pop_layer()
                record((sid, nid, stack[-1], start, clock()))
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def counting_wrapper(self, fn, key: str):
        """Wrapper that adds result.nfev to counts[key]; records no span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] = self.counts.get(key, 0) + int(result.nfev)
            return result
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, key)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("becosmo")
        modules = {m: importlib.import_module(f"becosmo.{m}") for m in MODULES}
        solve_ivp = importlib.import_module("scipy.integrate").solve_ivp
        wrapped = {}
        for owner in (package, *modules.values()):
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_"):
                    continue
                if obj is solve_ivp and owner in (modules["scaling"], modules["threed"]):
                    layer = owner.__name__.rsplit(".", 1)[-1]
                    self._patch(owner, attr, self.counting_wrapper(obj, f"{layer}.ode_nfev"))
                elif inspect.isfunction(obj) and obj.__module__.startswith("becosmo."):
                    if obj not in wrapped:
                        layer = obj.__module__.rsplit(".", 1)[-1]
                        name = f"{layer}.{obj.__name__}"
                        wrapped[obj] = self.span_wrapper(obj, name, layer,
                                                         RESULT_HOOKS.get(name))
                    self._patch(owner, attr, wrapped[obj])
        for cls_name, methods in LOOKUP_METHODS.items():
            cls = getattr(modules["scaling"], cls_name)
            for method in methods:
                self._patch(cls, method, self.span_wrapper(
                    vars(cls)[method], f"scaling.lookup.{method}", "scaling"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans from a traced child process ------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans().tolist(),
                "counts": self.counts}

    def merge(self, child: dict, parent_sid: int) -> None:
        """Add a child process's spans under span parent_sid. Their times
        stay in the child's clock; only durations are compared across spans."""
        self._merged += 1
        base = self._merged << 40      # keeps child span ids apart from ours
        ids = [self.intern(n) for n in child["names"]]
        for sid, nid, parent, start, end in child["spans"]:
            self._open.append((base + sid, ids[nid],
                               parent_sid if parent < 0 else base + parent, start, end))
        for key, value in child["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), spans=self.spans())

    # -- derived figures ----------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: count, inclusive ns and self ns."""
        spans = self.spans()
        sid, name_id, parent = spans[:, 0], spans[:, 1], spans[:, 2]
        duration = spans[:, 4] - spans[:, 3]
        nested = parent >= 0
        children = np.zeros_like(duration)
        np.add.at(children, np.searchsorted(sid, parent[nested]), duration[nested])
        own = duration - children
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {"calls": int(mask.sum()), "incl_ns": int(duration[mask].sum()),
                         "self_ns": int(own[mask].sum())}
        return out


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from becosmo's namespaces."""
    package = importlib.import_module("becosmo")
    owners = [package] + [importlib.import_module(f"becosmo.{m}") for m in MODULES]
    scaling = importlib.import_module("becosmo.scaling")
    owners += [getattr(scaling, c) for c in LOOKUP_METHODS]
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners for attr, obj in vars(owner).items()
            if hasattr(obj, MARK)]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures per traced op, from the spans and counters."""
    totals = tracer.totals()

    def pick(key: str, field: str) -> float:
        """Sum over the span named key, or over all names under a key ending in '.'."""
        return sum(v[field] for name, v in totals.items()
                   if name == key or (key.endswith(".") and name.startswith(key)))

    ms = 1e-6 / ops
    counts = tracer.counts
    modes = pick("threed.integrate_mode", "calls")
    return {
        "cli.main_ms": pick("cli.main", "incl_ns") * ms,
        "scenarios.load_ms": (pick("scenarios.config_from_dict", "incl_ns")
                              + pick("scenarios.load_scenario", "incl_ns")) * ms,
        "scenarios.run_self_ms": pick("scenarios.run", "self_ns") * ms,
        "condensate.calls": pick("condensate.", "calls") / ops,
        "condensate.self_ms": pick("condensate.", "self_ns") * ms,
        "scaling.integrate_calls": pick("scaling.integrate_scale_factor", "calls") / ops,
        "scaling.integrate_self_ms": pick("scaling.integrate_scale_factor", "self_ns") * ms,
        "scaling.ode_nfev": counts.get("scaling.ode_nfev", 0) / ops,
        "scaling.lookup_calls": pick("scaling.lookup.", "calls") / ops,
        "scaling.lookup_self_ms": pick("scaling.lookup.", "self_ns") * ms,
        "scaling.csv_self_ms": pick("scaling.write_trajectory_csv", "self_ns") * ms,
        "geometry.calls": pick("geometry.", "calls") / ops,
        "geometry.self_ms": pick("geometry.", "self_ns") * ms,
        "geometry.incl_ms": pick("geometry.", "incl_ns") * ms,
        "geometry.horizons_csv_self_ms": pick("geometry.write_horizons_csv", "self_ns") * ms,
        "q2d.grid_points": counts.get("q2d.grid_points", 0) / ops,
        "q2d.grid_self_ms": pick("q2d.spectrum_2d_grid", "self_ns") * ms,
        "q2d.csv_self_ms": pick("q2d.write_spectrum_2d_csv", "self_ns") * ms,
        "threed.grid_points": counts.get("threed.grid_points", 0) / ops,
        "threed.grid_self_ms": pick("threed.spectrum_3d_grid", "self_ns") * ms,
        "threed.csv_self_ms": pick("threed.write_spectrum_3d_csv", "self_ns") * ms,
        "threed.mode_calls": modes / ops,
        "threed.mode_self_ms": pick("threed.integrate_mode", "self_ns") * ms,
        "threed.ode_nfev": counts.get("threed.ode_nfev", 0) / ops,
        "threed.frozen_ratio": counts.get("threed.frozen", 0) / modes if modes else 0.0,
        "threed.analytic_self_ms": pick("threed.analytic_evolution", "self_ns") * ms,
        "specfun.calls": pick("specfun.", "calls") / ops,
        "specfun.self_ms": pick("specfun.", "self_ns") * ms,
    }
