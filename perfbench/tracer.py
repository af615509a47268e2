"""Outside-in span tracer for the `shapecalc` layers.

The tracer wraps public functions of the `shapecalc` modules from outside:
it replaces the name in every `shapecalc.*` namespace that holds the same
object (`from .geometry import nearest_curve_param` copies the reference),
and wraps the `__post_init__` desk checks of the manifold and field classes
in place.  Nothing under `src/` changes.

Install it before `cli.load_plan` runs: `fd_jacobian` closures and the
`analytic_*` references inside functionals are captured when the plan is
built, so a tracer installed later never sees them.

Each wrapped call becomes a span.  A span's self time is its duration minus
the durations of the spans it directly encloses, so self times of all spans
partition the time covered by traced code.  Spans started inside a
`derivative.compare` or `validation.*` suite call share that call's job id;
spans outside any job (plan building) carry job id 0.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _rows(x) -> int:
    """Number of points in a (n, d) or (d,) point argument."""
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _points(args, kwargs) -> int:
    return _rows(args[1] if len(args) > 1 else kwargs["pts"])


def _point_steps(args, kwargs) -> int:
    x0 = args[1] if len(args) > 1 else kwargs["x0"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return _rows(x0) * int(cfg.n_steps)


@dataclass(frozen=True)
class Layer:
    """One traced layer: a span name and the module attributes it wraps.

    `attrs` holds plain function names or `Class.method` names.  `work`
    maps the call's arguments to a work count (points, point-steps).
    `root` marks calls that start a job.  `split_transported` names the
    span `<name>.flowed` or `<name>.base` by the instance's `transported`
    flag.  `returns_callable` wraps the returned closure instead of the
    call itself, spanning each call of the closure.
    """

    name: str
    module: str
    attrs: tuple[str, ...]
    work: Optional[Callable] = None
    root: bool = False
    split_transported: bool = False
    returns_callable: bool = False


LAYERS = (
    Layer("geometry.nearest_curve_param", "shapecalc.geometry",
          ("nearest_curve_param",), work=_points),
    Layer("geometry.nearest_surface_param", "shapecalc.geometry",
          ("nearest_surface_param",), work=_points),
    Layer("geometry.curve_init", "shapecalc.geometry",
          ("ParamCurve.__post_init__",), split_transported=True),
    Layer("geometry.surface_init", "shapecalc.geometry",
          ("ParamSurface.__post_init__",), split_transported=True),
    Layer("geometry.integrate_curve", "shapecalc.geometry", ("integrate_curve",)),
    Layer("geometry.integrate_surface", "shapecalc.geometry",
          ("integrate_surface",)),
    Layer("flow.flow_point", "shapecalc.flow", ("flow_point",), work=_point_steps),
    Layer("flow.flow_with_jacobian", "shapecalc.flow", ("flow_with_jacobian",),
          work=_point_steps),
    Layer("flow.flow_manifold", "shapecalc.flow", ("flow_manifold",)),
    Layer("flow.invariance_residual", "shapecalc.flow", ("invariance_residual",)),
    Layer("stencil.sample_derivative", "shapecalc._stencil",
          ("sample_derivative",)),
    Layer("fields.fd_jacobian_dX", "shapecalc.fields", ("fd_jacobian",),
          work=lambda args, kwargs: _rows(args[0]), returns_callable=True),
    Layer("fields.field_init", "shapecalc.fields", ("AmbientField.__post_init__",)),
    Layer("fields.restriction_field", "shapecalc.fields", ("restriction_field",)),
    Layer("fields.check_tangency", "shapecalc.fields", ("check_tangency",)),
    Layer("functionals.evaluate", "shapecalc.functionals",
          ("length", "surface_area", "bending_energy")),
    Layer("functionals.analytic", "shapecalc.functionals",
          ("analytic_dlength", "analytic_darea", "analytic_delastic")),
    Layer("derivative.fd_quotients", "shapecalc.derivative", ("fd_quotients",)),
    Layer("derivative.compare", "shapecalc.derivative", ("compare",), root=True),
    Layer("validation.nullity", "shapecalc.validation",
          ("tangential_nullity_suite",), root=True),
    Layer("validation.locality", "shapecalc.validation", ("locality_suite",),
          root=True),
    Layer("validation.normal_dependence", "shapecalc.validation",
          ("normal_dependence_suite",), root=True),
    Layer("validation.crack", "shapecalc.validation", ("crack_suite",), root=True),
    Layer("validation.case_setup", "shapecalc.validation",
          ("tangential_probe_fields", "locality_pairs", "nullity_negative_field")),
    Layer("cli.setup", "shapecalc.cli",
          ("load_plan", "comparison_jobs", "suite_jobs")),
    Layer("report_io.write_json", "shapecalc.report_io", ("write_json",)),
)


@dataclass
class SpanStats:
    calls: int = 0
    work: int = 0
    self_s: float = 0.0
    total_s: float = 0.0       # outermost spans only, so recursion counts once


@dataclass
class Job:
    job_id: int
    name: str
    label: str
    duration_s: float = 0.0


class Tracer:
    """Records spans of wrapped `shapecalc` calls and aggregates them.

    Spans are kept in memory as tuples (name, start, end, parent index, job
    id); per-name statistics are aggregated as spans close.
    """

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []
        self.jobs: list[Job] = []
        self.missing: list[str] = []
        self._stack: list[list] = []     # [name, start, child_s, span_index]
        self._active: dict[str, int] = {}
        self._job_id = 0
        self._undo: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str, starts_job: bool, args):
        if starts_job:
            self.jobs.append(Job(len(self.jobs) + 1, name, _label(args)))
            self._job_id = len(self.jobs)
        self._active[name] = self._active.get(name, 0) + 1
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._job_id))
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def _exit(self, work: int, starts_job: bool):
        end = time.perf_counter()
        name, start, child_s, index = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.work += work
        st.self_s += dur - child_s
        self._active[name] -= 1
        if self._active[name] == 0:
            st.total_s += dur
        _, _, _, parent, job = self.spans[index]
        self.spans[index] = (name, start, end, parent, job)
        if starts_job:
            self.jobs[-1].duration_s = dur
            self._job_id = 0

    def _wrap(self, fn, layer: Layer):
        tracer = self

        if layer.returns_callable:
            def make(*args, **kwargs):
                inner = fn(*args, **kwargs)
                return tracer._wrap(inner, Layer(layer.name, layer.module, (),
                                                 work=layer.work))
            make.__wrapped__ = fn
            return make

        def call(*args, **kwargs):
            name = layer.name
            if layer.split_transported:
                name += ".flowed" if args[0].transported else ".base"
            starts_job = layer.root and tracer._job_id == 0
            tracer._enter(name, starts_job, args)
            work = 0
            try:
                if layer.work is not None:
                    work = layer.work(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._exit(work, starts_job)

        call.__wrapped__ = fn
        return call

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer; a name that no longer exists is recorded in
        `missing` and its metrics read as absent, the run goes on."""
        for layer in self.layers:
            try:
                home = importlib.import_module(layer.module)
            except ImportError:
                self.missing.extend(f"{layer.module}.{a}" for a in layer.attrs)
                continue
            for attr in layer.attrs:
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = (owner.__dict__.get(meth) if isinstance(owner, type)
                            else getattr(owner, meth, None))
                if owner is None or original is None:
                    self.missing.append(f"{layer.module}.{attr}")
                    continue
                wrapper = self._wrap(original, layer)
                if isinstance(owner, type):
                    self._patch(owner, meth, original, wrapper)
                    continue
                for mod in _shapecalc_modules():
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def missing_layers(self) -> list[str]:
        """Layers none of whose attributes could be wrapped."""
        gone = set(self.missing)
        return [lay.name for lay in self.layers
                if all(f"{lay.module}.{a}" in gone for a in lay.attrs)]

    # -- results ----------------------------------------------------------

    def self_sum(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def table(self) -> dict:
        return {name: {"calls": st.calls, "work": st.work,
                       "self_s": st.self_s, "total_s": st.total_s}
                for name, st in sorted(self.stats.items())}


def _label(args) -> str:
    names = [getattr(a, "name", None) for a in args[:3]]
    return "/".join(n for n in names if isinstance(n, str))


def _shapecalc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "shapecalc"
                                  or name.startswith("shapecalc."))]


def tail_percentile(values) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples above it; the maximum at 100 when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def calibrate_overhead(n: int = 20000) -> float:
    """Seconds a wrapped call costs over a plain one, per span."""
    def noop(x, y):
        return x

    probe = Tracer(layers=())
    wrapped = probe._wrap(noop, Layer("probe", "", ()))
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop(1, 2)
        best_plain = min(best_plain, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped(1, 2)
        best_wrapped = min(best_wrapped, time.perf_counter() - t0)
        probe.spans.clear()
    return max(best_wrapped - best_plain, 0.0) / n


# ---------------------------------------------------------------------------
# per-layer metrics


def _rate(work: int, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for p in ("geometry.nearest_curve_param", "geometry.nearest_surface_param"):
        units.update({f"{p}.calls": "count", f"{p}.points": "count",
                      f"{p}.self_s": "s", f"{p}.points_per_s": "1/s"})
    for p in ("geometry.curve_init", "geometry.surface_init"):
        for k in ("base", "flowed"):
            units.update({f"{p}.{k}.calls": "count", f"{p}.{k}.self_s": "s"})
    for p in ("geometry.integrate_curve", "geometry.integrate_surface"):
        units.update({f"{p}.calls": "count", f"{p}.self_s": "s"})
    for p in ("flow.flow_point", "flow.flow_with_jacobian"):
        units.update({f"{p}.calls": "count", f"{p}.point_steps": "count",
                      f"{p}.self_s": "s", f"{p}.point_steps_per_s": "1/s"})
    units.update({
        "flow.flow_manifold.calls": "count",
        "flow.invariance_residual.calls": "count",
        "flow.invariance_residual.total_s": "s",
        "stencil.sample_derivative.calls": "count",
        "stencil.sample_derivative.self_s": "s",
        "fields.fd_jacobian_dX.calls": "count",
        "fields.fd_jacobian_dX.points": "count",
        "fields.fd_jacobian_dX.self_s": "s",
        "fields.field_init.calls": "count",
        "fields.field_init.self_s": "s",
        "fields.restriction_field.calls": "count",
        "fields.check_tangency.self_s": "s",
        "functionals.evaluate.calls": "count",
        "functionals.evaluate.total_s": "s",
        "functionals.analytic.calls": "count",
        "functionals.analytic.total_s": "s",
        "derivative.fd_quotients.calls": "count",
        "derivative.fd_quotients.total_s": "s",
        "derivative.fd_quotients.p50_ms": "ms",
        "derivative.fd_quotients.tail_ms": "ms",
        "derivative.fd_quotients.tail_pct": "%",
    })
    for p in ("nullity", "locality", "normal_dependence", "crack", "case_setup"):
        units[f"validation.{p}.total_s"] = "s"
    units.update({
        "cli.setup.total_s": "s",
        "report_io.write_json.total_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.unattributed_s": "s",
        "trace.wall_s": "s",
        "trace.spans": "count",
        "trace.missing_layers": "count",
    })
    return units


# every per-layer metric the tracer emits, with its unit, in emission order
PER_LAYER_UNITS = _per_layer_units()


def layer_metrics(tracer: Tracer, wall_s: float, span_cost_s: float) -> dict:
    """Every per-layer metric as {name: value}; absent layers read 0 and are
    counted in `trace.missing_layers`."""
    out: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if layer == "trace":
            continue
        st = tracer.get(layer)
        if kind == "calls":
            out[metric] = st.calls
        elif kind in ("points", "point_steps"):
            out[metric] = st.work
        elif kind == "self_s":
            out[metric] = st.self_s
        elif kind == "total_s":
            out[metric] = st.total_s
        elif kind in ("points_per_s", "point_steps_per_s"):
            out[metric] = _rate(st.work, st.self_s)
        elif kind == "p50_ms":
            durations = tracer.durations(layer)
            out[metric] = 1e3 * statistics.median(durations) if durations else 0.0
        elif kind == "tail_ms":
            out[metric] = 1e3 * tail_percentile(tracer.durations(layer))[0]
        elif kind == "tail_pct":
            out[metric] = tail_percentile(tracer.durations(layer))[1]
        else:
            raise KeyError(metric)
    n_spans = sum(st.calls for st in tracer.stats.values())
    overhead_s = n_spans * span_cost_s
    out["trace.overhead_frac"] = (overhead_s / (wall_s - overhead_s)
                                  if wall_s > overhead_s else 0.0)
    out["trace.unattributed_s"] = wall_s - tracer.self_sum()
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = n_spans
    out["trace.missing_layers"] = len(tracer.missing_layers())
    return out
