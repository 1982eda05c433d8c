"""Span tracer installed around the public functions of the spinphase layers.

The tracer lives entirely in the benchmark: it replaces every module-level
reference to a public layer function (in the defining module, in each
spinphase module that imported it by name, and in the package namespace) with
a wrapper that records one span per call, and it puts the originals back when
it is removed. Spans are kept in memory as compact flat records (40 bytes a
span) and written out when the run ends.

A wrapper's own work would be booked as self time: the span bookkeeping,
records and work counters outside the span's clock reads go to the calling
span, the clock read and argument passing inside them to the span itself. The
tracer times a wrapped probe function when it is built to get both costs per
span (``SpanCost``), and the self times subtract them, together with the
measured time of each work counter.

Work counts are computed at the span boundary from the call's arguments (they
mirror the program's own loop bounds rather than observing them), so they are
labelled "computed".
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time
from array import array
from collections import Counter
from types import ModuleType
from typing import NamedTuple

LAYERS = ("cli", "fields", "classical", "quantum", "interferometry", "dispersion")

#: Computed work counts, each owned by one layer.
WORK_COUNTS = (
    "interferometry.polygon_vertices",
    "classical.rk4_steps",
    "fields.field_points",
    "fields.quad_windows",
    "dispersion.time_samples",
    "cli.rows_written",
    "cli.bytes_written",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_field_points(counts, args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    p = _arg(args, kwargs, 1, "p")
    size = getattr(p, "size", None)
    if size is None:
        size = sum(len(row) if isinstance(row, (list, tuple)) else 1 for row in p)
    counts["fields.field_points"] += (size // 2) * len(cfg.charges)


def _quad_window_counter(smooth_type):
    def count(counts, args, kwargs):
        if isinstance(_arg(args, kwargs, 0, "pulse"), smooth_type):
            counts["fields.quad_windows"] += 1

    return count


def _count_polygon_vertices(counts, args, kwargs):
    """Vertices of the spherical polygon solid_angle_geodesic_closed sums."""
    theta = _arg(args, kwargs, 0, "theta")
    delta = _arg(args, kwargs, 1, "delta_azimuth")
    n = _arg(args, kwargs, 2, "n_steps", 10_000)
    if delta == 0.0:
        return
    st2 = math.sin(theta) ** 2
    cos_ab = st2 * math.cos(delta) + (1.0 - st2)
    closed_arc = math.acos(max(-1.0, min(1.0, cos_ab))) < 1e-15
    counts["interferometry.polygon_vertices"] += n if closed_arc else 2 * n - 2


def _rk4_steps(span: float, dt: float) -> int:
    return max(1, math.ceil(span / dt - 1e-12)) if span > 0.0 else 0


def _count_rk4_ac(counts, args, kwargs):
    kin = _arg(args, kwargs, 2, "kin")
    dt = _arg(args, kwargs, 3, "dt")
    verts = kin.path.vertices
    steps = 0
    for i in range(kin.path.n_segments):
        dx, dy = verts[i + 1] - verts[i]
        length = math.hypot(dx, dy)
        if length > 0.0:
            steps += _rk4_steps(length / float(kin.speeds[i]), dt)
    counts["classical.rk4_steps"] += steps


def _count_rk4_sab(counts, args, kwargs):
    pulse = _arg(args, kwargs, 1, "pulse")
    t = _arg(args, kwargs, 2, "t")
    dt = _arg(args, kwargs, 3, "dt")
    knots = sorted({0.0, t, *(k for k in pulse.knots() if 0.0 < k < t)})
    steps = 0
    for a, b in zip(knots[:-1], knots[1:]):
        if not (b <= pulse.t_on or a >= pulse.t_off):
            steps += _rk4_steps(b - a, dt)
    counts["classical.rk4_steps"] += steps


def _count_time_samples(counts, args, kwargs):
    counts["dispersion.time_samples"] += _arg(args, kwargs, 4, "n_time_samples", 256)


def _scenario_rows(sc) -> int:
    if sc.mode == "interfere":
        return 1
    if sc.mode == "sweep":
        return len(sc.grid_theta) * len(sc.grid_phid)
    if sc.mode == "chi-scan":
        return sc.chi_samples
    if sc.mode in ("sab-classical", "sab-quantum"):
        return sc.n_t
    if sc.mode in ("ac-classical", "ac-quantum"):
        return sc.path.n_segments + 1
    return len(sc.velocities)


def _count_cli_output(counts, args, kwargs):
    sc = _arg(args, kwargs, 0, "scenario")
    counts["cli.rows_written"] += _scenario_rows(sc)
    counts["cli.bytes_written"] += os.stat(sc.out).st_size


class SpanCost(NamedTuple):
    """Tracer time per span beyond the plain call the wrapper replaces."""

    outside_ns: float = 0.0  # before the start and after the end clock read: the caller's
    inside_ns: float = 0.0  # between the clock reads: the span's own


def public_functions(module: ModuleType) -> dict:
    """Module-level functions the module defines under a public name."""
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Records spans around every public function of the spinphase layers.

    Use as a context manager: entering installs the wrappers at every import
    site, leaving removes them. Set ``op`` before each scenario so its spans
    share that identifier. ``span_cost`` is the calibrated tracer time per
    span.
    """

    def __init__(self, package: ModuleType):
        self.package = package
        self.names: list[str] = []
        self.op = -1
        self.counts: Counter = Counter({name: 0 for name in WORK_COUNTS})
        self._ids = array("i")  # op, span, parent, 2 * function + failed
        self._times = array("q")  # start_ns, end_ns, done_ns (end_ns, or after the work counter)
        layers: list[int] = []
        self._stack: list[int] = []
        self._next_span = 0
        self._patches: list[tuple[ModuleType, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, str] = {}

        fields = sys.modules[f"{package.__name__}.fields"]
        counters = {
            "fields.eval_E": _count_field_points,
            "fields.pulse_integral_B": _quad_window_counter(fields.SmoothBumpPulse),
            "interferometry.solid_angle_geodesic_closed": _count_polygon_vertices,
            "classical.integrate_precession_ac": _count_rk4_ac,
            "classical.integrate_precession_sab": _count_rk4_sab,
            "dispersion.contained_during_pulse": _count_time_samples,
            "cli.run": _count_cli_output,
        }
        for layer_index, layer in enumerate(LAYERS):
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in sorted(public_functions(module).items()):
                qualified = f"{layer}.{name}"
                self._originals[id(fn)] = qualified
                self._wrappers[id(fn)] = self._wrap(fn, len(self.names), counters.pop(qualified, None))
                self.names.append(qualified)
                layers.append(layer_index)
        self._layer_of = layers
        if counters:
            raise RuntimeError(f"work-count functions no longer exist: {sorted(counters)}")
        self.span_cost = self._calibrate()

    def _calibrate(self, calls: int = 20_000, repeats: int = 7) -> SpanCost:
        """Tracer cost per call of a wrapped two-argument probe: medians over
        repeats of the time outside and inside the recorded span, each net of
        the plain call the wrapper replaces."""

        def probe(a, b):
            return a

        traced = self._wrap(probe, 0, None)
        clock = time.perf_counter_ns
        outside, inside = [], []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                probe(1, 2)
            t2 = clock()
            for _ in range(calls):
                traced(1, 2)
            t3 = clock()
            recorded = (sum(self._times[1::3]) - sum(self._times[0::3])) / calls
            plain_call = (t2 - t1 - (t1 - t0)) / calls
            inside.append(recorded - plain_call)
            outside.append((t3 - t2) / calls - recorded - (t1 - t0) / calls)
            del self._ids[:]
            del self._times[:]
        self._next_span = 0
        return SpanCost(max(0.0, statistics.median(outside)), max(0.0, statistics.median(inside)))

    def _wrap(self, fn, function: int, counter):
        tracer = self
        stack = self._stack
        extend_ids = self._ids.extend
        extend_times = self._times.extend
        code = 2 * function
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = tracer._next_span
            tracer._next_span = span + 1
            stack.append(span)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = clock()
                stack.pop()
                done = end
                if counter is not None and not failed:
                    counter(tracer.counts, args, kwargs)
                    done = clock()
                extend_ids((tracer.op, span, parent, code + failed))
                extend_times((start, end, done))

        return traced

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package.__name__ or name.startswith(prefix))
        ]

    def __enter__(self) -> "Tracer":
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def uncovered(self) -> list[str]:
        """References to traced functions that still bypass the wrappers.

        Looks at every spinphase module attribute and one level into the
        containers a module holds (dicts, lists, tuples, sets, partials), so a
        dispatch table or alias that would skip the span is reported.
        """
        found = []
        for module in self._modules():
            for attr, value in vars(module).items():
                items = [(attr, value)]
                if isinstance(value, dict):
                    items += [(f"{attr}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, (list, tuple, set, frozenset)):
                    items += [(f"{attr}[{i}]", v) for i, v in enumerate(value)]
                elif isinstance(value, functools.partial):
                    items.append((f"{attr}.func", value.func))
                for where, item in items:
                    name = self._originals.get(id(item))
                    if name is not None:
                        found.append(f"{module.__name__}.{where} -> {name}")
        return found

    def spans(self) -> dict:
        """The recorded spans as columns: op, span, parent, layer, function,
        failed, start_ns, end_ns and done_ns (when the work counter finished).

        The id and time columns are views of the record buffers, so call this
        after the traced run.
        """
        import numpy as np

        ids = np.frombuffer(self._ids, dtype=np.int32).reshape(-1, 4)
        times = np.frombuffer(self._times, dtype=np.int64).reshape(-1, 3)
        function = ids[:, 3] >> 1
        return {
            "op": ids[:, 0],
            "span": ids[:, 1],
            "parent": ids[:, 2],
            "layer": np.asarray(self._layer_of, dtype=np.int8)[function],
            "function": function,
            "failed": ids[:, 3] & 1,
            "start_ns": times[:, 0],
            "end_ns": times[:, 1],
            "done_ns": times[:, 2],
        }

    def write(self, path) -> None:
        """Write the spans and the function and layer names to an .npz file."""
        import numpy as np

        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS), **self.spans())


def caller_costs(spans: dict, cost: SpanCost):
    """Tracer time around each span that its caller's clock reads cover: the
    calibrated outside cost plus the time the span's work counter took."""
    return cost.outside_ns + (spans["done_ns"] - spans["end_ns"])


def _per_parent(spans: dict, weights):
    """Sum of weights over each span's direct children, aligned with the spans."""
    import numpy as np

    span_id = spans["span"]
    parent = spans["parent"]
    size = int(span_id.max()) + 1 if len(span_id) else 0
    has_parent = parent >= 0
    return np.bincount(parent[has_parent], weights=weights[has_parent], minlength=size)[span_id]


def self_times(spans: dict, cost: SpanCost = SpanCost()):
    """Self time of each span: its duration less its own tracer cost, the
    time its direct children cover and the tracer cost around each child.
    Returns a float array aligned with the span columns.

    Spans of one thread nest, so the direct children of a span never overlap
    and their durations add.
    """
    duration = spans["end_ns"] - spans["start_ns"]
    return duration - cost.inside_ns - _per_parent(spans, duration + caller_costs(spans, cost))


def layer_metrics(spans: dict, n_ops: int, traced_wall_ns: int, cost: SpanCost = SpanCost()):
    """Per-layer calls, self time per scenario, self share and failed calls,
    and the tracer time taken out of each layer's self time (ms per scenario).

    The share is of the traced pass's wall time less the tracer's estimated
    cost, so it is a share of the program's own time.
    """
    import numpy as np

    around = caller_costs(spans, cost)
    own = self_times(spans, cost)
    removed = cost.inside_ns + _per_parent(spans, around)
    program_ns = traced_wall_ns - float(around.sum()) - cost.inside_ns * len(around)
    layer = spans["layer"]
    out, removed_ms_per_op = {}, {}
    for index, name in enumerate(LAYERS):
        mask = layer == index
        self_ns = float(own[mask].sum())
        out[f"{name}.calls"] = int(np.count_nonzero(mask))
        out[f"{name}.self_ms_per_op"] = self_ns / 1e6 / n_ops
        out[f"{name}.self_share"] = self_ns / program_ns
        out[f"{name}.failed"] = int(np.count_nonzero(spans["failed"][mask]))
        removed_ms_per_op[name] = float(removed[mask].sum()) / 1e6 / n_ops
    return out, removed_ms_per_op
