"""In-memory span recorder for the library's public functions.

The library has no trace hooks, so the recorder wraps the functions the
benchmark names and rebinds every reference to them in the loaded
`malice` modules; `uninstall` puts the originals back.  A wrapper only
records while the recorder is active, which run.py arranges around the
calls it attributes to an op, so the benchmark's own output checks are
never counted.

Each span is (span_id, parent_id, op, name, start_ns, end_ns).  Per name
the recorder keeps calls, busy time (span durations) and self time (busy
time minus the time of the spans opened directly inside), plus work units
(links water-filled, grid points enumerated) and the largest residual and
mass-conservation error seen.  Spans past SPAN_CAP are counted but not
kept, so memory stays bounded on the oracle workload, which opens about
10,000 spans per op.
"""

import functools
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.active = False
        self.ops = 0
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.units = defaultdict(int)
        self.maxima = defaultdict(float)
        self._op = -1
        self._stack = []      # open spans: [span_id, start_ns, child_ns]
        self._next_id = 0
        self._in_generator = False
        self._undo = []

    @contextmanager
    def recording(self, op):
        """Record spans for the calls made inside, tagged with op."""
        self.active, self._op = True, op
        self.ops += 1
        try:
            yield
        finally:
            self.active = False

    def _open(self):
        entry = [self._next_id, 0, 0]
        self._next_id += 1
        self._stack.append(entry)
        entry[1] = time.perf_counter_ns()
        return entry

    def _close(self, name, entry):
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, child_ns = entry
        duration = end - start
        self.calls[name] += 1
        self.busy_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self._op, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, name, fn, units=None, observe=None):
        """fn, recorded as span `name` while the recorder is active.

        units(*args) adds to the work count of `name`; observe(result)
        inspects the return value outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if units is not None:
                tracer.units[name] += units(*args)
            entry = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, entry)
            if observe is not None:
                observe(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A recursive generator function, with each step of the outermost
        generator recorded as one span and counted as one work unit."""
        tracer = self

        def steps(iterator):
            while True:
                entry = tracer._open()
                tracer._in_generator = True
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._in_generator = False
                    tracer._close(name, entry)
                tracer.units[name] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or tracer._in_generator:
                return fn(*args, **kwargs)
            return steps(fn(*args, **kwargs))

        return traced

    def _rebind(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name != "malice" and not module_name.startswith("malice."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_class(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        """Wrap the library's layer boundaries."""
        from malice import families, flows, game, model, oracle

        def note_max(key, value):
            if math.isfinite(value) and value > self.maxima[key]:
                self.maxima[key] = value

        def note_certificate(result):
            certificate = result[1]
            note_max("game.residual_max", max(certificate.mal_residual, certificate.soc_residual))

        def grid_points(inst, alpha, grid):
            return grid.points(inst.m)

        traced = [
            (flows.waterfill, "flows.waterfill", lambda slopes, *rest: len(slopes), None),
            (flows.wardrop_flow, "flows.wardrop_flow", None, None),
            (flows.system_optimum, "flows.system_optimum", None, None),
            (flows.induced_optimum, "flows.induced_optimum", None, None),
            (model.validate, "model.validate", None, None),
            (model.cost, "model.cost", None, None),
            (model.parse_instance, "model.parse_instance", None, None),
            (model.dumps, "model.dumps", None, None),
            (game.pure_equilibrium, "game.pure_equilibrium", None, note_certificate),
            (game.scale_strategy, "game.scale_strategy", None, None),
            (game.com_report, "game.com_report", None, None),
            (families.com_sweep, "families.com_sweep", lambda inst, alphas: len(alphas), None),
            (oracle.soc_mal_value, "oracle.soc_mal_value", grid_points, None),
            (oracle.mal_soc_value, "oracle.mal_soc_value", grid_points, None),
        ]
        for fn, name, units, observe in traced:
            self._rebind(fn, self.wrap(name, fn, units, observe))
        self._rebind(oracle.simplex_grid, self.wrap_generator("oracle.simplex_grid", oracle.simplex_grid))

        post_init = model.Flow.__dict__["__post_init__"]
        flow_build = self.wrap("model.flow_build", post_init)

        def traced_post_init(flow):
            if self.active:
                try:
                    note_max("flows.mass_error_max", abs(math.fsum(flow.values) - float(flow.mass)))
                except (TypeError, ValueError, OverflowError):
                    pass  # malformed input; __post_init__ reports it
            flow_build(flow)

        self._patch_class(model.Flow, "__post_init__", traced_post_init)
        slopes = model.Instance.__dict__["slopes"]
        self._patch_class(model.Instance, "slopes", property(self.wrap("model.instance_slopes", slopes.fget)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the kept spans as JSON lines, then one line counting dropped spans."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                         "start_ns": start, "end_ns": end}) + "\n")
            handle.write(json.dumps({"dropped": self.dropped}) + "\n")
