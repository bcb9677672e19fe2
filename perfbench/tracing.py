"""Spans and counters recorded around calls into the mesospin layers.

The traced run wraps, inside the benchmark process only, every public
function of each layer module and every function a layer imports from
another layer.  Each call becomes a span (name, layer, start, end,
parent, op id) kept in memory and written out once the run ends;
per-layer self time and call counts are derived from the spans.  No
file of the package is modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("core", "dynamics", "measurement", "metrology", "fitting",
          "angular", "dephasing", "tomography", "ensemble", "budget",
          "config", "rng", "cli")

# Span fields, in the order each span list stores them.
SPAN_FIELDS = ("id", "parent", "op", "name", "layer", "start", "end")
_ID, _PARENT, _OP, _NAME, _LAYER, _START, _END = range(7)

# Private names wrapped in their own module because a per-layer
# counter is read from them.
_PRIVATE_HOOKS = {("cli", "_write_text")}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        # spans and counts are recorded only while an op runs, so the
        # benchmark's own checks stay out of the layer totals
        self.active = False
        self._stack = []

    def begin(self, name, layer):
        span = [len(self.spans), self._stack[-1][_ID] if self._stack else None,
                self.op_id, name, layer, self.clock(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[_END] = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[_NAME]} closed out of order")

    def call(self, name, layer, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self.counts[name + ".calls"] += 1
        span = self.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def write(self, path, meta):
        """Dump the spans and counters as one JSON document."""
        doc = {"meta": meta, "fields": SPAN_FIELDS, "spans": self.spans,
               "counts": dict(sorted(self.counts.items()))}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def self_times(spans):
    """Seconds of each span not covered by its direct children.

    Children of one parent are merged as intervals, so overlapping or
    nested siblings are not subtracted twice.
    """
    children = {}
    for span in spans:
        if span[_PARENT] is not None:
            children.setdefault(span[_PARENT], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span[_START]
        for child in sorted(children.get(span[_ID], ()),
                            key=lambda s: s[_START]):
            lo = max(child[_START], cursor)
            hi = min(child[_END], span[_END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[_ID]] = (span[_END] - span[_START]) - covered
    return out


def layer_self_seconds(spans):
    """Total self time per layer name."""
    own = self_times(spans)
    totals = Counter()
    for span in spans:
        totals[span[_LAYER]] += own[span[_ID]]
    return totals


def _home(fn):
    return fn.__module__.rsplit(".", 1)[-1]


def _wrap_solver(tracer, fn, name, layer):
    """damped_least_squares: count and time the residual/Jacobian callables."""

    def counted(inner, label):
        @functools.wraps(inner)
        def wrapper(*a, **k):
            return tracer.call(label, _home(inner), inner, a, k)
        return wrapper

    @functools.wraps(fn)
    def wrapper(residual, jacobian, *args, **kwargs):
        if not tracer.active:
            return fn(residual, jacobian, *args, **kwargs)
        result = tracer.call(name, layer, fn,
                             (counted(residual, "fitting.residual"),
                              counted(jacobian, "fitting.jacobian")) + args,
                             kwargs)
        tracer.counts["fitting.iterations"] += result.n_iterations
        tracer.counts["fitting.unconverged"] += not result.converged
        return result
    return wrapper


def _ensemble_samples(name, args, kwargs):
    if name == "ensemble._ensemble_density":
        return len(args[4] if len(args) > 4 else kwargs["f"])
    imp = args[2] if len(args) > 2 else kwargs["imp"]
    return imp.ensemble_samples


def _wrap(tracer, fn, name, layer):
    if name == "fitting.damped_least_squares":
        return _wrap_solver(tracer, fn, name, layer)
    if name in ("ensemble._ensemble_density", "ensemble.ensemble_evolve"):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts["ensemble.calls"] += 1
                tracer.counts["ensemble.samples"] += _ensemble_samples(name, args, kwargs)
            return tracer.call(name, layer, fn, args, kwargs)
        return wrapper
    if name == "cli._write_text":
        @functools.wraps(fn)
        def wrapper(path, text):
            digest = tracer.call(name, layer, fn, (path, text), {})
            if tracer.active:
                tracer.counts["cli.bytes_written"] += os.path.getsize(path)
            return digest
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)
    return wrapper


def instrument(tracer, modules):
    """Wrap layer entry points in each module namespace; returns an undo.

    `modules` maps a layer name to its module.  A name is wrapped when
    it is a public function defined in the module itself, or any
    function the module imported from another layer.  The span takes
    the layer of the module that defines the function.
    """
    undo = []
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("mesospin."):
                continue
            home = _home(obj)
            if home not in LAYERS:
                continue
            own_private = home == short and attr.startswith("_")
            if own_private and (short, attr) not in _PRIVATE_HOOKS:
                continue
            setattr(module, attr, _wrap(tracer, obj, f"{home}.{obj.__name__}", home))
            undo.append((module, attr, obj))

    def restore():
        for module, attr, obj in reversed(undo):
            setattr(module, attr, obj)
    return restore
