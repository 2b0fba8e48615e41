"""In-memory span recorder for the traced benchmark run.

The tracer times calls into each layer's public functions from outside the
package: while a unit runs, every module of `qpcsim` that holds one of the
functions in `LAYER_FUNCTIONS` (the defining module, the package namespace
and each caller that imported the name, such as `qpcsim.analyze.conductance`
or `qpcsim.simulate.capture_photon`) is given a timing wrapper in its place,
and the original is put back when the unit returns.  No file of the package
changes.

A span is (name, parent span, unit id, start, end, count).  The count is
the work the call did where the layer has a natural measure of it (gate
points, successful captures, steps found, bytes written), else 0.  A span's
self time is its duration minus the durations of its direct children;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import qpcsim
from qpcsim import analyze, charge, cli, simulate, transport

LAYER_MODULES = {
    "transport": transport,
    "charge": charge,
    "simulate": simulate,
    "analyze": analyze,
}

LAYER_FUNCTIONS = {
    "transport": ("conductance", "transconductance"),
    "charge": ("capture_photon", "build_ensemble", "effective_gate_shift"),
    "simulate": ("simulate_exposure", "simulate_gate_sweep", "trace_to_text",
                 "trace_from_text"),
    "analyze": ("correlate_heights", "detect_steps", "saturation_summary",
                "fit_exponential"),
}

# modules whose names the wrappers replace: every caller inside the package,
# plus the package namespace the benchmark itself calls through
_CALLERS = (qpcsim, transport, charge, simulate, analyze, cli)


def _gate_points(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["effective_gate_voltage"]))


_COUNTERS = {
    "transport.conductance": _gate_points,
    "transport.transconductance": _gate_points,
    "charge.capture_photon": lambda args, kwargs, result: int(result is not None),
    "simulate.trace_to_text": lambda args, kwargs, result: len(result.encode("utf-8")),
    "analyze.detect_steps": lambda args, kwargs, result: len(result),
}


class Tracer:
    """Spans of one traced run, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._unit = None
        self._origin = time.perf_counter()
        self._wrappers = []
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                original = getattr(LAYER_MODULES[layer], name)
                self._wrappers.append(
                    (name, original, self._wrap(f"{layer}.{name}", original)))

    def _open(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, name, parent, start, end, count):
        self._stack.pop()
        self.spans[sid] = (name, parent, self._unit, start, end, count)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid, parent, start = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                count = counter(args, kwargs, result) if counter and result is not None else 0
                self._close(sid, name, parent, start, end, count)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around the block (used for units and CLI commands)."""
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, parent, start, time.perf_counter(), 0)

    @contextmanager
    def unit(self, unit_id: str):
        """Trace one unit: patch the layer functions, record a root span."""
        saved = []
        for name, original, wrapper in self._wrappers:
            for module in _CALLERS:
                if getattr(module, name, None) is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)
        self._unit = unit_id
        try:
            with self.span("unit"):
                yield
        finally:
            self._unit = None
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def totals(self) -> dict:
        """Per span name: calls, summed count, summed self time (s)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, _, _, start, end, count) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "count": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["count"] += count
            agg["self_s"] += (end - start) - child_time[sid]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines; times are seconds since the tracer began."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, unit, start, end, count) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "unit": unit,
                    "start": start - self._origin, "end": end - self._origin,
                    "count": count,
                }) + "\n")
