"""Span tracing from outside the program, by attribute wrapping.

``Tracer.install`` replaces the public functions of each layer module,
and the public methods of the classes they define, with wrappers that
record a span per call: name, start, end and parent.  A function bound
by name in another ``switchflow`` module (``from .graphs import
require_valid``) is replaced there too.  Names bound at definition time,
such as the ``verify=flows.verify`` default argument of
``suite.run_checks``, keep the original, so those calls show up as zero
call counts and their time falls into the caller's self time.

Self time is a span's duration minus the durations of its direct
children; spans nest strictly because the workloads run one caller in
one thread.  Aggregates are updated as spans close.  The first
``capacity`` spans are also kept in memory and written out by ``dump``
after the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# Per-step accessors: a span around each of these would cost more than
# the call itself and swamp the layers they are called from.
SKIPPED = {
    "graphs.slot_index",
    "graphs.slot_of",
    "graphs.SwitchGraph.successor",
    "graphs.SwitchGraph.head",
    "graphs.SwitchGraph.slots",
}

# Methods traced under the layer name alone, as ``local_search.neighbor``.
SHORT_METHOD_NAMES = {"LocalOptInstance"}

WALK = "local_search.walk_localopt"
VERIFY = "flows.verify"
STEP_COUNTERS = {"simulate.simulate", WALK}


class Tracer:
    def __init__(self, capacity: int = 100_000):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.steps: dict[str, int] = {}
        self.verify_in_walk = 0
        self._walk_depth = 0
        self._stack: list[list[int]] = []  # [span index, start, child ns]
        self._plan: list[tuple[object, str, object, object]] | None = None
        self.capacity = capacity
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0

    # -- installing ------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        is_walk = name == WALK
        is_verify = name == VERIFY
        counts_steps = name in STEP_COUNTERS
        if counts_steps:
            self.steps[name] = 0
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if is_verify and tracer._walk_depth:
                tracer.verify_in_walk += 1
            if is_walk:
                tracer._walk_depth += 1
            span = len(tracer.span_start)
            if span < tracer.capacity:
                tracer.span_name.append(idx)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
            else:
                span = -1
                tracer.dropped += 1
            frame = [span, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += duration - frame[2]
                tracer.total_ns[idx] += duration
                if stack:
                    stack[-1][2] += duration
                if span >= 0:
                    tracer.span_start[span] = frame[1]
                    tracer.span_end[span] = end
                if is_walk:
                    tracer._walk_depth -= 1
            if counts_steps:
                tracer.steps[name] += result.steps
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers: dict[str, object]) -> None:
        """Wrap every public function and method of the given modules,
        keyed by layer name.  Wrappers are made once and reused."""
        if self._plan is None:
            self._plan = self._make_plan(layers)
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _make_plan(self, layers: dict[str, object]):
        package = [
            m for k, m in sys.modules.items() if k == "switchflow" or k.startswith("switchflow.")
        ]
        plan = []
        for layer, module in layers.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name in SKIPPED:
                        continue
                    wrapper = self._wrap(name, obj)
                    for other in package:
                        for oattr, oval in vars(other).items():
                            if oval is obj:
                                plan.append((other, oattr, obj, wrapper))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    plan += self._class_plan(layer, obj)
        return plan

    def _class_plan(self, layer: str, cls):
        plan = []
        for attr, obj in sorted(vars(cls).items()):
            public = not attr.startswith("_")
            if not inspect.isfunction(obj) or not (public or attr == "__init__"):
                continue
            if obj.__code__.co_filename != inspect.getfile(cls):
                continue  # generated by dataclass or NamedTuple
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif cls.__name__ in SHORT_METHOD_NAMES:
                name = f"{layer}.{attr}"
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIPPED:
                continue
            plan.append((cls, attr, obj, self._wrap(name, obj)))
        return plan

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self and total seconds, summed so far."""
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "total_s": self.total_ns[i] / 1e9,
            }
        for name, steps in self.steps.items():
            out[name]["steps"] = steps
        return out

    def clear_totals(self) -> None:
        for series in (self.calls, self.self_ns, self.total_ns):
            series[:] = [0] * len(series)
        for name in self.steps:
            self.steps[name] = 0
        self.verify_in_walk = 0

    @property
    def span_count(self) -> int:
        return len(self.span_start) + self.dropped

    def dump(self, path) -> None:
        """One header line, then one ``[name, parent, start_ns, end_ns]``
        line per kept span; parent is the parent's line index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "names": self.names,
                "columns": ["name", "parent", "start_ns", "end_ns"],
                "kept": len(self.span_start),
                "dropped": self.dropped,
            }
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write("[%d,%d,%d,%d]\n" % row)
