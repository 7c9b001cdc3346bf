"""Span tracing around the package's public functions, from outside the package.

`Tracer.install` replaces every public function of the traced modules at
each module attribute that refers to it, including the names that `cli` and
`series` import by name (`cli.format_scalar`, `series.moments`, ...), so a
call is recorded whichever module makes it.  Spans are kept in memory as
(name, start, end, parent) and written out by the caller at the end.
Counts that need a function's arguments or result are derived after the
timed pass from references kept here, so the work of counting is not
charged to any span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource

MODULES = ("model", "analytic", "series", "oracle", "simulation", "tables", "cli")

# The span names whose arguments or results feed per-layer counts.
KEEP = {
    "series.g_coefficients",
    "series.queue_distribution",
    "tables.render_csv",
    "tables.render_structured",
    "oracle.joint_stationary",
    "simulation.simulate_run",
}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.kept = []  # (name, args, kwargs, result)
        self.solve_rss_mb = 0.0
        self.active = False
        self._stack = []
        self._patches = []

    def install(self, clock):
        """Wrap every public function of MODULES wherever a module attribute names it."""
        modules = {name: importlib.import_module(f"onoffqueue.{name}") for name in MODULES}
        home = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    home[obj] = f"{short}.{attr}"
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in home:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, home[obj], clock))
        self.active = True

    def uninstall(self):
        for mod, attr, obj in self._patches:
            setattr(mod, attr, obj)
        self._patches.clear()
        self.active = False

    def reset(self):
        self.spans = []
        self.kept = []

    def _wrap(self, fn, name, clock):
        keep = name in KEEP
        measure_rss = name == "oracle.joint_stationary"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            if measure_rss:
                rss_before, peak_before = _rss_mb(), _maxrss_mb()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if measure_rss:
                # ru_maxrss only moves when this call set a new process peak;
                # then the peak minus the resident size at entry is what the
                # solve added on top of everything already allocated.
                peak_after = _maxrss_mb()
                if peak_after > peak_before:
                    self.solve_rss_mb = max(self.solve_rss_mb, peak_after - rss_before)
            if keep:
                self.kept.append((name, args, kwargs, result))
            return result

        return traced


def span_times(spans) -> tuple:
    """Total inclusive and self seconds per span name, and calls per name."""
    inclusive, self_time, calls = {}, {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        calls[name] = calls.get(name, 0) + 1
    return inclusive, self_time, calls
