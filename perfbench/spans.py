"""Spans recorded from outside the program, around calls into its modules.

Callers inside peqfdn import names directly (``from .optimize import fit``),
so a function is wrapped under every module attribute that holds it: the
name its caller looks up.  Spans stay in memory as
``(name, start, end, parent)`` tuples and are written out once, when the
benchmark ends.
"""

import contextlib
import functools
import json
import statistics
import sys
import time

# (defining module, function) pairs traced in a --trace 1 run; the layer of a
# span is the defining module.  The CLI commands get spans from the harness
# itself, around each cli.main call.
TRACED = (
    ("optimize", "fit"),
    ("optimize", "loss_and_gradient"),
    ("optimize", "adam_step"),
    ("evaluate", "run_campaign"),
    ("evaluate", "achieved_t60"),
    ("digitize", "peq_to_sos"),
    ("digitize", "band_to_biquad"),
    ("digitize", "digitization_report"),
    ("fdn", "render_ir"),
    ("fdn", "schroeder_t60"),
    ("fdn", "write_wav"),
    ("targets", "load_t60_table"),
    ("targets", "interpolate_to_grid"),
    ("peq", "scale_to_delay"),
    ("peq", "peq_log_magnitude"),
)


class Tracer:
    """Span recorder; ``enabled`` is False for untraced passes."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.observed: dict[str, list] = {}  # span name -> (args, result) samples
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn, observe: bool):
        spans, stack = self.spans, self._stack
        observed = self.observed.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if observe:
                observed.append((args, result))
            return result

        return traced

    def install(self, package: str, observe: set[str]) -> list[str]:
        """Wrap every TRACED function wherever a peqfdn module holds it.

        Returns the names that the package no longer defines, so a renamed
        function shows up as missing instead of silently untraced.
        """
        missing = []
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, name in observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        self.enabled = True
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.enabled = False

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, p50/p90 microseconds."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        durations: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[index]
        out = {}
        for name, values in durations.items():
            values.sort()
            out[name] = {
                "calls": len(values),
                "s": sum(values),
                "self_s": self_s[name],
                "p50_us": 1e6 * _quantile(values, 0.5),
                "p90_us": 1e6 * _quantile(values, 0.9),
            }
        return out

    def child_seconds(self, parent_name: str, child_name: str) -> float:
        """Total time of child_name spans directly under parent_name spans."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(end - start for name, start, end, parent in self.spans
                   if name == child_name and parent in parents)

    def write(self, path: str) -> None:
        """JSON lines, one span each, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": round(start - origin, 9),
                     "end": round(end - origin, 9), "parent": parent}) + "\n")


def _quantile(sorted_values: list[float], q: float) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]
