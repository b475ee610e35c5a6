"""In-memory span recorder that wraps layer entry points from outside.

A span is (name, start, end, parent).  Spans are appended to flat lists
and only summarised or written out after the traced pass ends, so the
per-call cost is a few list appends and two clock reads.  The layer of a
span is the first dotted component of its name; root spans are named
``op.<kind>`` and belong to the runner itself ("bench").
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "bench" if head == "op" else head


class Tracer:
    """Records nested spans and counts; installs and removes wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self, bindings) -> list[str]:
        """Wrap each (module, attribute, span name[, on_result]) binding.

        The attribute is replaced where the caller looks it up, so calls
        made inside the package through that name are traced too.
        Returns the bindings whose attribute does not exist (left
        untraced).
        """
        missing = []
        for module_name, attr, name, *hook in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr,
                    self.wrap(original, name, hook[0] if hook else None))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def span_count(self, name: str) -> int:
        return self.names.count(name)

    def child_count(self, name: str, parent_name: str) -> int:
        names, parents = self.names, self.parents
        return sum(1 for n, p in zip(names, parents)
                   if n == name and p >= 0 and names[p] == parent_name)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        totals: dict[str, float] = {}
        for name, secs in zip(self.names, own):
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0.0) + secs
        return totals

    def by_name(self) -> dict[str, dict]:
        """Call count, total and median duration per span name (ms)."""
        groups: dict[str, list[float]] = {}
        for name, s, e in zip(self.names, self.starts, self.ends):
            groups.setdefault(name, []).append((e - s) * 1e3)
        out = {}
        for name, ms in sorted(groups.items()):
            ms.sort()
            out[name] = {"calls": len(ms), "total_ms": sum(ms),
                         "median_ms": ms[len(ms) // 2]}
        return out

    def dump(self) -> dict:
        """Spans as parallel lists, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        return {"names": self.names,
                "start_s": [round(s - t0, 9) for s in self.starts],
                "end_s": [round(e - t0, 9) for e in self.ends],
                "parent": self.parents,
                "counts": dict(self.counts)}
