"""In-memory span recorder that times calls into the library from outside.

``Tracer.instrument`` swaps chosen public functions of the ``coinrace``
modules for timing wrappers, in every module that imported them by name, and
puts the originals back on exit.  Each call becomes a span (name, start, end,
parent); the call's return value is kept beside the span so counts can be
taken after the pass without their cost landing inside any span.  The library
itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional

# Layer boundaries: (module, public function).  A call to one of these from
# anywhere in the package, or from the benchmark, opens a span.
BOUNDARIES = (
    ("game", "normalize"),
    ("stopping", "hit_time_distribution"),
    ("advantage", "advantage_polynomial"),
    ("advantage", "advantage_at"),
    ("minimize", "minimize_advantage"),
    ("minimize", "advantage_at_asymptotic"),
    ("oracle", "brute_force_hit_pmf"),
    ("tables", "polynomial_table"),
    ("tables", "minimized_table"),
    ("cli", "main"),
    ("simulate", "simulate"),
    ("simulate", "simulate_at_pstar"),
)


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    args: tuple = ()
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Spans of one traced pass, kept in memory until ``to_json``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its direct children cover."""
        kids: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append((s.start, s.end))
        return [s.duration - covered(s.start, s.end, k) for s, k in zip(self.spans, kids)]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, args)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    @contextmanager
    def instrument(self):
        """Route every reference to a boundary function through a timing wrapper."""
        originals = {}
        for module, func in BOUNDARIES:
            fn = getattr(sys.modules[f"coinrace.{module}"], func)
            originals[id(fn)] = (fn, self._wrap(f"{module}.{func}", fn))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "coinrace" or modname.startswith("coinrace.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]
