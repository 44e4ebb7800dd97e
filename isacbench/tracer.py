"""Span tracer that wraps the program's public functions from outside.

Each trace point replaces one attribute: the name under which a caller looks
the function up (``harness.fisher_information`` for the simulator,
``nn.kernels.conv2d3x3_same_fwd`` for the model, a method on its class).  A
span records its name, start, end, parent and an optional unit count taken
from the result (slots of an episode, examples of a dataset, bytes of a
saved file).  Functions that run many thousand times per second and have no
metric of their own time are only counted.  Spans and counts live in memory
until ``dump`` writes them out.
"""
from __future__ import annotations

import gzip
import json
import os
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.units: list[float] = []
        self.counts: Counter = Counter()   # (phase, name) -> calls
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ---- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.units.append(0.0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A root span such as ``setup`` or ``measure``."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _current_phase(self) -> str:
        return self.names[self._stack[0]] if self._stack else ""

    def _span_wrapper(self, name, fn, units):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if units is not None:
                tracer.units[i] = units(args, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[(tracer._current_phase(), name)] += 1
            return fn(*args, **kwargs)

        return counted

    # ---- patching ---------------------------------------------------------------

    def install(self, points) -> None:
        """Wrap every point: (owner, attribute, span name, kind, units)."""
        for owner, attr, name, kind, units in points:
            original = vars(owner)[attr]
            if kind == "span":
                wrapper = self._span_wrapper(name, original, units)
            else:
                wrapper = self._count_wrapper(name, original)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- analysis ---------------------------------------------------------------

    def spans(self) -> list[dict]:
        """Every closed span with its duration, self time, phase and the
        names of its ancestors; times in ns."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        phase = [""] * n
        ancestors = [frozenset()] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                phase[i] = phase[p]
                ancestors[i] = ancestors[p] | {self.names[p]}
            else:
                phase[i] = self.names[i]
        return [{"name": self.names[i], "dur": dur[i], "self": dur[i] - child[i],
                 "ancestors": ancestors[i], "phase": phase[i],
                 "units": self.units[i]}
                for i in range(n)]

    def dump(self, path: str) -> None:
        """Write spans and counts as gzipped JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        table = sorted(set(self.names))
        index = {name: j for j, name in enumerate(table)}
        doc = {
            "names": table,
            "columns": ["name", "start_ns", "end_ns", "parent", "units"],
            "spans": [[index[self.names[i]], self.start[i], self.end[i],
                       self.parent[i], self.units[i]]
                      for i in range(len(self.names))],
            "counts": [[ph, name, c] for (ph, name), c in
                       sorted(self.counts.items())],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
