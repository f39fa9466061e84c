"""Spans around calls into glgat, recorded from the benchmark process only.

The tracer replaces module attributes that glgat's callers look up at call
time (``glgat.autodiff.matmul``, ``glgat.model.glgat_forward``, ...) with
wrappers that open and close a span. Each span records its name, start,
end and the index of the span that was open when it began. Spans stay in
memory until ``dump`` writes them out; ``uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self._name_index: dict[str, int] = {}
        self._open: list[int] = []
        self._nth: dict[tuple[int, str], int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        key = self._name_index.get(name)
        if key is None:
            key = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([key, perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def nth_child(self, kind: str) -> int:
        """How many spans of ``kind`` the open span has already started."""
        key = (self._open[-1] if self._open else -1, kind)
        n = self._nth[key]
        self._nth[key] = n + 1
        return n

    def traced(self, fn, name, observe=None):
        """``fn`` inside a span; ``name`` is a string or a zero-argument
        callable evaluated per call; ``observe`` sees each result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._begin(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, observe))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its child
        spans; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (key, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(self.names[key], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def inclusive_within(self, name: str, ancestor: str) -> float:
        """Seconds in spans named ``name`` that run inside an ``ancestor`` span."""
        want, outer = self._name_index.get(name), self._name_index.get(ancestor)
        total = 0.0
        for key, start, end, parent in self.spans:
            if key != want:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call, timed on a wrapped no-op."""

        def noop():
            return None

        wrapped = Tracer().traced(noop, "noop")
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        return (perf_counter() - t1 - (t1 - t0)) / calls

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
