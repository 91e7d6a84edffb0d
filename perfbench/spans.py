"""In-memory spans recorded by wrapping functions from outside.

A `Tracer` replaces a function or method with a wrapper that records one
span per call: (name, start, end, parent).  Spans stay in memory until the
run ends.  `self_times` turns them into per-name call counts, total time
and self time, where self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []            # name id -> name
        self._ids: dict = {}
        self.name_of = array("i")        # per span: name id
        self.parent = array("i")         # per span: parent index or -1
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """A stand-in for fn that records a span per call.

        `after(result, args, kwargs)`, when given, runs once the span has
        closed, to update counters from the call's result; the time it
        takes is its own span, so the caller's self time excludes it.
        """
        nid = self._name_id(name)
        hook = self.wrap(f"perfbench.{name}", after) if after else None

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def records(self):
        """Spans as (name, start, end, parent) tuples, in call order."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name_of, self.start, self.end, self.parent)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, s, e, p) in enumerate(self.records()):
                fh.write(f"{i}\t{name}\t{s:.9f}\t{e:.9f}\t{p}\n")


def self_times(spans) -> list:
    """Self time of each span in `spans`, a list of (name, start, end,
    parent) tuples where parent indexes the list or is -1.

    Children's intervals are clipped to their parent and merged before
    they are subtracted, so overlapping children count once.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out.append((end - start) - covered)
    return out


def summarize(spans, within: str | None = None) -> dict:
    """name -> {"calls", "total", "self"} (seconds) over all spans, or
    over the spans that descend from a root span named `within`."""
    selfs = self_times(spans)
    root = []
    for i, (_, _, _, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    out: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        if within is not None and spans[root[i]][0] != within:
            continue
        agg = out[name]
        agg["calls"] += 1
        agg["total"] += end - start
        agg["self"] += selfs[i]
    return dict(out)


class RepeatCounter:
    """Counts calls whose key was already seen: the hit rate an ideal
    cache keyed on that key would reach."""

    def __init__(self):
        self.calls = 0
        self.repeats = 0
        self._seen: set = set()

    def add(self, key) -> None:
        self.calls += 1
        if key in self._seen:
            self.repeats += 1
        else:
            self._seen.add(key)

    @property
    def ratio(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


@contextmanager
def patched(targets):
    """Temporarily set attributes: targets is a list of (owner, attribute,
    replacement).  Originals come back on exit, in reverse order."""
    saved = []
    try:
        for owner, attr, new in targets:
            saved.append((owner, attr, owner.__dict__[attr]
                          if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
