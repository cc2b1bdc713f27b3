"""Outside-in tracer: spans and counted spans around the program's public calls.

The tracer never edits the program. It replaces named functions with
timing wrappers *where their callers look them up* (``engine_numpy.
compile_problem``, not only ``indexing.compile_problem``), records

* spans: ``(id, name, start_ns, end_ns, parent_id)`` per call, all
  tagged with one run id, kept in memory and written once at the end;
* folds: per-record or per-request calls merged into one counted span
  per ``(name, parent)`` holding the call count (the layer's counter),
  the total and (for calls, not generator steps) each call's duration,

and computes self time and the time no layer accounts for from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array

now_ns = time.perf_counter_ns

#: Span kinds: a normal call, a call folded into a counted span, and a
#: generator whose ``next()`` steps fold into one counted span.
CALL, FOLD, GEN = "call", "fold", "gen"


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._fold_tables: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _folds(self) -> dict:
        table = getattr(self._local, "folds", None)
        if table is None:
            table = self._local.folds = {}
            with self._lock:
                self._fold_tables.append(table)
        return table

    def parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def fold(self, name: str, duration_ns: int, count: int = 1,
             keep: bool = True, parent: int | None = None) -> None:
        """Add ``count`` calls totalling ``duration_ns`` to a counted span."""
        key = (name, parent if parent is not None else self.parent())
        entry = self._folds().get(key)
        if entry is None:
            entry = self._folds()[key] = [0, 0, array("q")]
        entry[0] += count
        entry[1] += duration_ns
        if keep:
            entry[2].append(duration_ns)

    # -- patching -------------------------------------------------------
    def _wrapper(self, name: str, kind: str, fn):
        tracer = self
        if kind == CALL:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)
        elif kind == FOLD:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = now_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.fold(name, now_ns() - start)
        elif kind == GEN:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer._timed_steps(name, fn(*args, **kwargs))
        else:
            raise ValueError(f"unknown span kind {kind!r}")
        return traced

    def _timed_steps(self, name: str, iterator):
        """Time every ``next()`` of ``iterator`` into one counted span."""
        parent = self.parent()
        steps = 0
        total = 0
        try:
            while True:
                start = now_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    total += now_ns() - start
                    return
                total += now_ns() - start
                steps += 1
                yield item
        finally:
            self.fold(name, total, count=steps, keep=False, parent=parent)

    def patch(self, target: str, name: str, kind: str = CALL) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in place."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(name, kind, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(name, kind, raw.__func__))
        else:
            wrapped = self._wrapper(name, kind, raw)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def install(self, specs) -> "Tracer":
        for target, name, kind in specs:
            self.patch(target, name, kind)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------
    def folds(self) -> list[dict]:
        merged: dict = {}
        with self._lock:
            tables = list(self._fold_tables)
        for table in tables:
            for (name, parent), (count, total, durations) in list(
                table.items()
            ):
                entry = merged.setdefault(
                    (name, parent), [0, 0, array("q")]
                )
                entry[0] += count
                entry[1] += total
                entry[2].extend(durations)
        return [
            {"name": name, "parent": parent, "count": count,
             "total_ns": total, "durations_ns": list(durations)}
            for (name, parent), (count, total, durations) in merged.items()
        ]

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [list(span) for span in self.spans],
            "folds": self.folds(),
        }


# ----------------------------------------------------------------------
# Analysis over a dumped trace
# ----------------------------------------------------------------------
def _covered(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(trace: dict) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover.

    Children are the spans whose parent is the span (their union counts
    once) plus the folded counted spans under it (their total counts).
    """
    children: dict[int, list] = {}
    for span_id, _name, start, end, parent in trace["spans"]:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    folded: dict[int, int] = {}
    for fold in trace["folds"]:
        if fold["parent"] is not None:
            folded[fold["parent"]] = (
                folded.get(fold["parent"], 0) + fold["total_ns"]
            )
    return {
        span_id: (end - start)
        - _covered(children.get(span_id, ()))
        - folded.get(span_id, 0)
        for span_id, _name, start, end, _parent in trace["spans"]
    }


def unaccounted_ns(trace: dict, root: int) -> int:
    """Time inside span ``root`` that no traced layer accounts for."""
    return self_times(trace)[root]


def by_name(trace: dict, name: str) -> list[tuple]:
    return [span for span in trace["spans"] if span[1] == name]


def fold_of(trace: dict, name: str) -> dict:
    """All folds named ``name`` merged across parents."""
    out = {"count": 0, "total_ns": 0, "durations_ns": []}
    for fold in trace["folds"]:
        if fold["name"] == name:
            out["count"] += fold["count"]
            out["total_ns"] += fold["total_ns"]
            out["durations_ns"].extend(fold["durations_ns"])
    return out
