"""Spans recorded from outside the program, around calls into its layers.

The benchmark owns the clock: nothing in ``repro`` is edited.  A
:class:`Tracer` wraps public callables -- module functions and class
methods -- for the duration of one repetition and restores them
afterwards.  Each call becomes a span ``(name, start, end, parent)``;
a layer's *self* time is its span minus the part its child spans cover.

Calls that run millions of times (``push``, ``buffers.add``) are *hot*:
they are timed and counted but only their totals are kept, because one
record per call would cost more memory than the run it measures.

Timing a call costs about a microsecond, which a hot method feels:
``trace.overhead_ratio`` reports how much slower the traced solve is,
and end-to-end numbers are always measured with tracing off.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        #: recorded spans: [name, start, end, parent index or -1]
        self.spans: list = []
        #: name -> [calls, busy seconds, self seconds]
        self.totals: dict = {}
        #: one child-time accumulator per call in flight
        self._frames: list = [0.0]
        self._parents: list = [-1]
        self._patches: list = []

    # -- recording --------------------------------------------------------
    def _enter(self, name: str, record: bool) -> tuple:
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._parents[-1]])
            self._parents.append(index)
        self._frames.append(0.0)
        return index, perf_counter()

    def _exit(self, name: str, index: int, started: float) -> None:
        ended = perf_counter()
        busy = ended - started
        children = self._frames.pop()
        self._frames[-1] += busy
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += busy
        total[2] += busy - children
        if index >= 0:
            span = self.spans[index]
            span[1] = started
            span[2] = ended
            self._parents.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span around the benchmark's own call."""
        return _Span(self, name)

    # -- shims ------------------------------------------------------------
    def _wrapper(self, fn, name: str, hot: bool):
        enter, leave, record = self._enter, self._exit, not hot

        def traced(*args, **kwargs):
            index, started = enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, index, started)

        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, cls, attr: str, name: str, hot: bool = False) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) on ``cls``
        itself, also when the class only inherits it."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, name, hot))
        else:
            wrapped = self._wrapper(raw, name, hot)
        self._patches.append((cls, attr, raw, attr in cls.__dict__))
        setattr(cls, attr, wrapped)

    def wrap_function(self, fn, name: str, hot: bool = False) -> None:
        """Wrap a module-level function wherever ``repro`` has bound it:
        ``from x import f`` copies the reference, so every importing
        module's global is patched, not only the defining one."""
        wrapped = self._wrapper(fn, name, hot)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn, True))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading ----------------------------------------------------------
    def covered(self) -> float:
        """Seconds inside any span so far (nested spans counted once)."""
        return self._frames[0]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def busy(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write_jsonl(self, path: str, repetition: str) -> None:
        """One line per recorded span, then one per name with its totals
        (the only record of hot calls)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = {
                    "rep": repetition, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                }
                handle.write(json.dumps(row) + "\n")
            for name, (calls, busy, self_s) in sorted(self.totals.items()):
                row = {
                    "rep": repetition, "total": name, "calls": calls,
                    "busy_s": busy, "self_s": self_s,
                }
                handle.write(json.dumps(row) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index", "started")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index, self.started = self.tracer._enter(self.name, True)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.name, self.index, self.started)
        return False
