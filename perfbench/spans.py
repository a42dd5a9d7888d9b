"""Spans for the traced run: record in memory, attribute self time.

A span is (name, start, end, parent). Spans nest on one thread; the
recorder keeps a per-thread stack, so a span's parent is the innermost
span open on its thread when it started. Nothing here touches the
program's source: :class:`Patcher` wraps the program's public entry
points from outside, for the duration of one traced run, and restores
them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Recorder", "Patcher", "self_times", "layer_self_times", "inclusive_time"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple[int, str, float, int | None]:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, name, time.perf_counter(), parent

    def end(self, token: tuple[int, str, float, int | None]) -> None:
        end = time.perf_counter()
        sid, name, start, parent = token
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(Span(sid, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, on_item=None):
        """A generator function whose every ``next`` step is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    token = self.begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end(token)
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                gen.close()

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (the union of their intervals).
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = max(s.duration - covered, 0.0)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name; the values add up to the roots."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return dict(out)


def inclusive_time(spans: list[Span], name: str, under: str | None = None) -> float:
    """Summed duration of the ``name`` spans not nested in another one.

    With ``under``, only spans inside an ``under`` span count.
    """
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        ancestors = []
        p = s.parent
        while p is not None:
            ancestors.append(by_id[p].name)
            p = by_id[p].parent
        if name not in ancestors and (under is None or under in ancestors):
            total += s.duration
    return total


class Patcher:
    """Swap program callables for span-recording wrappers, then restore.

    A function is replaced wherever a loaded ``repro`` module binds it
    (``from x import f`` copies the reference into the importer), so
    calls made through any of those names are recorded.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]

    def function(self, module, attr: str, wrapper_factory) -> None:
        orig = getattr(module, attr)
        wrapper = wrapper_factory(orig)
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, value))
                    setattr(m, key, wrapper)

    def method(self, cls, attr: str, wrapper_factory) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(wrapper_factory(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(wrapper_factory(raw.__func__))
        else:
            new = wrapper_factory(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
