"""In-memory span tracer that wraps the program's public functions.

A :class:`Tracer` patches functions and methods for the length of a
``with tracer.installed(specs):`` block and restores every original on exit.
Each wrapped call records one span ``(id, name, start, end, parent, thread,
attrs)`` in a list; nothing is written until :meth:`Tracer.write_jsonl`.

Parents follow the caller: the current span lives in a
:class:`contextvars.ContextVar`, asyncio tasks inherit it, and while the
tracer is installed ``ThreadPoolExecutor.submit`` runs each task in a copy of
the submitting context, so a span in a pool thread names the span that
submitted it (a cross-thread child).

A span's self time is its duration minus the part of its interval that its
children cover (the union of the children's intervals, clipped to the span),
so concurrent children in several threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WrapSpec:
    """Wrap ``owner.attr`` so each call records a span called ``name``.

    ``owner`` is a class (the method is patched on it) or a module (the
    function is patched in every ``repro`` module that imported it by name).
    ``extract(args, kwargs, result)`` returns attributes for the span.
    """

    owner: object
    attr: str
    name: str
    extract: "Callable | None" = None


def covered_seconds(start: float, end: float,
                    intervals: Iterable["tuple[float, float]"]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> "dict[int, float]":
    """Self time of every span: duration minus the union its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - covered_seconds(
                span.start, span.end, children.get(span.id, ()))
            for span in spans}


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._current: "contextvars.ContextVar[int | None]" = \
            contextvars.ContextVar(f"perfbench-span-{id(self)}", default=None)
        self._patches: "list[tuple[object, str, object]]" = []
        self.t0 = time.perf_counter()

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block as a span; yields its (mutable) attribute dict."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def _wrap(self, fn, name: str, extract):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per step: the consumer's work between steps is
                # not this generator's time
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        with tracer.span(name):
                            try:
                                item = next(gen)
                            except StopIteration as stop:
                                return stop.value
                        yield item
                finally:
                    gen.close()
            return gen_wrapper
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with tracer.span(name) as attrs:
                    result = await fn(*args, **kwargs)
                    if extract is not None:
                        attrs.update(extract(args, kwargs, result))
                    return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                if extract is not None:
                    attrs.update(extract(args, kwargs, result))
                return result
        return wrapper

    # -- patching ------------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, spec: WrapSpec) -> None:
        if isinstance(spec.owner, type):
            original = spec.owner.__dict__[spec.attr]
            self._patch(spec.owner, spec.attr,
                        self._wrap(original, spec.name, spec.extract))
            return
        original = getattr(spec.owner, spec.attr)
        wrapper = self._wrap(original, spec.name, spec.extract)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    @contextlib.contextmanager
    def installed(self, specs: Sequence[WrapSpec]):
        """Patch every spec (and thread-pool context propagation) for a block."""
        original_submit = ThreadPoolExecutor.__dict__["submit"]

        def submit(pool, fn, /, *args, **kwargs):
            return original_submit(pool, contextvars.copy_context().run,
                                   fn, *args, **kwargs)

        try:
            self._patch(ThreadPoolExecutor, "submit", submit)
            for spec in specs:
                self._install(spec)
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in seconds since the tracer began."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.id, "name": span.name,
                    "start": round(span.start - self.t0, 9),
                    "end": round(span.end - self.t0, 9),
                    "parent": span.parent, "thread": span.thread,
                    "attrs": span.attrs}, sort_keys=True) + "\n")
