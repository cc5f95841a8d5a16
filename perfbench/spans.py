"""Wall-time spans for the benchmark's traced run.

A span is a named interval.  Spans nest: a span's self time is its duration
minus the time covered by the spans opened inside it.  Spans are kept in
memory and summarised when the run ends.  The traced run records spans inside
the library by rebinding module or class attributes to timing wrappers, in
the benchmark process only; `restore` puts every original back.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


class Tracer:
    """Collects span durations by name and the attribute patches it made."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, float] = {}
        self._child_time: list[float] = []  # one entry per open span
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            self.durations.setdefault(name, []).append(duration)
            self.self_times[name] = self.self_times.get(name, 0.0) + duration - children

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Rebind `owner.attr` to `make(original)` until `restore`."""
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patched.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record every call of `owner.attr` as a span called `name`."""

        def make(original):
            def timed(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return timed

        self.replace(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
