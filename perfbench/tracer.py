"""In-memory span recorder that times calls into the program from outside.

The tracer replaces a function attribute on the module (or class) where
the program looks it up with a wrapper that records a span around the
original call, and restores every original on ``close``.  Spans are kept
in a list as ``[name, start, end, parent]`` and only summarised once the
run is over, so recording costs two clock reads and a list append.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def sample(self, key: str, value) -> None:
        self.samples[key].append(value)

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or ``name(args, kwargs)`` returning one.
        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` record
        counts; their cost is kept in ``trace.count`` spans so it never
        lands in a layer's time.  A missing attribute is noted, not raised.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            label = name if isinstance(name, str) else attr
            self.missing[label] = f"{getattr(owner, '__name__', owner)}.{attr} no longer exists"
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                with self.span("trace.count"):
                    before(args, kwargs)
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = original(*args, **kwargs)
            if after is not None:
                with self.span("trace.count"):
                    after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def within(self, root: int) -> list[int]:
        """Indices of the spans nested (at any depth) inside span ``root``."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(i)
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    lie inside their parent; the self times of a span and all of its
    descendants then add up to that span's duration.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
