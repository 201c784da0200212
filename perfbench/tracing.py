"""In-memory spans recorded around the package's existing call boundaries.

The tracer replaces module attributes of ``secular3bp`` with timing
wrappers and puts every original object back when it is closed.  Nothing
in the package is edited, so spans follow the call boundaries the package
has today: a function is seen only where it is looked up as a module
attribute at call time (``kernels.quarter_sums`` inside ``averaging``, the
names each module imported with ``from .x import y``).

Each span has a name, start, end, parent and an operation id shared by all
spans of one top-level operation.  All calls run in one thread and nest,
so the child spans of a span never overlap and its self time is its
duration minus the sum of its children's durations.
"""

import time

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.end - self.start - self.child_s

    def to_json(self, index_of):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": None if self.parent is None else index_of[id(self.parent)],
                "op": self.op, **self.attrs}


class Tracer:
    """Span recorder plus the list of module attributes it has replaced."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ops = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        span = Span(name, _clock(), parent, self._ops)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration

    # -- patching ------------------------------------------------------------

    def wrap(self, module, attr, name, on_args=None, on_result=None):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``on_args(span, args, kwargs)`` may record attributes and return
        replacement ``(args, kwargs)``; ``on_result(span, result)`` records
        attributes of the return value.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if on_args is not None:
                    args, kwargs = on_args(span, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def patched(self):
        """(module, attr, original) for every attribute replaced so far."""
        return list(self._patches)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def to_json(self):
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_json(index_of) for s in self.spans]


def has_ancestor(span, name):
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
