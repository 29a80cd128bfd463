"""Spans recorded from outside the package, by wrapping its public functions.

Each target is a ``(module or class, attribute)`` pair: the name a caller
looks the function up under. ``run_experiment`` resolves the ``automl``
functions at call time and ``evaluation``'s own helpers as module globals,
so replacing those attributes reaches every call without touching the
package. Spans (name, start, end, parent, context id, attributes) stay in
memory until the run writes them out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    ctx: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps target callables; records spans while ``recording`` is set.

    ``hooks`` maps a span name to ``hook(span, args, kwargs, result)``, which
    adds counts to the span's attributes. Every wrapped call also stores its
    result in ``last[name]`` so the run can inspect what the package built.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.ctx = ""
        self.last: dict = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def install(self, targets, hooks=None) -> None:
        """``targets``: iterable of (owner, attribute, span name)."""
        hooks = hooks or {}
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            # an inherited method is shadowed on the subclass, then removed again
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                result = fn(*args, **kwargs)
                tracer.last[name] = (args, result)
                return result
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.last[name] = (args, result)
            if hook is not None:
                hook(tracer.spans[index], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent, ctx=self.ctx))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def context(self, ctx: str, name: str | None = None):
        """Tag spans with ``ctx`` (a round or request id); open a root span if named."""
        return _Context(self, ctx, name)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "ctx": s.ctx,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


class _Context:
    def __init__(self, tracer: Tracer, ctx: str, name: str | None):
        self.tracer, self.ctx, self.name = tracer, ctx, name

    def __enter__(self):
        self.tracer.ctx = self.ctx
        recording = self.tracer.recording and self.name is not None
        self.index = self.tracer.open(self.name) if recording else None
        return self

    def __exit__(self, *exc):
        if self.index is not None:
            self.tracer.close(self.index)
        self.tracer.ctx = ""
        return False
