"""In-memory span recorder and call interposition for the traced run.

A span is ``(id, parent, trace, name, t0, t1, attrs)``. Spans nest per
thread: a span opened while another is open on the same thread becomes
its child and inherits its trace id. Nothing is written until
:meth:`Tracer.dump` at the end of the run.

:func:`interpose` wraps a public function or method for the duration of
a ``with`` block, so calls the runtime makes internally (the simulator's
``simulate_level``, a serve job's ``CommitJournal.commit``) are recorded
without touching the program's source.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    trace: str
    name: str
    t0: float
    t1: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans from any thread; list appends are atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict lets the body add attributes."""
        stack = self._stack()
        parent, parent_trace = stack[-1] if stack else (None, "-")
        sid = next(self._ids)
        trace = trace or parent_trace
        stack.append((sid, trace))
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, trace, name, t0, t1, attrs))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, names: Sequence[str]) -> Dict[str, float]:
        """Per-name self time: duration minus the time child spans cover."""
        child: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        wanted = set(names)
        out = {n: 0.0 for n in names}
        for s in self.spans:
            if s.name in wanted:
                out[s.name] += s.duration - child.get(s.sid, 0.0)
        return out

    def dump(self, path: str) -> None:
        rows = [
            {"id": s.sid, "parent": s.parent, "trace": s.trace, "name": s.name,
             "t0": s.t0, "t1": s.t1, **({"attrs": s.attrs} if s.attrs else {})}
            for s in sorted(self.spans, key=lambda s: s.t0)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


@contextmanager
def interpose(
    tracer: Tracer,
    targets: Sequence[Tuple[Any, str, str]],
    trace_of: Optional[Callable[[tuple], Optional[str]]] = None,
    result_attr: Optional[str] = None,
) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span named ``span_name`` for each target.

    ``trace_of(args)`` may derive a trace id from the call's arguments
    (used where the call runs on a thread the benchmark does not own).
    With ``result_attr`` set, each span keeps the call's return value
    under that attribute. Originals are restored on exit, including
    attributes a subclass inherited rather than defined.
    """
    saved = []
    for owner, attr, span_name in targets:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        target = getattr(owner, attr)

        def make(fn: Callable, name: str) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                trace = trace_of(args) if trace_of is not None else None
                with tracer.span(name, trace) as attrs:
                    out = fn(*args, **kwargs)
                    if result_attr is not None:
                        attrs[result_attr] = out
                    return out

            return wrapper

        setattr(owner, attr, make(target, span_name))
        saved.append((owner, attr, had_own, original))
    try:
        yield
    finally:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
