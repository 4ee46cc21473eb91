"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from outside the program: :class:`Patches` swaps a
public function or method for a wrapper that records one span per call
(name, start, end, parent span, optional count) and restores the
original on exit.  Nothing is written while a run is timed; callers
read :attr:`SpanRecorder.spans` when the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  Children run on the caller's thread and nest inside their
parent, so subtracting their summed durations is exact.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record layout: [name, start, end, parent index, count].
NAME, START, END, PARENT, COUNT = range(5)


class SpanRecorder:
    """Thread-safe span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[tuple, dict, Any], float]] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> Callable:
        """``fn`` wrapped so that each call records one span.

        ``count(args, kwargs, result)`` -- or, when ``before`` is given,
        ``count(args, kwargs, before(args, kwargs), result)`` -- sets the
        span's count.  Calls in forked children (pool workers inherit
        the patched modules) pass straight through: their spans could
        never reach this process.
        """
        recorder = self

        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            state = before(args, kwargs) if before is not None else None
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, 0]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                record[COUNT] = (
                    count(args, kwargs, result)
                    if before is None
                    else count(args, kwargs, state, result)
                )
            return result

        traced.__wrapped__ = fn
        return traced


class Patches:
    """Attribute swaps that are undone in reverse order on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def span(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``owner`` is a module, a class or a dict of callables.  For a
        class, only a method defined on that class itself is
        wrapped, so a subclass override is never replaced by its
        parent's implementation.
        """
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        wrapped = self.recorder.wrap(name, original, **hooks)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the summed durations of its children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def in_window(spans: List[list], start: float, end: float) -> List[list]:
    """Spans that began inside ``[start, end]``, parents re-indexed.

    A parent outside the window becomes -1, so windows never share a
    span tree.
    """
    kept: Dict[int, int] = {}
    out: List[list] = []
    for index, span in enumerate(spans):
        if start <= span[START] <= end:
            kept[index] = len(out)
            out.append([span[NAME], span[START], span[END],
                        kept.get(span[PARENT], -1), span[COUNT]])
    return out
