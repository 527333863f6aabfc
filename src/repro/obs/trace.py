"""Spans and tracers: where did the tail latency come from?

The paper's subject is the *source* of tail latency, so the reproduction
needs to see inside a slow run — which hedge race was lost, which
pipeline cell missed the cache, which refit stalled a wave. This module
is the substrate every layer threads through:

* :class:`Span` — one named, timed interval with attributes, linked to
  its parent by id. Wall-clock timestamps (``time.time``), so spans from
  different processes land on one comparable timeline.
* :class:`Tracer` — produces spans. The *current* span lives in a
  ``contextvars.ContextVar``, so nesting is automatic across ``await``
  boundaries (each asyncio task inherits the context it was created in:
  an attempt span started inside a request span becomes its child).
* :class:`NullTracer` — the default. ``span()`` returns one shared,
  pre-allocated null context manager and ``event()`` is a constant
  no-op, so instrumented hot paths pay one attribute load and a branch
  when tracing is off. Hot loops additionally guard with
  ``if tracer.enabled:`` so not even the kwargs dict is built.

Tracing is opt-in: the ``REPRO_TRACE`` environment variable (any value
but ``0``/empty) installs a real tracer at import, ``repro run --trace``
and ``repro trace`` install one per command, and :func:`tracing` scopes
one to a ``with`` block.

Process-pool hand-off
---------------------
The pipeline executor (``pipeline.executor.run_jobs``) dispatches work
to worker processes, which cannot share the parent's tracer. The hand-off is explicit:

1. parent captures :func:`snapshot_context` (trace id + current span id,
   a small picklable dict) and ships it with the job;
2. the worker wraps execution in :func:`remote_context`, which installs
   a fresh buffering tracer whose root spans are parented under the
   shipped span id;
3. the worker returns its serialized span buffer with the result, and
   the parent folds it back in with :func:`absorb` — child spans
   re-appear under the span that dispatched them, exactly as if they
   had run inline.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "tracing_enabled",
    "current_span",
    "snapshot_context",
    "remote_context",
    "absorb",
]

#: The span currently open in this context (task/thread). Module-level so
#: every tracer sees the same nesting; tasks copy it at creation time.
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass
class Span:
    """One named, timed interval in a trace.

    ``span_id`` strings are unique across processes (a per-tracer nonce
    plus a counter); ``parent_id`` is ``None`` only for the trace root.
    ``t_end`` is ``None`` while the span is open.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    t_start: float
    t_end: float | None = None
    attrs: dict = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)

    @property
    def duration_ms(self) -> float:
        end = self.t_end if self.t_end is not None else time.time()
        return (end - self.t_start) * 1e3

    def __enter__(self) -> "Span":  # pragma: no cover - used via Tracer.span
        return self

    def __exit__(self, *exc) -> bool:  # pragma: no cover
        return False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": dict(self.attrs),
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            t_start=float(d["t_start"]),
            t_end=None if d.get("t_end") is None else float(d["t_end"]),
            attrs=dict(d.get("attrs", {})),
            pid=int(d.get("pid", 0)),
        )


class Tracer:
    """Collects finished spans into an in-memory buffer.

    ``root_parent`` re-parents this tracer's root spans under a span id
    from another process (the pool hand-off); ``None`` makes them trace
    roots.
    """

    enabled = True

    def __init__(self, trace_id: str | None = None, root_parent: str | None = None):
        self.trace_id = trace_id or secrets.token_hex(8)
        self.root_parent = root_parent
        self.spans: list[Span] = []
        self._nonce = secrets.token_hex(4)
        self._counter = itertools.count(1)

    def _next_id(self) -> str:
        return f"{self._nonce}-{next(self._counter)}"

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child of the current span; record it on exit."""
        parent = _CURRENT.get()
        s = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent.span_id if parent is not None else self.root_parent,
            t_start=time.time(),
            attrs=attrs,
        )
        token = _CURRENT.set(s)
        try:
            yield s
        finally:
            _CURRENT.reset(token)
            s.t_end = time.time()
            self.spans.append(s)

    def event(self, name: str, **attrs) -> Span:
        """A zero-duration span under the current span (a point event)."""
        parent = _CURRENT.get()
        now = time.time()
        s = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent.span_id if parent is not None else self.root_parent,
            t_start=now,
            t_end=now,
            attrs=attrs,
        )
        self.spans.append(s)
        return s

    def drain(self) -> list[Span]:
        """Return and clear the buffered spans."""
        out, self.spans = self.spans, []
        return out


class _DiscardDict(dict):
    """A write-ignoring dict so null spans accept attribute writes
    (``sp.attrs["winner"] = ...``) without storing — or allocating —
    anything."""

    def __setitem__(self, key, value):  # noqa: D105
        pass

    def update(self, *args, **kwargs):  # noqa: D102
        pass

    def setdefault(self, key, default=None):  # noqa: D102
        return default


class _NullSpan:
    """The shared do-nothing span; one instance serves every call."""

    __slots__ = ()
    attrs = _DiscardDict()
    span_id = None
    parent_id = None
    name = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: tracing off, near-zero overhead.

    ``span()`` hands back the same pre-built null context manager every
    time and ``event()`` returns it untouched — no span objects, no
    buffering, no timestamps.
    """

    enabled = False
    trace_id = None
    root_parent = None
    spans: tuple = ()

    def span(self, name, **attrs):
        return _NULL_SPAN

    def event(self, name, **attrs):
        return _NULL_SPAN

    def drain(self):
        return []


NULL_TRACER = NullTracer()

_TRACER: Tracer | NullTracer = NULL_TRACER
if os.environ.get("REPRO_TRACE", "0") not in ("", "0"):
    _TRACER = Tracer()


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (the null tracer unless tracing is on)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def tracing_enabled() -> bool:
    return _TRACER.enabled


def current_span() -> Span | None:
    """The innermost open span in this context, if any."""
    return _CURRENT.get()


@contextmanager
def tracing(trace_id: str | None = None):
    """Enable tracing for a ``with`` block; yields the active tracer."""
    tracer = Tracer(trace_id=trace_id)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------------
# Process-pool hand-off
# ---------------------------------------------------------------------------


def snapshot_context() -> dict | None:
    """The picklable hand-off for a worker process (None: tracing off)."""
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    cur = _CURRENT.get()
    return {
        "trace_id": tracer.trace_id,
        "parent_id": cur.span_id if cur is not None else tracer.root_parent,
    }


@contextmanager
def remote_context(ctx: dict | None):
    """Worker-side: buffer spans under the shipped parent.

    Installs a fresh tracer (and clears any current-span state a forked
    worker inherited) so the worker's spans parent under ``ctx``'s span
    id instead of leaking into an inherited buffer that is never shipped
    back. Yields the tracer; its ``spans`` are what to return to the
    parent (serialize with ``Span.as_dict``).
    """
    if ctx is None:
        yield NULL_TRACER
        return
    tracer = Tracer(trace_id=ctx["trace_id"], root_parent=ctx.get("parent_id"))
    previous = set_tracer(tracer)
    token = _CURRENT.set(None)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
        set_tracer(previous)


def absorb(span_dicts) -> int:
    """Parent-side: fold serialized worker spans into the live tracer.

    Returns how many spans were absorbed (0 when tracing is off — a
    late-arriving buffer after tracing ended is dropped, not an error).
    """
    tracer = get_tracer()
    if not tracer.enabled or not span_dicts:
        return 0
    spans = [Span.from_dict(d) for d in span_dicts]
    tracer.spans.extend(spans)
    return len(spans)
