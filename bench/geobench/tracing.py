"""Span tracer and the wrappers that time calls into geoshard's layers.

The wrappers are installed for a traced run only and removed afterwards,
so an untraced run calls the original functions. Each wrapper replaces a
public function or method where its caller looks it up: a function that a
module imports by name is wrapped in that module (for example
``geoshard.frontend.constrained_tessellation``), a method on its class.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

import geoshard.engine as engine_mod
import geoshard.frontend as frontend_mod
import geoshard.trust as trust_mod
from geoshard.bloomsvc import BloomClient
from geoshard.engine import DatabaseEngine
from geoshard.frontend import Frontend
from geoshard.icn.consumer import Consumer
from geoshard.icn.forwarder import Forwarder
from geoshard.icn.names import Name
from geoshard.icn.packets import InterestPacket
from geoshard.naming import (
    BF_PREFIX,
    CERT_ROOT,
    DATA_MARK,
    DELETE_MARK,
    IP_RES_MARK,
    TILE_MARK,
)


class Span:
    """One timed call: name, start, end, parent span and op id."""

    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: int, op: int, name: str, start: float,
                 end: float = 0.0, attrs: dict | None = None):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        attrs = {k: v for k, v in self.attrs.items() if isinstance(v, (int, float, str))}
        return [self.id, self.parent, self.op, self.name, self.start, self.end, attrs]


class Tracer:
    """Keeps spans in memory; one op (one client request) is in flight at a time.

    A span started on a thread with no open span of its own (a fan-out pool
    thread) belongs to the op in flight, and its parent is the innermost
    open span of the thread that started that op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = 0
        span = Span(next(self._ids), parent, self._op, name, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self, kind: str):
        """Root span of one client request; every span until it ends shares its id."""
        span = self.start(f"op.{kind}")
        span.op = span.id
        self._op = span.id
        self._op_stack = self._stack()
        try:
            yield span
        finally:
            self.finish(span)
            self._op = 0
            self._op_stack = None


def coverage(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - coverage(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def traffic_mark(name: Name) -> str:
    """Kind of fabric traffic a name carries, from the marks in its components."""
    comps = name.components
    if comps and comps[0] == CERT_ROOT:
        return "CERT"
    if BF_PREFIX.is_prefix_of(name):
        return "BF"
    for mark in (DELETE_MARK, IP_RES_MARK, TILE_MARK, DATA_MARK):
        if mark in comps:
            return mark
    return "OTHER"


# --- what each wrapper notes about a call ------------------------------------
#
# A note runs after the span has ended and stores only references or small
# ints, so the traced timings exclude it.


def _arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    return args[index] if len(args) > index else kwargs[key]


def _note_name(attrs, args, kwargs, result):
    attrs["mark"] = traffic_mark(_arg(args, kwargs, 1, "name"))


def _note_interest(attrs, args, kwargs, result):
    attrs["mark"] = traffic_mark(_arg(args, kwargs, 1, "interest").name)


def _note_query(attrs, args, kwargs, result):
    attrs["returned"] = len(result.objects)


def _note_tiles(attrs, args, kwargs, result):
    attrs["tiles"] = len(result.tiles)


def _note_periods(attrs, args, kwargs, result):
    attrs["periods"] = len(result.periods)


def _note_membership(attrs, args, kwargs, result):
    attrs["items"] = len(result)
    attrs["kept"] = sum(1 for bit in result if bit)


def _note_len(attrs, args, kwargs, result):
    attrs["items"] = len(result)


def _note_tile_reply(attrs, args, kwargs, result):
    attrs["reply"] = result  # segment list (shared with the engine's cache) or None


def _note_fetch_reply(attrs, args, kwargs, result):
    attrs["served"] = int(result is not None)


def wrap_targets() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, note) for every wrapped public entry point."""
    return [
        (Frontend, "range_query", "frontend.range_query", _note_query),
        (Frontend, "insert", "frontend.insert", None),
        (Frontend, "delete", "frontend.delete", None),
        (frontend_mod, "constrained_tessellation", "tessellate.constrained_tessellation", _note_tiles),
        (frontend_mod, "temporal_decompose", "tessellate.temporal_decompose", _note_periods),
        (frontend_mod, "decode_packet_stream", "icn.decode_packet_stream", _note_len),
        (frontend_mod, "build_object_packets", "objects.build_object_packets", _note_len),
        (BloomClient, "membership", "bloomsvc.membership", _note_membership),
        (BloomClient, "publish", "bloomsvc.publish", None),
        (Consumer, "get", "icn.consumer_get", _note_name),
        (Consumer, "get_packet", "icn.consumer_get_packet", _note_name),
        (Consumer, "express_interest", "icn.express_interest", _note_interest),
        (InterestPacket, "with_new_nonce", "icn.retransmission", None),
        (Forwarder, "handle", "icn.forwarder_handle", None),
        (DatabaseEngine, "handle_tile_query", "engine.handle_tile_query", _note_tile_reply),
        (DatabaseEngine, "handle_object_fetch", "engine.handle_object_fetch", _note_fetch_reply),
        (DatabaseEngine, "handle_delete", "engine.handle_delete", None),
        (DatabaseEngine, "bulk_insert", "engine.bulk_insert", _note_len),
        (engine_mod, "encode_packet_stream", "icn.encode_packet_stream", None),
        (trust_mod, "sign_bytes", "trust.sign_bytes", None),
        (trust_mod, "verify_bytes", "trust.verify_bytes", None),
    ]


def _wrap(tracer: Tracer, original: Callable, name: str, note: Callable | None) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.start(name)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.finish(span)
        if note is not None:
            note(span.attrs, args, kwargs, result)
        return result

    return traced


class Instrumentation:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for owner, attr, name, note in wrap_targets():
                original = vars(owner)[attr]
                setattr(owner, attr, _wrap(self.tracer, original, name, note))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
