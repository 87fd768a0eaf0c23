"""In-memory span recorder and the wrappers that feed it.

The benchmark installs these wrappers itself, around public functions and
methods of the program's modules; the program carries no tracing code.  A
span is ``(id, parent, request, name, start_ns, end_ns, hashes, verifications,
signatures)``: parent is the enclosing span on the same thread, request is
the id the load loop assigned (or, without one, the outermost span of the
thread's stack), and the counts are deltas of the program's global hash and
signature counters across the call.

Spans that record counter deltas run under one (re-entrant) lock, so a
delta never picks up work another thread did meanwhile.  Pure-Python verification holds the
interpreter lock anyway, so the lock costs the traced run little; the
tracing overhead is reported beside the per-layer numbers either way.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.hashing import HASH_COUNTER
from repro.crypto.rsa import SIGN_COUNTER

Span = Tuple[int, Optional[int], Optional[int], str, int, int, int, int, int]


class Tracer:
    """Collects spans in memory; the owner of the tracer writes them out."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counted = threading.RLock()
        self._installed: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: int):
        """Attribute every span this thread opens meanwhile to ``request_id``."""
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = None

    def call(self, name: str, counted: bool, function, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = getattr(self._local, "request", None)
        if request is None:
            request = stack[0] if stack else span_id
        if counted:
            self._counted.acquire()
        hashes = HASH_COUNTER.count
        verifications = SIGN_COUNTER.verifications
        signatures = SIGN_COUNTER.signatures
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (
                    span_id,
                    parent,
                    request,
                    name,
                    start,
                    end,
                    HASH_COUNTER.count - hashes,
                    SIGN_COUNTER.verifications - verifications,
                    SIGN_COUNTER.signatures - signatures,
                )
            )
            if counted:
                self._counted.release()

    def wrap(self, owner, attribute: str, name: str, counted: bool = False) -> None:
        """Replace ``owner.attribute`` (a module function or a class's plain
        method) with a wrapper that records span ``name``."""
        raw = vars(owner).get(attribute) if isinstance(owner, type) else None
        original = getattr(owner, attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else original
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return tracer.call(name, counted, function, args, kwargs)

        self._installed.append((owner, attribute, raw or original))
        setattr(owner, attribute, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()


def self_times_ns(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the part of it that its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
    result = {}
    for span in spans:
        covered = 0
        cursor = span[4]
        for start, end in sorted(children.get(span[0], ())):
            start = max(start, cursor)
            end = min(end, span[5])
            if end > start:
                covered += end - start
                cursor = end
        result[span[0]] = span[5] - span[4] - covered
    return result


def nesting_violations(spans: Iterable[Span]) -> List[str]:
    """Children that stick out of their parents (empty when spans nest)."""
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    problems = []
    for span in spans:
        parent = by_id.get(span[1]) if span[1] is not None else None
        if span[1] is not None and parent is None:
            problems.append(f"span {span[0]} ({span[3]}) has no recorded parent")
        elif parent is not None and not (parent[4] <= span[4] <= span[5] <= parent[5]):
            problems.append(f"span {span[0]} ({span[3]}) lies outside its parent")
    return problems
