"""Streaming building blocks shared by the pipeline and ingestion.

* :class:`StreamingSessionizer` — incremental session windowing with
  an idle timeout: a session closes (and is released downstream) when
  no event arrives for ``session_timeout`` seconds of *stream time*,
  or when it reaches ``max_session_events``.  Memory stays bounded by
  the number of concurrently open sessions.  This is the component the
  unified :class:`repro.api.pipeline.Pipeline` installs in streaming
  mode (registered as sessionizer ``"streaming"``).
* :class:`BatchHandoff` — the thread-safe hand-off point between an
  asynchronous ingestion front-end (:mod:`repro.ingest`) and any
  streaming pipeline, with a live queue-depth signal the front-end's
  credit-based back-pressure keys off.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterable

from repro.api.registry import register_component
from repro.core.reports import ClassifiedAlert
from repro.logs.record import LogRecord, ParsedLog


@register_component("sessionizer", "streaming")
class StreamingSessionizer:
    """Incremental session windowing with idle timeout.

    Sessions are keyed by the record's session id; events without one
    fall into per-source pseudo-sessions (source name as key), which
    the timeout then chops into activity bursts — a pragmatic stand-in
    for sliding windows in streaming mode.

    ``push`` returns the sessions *closed by* the new event's arrival
    time; ``flush`` closes everything (end of stream).

    Stream time is taken from event timestamps, which real streams
    deliver out of order (multi-node skew, replayed backlogs).  The
    sessionizer measures idleness against the stream's **high-water
    clock** — the maximum timestamp seen so far: every arrival marks
    its session active *as of that clock*, and a session closes when
    no event has arrived for ``session_timeout`` seconds of high-water
    time.  For in-order streams this is exactly the per-event clock;
    under clock regressions it is deliberately conservative: a stale
    event neither closes sessions (the clock does not advance) nor
    makes any session — its own or a new one — look idle (sessions
    are marked active at the clock, never at a stale timestamp, so
    nothing closes early and no stale-stamped session can wedge the
    expiry queue).  This is also what makes expiry cheap: activity
    marks are monotone, so the open table stays ordered by last
    activity and the expiry scan stops at the first fresh session.
    Late events still join their session's bucket normally.
    """

    def __init__(
        self,
        session_timeout: float = 30.0,
        max_session_events: int = 1000,
    ) -> None:
        if session_timeout <= 0:
            raise ValueError(
                f"session_timeout must be > 0, got {session_timeout}"
            )
        if max_session_events < 1:
            raise ValueError(
                f"max_session_events must be >= 1, got {max_session_events}"
            )
        self.session_timeout = session_timeout
        self.max_session_events = max_session_events
        # Ordered by last activity: expiry scans stop at the first
        # still-fresh session.  Sorted by construction because every
        # activity mark is the (monotone) high-water clock.
        self._open: OrderedDict[str, list[ParsedLog]] = OrderedDict()
        self._last_seen: dict[str, float] = {}
        self._clock = float("-inf")

    @property
    def open_sessions(self) -> int:
        return len(self._open)

    def push(self, event: ParsedLog) -> list[list[ParsedLog]]:
        """Add one event; return sessions closed by the advancing clock."""
        key = event.windowing_key
        self._clock = max(self._clock, event.timestamp)
        closed = self._expire(self._clock)
        bucket = self._open.get(key)
        if bucket is None:
            bucket = []
            self._open[key] = bucket
        bucket.append(event)
        # Mark the session active as of the high-water clock (not the
        # event's own, possibly stale, timestamp): activity marks stay
        # monotone, so ``_open`` remains sorted by last activity — the
        # invariant that lets ``_expire`` stop at the first fresh
        # session — and a late event can never make a session look
        # idle or park a fresh session behind a stale one.
        self._last_seen[key] = self._clock
        self._open.move_to_end(key)
        if len(bucket) >= self.max_session_events:
            closed.append(self._close(key))
        return closed

    def _expire(self, now: float) -> list[list[ParsedLog]]:
        closed: list[list[ParsedLog]] = []
        deadline = now - self.session_timeout
        while self._open:
            key = next(iter(self._open))
            if self._last_seen[key] > deadline:
                break
            closed.append(self._close(key))
        return closed

    def _close(self, key: str) -> list[ParsedLog]:
        self._last_seen.pop(key, None)
        return self._open.pop(key)

    def flush(self) -> list[list[ParsedLog]]:
        """Close every open session (stream shutdown)."""
        remaining = [self._close(key) for key in list(self._open)]
        return remaining


class BatchHandoff:
    """Hand micro-batches to a streaming pipeline; expose queue depth.

    The async ingestion service scores off the event loop: batches are
    submitted from executor threads while readers keep filling buffers
    on the loop.  This class is the boundary object between the two
    worlds.  It delegates to the wrapped pipeline's ``process`` and
    ``flush`` and maintains a **depth signal** —
    records submitted but not yet fully processed — that producers
    read to decide how hard to push (the credit gate sizes itself
    against exactly this window).

    Depth accounting is thread-safe; the *pipeline* is not expected to
    be.  Callers must serialize ``submit`` calls (the ingestion
    service awaits each batch before dispatching the next), which also
    keeps alert order deterministic.  ``depth``/``in_flight`` may be
    read from any thread at any time.
    """

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self._lock = threading.Lock()
        self._depth = 0
        self._in_flight = 0
        self.peak_depth = 0
        self.batches = 0
        self.records = 0
        #: Seconds spent inside ``process`` (cumulative) and the
        #: last batch's duration — the per-batch latency signal the
        #: autoscale controller sizes micro-batches from.
        self.busy_seconds = 0.0
        self.last_batch_seconds = 0.0

    @property
    def depth(self) -> int:
        """Records submitted and not yet fully processed."""
        return self._depth

    @property
    def in_flight(self) -> int:
        """Batches currently inside ``process``."""
        return self._in_flight

    def submit(self, records: Iterable[LogRecord]) -> list[ClassifiedAlert]:
        """Process one micro-batch; returns the alerts it closed."""
        records = list(records)
        with self._lock:
            self._depth += len(records)
            self._in_flight += 1
            self.peak_depth = max(self.peak_depth, self._depth)
        started = time.perf_counter()
        try:
            # Looked up per batch, so a ``process`` patched onto the
            # pipeline after construction still sees every batch.
            return self.pipeline.process(records)
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._depth -= len(records)
                self._in_flight -= 1
                self.batches += 1
                self.records += len(records)
                self.busy_seconds += elapsed
                self.last_batch_seconds = elapsed

    def flush(self) -> list[ClassifiedAlert]:
        """Flush the wrapped pipeline's open sessions, if it has any."""
        flush = getattr(self.pipeline, "flush", None)
        return flush() if flush is not None else []
