"""Outside-in tracer: spans recorded from the benchmark's own files.

The traced pass times each layer without touching ``src/``: it replaces
*instance* attributes (``pipeline.parser.masker.mask``,
``pipeline.detector.detect``, ...) with timing wrappers, which works
because the pipeline looks those methods up on the instance at every
call.  A shim is installed only when its attribute exists; otherwise the
name is recorded in :attr:`Tracer.missing` and every metric derived from
it is reported as ``null`` — a later refactor can make a layer
invisible to the trace, but it cannot break the benchmark.

Arithmetic:

* a span's **self time** is its duration minus the part its child spans
  cover; children are spans opened on the same thread while it is open;
* a span opened on a pool worker thread has no parent on its own thread.
  A ``worker=True`` span that finds itself a thread root while a fan-out
  span (``adopt=True``, the executor's ``map``) is open on another
  thread is charged to that fan-out as a child — so the fan-out's self
  time is the pure dispatch overhead and the same interval is never
  attributed twice.  There is one fan-out slot: two pipelines fanning
  out on thread pools at once would share it (no workload does);
* a span re-entered under its own name (``parse_batch`` falling back to
  ``parse_record``) is not timed again: the outermost span of a name
  owns the interval;
* tallies are per thread and merged in :meth:`report`, so concurrent
  workers never update a shared counter.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class _Tally:
    """One thread's accumulated spans."""

    __slots__ = ("stack", "wall", "self_wall", "calls", "root_cpu", "counts")

    def __init__(self) -> None:
        self.stack: list[list] = []          # [name, child_wall] frames
        self.wall: dict[str, float] = {}
        self.self_wall: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.root_cpu = 0.0                  # thread CPU inside root spans
        self.counts: dict[str, int] = {}


class Tracer:
    """Collects spans from wrapped calls and ``with tracer.span(...)``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[_Tally] = []
        self._adopter: list | None = None    # the open fan-out frame
        self._adopter_thread: int | None = None
        #: Shim names whose attribute did not exist.
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _Tally()
            with self._lock:
                self._tallies.append(tally)
        return tally

    def _enter(self, name: str, adopt: bool):
        tally = self._tally()
        for frame in tally.stack:
            if frame[0] == name:
                return None                  # re-entrant: outermost owns it
        root = not tally.stack
        frame = [name, 0.0]
        tally.stack.append(frame)
        if adopt:
            with self._lock:
                self._adopter = frame
                self._adopter_thread = threading.get_ident()
        cpu = time.thread_time() if root else 0.0
        return tally, frame, root, cpu, time.perf_counter()

    def _exit(self, token, adopt: bool, worker: bool = False) -> None:
        tally, frame, root, cpu, started = token
        elapsed = time.perf_counter() - started
        name = frame[0]
        if adopt:
            with self._lock:
                self._adopter = None
                self._adopter_thread = None
        tally.stack.pop()
        if tally.stack:
            tally.stack[-1][1] += elapsed
        elif root:
            tally.root_cpu += time.thread_time() - cpu
            if worker:
                with self._lock:
                    if (self._adopter is not None and self._adopter_thread
                            != threading.get_ident()):
                        self._adopter[1] += elapsed
        tally.wall[name] = tally.wall.get(name, 0.0) + elapsed
        # Parallel children can cover more than the parent's interval.
        tally.self_wall[name] = (tally.self_wall.get(name, 0.0)
                                 + max(0.0, elapsed - frame[1]))
        tally.calls[name] = tally.calls.get(name, 0) + 1

    @contextmanager
    def span(self, name: str):
        """A bench-side span around calls into a layer."""
        token = self._enter(name, False)
        try:
            yield
        finally:
            if token is not None:
                self._exit(token, False)

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._tally().counts
        counts[name] = counts.get(name, 0) + amount

    # -- shims ---------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, adopt: bool = False,
             worker: bool = False, count=None) -> bool:
        """Shim ``owner.attr`` with a span called ``name``.

        ``count`` is ``(counter_name, fn)``: ``fn(result)`` is added to
        the counter after every call.  Returns whether the shim went in.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append(name)
            return False
        enter, leave = self._enter, self._exit

        def shim(*args, **kwargs):
            token = enter(name, adopt)
            try:
                result = original(*args, **kwargs)
            finally:
                if token is not None:
                    leave(token, adopt, worker)
            if count is not None:
                self.count(count[0], count[1](result))
            return result

        try:
            setattr(owner, attr, shim)
        except AttributeError:               # __slots__ / read-only owner
            self.missing.append(name)
            return False
        return True

    # -- reading -------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up vs timed window).

        Call between spans, from the thread that owns the run."""
        with self._lock:
            for tally in self._tallies:
                tally.wall.clear()
                tally.self_wall.clear()
                tally.calls.clear()
                tally.counts.clear()
                tally.root_cpu = 0.0

    def report(self) -> dict:
        """Merged tallies: ``{"spans": {name: {s, self_s, calls}},
        "counts": {...}, "root_cpu_s": float, "self_total_s": float}``."""
        spans: dict[str, dict] = {}
        counts: dict[str, int] = {}
        root_cpu = 0.0
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            root_cpu += tally.root_cpu
            for name, wall in tally.wall.items():
                entry = spans.setdefault(
                    name, {"s": 0.0, "self_s": 0.0, "calls": 0})
                entry["s"] += wall
                entry["self_s"] += tally.self_wall[name]
                entry["calls"] += tally.calls[name]
            for name, amount in tally.counts.items():
                counts[name] = counts.get(name, 0) + amount
        return {
            "spans": spans,
            "counts": counts,
            "root_cpu_s": root_cpu,
            "self_total_s": sum(entry["self_s"] for entry in spans.values()),
        }


class NullTracer:
    """The untraced pass: spans cost nothing and nothing is shimmed."""

    @contextmanager
    def span(self, name: str):
        yield
