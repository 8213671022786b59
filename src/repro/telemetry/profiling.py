"""Continuous sampling profiler: function-granular, stdlib-only.

MoniLog is pitched as an *online* monitoring layer, so the
reproduction's own hot paths — parse, detect, merge, embed — must be
observable at function granularity while the system serves, not only
at the stage granularity the tracer (:mod:`repro.telemetry.tracing`)
gives per span.  :class:`SamplingProfiler` is the classic wall-clock
sampling design, built entirely from the stdlib:

* a daemon thread wakes at a configurable rate (``hz``), walks
  ``sys._current_frames()``, and collapses each thread's Python stack
  into one ``frame;frame;...`` string (root first — the flamegraph
  "collapsed stack" format, ``flamegraph.pl`` / speedscope ready);
* each sample is attributed to the **pipeline stage** active on that
  thread at that instant — the pipeline's stage seam
  (:mod:`repro.telemetry.stages`) pushes a ``(tenant, stage)`` marker
  around every stage while a profiler is attached, so the profile
  answers "which *function*, inside which *stage*, for which
  *tenant*" in one read;
* aggregation is a bounded ``stack -> count`` table: when the table is
  full a new stack evicts the current minimum-count entry (and the
  eviction is counted), so memory stays flat no matter how long the
  profiler runs.

The cost contract mirrors tracing's pay-for-what-you-use rule:

* **profiler off** — the pipeline never constructs one, the stage
  seam pushes no markers, and no ``monilog_profile_*`` family exists
  in the registry;
* **profiler on** — the sampled threads pay *nothing* (sampling reads
  their frames from the outside); the only in-band cost is the stage
  markers (two GIL-atomic list ops per hook) and the sampler thread's
  own work, which it meters into
  ``monilog_profile_overhead_seconds_total`` so the profiler's cost is
  itself a metric — as is its fidelity: the sampler thread waits for
  the interpreter lock behind CPU-bound threads, so ``stats()`` gives
  the achieved rate beside the nominal one.

Alerts are byte-identical with the profiler on or off, under every
executor — the profiler reads frames and clocks, never pipeline state
(``benchmarks/bench_x16_profiling_overhead.py`` holds the system to
it, alongside a >=95% throughput bound at the default rate).
"""

from __future__ import annotations

import sys
import threading
import time

#: Default sampling rate (samples per second per thread).  ~100 Hz is
#: the classic continuous-profiling default: coarse enough to be
#: invisible next to millisecond-scale batch work, fine enough that a
#: seconds-long run already ranks hotspots.  Deliberately not a round
#: power of common batch cadences, to avoid lockstep aliasing.
DEFAULT_PROFILE_HZ = 100.0

#: Default bound on distinct collapsed stacks retained.
DEFAULT_MAX_STACKS = 2048

#: Frames deeper than this are truncated (leaf-most kept) — bounded
#: key size, and runaway recursion cannot balloon the table.
_MAX_DEPTH = 64

#: Stage recorded for samples on threads with no stage marker (the
#: sampler's own bookkeeping, executor workers between tasks, the
#: HTTP endpoint, test harnesses).
UNATTRIBUTED_STAGE = "other"

#: Tenant recorded for unattributed samples.
UNATTRIBUTED_TENANT = ""

#: thread ident -> stack of (tenant, stage) markers.  Mutations are
#: single list/dict operations (GIL-atomic); the sampler thread reads
#: racily and a stale read merely attributes one sample to the
#: neighboring stage — an acceptable error for a statistical profile,
#: and the price of keeping the hot path lock-free.
_STAGE_STACKS: dict[int, list[tuple[str, str]]] = {}


def push_stage(tenant: str, stage: str) -> None:
    """Mark the calling thread as inside ``stage`` for ``tenant``."""
    ident = threading.get_ident()
    stack = _STAGE_STACKS.get(ident)
    if stack is None:
        stack = []
        _STAGE_STACKS[ident] = stack
    stack.append((tenant, stage))


def pop_stage() -> None:
    """Unwind the calling thread's innermost stage marker."""
    stack = _STAGE_STACKS.get(threading.get_ident())
    if stack:
        stack.pop()


def current_stage() -> tuple[str, str] | None:
    """The calling thread's active ``(tenant, stage)``, if any."""
    stack = _STAGE_STACKS.get(threading.get_ident())
    return stack[-1] if stack else None


def _frame_name(frame) -> str:
    """One collapsed-stack frame: ``module:Qualified.name``."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_qualname}"


class SamplingProfiler:
    """A bounded, stage-attributed wall-clock sampling profiler.

    Args:
        hz: samples per second (the sampler thread's wake rate).
        max_stacks: bound on distinct collapsed stacks retained; the
            minimum-count entry is evicted (and counted) when a new
            stack arrives at capacity.

    Lifecycle: :meth:`start` spawns the daemon sampler thread,
    :meth:`stop` joins it; both are idempotent and the pair can cycle
    (counts accumulate across cycles — the profile is the process
    lifetime's, like every other counter).  One profiler may be shared
    by many pipelines (the gateway shares one across tenants; stage
    markers carry the tenant name, so attribution stays per-tenant).
    """

    def __init__(self, hz: float = DEFAULT_PROFILE_HZ,
                 max_stacks: int = DEFAULT_MAX_STACKS) -> None:
        if not hz > 0:
            raise ValueError(f"hz must be > 0, got {hz!r}")
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1, got {max_stacks!r}")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self.interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._stage_samples: dict[tuple[str, str], int] = {}
        self._samples = 0
        self._evictions = 0
        self._overhead = 0.0
        # Fidelity: ticks taken over seconds spent running.
        self._ticks = 0
        self._ran_seconds = 0.0
        self._started_at: float | None = None
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._attached = False

    # -- runtime-resource contract ----------------------------------------------

    def __deepcopy__(self, memo: dict) -> "SamplingProfiler":
        """A live sampler thread cannot be cloned; snapshots of a
        profiled pipeline share the profiler (the executor/telemetry
        runtime-resource contract)."""
        return self

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Spawn the sampler thread (idempotent while running)."""
        if self.running:
            return self
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="monilog-profiler", daemon=True)
        self._started_at = time.perf_counter()
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None
        with self._lock:
            self._ran_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    # -- the sampler loop --------------------------------------------------------

    def _run(self) -> None:
        stop = self._stop_event
        while not stop.wait(self.interval):
            self._sample_once()

    def _sample_once(self) -> None:
        """Walk every thread's frames; attribute and aggregate."""
        started = time.perf_counter()
        own = threading.get_ident()
        frames = sys._current_frames()
        for ident, frame in frames.items():
            if ident == own:
                continue
            parts: list[str] = []
            depth = 0
            while frame is not None and depth < _MAX_DEPTH:
                parts.append(_frame_name(frame))
                frame = frame.f_back
                depth += 1
            parts.reverse()  # root first, the collapsed-stack order
            marker = _STAGE_STACKS.get(ident)
            if marker:
                tenant, stage = marker[-1]
            else:
                tenant, stage = UNATTRIBUTED_TENANT, UNATTRIBUTED_STAGE
            self._record_sample(";".join([stage] + parts), tenant, stage)
        # Frames hold the sampled threads' locals alive; drop promptly.
        del frames
        with self._lock:
            self._ticks += 1
            self._overhead += time.perf_counter() - started

    def _record_sample(self, stack: str, tenant: str, stage: str) -> None:
        """Aggregate one sample under the capacity bound."""
        with self._lock:
            self._samples += 1
            key = (tenant, stage)
            self._stage_samples[key] = self._stage_samples.get(key, 0) + 1
            count = self._stacks.get(stack)
            if count is not None:
                self._stacks[stack] = count + 1
                return
            if len(self._stacks) >= self.max_stacks:
                victim = min(self._stacks, key=self._stacks.get)
                del self._stacks[victim]
                self._evictions += 1
            self._stacks[stack] = 1

    # -- exposition --------------------------------------------------------------

    def stats(self) -> dict:
        """The profile's aggregate counters, JSON-ready
        (``achieved_hz``: ticks per second spent running)."""
        with self._lock:
            stage_samples = {
                f"{tenant}/{stage}" if tenant else stage: count
                for (tenant, stage), count in sorted(
                    self._stage_samples.items())
            }
            ran = self._ran_seconds
            if self._started_at is not None:
                ran += time.perf_counter() - self._started_at
            return {
                "hz": self.hz,
                "achieved_hz": self._ticks / ran if ran > 0 else 0.0,
                "running": self.running,
                "samples": self._samples,
                "stacks": len(self._stacks),
                "max_stacks": self.max_stacks,
                "evictions": self._evictions,
                "overhead_seconds": self._overhead,
                "stage_samples": stage_samples,
            }

    def attributed_fraction(self) -> float:
        """Fraction of samples landing inside a known pipeline stage."""
        with self._lock:
            total = self._samples
            other = sum(
                count for (_, stage), count in self._stage_samples.items()
                if stage == UNATTRIBUTED_STAGE
            )
        return (total - other) / total if total else 0.0

    def top(self, limit: int = 20) -> list[dict]:
        """The hottest collapsed stacks, descending by sample count."""
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        with self._lock:
            total = self._samples
            ranked = sorted(self._stacks.items(),
                            key=lambda item: (-item[1], item[0]))[:limit]
        return [
            {
                "stack": stack,
                "samples": count,
                "share": count / total if total else 0.0,
            }
            for stack, count in ranked
        ]

    def collapsed(self) -> str:
        """The full profile in collapsed-stack text (``stack count``).

        One ``frames... N`` line per distinct stack, root frame first,
        frames joined by ``;`` — feed it straight to ``flamegraph.pl``
        or paste into speedscope.  The stage marker leads each stack,
        so flamegraphs group by pipeline stage at the root.
        """
        with self._lock:
            lines = [f"{stack} {count}"
                     for stack, count in sorted(self._stacks.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- registry integration ----------------------------------------------------

    def attach(self, registry) -> None:
        """Declare the ``monilog_profile_*`` families and mirror into
        them at exposition time (first call wins; later calls no-op).

        Deliberately *not* part of the static telemetry catalog:
        profile families exist only while a profiler does, so a
        profiler-off pipeline exposes zero ``monilog_profile_*``
        families — absence is the "off" signal, exactly like tracing.
        """
        if self._attached:
            return
        self._attached = True
        samples = registry.counter(
            "monilog_profile_samples_total",
            "Stack samples taken by the continuous profiler")
        stacks = registry.gauge(
            "monilog_profile_stacks",
            "Distinct collapsed stacks currently retained")
        evictions = registry.counter(
            "monilog_profile_evictions_total",
            "Collapsed stacks evicted by the capacity bound "
            "(grow profile_stacks if > 0)")
        overhead = registry.counter(
            "monilog_profile_overhead_seconds_total",
            "Seconds the sampler thread spent walking frames")
        stage_samples = registry.counter(
            "monilog_profile_stage_samples_total",
            "Stack samples attributed per pipeline stage",
            ("tenant", "stage"))

        def collect() -> None:
            with self._lock:
                samples.set_total(self._samples)
                stacks.set(len(self._stacks))
                evictions.set_total(self._evictions)
                overhead.set_total(self._overhead)
                per_stage = dict(self._stage_samples)
            for (tenant, stage), count in per_stage.items():
                stage_samples.labels(
                    tenant=tenant, stage=stage).set_total(count)

        registry.collect(collect)
