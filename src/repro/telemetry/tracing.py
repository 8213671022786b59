"""End-to-end tracing, alert provenance, and health/readiness probes.

Three runtime resources on top of the PR-5 metrics registry:

* :class:`TraceStore` + :class:`Tracer` — sampled end-to-end **spans**
  (batch- and record-granular: source read → merge → parse → detect →
  classify → alert) with per-stage wall/cpu timings and executor/shard
  attribution, recorded into a bounded in-process ring buffer.
  Sampling is counter-based and deterministic (every Nth candidate for
  ``trace_sample_rate = 1/N``) so a traced run stays reproducible and
  no RNG state leaks into the pipeline.
* :class:`AlertProvenance` — every alert resolvable back to source
  names, byte offsets, template ids, the detector window and scores,
  and the pool decision (predicted vs delivered).  Provenance is
  captured for **every** alert whenever tracing is enabled, not just
  for sampled traces: alerts are rare, causality must not be.
* :class:`HealthMonitor` — liveness/readiness probes behind
  ``/healthz`` and ``/readyz`` on the metrics server, fed by
  heartbeats (ingest loop iterations) and pull checks (source health,
  pipeline trained).

All three follow the runtime-resource contract established by
``PipelineTelemetry``: ``__deepcopy__`` returns ``self``, so
process-executor deepcopies of an instrumented pipeline share the
original stores instead of cloning them.

The strictly-pay-for-what-you-sample contract: with ``tracing = false``
no ``Tracer`` exists and the pipeline's stage seam
(:mod:`repro.telemetry.stages`) opens no root trace and no span; with
tracing on, unsampled batches cost one lock-free-cheap counter
increment.  Alerts are byte-identical either way (bench_x14).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.logs.record import DEFAULT_TENANT

__all__ = [
    "Span",
    "TraceStore",
    "TraceContext",
    "Tracer",
    "AlertProvenance",
    "HealthMonitor",
]

#: Capacity of the (source, sequence) → checkpoint-offset side table a
#: tracer keeps so alert provenance can name real byte offsets.  Keys
#: are evicted oldest-first; an evicted (or never-ingested, i.e.
#: offline) record falls back to its ``sequence`` as the offset.
OFFSET_CACHE_CAPACITY = 65536

#: Sentinel handed from the ingest loop to the pipeline when the ingest
#: side already made a *negative* sampling decision for a batch — the
#: pipeline must consume it and not draw a second sample.
_SKIP = object()


@dataclass(frozen=True, slots=True)
class Span:
    """One timed stage of a sampled trace.

    ``duration`` is wall seconds, ``cpu`` is process CPU seconds over
    the same interval; ``wall_start`` is an epoch timestamp for
    display.  ``parent_id`` is ``None`` for the root span of a trace.
    """

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    tenant: str
    wall_start: float
    duration: float
    cpu: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "tenant": self.tenant,
            "wall_start": self.wall_start,
            "duration": self.duration,
            "cpu": self.cpu,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            trace_id=payload["trace"],
            span_id=payload["span"],
            parent_id=payload["parent"],
            name=payload["name"],
            tenant=payload.get("tenant", DEFAULT_TENANT),
            wall_start=payload["wall_start"],
            duration=payload["duration"],
            cpu=payload["cpu"],
            attributes=dict(payload.get("attributes", {})),
        )


class TraceStore:
    """Bounded ring buffer of finished spans.

    Oldest spans are evicted first once ``capacity`` is reached; the
    eviction count is exported as ``monilog_trace_evictions_total`` so
    an undersized ``trace_buffer`` is visible, not silent.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("TraceStore capacity must be >= 1")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.added = 0
        self.evicted = 0

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self.evicted += 1
            self._spans.append(span)
            self.added += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(
        self,
        *,
        trace_id: str | None = None,
        name: str | None = None,
        tenant: str | None = None,
        limit: int | None = None,
    ) -> list[Span]:
        """Retained spans, oldest first; ``limit`` keeps the newest N."""
        with self._lock:
            items = list(self._spans)
        if trace_id is not None:
            items = [span for span in items if span.trace_id == trace_id]
        if name is not None:
            items = [span for span in items if span.name == name]
        if tenant is not None:
            items = [span for span in items if span.tenant == tenant]
        if limit is not None and limit >= 0:
            items = items[-limit:] if limit else []
        return items

    def trace_ids(self) -> list[str]:
        """Distinct trace ids among retained spans, oldest first."""
        seen: dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def snapshot(self, **filters: Any) -> list[dict[str, Any]]:
        return [span.as_dict() for span in self.spans(**filters)]

    def __deepcopy__(self, memo: dict) -> "TraceStore":
        # Runtime-resource contract: executor deepcopies share the ring.
        return self


@dataclass(frozen=True)
class AlertProvenance:
    """Everything needed to answer "why did this alert fire?".

    ``records`` carries one ``(source, offset, template_id)`` triple per
    event in the detector window, in window order.  ``offset`` is the
    source's checkpoint resume token — a true byte offset for file
    tails, a record count for sockets and adapted sources — so an
    operator can seek the original line.  ``predicted_pool`` is the
    classifier's verdict; ``delivered_pool`` is where the pool manager
    actually placed the alert (they differ when the predicted pool was
    deleted and delivery fell back).
    """

    alert_id: int
    tenant: str
    session_id: str
    score: float
    reasons: tuple[str, ...]
    window_start: float
    window_end: float
    events: int
    predicted_pool: str
    delivered_pool: str
    criticality: str
    confidence: float
    sources: tuple[str, ...]
    template_ids: tuple[int, ...]
    templates: tuple[str, ...]
    records: tuple[tuple[str, int, int], ...]
    trace_id: str | None = None

    def offsets_by_source(self) -> dict[str, tuple[int, int, int]]:
        """``source → (first_offset, last_offset, record_count)``."""
        summary: dict[str, list[int]] = {}
        for source, offset, _template_id in self.records:
            summary.setdefault(source, []).append(offset)
        return {
            source: (min(offsets), max(offsets), len(offsets))
            for source, offsets in summary.items()
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "alert_id": self.alert_id,
            "tenant": self.tenant,
            "session_id": self.session_id,
            "score": self.score,
            "reasons": list(self.reasons),
            "window_start": self.window_start,
            "window_end": self.window_end,
            "events": self.events,
            "predicted_pool": self.predicted_pool,
            "delivered_pool": self.delivered_pool,
            "criticality": self.criticality,
            "confidence": self.confidence,
            "sources": list(self.sources),
            "template_ids": list(self.template_ids),
            "templates": list(self.templates),
            "records": [list(triple) for triple in self.records],
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AlertProvenance":
        return cls(
            alert_id=payload["alert_id"],
            tenant=payload.get("tenant", DEFAULT_TENANT),
            session_id=payload["session_id"],
            score=payload["score"],
            reasons=tuple(payload.get("reasons", ())),
            window_start=payload["window_start"],
            window_end=payload["window_end"],
            events=payload["events"],
            predicted_pool=payload["predicted_pool"],
            delivered_pool=payload["delivered_pool"],
            criticality=payload["criticality"],
            confidence=payload["confidence"],
            sources=tuple(payload.get("sources", ())),
            template_ids=tuple(payload.get("template_ids", ())),
            templates=tuple(payload.get("templates", ())),
            records=tuple(
                (source, offset, template_id)
                for source, offset, template_id in payload.get("records", ())
            ),
            trace_id=payload.get("trace_id"),
        )

    def render(self) -> str:
        """Operator-facing walkthrough, the body of ``repro explain``."""
        span_s = self.window_end - self.window_start
        lines = [
            f"alert #{self.alert_id} tenant={self.tenant} "
            f"session={self.session_id}",
            f"  window: {self.events} events, "
            f"t={self.window_start:.3f}..{self.window_end:.3f} "
            f"({span_s:.3f}s)",
            f"  detection: score={self.score:.3f}",
        ]
        for reason in self.reasons:
            lines.append(f"    - {reason}")
        pool = f"pool={self.delivered_pool}"
        if self.delivered_pool != self.predicted_pool:
            pool += f" (predicted {self.predicted_pool}, fell back)"
        else:
            pool += " (as predicted)"
        lines.append(
            f"  classification: {pool} criticality={self.criticality} "
            f"confidence={self.confidence:.2f}"
        )
        lines.append(f"  templates ({len(self.template_ids)}):")
        for template_id, template in zip(self.template_ids, self.templates):
            lines.append(f"    [{template_id}] {template}")
        lines.append("  source offsets:")
        for source, (first, last, count) in sorted(
            self.offsets_by_source().items()
        ):
            lines.append(
                f"    {source}: offsets {first}..{last} ({count} records)"
            )
        trace = self.trace_id if self.trace_id is not None else "not sampled"
        lines.append(f"  trace: {trace}")
        return "\n".join(lines)


class _SpanHandle:
    """Context manager timing one span; records into the store on exit."""

    __slots__ = ("_ctx", "name", "parent_id", "span_id", "_attributes",
                 "_wall", "_start", "_cpu")

    def __init__(
        self,
        ctx: "TraceContext",
        name: str,
        parent_id: int | None,
        attributes: dict[str, Any],
    ):
        self._ctx = ctx
        self.name = name
        self.parent_id = parent_id
        self.span_id = ctx._allocate_span_id()
        self._attributes = attributes

    def annotate(self, **attributes: Any) -> None:
        self._attributes.update(attributes)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._ctx.tracer
        self._wall = tracer._wall_clock()
        self._cpu = tracer._cpu_clock()
        self._start = tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._ctx.tracer
        tracer.store.add(Span(
            trace_id=self._ctx.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            tenant=tracer.tenant,
            wall_start=self._wall,
            duration=tracer._clock() - self._start,
            cpu=tracer._cpu_clock() - self._cpu,
            attributes=self._attributes,
        ))


class TraceContext:
    """One sampled end-to-end trace: a root span plus its children.

    Created by :meth:`Tracer.begin`; the stage seam opens child spans via
    :meth:`span` while the context is active on the pipeline.  A
    context is used by one thread at a time (the ingest loop builds it,
    then hands it to the executor thread through
    :meth:`Tracer.hand_off`; the batch handoff serializes batches, so
    the two never race).
    """

    __slots__ = ("tracer", "trace_id", "kind", "_next_span", "_root")

    def __init__(self, tracer: "Tracer", trace_id: str, kind: str,
                 attributes: dict[str, Any]):
        self.tracer = tracer
        self.trace_id = trace_id
        self.kind = kind
        self._next_span = 0
        self._root = _SpanHandle(self, kind, None, attributes)
        self._root.__enter__()

    def _allocate_span_id(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        return span_id

    @property
    def root_id(self) -> int:
        return self._root.span_id

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the root span."""
        self._root.annotate(**attributes)

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a child span (use as a context manager)."""
        return _SpanHandle(self, name, self.root_id, attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Record an instantaneous (zero-duration) child span."""
        with self.span(name, **attributes):
            pass

    def _finish(self) -> None:
        self._root.__exit__(None, None, None)


class Tracer:
    """Sampling decisions, span plumbing, and the provenance ledger.

    One tracer per pipeline (per tenant in the gateway); tracers may
    share one :class:`TraceStore`.  Deterministic sampling: candidate
    batches/records are counted and every ``interval``-th one is traced,
    where ``interval = round(1 / sample_rate)`` — rate 1.0 traces
    everything, rate 0.0 nothing, and a given corpus always samples the
    same batches.
    """

    def __init__(
        self,
        store: TraceStore,
        *,
        sample_rate: float = 1.0,
        tenant: str = DEFAULT_TENANT,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        wall_clock: Callable[[], float] = time.time,
    ):
        self.store = store
        self.sample_rate = sample_rate
        self.tenant = tenant
        self.interval = 0 if sample_rate <= 0 else max(
            1, round(1 / sample_rate))
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._candidates = 0
        self._trace_seq = 0
        self.sampled = 0
        self._pending: object = None
        self._offsets: OrderedDict[tuple[str, int], int] = OrderedDict()
        self._provenance: OrderedDict[int, AlertProvenance] = OrderedDict()
        # Keep at least a full ring's worth of alert ledger entries so
        # `repro explain` round-trips every alert of a bounded run.
        self._provenance_capacity = max(store.capacity, 1024)

    # -- sampling / span lifecycle ------------------------------------

    def begin(self, kind: str, **attributes: Any) -> TraceContext | None:
        """Start (or adopt) a trace for one candidate batch/record.

        If the ingest loop already rooted a trace for this batch and
        handed it off, that context is adopted (annotated with the
        pipeline-side attributes) instead of drawing a new sample.
        Returns ``None`` when the candidate is not sampled.
        """
        with self._lock:
            pending, self._pending = self._pending, None
            if pending is None:
                self._candidates += 1
                sample = (
                    self.interval > 0
                    and self._candidates % self.interval == 0
                )
                if sample:
                    self._trace_seq += 1
                    self.sampled += 1
                    trace_id = f"{self.tenant}-{self._trace_seq:06d}"
                else:
                    trace_id = None
        if pending is _SKIP:
            return None
        if pending is not None:
            assert isinstance(pending, TraceContext)
            pending.annotate(**attributes)
            return pending
        if trace_id is None:
            return None
        return TraceContext(self, trace_id, kind, attributes)

    def finish(self, ctx: TraceContext | None) -> None:
        """Close a trace's root span and commit it to the store."""
        if ctx is not None:
            ctx._finish()

    def hand_off(self, ctx: TraceContext | None) -> None:
        """Transfer a trace (or a negative decision) to the next stage.

        The ingest loop roots an ``ingest`` trace before submitting the
        batch to the executor; the pipeline's :meth:`begin` call inside
        the executor thread adopts it.  Passing ``None`` records the
        negative sampling decision so the pipeline does not draw a
        second sample for the same batch.
        """
        with self._lock:
            self._pending = ctx if ctx is not None else _SKIP

    # -- provenance ----------------------------------------------------

    def note_offsets(self, batch: Iterable[Any]) -> None:
        """Remember checkpoint offsets for a batch of ``SourceItem``s."""
        with self._lock:
            offsets = self._offsets
            for item in batch:
                key = (item.record.source, item.record.sequence)
                offsets[key] = item.offset
                offsets.move_to_end(key)
            while len(offsets) > OFFSET_CACHE_CAPACITY:
                offsets.popitem(last=False)

    def offset_of(self, event: Any) -> int:
        """The checkpoint offset of a parsed event's record.

        Falls back to the record's ``sequence`` when the record never
        passed through ingestion (offline runs) or was evicted from the
        side table.
        """
        record = event.record
        with self._lock:
            return self._offsets.get(
                (record.source, record.sequence), record.sequence)

    def record_alert(
        self,
        alert: Any,
        *,
        predicted_pool: str,
        trace_id: str | None = None,
    ) -> AlertProvenance:
        """Capture provenance for a delivered alert (every alert)."""
        report = alert.report
        template_ids: dict[int, str] = {}
        records = []
        with self._lock:  # one acquisition for the whole window
            offsets = self._offsets
            for event in report.events:
                template_ids.setdefault(event.template_id, event.template)
                record = event.record
                offset = offsets.get(
                    (record.source, record.sequence), record.sequence)
                records.append((event.source, offset, event.template_id))
        provenance = AlertProvenance(
            alert_id=report.report_id,
            tenant=self.tenant,
            session_id=report.session_id,
            score=report.detection.score,
            reasons=tuple(report.detection.reasons),
            window_start=report.start_time,
            window_end=report.end_time,
            events=len(report.events),
            predicted_pool=predicted_pool,
            delivered_pool=alert.pool,
            criticality=alert.criticality,
            confidence=alert.confidence,
            sources=report.sources,
            template_ids=tuple(template_ids),
            templates=tuple(template_ids.values()),
            records=tuple(records),
            trace_id=trace_id,
        )
        with self._lock:
            ledger = self._provenance
            ledger[provenance.alert_id] = provenance
            while len(ledger) > self._provenance_capacity:
                ledger.popitem(last=False)
        return provenance

    def explain(self, alert_id: int) -> AlertProvenance:
        """Provenance for one alert id; raises ``KeyError`` if unknown."""
        with self._lock:
            try:
                return self._provenance[alert_id]
            except KeyError:
                known = sorted(self._provenance)
                raise KeyError(
                    f"no provenance for alert #{alert_id}; known alert ids: "
                    f"{known if known else 'none'}"
                ) from None

    def provenance(self) -> list[AlertProvenance]:
        """All retained provenance records, oldest first."""
        with self._lock:
            return list(self._provenance.values())

    @property
    def alert_ids(self) -> list[int]:
        with self._lock:
            return list(self._provenance)

    def __deepcopy__(self, memo: dict) -> "Tracer":
        # Runtime-resource contract: executor deepcopies share the tracer.
        return self


class HealthMonitor:
    """Aggregates liveness/readiness probes for ``/readyz``.

    Three probe styles:

    * **heartbeats** (:meth:`beat`) — ready while the last beat is
      fresher than ``stale_after`` seconds; the ingest loop beats once
      per iteration, so a wedged loop goes unready by itself;
    * **flags** (:meth:`set_ready`) — explicit ready/unready with a
      detail string;
    * **pull checks** (:meth:`check`) — a callable evaluated at probe
      time (e.g. ``source.healthy``); exceptions read as unready.

    ``/healthz`` (process liveness) never consults this monitor — a
    process that can answer HTTP is alive; readiness is the
    discriminating probe.
    """

    def __init__(
        self,
        *,
        stale_after: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.stale_after = stale_after
        self._clock = clock
        self._lock = threading.Lock()
        self._beats: dict[str, float] = {}
        self._flags: dict[str, tuple[bool, str]] = {}
        self._checks: dict[str, Callable[[], bool]] = {}

    def beat(self, probe: str) -> None:
        with self._lock:
            self._beats[probe] = self._clock()

    def set_ready(self, probe: str, ready: bool, detail: str = "") -> None:
        with self._lock:
            self._flags[probe] = (ready, detail)

    def check(self, probe: str, fn: Callable[[], bool]) -> None:
        """Register a pull check, evaluated on every :meth:`probes` call."""
        with self._lock:
            self._checks[probe] = fn

    def probes(self) -> dict[str, dict[str, Any]]:
        now = self._clock()
        with self._lock:
            beats = dict(self._beats)
            flags = dict(self._flags)
            checks = dict(self._checks)
        report: dict[str, dict[str, Any]] = {}
        for probe, stamp in beats.items():
            age = now - stamp
            report[probe] = {
                "ready": age <= self.stale_after,
                "detail": f"last heartbeat {age:.1f}s ago",
            }
        for probe, (ready, detail) in flags.items():
            report[probe] = {"ready": ready, "detail": detail}
        for probe, fn in checks.items():
            try:
                ready = bool(fn())
                detail = "" if ready else "check reported unready"
            except Exception as error:  # noqa: BLE001 - probe must not raise
                ready = False
                detail = f"check raised: {error}"
            report[probe] = {"ready": ready, "detail": detail}
        return report

    def ready(self) -> tuple[bool, dict[str, dict[str, Any]]]:
        """Overall readiness: every registered probe must be ready."""
        probes = self.probes()
        return all(entry["ready"] for entry in probes.values()), probes

    def __deepcopy__(self, memo: dict) -> "HealthMonitor":
        # Runtime-resource contract: executor deepcopies share the monitor.
        return self
