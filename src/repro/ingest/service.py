"""The ingestion service: readers → merge → batcher → pipeline.

:class:`IngestService` is the asyncio front-end that turns N live
sources into one back-pressured micro-batch stream feeding a trained
streaming pipeline:

1. one **reader task** per source pulls :class:`SourceItem`\\ s,
   acquiring a credit per record (:class:`CreditGate`) so the whole
   front-end's memory stays bounded by the credit budget;
2. arrivals feed the **watermark merge**
   (:class:`BoundedLatenessMerger`), which restores cross-source
   timestamp order up to the configured lateness budget;
3. released records group in the **micro-batcher**, flushing on size
   or age;
4. full batches hand off to the pipeline via
   :class:`~repro.core.streaming.BatchHandoff` — scoring runs *off*
   the event loop (``run_in_executor``) so parse/detect CPU never
   blocks the readers — and completed batches release their credits
   and advance the per-source offset checkpoints.

Shutdown is lossless by construction: :meth:`stop` (or source
exhaustion) cancels the readers, then everything already read — queued
arrivals, merge buffer, open batch — flushes through the pipeline
before the final checkpoint save, so cancellation never drops a
record that cost a credit.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.reports import ClassifiedAlert
from repro.core.streaming import BatchHandoff
from repro.core.validation import Validator
from repro.ingest.backpressure import CreditGate
from repro.ingest.batcher import MicroBatcher
from repro.ingest.checkpoint import (
    CheckpointStore,
    NamespacedCheckpoints,
    OffsetTracker,
)
from repro.ingest.merge import BoundedLatenessMerger
from repro.ingest.sources import AsyncLogSource, SourceItem
from repro.telemetry.metrics import RateMeter

#: Sliding-window width (seconds) of the per-source arrival meters
#: when no telemetry config supplies one.
_DEFAULT_RATE_WINDOW = 5.0


@dataclass
class IngestConfig:
    """Knobs of the async ingestion front-end.

    Attributes:
        batch_size: records per micro-batch handed to the pipeline's
            ``process``; a batch also flushes early when it ages out.
        max_batch_age: seconds of wall clock a non-empty batch may wait
            before flushing regardless of size — the latency bound a
            trickle source gets.
        lateness: out-of-order tolerance of the live k-way merge, in
            seconds of *event* time: arrival skew between sources up
            to this budget is reordered into exact timestamp order;
            later arrivals are counted late and delivered immediately
            (never dropped).
        credits: total records allowed in flight between the source
            readers and the pipeline (merge buffer + open batch +
            queued work).  When exhausted, readers block — the
            back-pressure that stops fast sources from overrunning a
            slow consumer.
        poll_interval: idle-poll cadence for file tails, and the
            service's watchdog cadence for age flushes.
    """

    batch_size: int = 256
    max_batch_age: float = 0.25
    lateness: float = 0.5
    credits: int = 4096
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        check = Validator(type(self).__name__)
        check.require(self.batch_size >= 1, "batch_size",
                      f"must be >= 1, got {self.batch_size}")
        check.require(self.max_batch_age > 0, "max_batch_age",
                      f"must be > 0, got {self.max_batch_age}")
        check.require(self.lateness >= 0, "lateness",
                      f"must be >= 0, got {self.lateness}")
        check.require(self.credits >= 1, "credits",
                      f"must be >= 1, got {self.credits}")
        check.require(self.poll_interval > 0, "poll_interval",
                      f"must be > 0, got {self.poll_interval}")
        check.done()


@dataclass(frozen=True)
class IngestStats:
    """A consistent snapshot of the front-end's counters."""

    records_in: dict[str, int]
    records_processed: int
    batches: int
    size_flushes: int
    age_flushes: int
    forced_drains: int
    late_records: int
    merge_pending: int
    batch_pending: int
    credit_waits: int
    credits_in_use: int
    peak_depth: int
    alerts: int
    committed: dict[str, int]
    #: Per-source arrival rates (records/second over a sliding
    #: window) — the signal the autoscaler sizes batches from.
    arrival_rates: dict[str, float] = field(default_factory=dict)
    #: Cumulative seconds producers spent blocked on the credit gate.
    credit_wait_seconds: float = 0.0
    #: The autoscale controller's status, when one is attached.
    autoscale: dict | None = None

    def summary(self) -> str:
        """Multi-line human-readable summary (the ``tail`` epilogue)."""
        per_source = ", ".join(
            f"{name}={count}" for name, count in sorted(self.records_in.items())
        ) or "none"
        text = (
            f"ingested {self.records_processed} records "
            f"({per_source}) in {self.batches} batches "
            f"({self.size_flushes} size / {self.age_flushes} age / "
            f"{self.forced_drains} forced), {self.alerts} alerts\n"
            f"late records: {self.late_records}, credit waits: "
            f"{self.credit_waits}, peak pipeline depth: {self.peak_depth}"
        )
        if self.autoscale is not None:
            knobs = ", ".join(
                f"{knob}={value:g}"
                for knob, value in sorted(self.autoscale["knobs"].items())
            )
            text += (
                f"\nautoscale: {self.autoscale['ticks']} ticks, "
                f"{len(self.autoscale['adjustments'])} recent adjustments"
                f" ({knobs})"
            )
        return text


@dataclass
class _ReaderDone:
    """Sentinel a reader enqueues when its source ends (or is cancelled)."""

    source: str
    error: BaseException | None = field(default=None)


class IngestService:
    """Orchestrate live sources into a streaming MoniLog pipeline.

    Args:
        sources: the live inputs; names must be unique (they key the
            stats and checkpoints).
        pipeline: a trained streaming
            :class:`~repro.api.pipeline.Pipeline` — or anything with
            ``process(records) -> alerts`` and optionally ``flush()``;
            it is wrapped in a
            :class:`~repro.core.streaming.BatchHandoff` unless one is
            passed directly.
        config: front-end knobs; see :class:`IngestConfig`.
        checkpoint: optional offset store — a
            :class:`~repro.ingest.checkpoint.CheckpointStore`, or a
            :class:`~repro.ingest.checkpoint.NamespacedCheckpoints`
            view when several services (the gateway's per-tenant
            pipelines) share one file; when given, sources resume
            after their last committed offset and commits advance as
            batches complete.
        on_alert: optional callback invoked per alert, in order, from
            the event loop (live delivery); alerts are also collected
            and returned by :meth:`run`.
        telemetry: optional
            :class:`~repro.telemetry.instrument.PipelineTelemetry`;
            the service attaches its pull-collectors (arrival rates,
            gate accounting, merge/batcher depths) and observes batch
            sizes.  ``Pipeline.serve()`` passes the pipeline's own.
        autoscale: optional
            :class:`~repro.autoscale.controller.AutoscaleController`;
            bound to this service and ticked from the run loop, it
            adjusts the credit budget and micro-batch knobs live.
        tracer: optional :class:`~repro.telemetry.tracing.Tracer` (the
            pipeline's); the service registers checkpoint offsets for
            alert provenance and roots sampled ``ingest`` traces that
            the pipeline's batch spans join.
        health: optional
            :class:`~repro.telemetry.tracing.HealthMonitor`; the run
            loop heartbeats an ``ingest`` probe every iteration and
            each source contributes a ``source:<name>`` pull check
            (``/readyz`` sees flapping sockets and vanished files).
        probe_scope: prefix for probe names on a shared monitor (the
            gateway passes ``"<tenant>."``).

    One service instance supports one :meth:`run`.
    """

    def __init__(
        self,
        sources: Sequence[AsyncLogSource],
        pipeline,
        *,
        config: IngestConfig | None = None,
        checkpoint: CheckpointStore | NamespacedCheckpoints | None = None,
        on_alert: Callable[[ClassifiedAlert], None] | None = None,
        telemetry=None,
        autoscale=None,
        tracer=None,
        health=None,
        probe_scope: str = "",
    ) -> None:
        self.sources = list(sources)
        if not self.sources:
            raise ValueError("IngestService needs at least one source")
        names = [source.name for source in self.sources]
        if len(set(names)) != len(names):
            raise ValueError(f"source names must be unique, got {names}")
        self.config = config or IngestConfig()
        self._sources_by_name = {source.name: source
                                 for source in self.sources}
        self.handoff = (pipeline if isinstance(pipeline, BatchHandoff)
                        else BatchHandoff(pipeline))
        self.checkpoint = checkpoint
        self.on_alert = on_alert
        self.gate = CreditGate(self.config.credits)
        self.merger = BoundedLatenessMerger(self.config.lateness)
        self.batcher = MicroBatcher(self.config.batch_size,
                                    self.config.max_batch_age)
        self.alerts: list[ClassifiedAlert] = []
        self.forced_drains = 0
        self._records_in: dict[str, int] = {name: 0 for name in names}
        rate_window = (telemetry.config.rate_window
                       if telemetry is not None else _DEFAULT_RATE_WINDOW)
        #: Per-source arrival meters — always on (a few arithmetic ops
        #: per record) so ``stats()`` reports rates with or without
        #: telemetry, and the autoscaler always has its input signal.
        self.meters: dict[str, RateMeter] = {
            name: RateMeter(rate_window) for name in names
        }
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach_ingest(self)
            telemetry.attach_handoff(self.handoff)
        self.autoscale = autoscale.bind(self) if autoscale is not None \
            else None
        self.tracer = tracer
        self.health = health
        self._probe = f"{probe_scope}ingest"
        if health is not None:
            for source in self.sources:
                health.check(
                    f"{probe_scope}source:{source.name}",
                    # Bind per iteration; `healthy` is a live property.
                    (lambda src=source: src.healthy),
                )
        self._trackers: dict[str, OffsetTracker] = {}
        self._stop = asyncio.Event()
        self._started = False
        self._reader_error: BaseException | None = None

    # -- control ---------------------------------------------------------------

    def stop(self) -> None:
        """Request a clean shutdown: drain what was read, then return.

        Safe to call from a signal handler on the event-loop thread or
        from any coroutine; idempotent.
        """
        self._stop.set()

    def stats(self) -> IngestStats:
        """Snapshot the front-end's counters (cheap; callable any time)."""
        now = time.monotonic()
        return IngestStats(
            records_in=dict(self._records_in),
            records_processed=self.handoff.records,
            batches=self.handoff.batches,
            size_flushes=self.batcher.size_flushes,
            age_flushes=self.batcher.age_flushes,
            forced_drains=self.forced_drains,
            late_records=self.merger.late,
            merge_pending=self.merger.pending,
            batch_pending=self.batcher.pending,
            credit_waits=self.gate.waits,
            credits_in_use=self.gate.in_use,
            peak_depth=self.handoff.peak_depth,
            alerts=len(self.alerts),
            committed={name: tracker.committed
                       for name, tracker in self._trackers.items()},
            arrival_rates={name: meter.rate(now)
                           for name, meter in self.meters.items()},
            credit_wait_seconds=self.gate.wait_seconds,
            autoscale=self.autoscale.status()
            if self.autoscale is not None else None,
        )

    # -- the run loop ----------------------------------------------------------

    async def run(self) -> list[ClassifiedAlert]:
        """Ingest until every source ends or :meth:`stop` is called.

        Returns every alert the pipeline produced, in delivery order
        (the same list ``on_alert`` saw entry by entry).
        """
        if self._started:
            raise RuntimeError("IngestService.run() supports a single run")
        self._started = True
        arrivals: asyncio.Queue = asyncio.Queue()
        readers: list[asyncio.Task] = []
        for source in self.sources:
            start = self.checkpoint.get(source.name) if self.checkpoint else 0
            if self.checkpoint is not None and start:
                # Let the source veto a stale offset: a rotated or
                # rewritten file fails its stored signature and tails
                # from the top instead of resuming mid-file.
                start = source.resume_offset(
                    start, self.checkpoint.get_signature(source.name)
                )
            tracker = OffsetTracker(start)
            self._trackers[source.name] = tracker
            readers.append(asyncio.get_running_loop().create_task(
                self._read(source, tracker, arrivals),
            ))
        stop_wait = asyncio.ensure_future(self._stop.wait())
        pending_get: asyncio.Future | None = None
        live = len(readers)
        if self.health is not None:
            self.health.beat(self._probe)
        try:
            while live > 0 and not self._stop.is_set():
                if self.health is not None:
                    self.health.beat(self._probe)
                if pending_get is None:
                    pending_get = asyncio.ensure_future(arrivals.get())
                done, _ = await asyncio.wait(
                    {pending_get, stop_wait},
                    timeout=self._poll_timeout(),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if pending_get in done:
                    message = pending_get.result()
                    pending_get = None
                    if isinstance(message, _ReaderDone):
                        live -= 1
                        if message.error is not None:
                            raise message.error
                    else:
                        await self._ingest(message)
                if not done:
                    await self._on_idle()
                if self.autoscale is not None:
                    self.autoscale.maybe_tick(time.monotonic())
        except asyncio.CancelledError:
            # Hard cancellation of run() itself: treat like stop() and
            # make a best effort to flush before propagating.
            self._stop.set()
            raise
        finally:
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
            stop_wait.cancel()
            if pending_get is not None:
                if pending_get.done() and not pending_get.cancelled():
                    arrivals.put_nowait(pending_get.result())
                else:
                    pending_get.cancel()
            await self._drain_and_flush(arrivals)
        if self._reader_error is not None:
            # A source died in the same instant stop() fired: its
            # sentinel reached the shutdown drain instead of the main
            # loop.  Everything read was flushed above; now surface
            # the failure instead of reporting success.
            raise self._reader_error
        return self.alerts

    def _poll_timeout(self) -> float | None:
        """How long the main loop may sleep before housekeeping.

        Bounded by the open batch's age deadline, and by the poll
        interval whenever the merge holds items while credits are
        exhausted — the situation only a forced drain can unstick.
        """
        timeout: float | None = None
        deadline = self.batcher.deadline
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        if self.merger.pending and self.gate.available <= 0:
            poll = self.config.poll_interval
            timeout = poll if timeout is None else min(timeout, poll)
        if self.autoscale is not None:
            # Never sleep through a control tick: a mis-sized start
            # (credits=1 on a quiet merge) otherwise waits out the full
            # poll cadence between every correction.
            interval = self.autoscale.config.interval
            timeout = interval if timeout is None else min(timeout, interval)
        if self.health is not None:
            # Keep the heartbeat fresher than the staleness budget even
            # on an idle stream — an unbounded sleep would read as a
            # wedged loop on /readyz.
            beat = self.health.stale_after / 3
            timeout = beat if timeout is None else min(timeout, beat)
        return timeout

    async def _on_idle(self) -> None:
        """Housekeeping when the poll timeout fires with no arrivals."""
        batch = self.batcher.poll(time.monotonic())
        if batch is not None:
            await self._process(batch)
        if self.merger.pending and self.gate.available <= 0:
            # Every credit is parked behind the watermark and no new
            # arrival can advance it: credit pressure overrides
            # lateness.  Drain the oldest buffered records so the
            # pipeline (and the credit pool) keep moving.  The batch
            # bound is the *live* one — the autoscaler may have moved
            # it since construction.
            self.forced_drains += 1
            for item in self.merger.drain_oldest(self.batcher.max_size):
                await self._add_to_batch(item)

    async def _read(self, source: AsyncLogSource, tracker: OffsetTracker,
                    arrivals: asyncio.Queue) -> None:
        """One source's reader: credit, track, enqueue; sentinel at end."""
        error: BaseException | None = None
        meter = self.meters[source.name]
        try:
            async for item in source.items(start_offset=tracker.committed):
                await self.gate.acquire()
                tracker.note_read(item.offset)
                self._records_in[source.name] += 1
                meter.mark(1, time.monotonic())
                arrivals.put_nowait(item)
        except asyncio.CancelledError:
            pass  # stop(): unread source data stays unread, by design
        except Exception as failure:  # surface reader bugs, don't hang
            error = failure
        finally:
            arrivals.put_nowait(_ReaderDone(source.name, error))

    async def _ingest(self, item: SourceItem) -> None:
        """One arrival: merge, then batch whatever the watermark freed."""
        for ready in self.merger.push(item):
            await self._add_to_batch(ready)

    async def _add_to_batch(self, item: SourceItem) -> None:
        batch = self.batcher.add(item, time.monotonic())
        if batch is not None:
            await self._process(batch)

    async def _process(self, batch: list[SourceItem]) -> None:
        """Score one batch off the loop; then commit, release, deliver."""
        loop = asyncio.get_running_loop()
        records = [item.record for item in batch]
        if self.telemetry is not None:
            self.telemetry.observe_ingest_batch(len(records))
        if self.tracer is not None:
            # Offsets feed alert provenance for *every* batch; the
            # sampled ingest trace (source read + merge attribution) is
            # adopted by the pipeline's batch span inside the executor
            # thread.  hand_off also records a negative decision so the
            # pipeline never draws a second sample for this batch.
            self.tracer.note_offsets(batch)
            ctx = self.tracer.begin("ingest", records=len(batch))
            if ctx is not None:
                offsets_by_source: dict[str, list[int]] = {}
                for item in batch:
                    offsets_by_source.setdefault(
                        item.source, []).append(item.offset)
                for name, offsets in offsets_by_source.items():
                    ctx.event("source.read", source=name,
                              records=len(offsets),
                              first_offset=min(offsets),
                              last_offset=max(offsets))
                ctx.event("merge", pending=self.merger.pending,
                          late=self.merger.late)
            self.tracer.hand_off(ctx)
        alerts = await loop.run_in_executor(None, self.handoff.submit, records)
        for item in batch:
            self._trackers[item.source].note_processed(item.offset)
        if self.checkpoint is not None:
            # Snapshot the commit positions on the loop (cheap), then
            # do all the file I/O — signature stat/reads and the
            # checkpoint write — off the loop, so slow storage never
            # stalls the readers.  One service processes batches one
            # at a time, but N gateway services may share the store —
            # it serializes concurrent commits internally.
            committed = {name: tracker.committed
                         for name, tracker in self._trackers.items()}

            def _commit() -> None:
                for name, offset in committed.items():
                    self.checkpoint.update(
                        name, offset,
                        self._sources_by_name[name].signature(),
                    )
                self.checkpoint.save()

            await loop.run_in_executor(None, _commit)
        self.gate.release(len(batch))
        self._deliver(alerts)

    def _deliver(self, alerts: list[ClassifiedAlert]) -> None:
        for alert in alerts:
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)

    async def _drain_and_flush(self, arrivals: asyncio.Queue) -> None:
        """Lossless shutdown: everything read must reach the pipeline."""
        while True:
            try:
                message = arrivals.get_nowait()
            except asyncio.QueueEmpty:
                break
            if isinstance(message, _ReaderDone):
                if message.error is not None and self._reader_error is None:
                    self._reader_error = message.error
            else:
                await self._ingest(message)
        for item in self.merger.flush():
            await self._add_to_batch(item)
        batch = self.batcher.flush()
        if batch is not None:
            await self._process(batch)
        loop = asyncio.get_running_loop()
        self._deliver(await loop.run_in_executor(None, self.handoff.flush))
        if self.checkpoint is not None:
            self.checkpoint.save()
