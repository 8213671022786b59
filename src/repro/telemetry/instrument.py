"""The bridge between pipeline internals and the metrics registry.

:class:`PipelineTelemetry` owns one :class:`MetricsRegistry` and knows
the metric catalog (see ``docs/telemetry.md``); the runtime objects
never touch metric names.  Two integration styles, chosen per signal:

* **push hooks** (``observe_*``) for the only things that must be
  measured in-band — stage latencies and batch sizes.  The pipeline
  never calls them itself: its one stage seam
  (:class:`~repro.telemetry.stages.StageObservers`) reads the clock
  around each stage and reports through :meth:`observe_stage`, one
  histogram observation per finished stage.  A pipeline with nothing
  attached gets a shared no-op handle per stage and reads no clock.
* **pull collectors** (``attach_*``) for everything the runtime
  already counts — :class:`~repro.core.pipeline.PipelineStats`,
  :attr:`DistributedDrain.shard_loads`, the
  :class:`~repro.core.streaming.BatchHandoff` depth signal, ingestion
  meters, credit-gate accounting, autoscale knob positions.  These are
  read at exposition time only, so the hot path never pays for them.

The instrumentation contract is **byte-transparency**: nothing in this
module mutates pipeline state, so alerts are identical with telemetry
on or off, under every executor (``tests/test_telemetry_neutrality``
holds the system to it).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)

#: Advisories kept in the snapshot (a scraped ring, not a log).
_MAX_ADVISORIES = 32


class PipelineTelemetry:
    """One pipeline's metric surface: registry + catalog + collectors.

    Args:
        config: the ``[telemetry]`` table; defaults to an enabled
            :class:`TelemetryConfig`.
        clock: the latency clock for the push hooks' callers
            (``time.perf_counter`` in production; tests inject a fake).
        registry: where the catalog's families are declared.  Defaults
            to a fresh private :class:`MetricsRegistry`; the gateway
            passes a :class:`~repro.telemetry.metrics.ScopedRegistry`
            view so N tenants' telemetry lands tenant-labeled in one
            shared registry.
    """

    def __init__(self, config: TelemetryConfig | None = None,
                 clock=time.perf_counter, *, registry=None) -> None:
        self.config = config or TelemetryConfig()
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self._advisories: deque[str] = deque(maxlen=_MAX_ADVISORIES)
        self._advisory_lock = threading.Lock()
        # Collector targets.  Each attach_* registers its collector
        # once and *re-points* these on later calls: the telemetry
        # object is pipeline-lifetime while services/hand-offs are
        # single-run, so per-run attachment must not accumulate
        # collectors (every scrape would replay dead services) or pin
        # finished runs in memory.
        self._pipeline = None
        self._handoff = None
        self._ingest = None
        self._autoscale = None
        self._tracer = None
        registry = self.registry

        # -- stage latencies and batch sizes (push) ----------------------------
        self.parse_seconds = registry.histogram(
            "monilog_parse_seconds",
            "Stage-1 parse latency per micro-batch (seconds)",
            DEFAULT_LATENCY_BUCKETS)
        self.parse_batch_records = registry.histogram(
            "monilog_parse_batch_records",
            "Records per parse micro-batch", DEFAULT_SIZE_BUCKETS)
        self.detect_seconds = registry.histogram(
            "monilog_detect_seconds",
            "Stage-2 detect latency per scoring call (seconds)",
            DEFAULT_LATENCY_BUCKETS)
        self.detect_batch_sessions = registry.histogram(
            "monilog_detect_batch_sessions",
            "Closed windows per scoring call", DEFAULT_SIZE_BUCKETS)
        self.sessionize_seconds = registry.histogram(
            "monilog_sessionize_seconds",
            "Streaming sessionizer latency per push loop (seconds)",
            DEFAULT_LATENCY_BUCKETS)
        self.ingest_batch_records = registry.histogram(
            "monilog_ingest_batch_records",
            "Records per ingestion micro-batch handed to the pipeline",
            DEFAULT_SIZE_BUCKETS)

        # -- pipeline counters (pulled from PipelineStats) ---------------------
        self.records_parsed = registry.counter(
            "monilog_records_parsed_total", "Records through stage 1")
        self.windows_scored = registry.counter(
            "monilog_windows_scored_total", "Closed windows scored")
        self.anomalies = registry.counter(
            "monilog_anomalies_total", "Windows flagged anomalous")
        self.alerts = registry.counter(
            "monilog_alerts_total", "Alerts classified and delivered")
        self.templates = registry.gauge(
            "monilog_templates", "Template inventory size")
        self.batch_size = registry.gauge(
            "monilog_batch_size",
            "Current pipeline micro-batch size (autoscale-adjustable)")
        self.shard_load = registry.gauge(
            "monilog_shard_load",
            "Records routed per parser shard (DistributedDrain)",
            ("shard",))
        self.shard_imbalance = registry.gauge(
            "monilog_shard_imbalance",
            "max/mean parser shard load (1.0 = perfectly balanced)")
        self.shards = registry.gauge(
            "monilog_shards",
            "Current parser shard count (reshard-adjustable)")
        self.open_sessions = registry.gauge(
            "monilog_open_sessions", "Streaming sessions currently open")

        # -- hand-off / ingestion (pulled) -------------------------------------
        self.handoff_depth = registry.gauge(
            "monilog_handoff_depth",
            "Records submitted to the pipeline and not yet processed")
        self.handoff_peak_depth = registry.gauge(
            "monilog_handoff_peak_depth", "High-water hand-off depth")
        self.handoff_batches = registry.counter(
            "monilog_handoff_batches_total", "Batches through the hand-off")
        self.handoff_records = registry.counter(
            "monilog_handoff_records_total", "Records through the hand-off")
        self.handoff_busy_seconds = registry.counter(
            "monilog_handoff_busy_seconds_total",
            "Seconds spent inside process_batch")
        self.source_records = registry.counter(
            "monilog_source_records_total",
            "Records read per live source", ("source",))
        self.source_rate = registry.gauge(
            "monilog_source_arrival_rate",
            "Per-source arrival rate (records/second, sliding window)",
            ("source",))
        self.merge_pending = registry.gauge(
            "monilog_merge_pending", "Items buffered behind the watermark")
        self.late_records = registry.counter(
            "monilog_late_records_total",
            "Records arriving beyond the lateness budget")
        self.batch_pending = registry.gauge(
            "monilog_batch_pending", "Records in the open micro-batch")
        self.size_flushes = registry.counter(
            "monilog_batch_size_flushes_total", "Batches flushed on size")
        self.age_flushes = registry.counter(
            "monilog_batch_age_flushes_total", "Batches flushed on age")
        self.forced_drains = registry.counter(
            "monilog_forced_drains_total",
            "Watermark drains forced by credit pressure")
        self.credits = registry.gauge(
            "monilog_credits", "Current credit budget (back-pressure)")
        self.credits_in_use = registry.gauge(
            "monilog_credits_in_use", "Credits currently held by records")
        self.credit_waits = registry.counter(
            "monilog_credit_waits_total",
            "Times a producer blocked on the credit gate")
        self.credit_wait_seconds = registry.counter(
            "monilog_credit_wait_seconds_total",
            "Seconds producers spent blocked on the credit gate")
        self.source_healthy = registry.gauge(
            "monilog_source_healthy",
            "1 while a live source is connected/readable, 0 while degraded "
            "(reconnecting socket, missing file)", ("source",))

        # -- tracing / provenance (pulled from the tracer) ---------------------
        self.traces_sampled = registry.counter(
            "monilog_traces_sampled_total",
            "End-to-end traces sampled into the ring buffer")
        self.trace_spans = registry.counter(
            "monilog_trace_spans_total", "Spans recorded (lifetime)")
        self.trace_evictions = registry.counter(
            "monilog_trace_evictions_total",
            "Spans evicted from the ring buffer (grow trace_buffer if > 0)")
        self.trace_buffered = registry.gauge(
            "monilog_trace_buffered_spans",
            "Spans currently retained in the ring buffer")
        self.alert_provenance = registry.gauge(
            "monilog_alert_provenance_records",
            "Alert provenance ledger entries held for `repro explain`")

        # -- semantic-tier embedding cache (pulled from detectors) -------------
        self.embedding_cache_hits = registry.counter(
            "monilog_embedding_cache_hits_total",
            "Template-vector lookups served from the embedding cache")
        self.embedding_cache_misses = registry.counter(
            "monilog_embedding_cache_misses_total",
            "Template-vector lookups that computed a fresh embedding")
        self.embedding_cache_evictions = registry.counter(
            "monilog_embedding_cache_evictions_total",
            "Embedding cache entries dropped by the LRU capacity bound")
        self.embedding_cache_rebuilds = registry.counter(
            "monilog_embedding_cache_rebuilds_total",
            "Embeddings recomputed after an IDF-drift generation change")
        self.embedding_cache_entries = registry.gauge(
            "monilog_embedding_cache_entries",
            "Template vectors currently memoized (all detector shards)")
        self.embedding_cache_generation = registry.gauge(
            "monilog_embedding_cache_generation",
            "Highest embedding-cache generation across detector shards")
        self.embedding_embed_calls = registry.counter(
            "monilog_embedding_embed_calls_total",
            "Full (uncached) template embedding computations")

        # -- autoscale (pushed by the controller, pulled for gauges) -----------
        self.autoscale_ticks = registry.counter(
            "monilog_autoscale_ticks_total", "Autoscale controller ticks")
        self.autoscale_adjustments = registry.counter(
            "monilog_autoscale_adjustments_total",
            "Knob adjustments by the autoscale controller", ("knob",))
        self.autoscale_knob = registry.gauge(
            "monilog_autoscale_knob",
            "Current value of each autoscale-controlled knob", ("knob",))
        self.advisories_total = registry.counter(
            "monilog_advisories_total", "Operator advisories raised")

        # -- elastic resharding (pushed per resize, pulled for sync) -----------
        self.reshard_total = registry.counter(
            "monilog_reshard_total", "Live parser shard-count resizes")
        self.reshard_keys_moved = registry.counter(
            "monilog_reshard_keys_moved_total",
            "Routing keys relocated by resizes")
        self.reshard_templates_moved = registry.counter(
            "monilog_reshard_templates_moved_total",
            "Templates migrated to relocated shards by resizes")
        self.reshard_bytes = registry.counter(
            "monilog_reshard_bytes_total",
            "Serialized bytes of migrated template state")
        self.reshard_seconds = registry.histogram(
            "monilog_reshard_seconds",
            "Wall-clock latency per resize (seconds)",
            DEFAULT_LATENCY_BUCKETS)
        self.template_sync_bytes = registry.counter(
            "monilog_template_sync_bytes_total",
            "Template-store delta-sync bytes between router and "
            "process-pool workers", ("direction",))
        self.template_full_syncs = registry.counter(
            "monilog_template_full_syncs_total",
            "Whole-parser (non-delta) syncs to process-pool workers")

    def __deepcopy__(self, memo: dict) -> "PipelineTelemetry":
        """Telemetry is a runtime resource, not model state: snapshots
        of an instrumented pipeline (``consistency_with`` probes,
        bench replicas) share the registry rather than cloning live
        locks and collector closures — the same contract executors
        follow."""
        return self

    # -- push hooks (enabled-path only) -----------------------------------------

    def observe_parse(self, records: int, seconds: float) -> None:
        self.parse_seconds.observe(seconds)
        self.parse_batch_records.observe(records)

    def observe_detect(self, sessions: int, seconds: float) -> None:
        self.detect_seconds.observe(seconds)
        self.detect_batch_sessions.observe(sessions)

    def observe_stage(self, stage: str, seconds: float,
                      attributes: dict) -> None:
        """One finished pipeline stage = one latency observation,
        sized by the stage's annotations (a single-window detect
        annotates no ``sessions``: it scored one).  Stages without a
        latency family (classify, fit) observe nothing."""
        if stage == "parse":
            self.observe_parse(attributes.get("records", 0), seconds)
        elif stage == "detect":
            self.observe_detect(attributes.get("sessions", 1), seconds)
        elif stage == "sessionize":
            self.sessionize_seconds.observe(seconds)

    def observe_ingest_batch(self, records: int) -> None:
        self.ingest_batch_records.observe(records)

    def observe_reshard(self, report) -> None:
        """Record one :class:`~repro.parsing.distributed.ReshardReport`."""
        self.reshard_total.inc()
        self.reshard_keys_moved.inc(report.keys_moved)
        self.reshard_templates_moved.inc(report.templates_moved)
        self.reshard_bytes.inc(report.bytes_moved)
        self.reshard_seconds.observe(report.seconds)

    def advise(self, message: str) -> None:
        """Raise an operator advisory (kept in the snapshot ring)."""
        with self._advisory_lock:
            if not self._advisories or self._advisories[-1] != message:
                self._advisories.append(message)
                self.advisories_total.inc()

    # -- pull collectors ---------------------------------------------------------

    def attach_pipeline(self, pipeline) -> None:
        """Mirror the pipeline's own counters at exposition time."""
        already = self._pipeline is not None
        self._pipeline = pipeline
        if already:
            return

        def collect() -> None:
            pipeline = self._pipeline
            stats = pipeline.stats()
            self.records_parsed.set_total(stats.records_parsed)
            self.windows_scored.set_total(stats.windows_scored)
            self.anomalies.set_total(stats.anomalies_detected)
            self.alerts.set_total(stats.alerts_classified)
            self.templates.set(stats.templates_discovered)
            self.batch_size.set(pipeline.batch_size)
            if pipeline.sharded:
                parser = pipeline.parser
                loads = parser.shard_loads
                for shard, load in enumerate(loads):
                    self.shard_load.labels(shard=shard).set(load)
                mean = sum(loads) / len(loads)
                self.shard_imbalance.set(
                    max(loads) / mean if mean else 1.0)
                self.shards.set(len(loads))
                sync = getattr(parser, "sync_stats", None)
                if sync is not None:
                    self.template_sync_bytes.labels(
                        direction="to_workers"
                    ).set_total(sync["bytes_to_workers"])
                    self.template_sync_bytes.labels(
                        direction="from_workers"
                    ).set_total(sync["bytes_from_workers"])
                    self.template_full_syncs.set_total(sync["full_syncs"])
            sessionizer = pipeline.sessionizer
            if sessionizer is not None:
                self.open_sessions.set(sessionizer.open_sessions)
            caches = [
                detector.embedding_cache
                for detector in getattr(pipeline, "detectors", ())
                if hasattr(detector, "embedding_cache")
            ]
            if caches:
                stats = [cache.stats() for cache in caches]
                self.embedding_cache_hits.set_total(
                    sum(s["hits"] for s in stats))
                self.embedding_cache_misses.set_total(
                    sum(s["misses"] for s in stats))
                self.embedding_cache_evictions.set_total(
                    sum(s["evictions"] for s in stats))
                self.embedding_cache_rebuilds.set_total(
                    sum(s["rebuilds"] for s in stats))
                self.embedding_cache_entries.set(
                    sum(s["entries"] for s in stats))
                self.embedding_cache_generation.set(
                    max(s["generation"] for s in stats))
                self.embedding_embed_calls.set_total(
                    sum(s["embed_calls"] for s in stats))

        self.registry.collect(collect)

    def attach_handoff(self, handoff) -> None:
        """Mirror the :class:`BatchHandoff` depth signal and totals."""
        already = self._handoff is not None
        self._handoff = handoff
        if already:
            return

        def collect() -> None:
            handoff = self._handoff
            self.handoff_depth.set(handoff.depth)
            self.handoff_peak_depth.set(handoff.peak_depth)
            self.handoff_batches.set_total(handoff.batches)
            self.handoff_records.set_total(handoff.records)
            self.handoff_busy_seconds.set_total(handoff.busy_seconds)

        self.registry.collect(collect)

    def attach_ingest(self, service) -> None:
        """Mirror the ingestion front-end's meters and gate accounting.

        The collector reads the live runtime objects directly rather
        than ``service.stats()`` — a scrape should roll each rate
        meter once and not pay for the stats snapshot's dict copies
        (or the autoscale status build) it would throw away.
        """
        already = self._ingest is not None
        self._ingest = service
        if already:
            return

        def collect() -> None:
            service = self._ingest
            now = time.monotonic()
            for name, count in service._records_in.items():
                self.source_records.labels(source=name).set_total(count)
            for name, meter in service.meters.items():
                self.source_rate.labels(source=name).set(meter.rate(now))
            self.merge_pending.set(service.merger.pending)
            self.late_records.set_total(service.merger.late)
            self.batch_pending.set(service.batcher.pending)
            self.size_flushes.set_total(service.batcher.size_flushes)
            self.age_flushes.set_total(service.batcher.age_flushes)
            self.forced_drains.set_total(service.forced_drains)
            self.credits.set(service.gate.capacity)
            self.credits_in_use.set(service.gate.in_use)
            self.credit_waits.set_total(service.gate.waits)
            self.credit_wait_seconds.set_total(service.gate.wait_seconds)
            for source in service.sources:
                self.source_healthy.labels(source=source.name).set(
                    1 if getattr(source, "healthy", True) else 0)

        self.registry.collect(collect)

    def attach_tracer(self, tracer) -> None:
        """Mirror the trace ring and provenance ledger sizes."""
        already = self._tracer is not None
        self._tracer = tracer
        if already:
            return

        def collect() -> None:
            tracer = self._tracer
            store = tracer.store
            self.traces_sampled.set_total(tracer.sampled)
            self.trace_spans.set_total(store.added)
            self.trace_evictions.set_total(store.evicted)
            self.trace_buffered.set(len(store))
            self.alert_provenance.set(len(tracer.alert_ids))

        self.registry.collect(collect)

    def attach_autoscale(self, controller) -> None:
        """Mirror the controller's knob positions and tick count."""
        already = self._autoscale is not None
        self._autoscale = controller
        if already:
            return

        def collect() -> None:
            status = self._autoscale.status()
            self.autoscale_ticks.set_total(status["ticks"])
            for knob, value in status["knobs"].items():
                self.autoscale_knob.labels(knob=knob).set(value)

        self.registry.collect(collect)

    # -- exposition --------------------------------------------------------------

    def advisories(self) -> list[str]:
        with self._advisory_lock:
            return list(self._advisories)

    def snapshot(self) -> dict:
        """The JSON surface: every metric plus the advisory ring."""
        return {
            "metrics": self.registry.snapshot(),
            "advisories": self.advisories(),
        }

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()
