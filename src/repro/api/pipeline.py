"""`Pipeline`: the one composable facade behind every MoniLog entry point.

Historically the reproduction had four hand-rolled pipeline variants —
``MoniLog`` (offline, single instance), ``StreamingMoniLog`` (record at
a time), ``ShardedMoniLog`` (concurrent shards), and
``StreamingShardedMoniLog`` (both) — plus the ingestion service, each
re-implementing train/score/drain orchestration.  :class:`Pipeline`
replaces all four behind **one uniform lifecycle**:

    spec = PipelineSpec(detector="deeplog", shards=4, executor="thread")
    with Pipeline.from_spec(spec) as pipeline:
        pipeline.fit(history)
        alerts = pipeline.process(live)          # offline batch
        print(pipeline.stats())

    spec = spec.replace(streaming=True, session_timeout=10.0)
    with Pipeline.from_spec(spec).fit(history) as live_pipeline:
        for record in tail_the_stream():
            for alert in live_pipeline.process_record(record):
                page_someone(alert)
        live_pipeline.flush()

Internally the builder composes sharding (``spec.shards``), batching
(``spec.batch_size``), streaming (``spec.streaming`` or
:meth:`stream`), and ingestion (:meth:`serve` /
:class:`~repro.ingest.service.IngestService`, which accepts a
``Pipeline`` directly) from registry-resolved components — instead of
four class variants duplicating the flow.  The composition preserves
the legacy facades' semantics *exactly*: a ``Pipeline`` built from the
equivalent spec produces byte-identical alerts, in identical order, to
each legacy facade (proven by ``tests/test_api_parity.py``), which is
what lets those facades survive as thin deprecated shims.

Output does not depend on the executor, the batch size, or
batch-vs-streaming operation (beyond which windows have closed) — the
invariants the legacy classes established, inherited wholesale because
this class *is* their code, merged.

Each stage's work call is written once, inside ``with
self._stage("parse") as stage:``; the one instrumentation seam
(:class:`~repro.telemetry.stages.StageObservers`) owns the attached
observers — telemetry, tracer, profiler — and decides what a stage
costs (a shared no-op handle when dark).  Stage components
(``parser.parse_batch``, ``sessionizer.push``, ``detector.detect``,
``executor.map``, ``classifier.classify``, ``pools.deliver``) are
looked up on the instance at every call, so callers may patch them
after construction.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Iterator
from os import PathLike

from repro.api.registry import REGISTRY
from repro.api.spec import PipelineSpec
from repro.autoscale.controller import AutoscaleController
from repro.classify.classifier import AnomalyClassifier
from repro.classify.pools import PoolManager
from repro.core.calibration import DEFAULT_GRIDS, AutoCalibrator
from repro.core.distributed import (
    _detect_shard,
    _fit_shard,
    _sessions_by_key,
    _shard_of,
)
from repro.core.executors import ShardExecutor, resolve_executor
from repro.core.pipeline import PipelineStats
from repro.core.reports import AnomalyReport, ClassifiedAlert
from repro.core.streaming import BatchHandoff, StreamingSessionizer
from repro.detection.base import DetectionResult, Detector
from repro.detection.windows import sessions_from_parsed, sliding_windows
from repro.logs.record import DEFAULT_TENANT, LogRecord, ParsedLog
from repro.parsing.base import BatchParser, Parser, parse_in_batches
from repro.parsing.drain import DrainParser
from repro.parsing.logram import LogramParser
from repro.parsing.masking import default_masker, no_masker
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.instrument import PipelineTelemetry
from repro.telemetry.profiling import SamplingProfiler
from repro.telemetry.server import MetricsServer
from repro.telemetry.stages import StageObservers
from repro.telemetry.tracing import AlertProvenance, HealthMonitor, Tracer

#: Distinguishes "caller said nothing" from an explicit ``None``
#: (= one batch for the whole list) in :meth:`Pipeline.process`.
_UNSET = object()


class Pipeline:
    """A full MoniLog pipeline built from a :class:`PipelineSpec`.

    Args:
        spec: the declarative description; a plain dict is accepted and
            validated.  ``None`` means all defaults.
        parser: explicit stage-1 component instance, overriding
            ``spec.parser`` (single-instance pipelines only — a sharded
            pipeline builds its own :class:`DistributedDrain` and takes
            parser knobs via ``spec.parser_options``).
        detector: explicit stage-2 instance overriding ``spec.detector``
            (single-instance pipelines only).
        detector_factory: ``shard -> Detector`` builder for sharded
            pipelines, overriding ``spec.detector``.
        executor: a :class:`~repro.core.executors.ShardExecutor`
            instance overriding ``spec.executor`` (instances cannot be
            named in a spec file; benches share pools this way).
        metrics_registry: where telemetry families are declared,
            overriding the default private registry — the gateway
            passes each tenant a
            :class:`~repro.telemetry.metrics.ScopedRegistry` view of
            one shared registry.  Passing one opts into telemetry even
            without a ``[telemetry]`` table (unless the table
            explicitly disables it).
        tracer: a :class:`~repro.telemetry.tracing.Tracer` instance
            overriding the spec-built one — the gateway passes each
            tenant a tenant-scoped tracer over one shared
            :class:`~repro.telemetry.tracing.TraceStore`.
        health: a shared :class:`~repro.telemetry.tracing.HealthMonitor`
            for ``/readyz`` probes (the gateway shares one across
            tenants); defaults to a private monitor whenever telemetry
            is enabled.
        probe_scope: prefix for this pipeline's probe names on a
            shared health monitor (the gateway passes ``"<tenant>."``).
        profiler: a running
            :class:`~repro.telemetry.profiling.SamplingProfiler`
            overriding the spec-built one — the gateway passes every
            profiling tenant the one shared sampler (stage markers
            carry the tenant name, so attribution stays per-tenant).
            An injected profiler's lifecycle belongs to its owner;
            a spec-built one (``[telemetry] profile = true``) starts
            here and stops at :meth:`close`.

    Lifecycle: :meth:`fit` → :meth:`process` / :meth:`process_record` /
    :meth:`run` → :meth:`flush` (streaming) → :meth:`close` (or use the
    pipeline as a context manager).  :meth:`stats` reports the live
    counters; :meth:`stream` arms streaming mode post-construction.
    """

    def __init__(
        self,
        spec: PipelineSpec | dict | None = None,
        *,
        parser: Parser | None = None,
        detector: Detector | None = None,
        detector_factory=None,
        executor: str | ShardExecutor | None = None,
        metrics_registry=None,
        tracer: Tracer | None = None,
        health: HealthMonitor | None = None,
        probe_scope: str = "",
        profiler: SamplingProfiler | None = None,
    ) -> None:
        if isinstance(spec, dict):
            spec = PipelineSpec.from_dict(spec)
        self.spec = spec if spec is not None else PipelineSpec()
        spec = self.spec
        self.executor = resolve_executor(
            executor if executor is not None else spec.executor
        )
        self._sharded = spec.shards > 0
        masker = default_masker() if spec.masking else no_masker()
        if self._sharded:
            if parser is not None or detector is not None:
                raise ValueError(
                    "a sharded pipeline builds its own components; use "
                    "spec.parser_options / detector_factory instead of "
                    "instances"
                )
            self.parser = REGISTRY.create(
                "parser", "drain-distributed", spec.parser_options,
                shards=spec.shards,
                masker=masker,
                extract_structured=spec.extract_structured,
                executor=self.executor,
            )
            if detector_factory is None:
                detector_factory = self._default_detector_factory
            self.detectors: list[Detector] = [
                detector_factory(shard) for shard in range(spec.detector_shards)
            ]
        else:
            if detector_factory is not None:
                raise ValueError(
                    "detector_factory applies to sharded pipelines; pass "
                    "detector= (or spec.detector) for a single instance"
                )
            if parser is not None:
                self.parser = parser
            else:
                self.parser = REGISTRY.create(
                    "parser", spec.parser, spec.parser_options,
                    masker=masker,
                    extract_structured=spec.extract_structured,
                )
            self.detectors = [
                detector if detector is not None
                else REGISTRY.create("detector", spec.detector,
                                     spec.detector_options)
            ]
        self.pools = PoolManager()
        self.classifier = AnomalyClassifier().attach(self.pools)
        self.sessionizer: StreamingSessionizer | None = (
            StreamingSessionizer(spec.session_timeout,
                                 spec.max_session_events)
            if spec.streaming else None
        )
        self._stats = PipelineStats()
        self._trained = False
        self._report_counter = 0
        # -- observability: one seam owns telemetry, tracer and profiler ------
        self._batch_size_override: int | None = None
        self._metrics_server: MetricsServer | None = None
        config = spec.telemetry_config()
        if metrics_registry is not None and not spec.telemetry:
            # An injected registry is an explicit opt-in; only a table
            # that says enabled = false keeps the pipeline dark.
            config = TelemetryConfig()
        # Stage markers carry a tenant name so a shared (gateway)
        # profiler attributes per tenant; a standalone pipeline reuses
        # the tracer's tenant, else the probe scope, else the default.
        self._observers = StageObservers(
            config, registry=metrics_registry, tracer=tracer,
            profiler=profiler,
            tenant=probe_scope.rstrip(".") or DEFAULT_TENANT)
        self._probe_scope = probe_scope
        self._health = health
        if health is not None:
            health.check(f"{probe_scope}pipeline", lambda: self._trained)
        autoscale_config = spec.autoscale_config()
        self.autoscaler = (
            AutoscaleController(autoscale_config, pipeline=self)
            if autoscale_config is not None else None
        )
        if self.telemetry_enabled:
            self._wire_telemetry()
            if config.metrics_port is not None:
                self.start_metrics_server(config.metrics_port)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: "PipelineSpec | dict | str | PathLike",
                  **overrides) -> "Pipeline":
        """Build from a spec object, dict, or ``.toml``/``.json`` path."""
        if isinstance(spec, (str, PathLike)):
            spec = PipelineSpec.from_file(spec)
        elif isinstance(spec, dict):
            spec = PipelineSpec.from_dict(spec)
        return cls(spec, **overrides)

    def _default_detector_factory(self, shard: int) -> Detector:
        """One detector per shard; seed-accepting detectors get their
        shard index as the seed (decorrelated replicas, the legacy
        sharded default) unless the spec pins one."""
        options = dict(self.spec.detector_options)
        entry = REGISTRY.get("detector", self.spec.detector)
        if "seed" in entry.signature.parameters and "seed" not in options:
            options["seed"] = shard
        return entry.cls(**options)

    # -- introspection ----------------------------------------------------------

    @property
    def sharded(self) -> bool:
        return self._sharded

    @property
    def streaming(self) -> bool:
        return self.sessionizer is not None

    @property
    def detector(self) -> Detector:
        """The stage-2 detector (first shard when sharded)."""
        return self.detectors[0]

    @property
    def detector_shards(self) -> int:
        return len(self.detectors)

    @property
    def batch_size(self) -> int:
        """Effective micro-batch size (sharded runtimes never go below 1).

        The spec's value, unless the autoscale controller has adjusted
        it at runtime (:meth:`set_batch_size`) — batch size is
        output-neutral by the batching invariants, which is what makes
        it safe to move live.
        """
        size = (self._batch_size_override
                if self._batch_size_override is not None
                else self.spec.batch_size)
        if self._sharded:
            return size or 1
        return size

    def set_batch_size(self, batch_size: int) -> None:
        """Adjust the micro-batch size at runtime (autoscale's knob).

        Alerts are identical for every batch size (proven by
        ``tests/test_batching.py``); only amortization changes.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size_override = batch_size

    def reshard(self, shards: int):
        """Resize the parser shard count live (autoscale's elastic knob).

        Delegates to
        :meth:`~repro.parsing.distributed.DistributedDrain.resize`:
        rendezvous routing relocates a minimal key slice, relocated
        keys take their template state with them, and global template
        ids never change — so alerts are byte-identical across the
        resize.  Detector shards are untouched (windows route by
        session, not by parser shard).  Returns the
        :class:`~repro.parsing.distributed.ReshardReport`.
        """
        if not self._sharded:
            raise RuntimeError("reshard applies to sharded pipelines "
                               "(spec.shards > 0)")
        report = self.parser.resize(shards)
        self.spec = self.spec.replace(shards=shards)
        if self._telemetry is not None:
            self._telemetry.observe_reshard(report)
        return report

    def stats(self) -> PipelineStats:
        """The live pipeline counters."""
        return self._stats

    # -- observability ----------------------------------------------------------

    @property
    def _telemetry(self) -> PipelineTelemetry | None:
        return self._observers.telemetry

    @property
    def telemetry_enabled(self) -> bool:
        return self._telemetry is not None

    @property
    def tracing_enabled(self) -> bool:
        return self.tracer is not None

    @property
    def tracer(self) -> Tracer | None:
        """The span/provenance recorder (``None`` with tracing off)."""
        return self._observers.tracer

    @property
    def health(self) -> HealthMonitor | None:
        """The readiness-probe aggregate behind ``/readyz``."""
        return self._health

    @property
    def profiling_enabled(self) -> bool:
        return self.profiler is not None

    @property
    def profiler(self) -> SamplingProfiler | None:
        """The continuous sampler (``None`` with profiling off)."""
        return self._observers.profiler

    def profile(self, limit: int = 20) -> dict:
        """The live profile: aggregate counters + top-``limit`` stacks.

        The same content the HTTP endpoint serves at ``/profile``
        (``repro profile`` prints exactly this as a table).  Raises
        ``RuntimeError`` when profiling is off — like :meth:`explain`
        with tracing off, asking for an artifact the run never
        recorded is a config error, not an empty answer.
        """
        profiler = self.profiler
        if profiler is None:
            raise RuntimeError(
                "profiling is not enabled; set [telemetry] profile = true "
                "(or pass --profile) to run the sampling profiler"
            )
        return {
            "stats": profiler.stats(),
            "hotspots": profiler.top(limit),
        }

    def explain(self, alert_id: int) -> AlertProvenance:
        """Provenance of one delivered alert (``repro explain``).

        ``alert_id`` is the report id printed as ``report #N`` in alert
        summaries.  Raises ``KeyError`` for unknown ids and
        ``RuntimeError`` when tracing is off.
        """
        tracer = self.tracer
        if tracer is None:
            raise RuntimeError(
                "tracing is not enabled; set [telemetry] tracing = true "
                "(or pass --trace) to record alert provenance"
            )
        return tracer.explain(alert_id)

    def trace_spans(self, **filters):
        """Retained spans (``trace_id=`` / ``name=`` / ``limit=`` filters)."""
        store = self._observers.trace_store
        return store.spans(**filters) if store is not None else []

    def trace_dump(self) -> dict:
        """The portable trace artifact: every retained span + every
        provenance record, as plain JSON-ready dicts (written by
        ``repro pipeline --trace-dump`` and read back by
        ``repro explain --trace-file``)."""
        tracer = self.tracer
        if tracer is None:
            raise RuntimeError("tracing is not enabled; nothing to dump")
        store = tracer.store
        return {
            "sample_rate": tracer.sample_rate,
            "buffered": len(store),
            "evicted": store.evicted,
            "spans": store.snapshot(),
            "alerts": [provenance.as_dict()
                       for provenance in tracer.provenance()],
        }

    # -- the instrumentation seam ------------------------------------------------

    def _stage(self, name: str):
        """The observers' handle for one stage, a context manager (one
        shared no-op object while nothing is attached)."""
        return self._observers.stage(name)

    def _trace(self, kind: str, records: int):
        """Root (or adopt) the sampled trace for one processing call."""
        return self._observers.trace(
            kind,
            records=records,
            executor=self.executor.name,
            shards=self.spec.shards,
            detector_shards=self.detector_shards,
        )

    def _wire_telemetry(self) -> PipelineTelemetry:
        """Point the metrics surface — created here on a late opt-in —
        at this pipeline, its autoscaler and a readiness monitor."""
        telemetry = self._observers.enable_telemetry()
        telemetry.attach_pipeline(self)
        if self.autoscaler is not None:
            self.autoscaler.telemetry = telemetry
            telemetry.attach_autoscale(self.autoscaler)
        if self._health is None:
            self._health = HealthMonitor()
            self._health.check(f"{self._probe_scope}pipeline",
                               lambda: self._trained)
        return telemetry

    @property
    def metrics_server(self) -> MetricsServer | None:
        """The running HTTP endpoint, if one was started."""
        return self._metrics_server

    def telemetry(self) -> dict | None:
        """The JSON telemetry snapshot (``None`` with telemetry off).

        The same content the HTTP endpoint serves at ``/telemetry``;
        ``repro stats`` prints exactly this.
        """
        if self._telemetry is None:
            return None
        return self._telemetry.snapshot()

    def metrics_text(self) -> str | None:
        """The Prometheus exposition (``None`` with telemetry off)."""
        if self._telemetry is None:
            return None
        return self._telemetry.render_prometheus()

    def start_metrics_server(self, port: int | None = None) -> MetricsServer:
        """Serve ``/metrics`` + ``/telemetry`` over HTTP until close.

        Asking for the endpoint *is* opting into telemetry, so a dark
        pipeline grows a registry here (instrumented from now on).
        ``port`` defaults to the spec's ``metrics_port`` (else an
        ephemeral port); a second call returns the running server.
        """
        if self._metrics_server is not None:
            return self._metrics_server
        telemetry = self._wire_telemetry()
        if port is None:
            port = telemetry.config.metrics_port or 0
        self._metrics_server = MetricsServer(
            telemetry.registry, port,
            trace_store=self._observers.trace_store,
            health=self._health,
            profiler=self.profiler,
        )
        return self._metrics_server

    # -- lifecycle: close -------------------------------------------------------

    def close(self) -> None:
        """Release the executor's worker pool, the metrics endpoint,
        and the pipeline-owned profiler thread (idempotent)."""
        self.executor.close()
        self._observers.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- stage 1 ----------------------------------------------------------------

    def maybe_calibrate(self, sample: list[LogRecord]) -> None:
        """Replace the parser after a calibration sweep, if configured.

        The acquire → calibrate → parse deployment flow; single-instance
        pipelines only (the sharded runtime keeps its constructor
        parameters), and only meaningful before any parsing happened.
        """
        if not self.spec.auto_calibrate or self._sharded:
            return
        if not isinstance(self.parser, DrainParser):
            raise ValueError(
                "auto-calibration is wired for DrainParser; pass a "
                "calibrated parser explicitly for other algorithms"
            )
        masker = self.parser.masker
        extract = self.parser.extract_structured

        def factory(**parameters) -> Parser:
            return DrainParser(
                masker=masker, extract_structured=extract, **parameters
            )

        calibrator = AutoCalibrator(factory, DEFAULT_GRIDS["drain"])
        self.parser = calibrator.calibrated_parser(
            sample[: self.spec.calibration_sample]
        )

    def _parse(self, records: Iterable[LogRecord]) -> Iterator[ParsedLog]:
        for record in records:
            parsed = self.parser.parse_record(record)
            self._stats.records_parsed += 1
            yield parsed

    def _window(self, parsed: Iterable[ParsedLog]) -> Iterator[list[ParsedLog]]:
        if self.spec.windowing == "session":
            # Session windowing must see the whole stream before
            # closing sessions; materializing per-session lists is the
            # batch equivalent of a session-timeout flush.
            for session in sessions_from_parsed(parsed).values():
                yield session
        else:
            yield from sliding_windows(parsed, self.spec.window_size)

    # -- lifecycle: fit ---------------------------------------------------------

    def fit(
        self,
        records: Iterable[LogRecord],
        labels_by_session: dict[str, bool] | None = None,
    ) -> "Pipeline":
        """Fit the detector(s) on a historical stream.

        ``labels_by_session`` provides anomaly labels for supervised
        detectors (LogRobust); unsupervised detectors ignore them.
        Sharded pipelines partition training sessions across detector
        shards by session-id hash and fit the shards concurrently on
        the configured executor (training is executor-independent).
        """
        with self._stage("fit"):
            return self._fit_impl(records, labels_by_session)

    def _fit_impl(
        self,
        records: Iterable[LogRecord],
        labels_by_session: dict[str, bool] | None,
    ) -> "Pipeline":
        record_list = list(records)
        if self._sharded:
            if labels_by_session is not None:
                raise ValueError(
                    "sharded pipelines train each detector shard "
                    "unsupervised; labels_by_session is not supported"
                )
            return self._fit_sharded(record_list)
        self.maybe_calibrate(record_list)
        if isinstance(self.parser, BatchParser):
            self.parser.fit(record_list)
        elif isinstance(self.parser, LogramParser):
            self.parser.warmup(record_list)
        # Training materializes the stream anyway, so it always takes
        # the batched parse path (identical output to a per-record
        # loop; see Parser.parse_batch).
        parsed = self.parser.parse_batch(record_list)
        self._stats.records_parsed += len(parsed)
        windows = [
            window
            for window in self._window(parsed)
            if len(window) >= self.spec.min_window_events
        ]
        labels: list[bool] | None = None
        if labels_by_session is not None:
            labels = [
                labels_by_session.get(window[0].session_id or "", False)
                for window in windows
            ]
        self.detector.fit(windows, labels)
        self._stats.templates_discovered = self.parser.template_count
        self._trained = True
        return self

    def _fit_sharded(self, records: list[LogRecord]) -> "Pipeline":
        parsed = self._parse_batched(records, self.batch_size)
        sessions = _sessions_by_key(parsed)
        partitions: list[list[list[ParsedLog]]] = [
            [] for _ in range(self.detector_shards)
        ]
        for key, events in sessions.items():
            if len(events) < self.spec.min_window_events:
                continue
            partitions[_shard_of(key, self.detector_shards)].append(events)
        for shard, partition in enumerate(partitions):
            if not partition:
                raise ValueError(
                    f"detector shard {shard} received no training sessions; "
                    "use fewer shards or more training data"
                )
        self.detectors = list(self.executor.map(
            _fit_shard, list(zip(self.detectors, partitions))
        ))
        self._stats.templates_discovered = self.parser.template_count
        self._trained = True
        return self

    def _require_trained(self, method: str) -> None:
        if not self._trained:
            raise RuntimeError(f"Pipeline.fit() must run before {method}()")

    def _parse_batched(self, records: Iterable[LogRecord],
                       batch_size: int | None) -> list[ParsedLog]:
        """Drain micro-batches of ``batch_size`` (``None``: one batch)
        through the parser: stage 1 of every batched path."""
        with self._stage("parse") as stage:
            parsed = parse_in_batches(self.parser, records, batch_size)
            templates = self.parser.template_count
            stage.annotate(records=len(parsed), templates=templates)
        self._stats.records_parsed += len(parsed)
        self._stats.templates_discovered = templates
        return parsed

    def _sessionize(
        self, events: Iterable[ParsedLog]
    ) -> list[list[ParsedLog]]:
        """Push events through the sessionizer; the sessions they
        closed, in closing order."""
        closed: list[list[ParsedLog]] = []
        with self._stage("sessionize") as stage:
            for event in events:
                closed.extend(self.sessionizer.push(event))
            stage.annotate(closed=len(closed),
                           open=self.sessionizer.open_sessions)
        return closed

    # -- scoring ----------------------------------------------------------------

    def _score_window(self, window: list[ParsedLog]) -> ClassifiedAlert | None:
        """Detect + classify one closed window; None when not alerted.

        The single-instance scoring routine behind every offline and
        streaming path — alert identity (report numbering, fallback
        window ids) is shared by construction.
        """
        if len(window) < self.spec.min_window_events:
            return None
        self._stats.windows_scored += 1
        with self._stage("detect") as stage:
            result = self.detector.detect(window)
            stage.annotate(session=window[0].windowing_key,
                           events=len(window),
                           score=result.score,
                           anomalous=result.anomalous)
        if not result.anomalous:
            return None
        return self._deliver(
            window[0].session_id or f"window-{self._stats.windows_scored}",
            window, result)

    def _deliver(self, session_id: str, events: list[ParsedLog],
                 result: DetectionResult) -> ClassifiedAlert:
        """An anomalous window's tail — report numbering, classify,
        pool delivery, provenance — single and sharded alike."""
        self._stats.anomalies_detected += 1
        report = AnomalyReport(
            report_id=self._report_counter,
            session_id=session_id,
            events=tuple(events),
            detection=result,
        )
        self._report_counter += 1
        with self._stage("classify") as stage:
            predicted = self.classifier.classify(report)
            alert = self.pools.deliver(predicted)
            stage.annotate(alert_id=report.report_id,
                           pool=alert.pool,
                           criticality=alert.criticality)
        self._stats.alerts_classified += 1
        self._observers.record_alert(alert, predicted.pool)
        return alert

    def _detect_keyed(
        self, keyed_sessions: list[tuple[str, list[ParsedLog]]]
    ) -> list[DetectionResult]:
        """Detection results for (key, events) pairs, in input order.

        Sessions group by detector shard and the shard groups score
        concurrently; each shard sees its own sessions in input order,
        so results are executor-independent even for stateful
        detectors.
        """
        shards = self.detector_shards
        shard_of = [_shard_of(key, shards) for key, _ in keyed_sessions]
        groups: list[list[list[ParsedLog]]] = [[] for _ in range(shards)]
        for (_, events), shard in zip(keyed_sessions, shard_of):
            groups[shard].append(events)
        busy = [shard for shard in range(shards) if groups[shard]]
        # The profiler is shown the fan-out's calling-thread share
        # (serial executor: all of it); workers sample as "other".
        with self._stage("detect") as stage:
            outcomes = self.executor.map(
                _detect_shard,
                [(self.detectors[shard], groups[shard]) for shard in busy],
            )
            stage.annotate(sessions=len(keyed_sessions),
                           busy_shards=len(busy),
                           executor=self.executor.name)
        per_shard = {shard: iter(results)
                     for shard, results in zip(busy, outcomes)}
        return [next(per_shard[shard]) for shard in shard_of]

    def score_sessions(
        self, sessions: Iterable[list[ParsedLog]]
    ) -> list[ClassifiedAlert]:
        """Detect, report, classify, and deliver closed windows.

        In a sharded pipeline detection fans out per detector shard;
        report numbering, classification, and pool delivery run on the
        calling thread in window order, so alert identity and order
        never depend on the executor.
        """
        self._require_trained("score_sessions")
        if not self._sharded:
            return [
                alert for window in sessions
                if (alert := self._score_window(window)) is not None
            ]
        keyed = [
            (events[0].windowing_key, events)
            for events in sessions
            if len(events) >= self.spec.min_window_events
        ]
        results = self._detect_keyed(keyed)
        self._stats.windows_scored += len(keyed)
        return [
            self._deliver(key, events, result)
            for (key, events), result in zip(keyed, results)
            if result.anomalous
        ]

    # -- lifecycle: offline processing ------------------------------------------

    def run(self, records: Iterable[LogRecord]) -> Iterator[ClassifiedAlert]:
        """Process a stream; yields classified alerts as windows close.

        Offline pipelines window the whole stream (sessions close at
        end of input); streaming pipelines push record by record and
        flush at the end, exactly like a :meth:`process_record` loop.
        """
        self._require_trained("run")
        if self.streaming:
            for record in records:
                yield from self.process_record(record)
            yield from self.flush()
            return
        yield from self.run_offline(records)

    def run_offline(
        self, records: Iterable[LogRecord]
    ) -> Iterator[ClassifiedAlert]:
        """The whole-stream windowing path, regardless of streaming mode."""
        self._require_trained("run")
        if self._sharded:
            parsed = self._parse_batched(records, self.batch_size)
            yield from self.score_sessions(_sessions_by_key(parsed).values())
            return
        parsed = self._parse(records)
        try:
            for window in self._window(parsed):
                alert = self._score_window(window)
                if alert is not None:
                    yield alert
        finally:
            # Inference discovers templates too; keep the stat current
            # even when the caller abandons the generator early.
            self._stats.templates_discovered = self.parser.template_count

    def run_all(self, records: Iterable[LogRecord]) -> list[ClassifiedAlert]:
        """Materialized :meth:`run`, for scripts and tests."""
        return list(self.run(records))

    def process(
        self,
        records: Iterable[LogRecord],
        batch_size: "int | None" = _UNSET,
    ) -> list[ClassifiedAlert]:
        """Process a finite micro-batch of records; return its alerts.

        The amortized entry point of both modes.  Offline, the records
        parse in micro-batches (template cache + intra-batch dedup),
        window, and score — identical alerts to :meth:`run` over the
        same records.  Streaming, the batch parses in one amortized
        call and pushes through the sessionizer event by event —
        identical alerts, in identical order, to a
        :meth:`process_record` loop; only sessions the batch *closes*
        are returned (see :meth:`flush`).

        ``batch_size``: unset → ``spec.batch_size``; ``None`` → one
        batch for the whole list; ``0`` → the per-record reference
        path.  Output is identical for every choice.
        """
        self._require_trained("process")
        if not isinstance(records, list):
            records = list(records)
        with self._trace("batch", len(records)) as trace:
            if self.streaming:
                alerts = self._process_streaming(records, batch_size)
            else:
                alerts = self.process_offline(records, batch_size)
            trace.annotate(alerts=len(alerts))
        return alerts

    def process_offline(
        self, records: Iterable[LogRecord], batch_size
    ) -> list[ClassifiedAlert]:
        """The finite-batch windowing path, regardless of streaming mode."""
        self._require_trained("process")
        if batch_size is _UNSET:
            batch_size = self.batch_size
        if self._sharded:
            parsed = self._parse_batched(records, batch_size or 1)
            return self.score_sessions(_sessions_by_key(parsed).values())
        if batch_size == 0:
            # The per-record reference path, unobserved by design: it
            # is what every batched path is compared against.
            parsed = list(self._parse(records))
            self._stats.templates_discovered = self.parser.template_count
        else:
            parsed = self._parse_batched(records, batch_size)
        return self.score_sessions(self._window(parsed))

    def process_batch(
        self,
        records: Iterable[LogRecord],
        batch_size: "int | None" = _UNSET,
    ) -> list[ClassifiedAlert]:
        """Alias of :meth:`process` (the hand-off protocol's spelling)."""
        return self.process(records, batch_size)

    # -- lifecycle: streaming ---------------------------------------------------

    def stream(
        self,
        *,
        session_timeout: float | None = None,
        max_session_events: int | None = None,
        handoff: bool = False,
    ) -> "Pipeline | BatchHandoff":
        """Arm (or re-arm) streaming mode; returns the pipeline.

        Installs the incremental sessionizer so :meth:`process_record`,
        :meth:`process`, and :meth:`flush` operate record-at-a-time
        with idle-timeout session closing.  Knobs default to the
        spec's.  With ``handoff=True`` the return value is instead a
        :class:`~repro.core.streaming.BatchHandoff` over this pipeline
        — the thread-safe boundary object the async ingestion service
        scores through.

        Re-arming replaces the sessionizer: any sessions still open are
        discarded unscored (call :meth:`flush` first to score them) —
        the semantics of constructing a fresh streaming facade, which
        is what the legacy shims do.
        """
        self.sessionizer = StreamingSessionizer(
            session_timeout=session_timeout
            if session_timeout is not None else self.spec.session_timeout,
            max_session_events=max_session_events
            if max_session_events is not None else self.spec.max_session_events,
        )
        return BatchHandoff(self) if handoff else self

    def process_record(self, record: LogRecord) -> list[ClassifiedAlert]:
        """Feed one record; return alerts for sessions it closed."""
        self._require_trained("process_record")
        if not self.streaming:
            raise RuntimeError(
                "process_record() needs streaming mode; set spec.streaming "
                "or call stream() first"
            )
        with self._trace("record", 1) as trace:
            with self._stage("parse") as stage:
                parsed = self.parser.parse_record(record)
                stage.annotate(records=1, template_id=parsed.template_id)
            self._stats.records_parsed += 1
            self._stats.templates_discovered = self.parser.template_count
            alerts = self._score_closed(self._sessionize((parsed,)))
            trace.annotate(alerts=len(alerts))
        return alerts

    def _process_streaming(
        self, records: list[LogRecord], batch_size
    ) -> list[ClassifiedAlert]:
        if self._sharded:
            size = self.batch_size if batch_size is _UNSET else (batch_size or 1)
        else:
            # Single instance: unset and 0 both mean one amortized batch.
            size = None if batch_size is _UNSET else (batch_size or None)
        parsed = self._parse_batched(records, size)
        return self._score_closed(self._sessionize(parsed))

    def flush(self) -> list[ClassifiedAlert]:
        """Close and score every open streaming session (shutdown)."""
        if self.sessionizer is None:
            return []
        closed = self.sessionizer.flush()
        with self._trace("flush", 0) as trace:
            trace.annotate(sessions=len(closed))
            alerts = self._score_closed(closed)
            trace.annotate(alerts=len(alerts))
        return alerts

    def _score_closed(
        self, closed: list[list[ParsedLog]]
    ) -> list[ClassifiedAlert]:
        """Alerts for sessions a push (or the shutdown flush) closed;
        an empty list scores nothing — no fan-out, no detect stage."""
        return self.score_sessions(closed) if closed else []

    # -- lifecycle: ingestion ---------------------------------------------------

    def serve(self, sources=None, *, checkpoint=None, on_alert=None,
              metrics_port: int | None = None):
        """An :class:`~repro.ingest.service.IngestService` over this
        pipeline: ``await pipeline.serve().run()`` tails the spec's (or
        the given) live sources through the async front-end — watermark
        merge, micro-batching, credit-based back-pressure — scoring
        through this pipeline's streaming path.

        ``sources`` defaults to ``spec.sources`` built through the
        registry; ``checkpoint`` (a path or a
        :class:`~repro.ingest.checkpoint.CheckpointStore`) defaults to
        ``spec.checkpoint``.  ``metrics_port`` starts the telemetry
        HTTP endpoint for the service's lifetime (enabling telemetry
        if the spec ran dark); the spec's ``[telemetry]`` /
        ``[autoscale]`` tables wire themselves in automatically.
        """
        from repro.ingest.checkpoint import CheckpointStore
        from repro.ingest.service import IngestService

        if not self.streaming:
            raise RuntimeError(
                "serve() needs streaming mode; set spec.streaming or call "
                "stream() first"
            )
        if metrics_port is not None:
            self.start_metrics_server(metrics_port)
        if sources is None:
            sources = self.spec.build_sources()
        store = checkpoint if checkpoint is not None else self.spec.checkpoint
        if isinstance(store, (str, PathLike)):
            store = CheckpointStore(store)
        return IngestService(
            sources, self,
            config=self.spec.ingest_config(),
            checkpoint=store,
            on_alert=on_alert,
            telemetry=self._telemetry,
            autoscale=self.autoscaler,
            tracer=self.tracer,
            health=self._health,
            probe_scope=self._probe_scope,
        )

    # -- measurement ------------------------------------------------------------

    def consistency_with(
        self,
        reference_verdicts: dict[str, bool],
        records: Iterable[LogRecord],
    ) -> float:
        """Fraction of sessions where this pipeline agrees with a reference.

        ``reference_verdicts`` maps session id → anomalous from a
        single-instance run over the same records.  Measurement is
        strictly read-only: records parse through a *snapshot* of the
        parser (the live templates learn nothing from the probe),
        detection uses the side-effect-free ``detect``, and nothing is
        reported, numbered, classified, or delivered.
        """
        self._require_trained("consistency_with")
        parser = copy.deepcopy(self.parser)
        parsed = parse_in_batches(parser, records, self.batch_size or None)
        keyed = [
            (key, events)
            for key, events in _sessions_by_key(parsed).items()
            if len(events) >= self.spec.min_window_events
        ]
        results = self._detect_keyed(keyed)
        flagged = {
            key
            for (key, _), result in zip(keyed, results)
            if result.anomalous
        }
        if not reference_verdicts:
            return 1.0
        agreements = sum(
            1
            for session_id, verdict in reference_verdicts.items()
            if (session_id in flagged) == verdict
        )
        return agreements / len(reference_verdicts)
