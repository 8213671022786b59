"""The pipeline's one instrumentation seam.

Up to three observers watch each pipeline stage: the catalog's latency
histograms (:class:`PipelineTelemetry`), the tracer's spans, and the
profiler's ``(tenant, stage)`` markers.  ``Pipeline`` writes each
stage's work once, inside ``with self._stage("parse") as stage:``, and
:class:`StageObservers` decides what that costs: nothing attached, one
shared no-op object (no allocation, no clock read); otherwise one
handle fanning out to whatever is attached.  Per-stage policy — which
stages feed a histogram (:meth:`PipelineTelemetry.observe_stage`),
which open a span on which trace kind (:meth:`_Stage.__enter__`) —
lives here, not at the call sites.  Observers only read clocks and
copy annotations, so alerts are byte-identical whatever is attached
(``tests/test_telemetry_neutrality.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.instrument import PipelineTelemetry
from repro.telemetry.profiling import SamplingProfiler, pop_stage, push_stage
from repro.telemetry.tracing import TraceContext, Tracer, TraceStore


class _DarkStage:
    """The stage (and root-trace) handle of an unobserved pipeline."""

    __slots__ = ()

    def __enter__(self) -> "_DarkStage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **attributes: object) -> None:
        pass


_DARK = _DarkStage()


def _dark_stage(name: str) -> _DarkStage:
    return _DARK


class _Stage:
    """One observed stage: fans out to the observers attached at entry."""

    __slots__ = ("_observers", "_name", "_attributes", "_marked",
                 "_telemetry", "_start", "_span")

    def __init__(self, observers: "StageObservers", name: str) -> None:
        self._observers = observers
        self._name = name
        self._attributes: dict = {}

    def annotate(self, **attributes: object) -> None:
        self._attributes.update(attributes)

    def __enter__(self) -> "_Stage":
        observers = self._observers
        name = self._name
        self._marked = observers.profiler is not None
        if self._marked:
            push_stage(observers.tenant, name)
        telemetry = self._telemetry = observers.telemetry
        if telemetry is not None:
            self._start = telemetry.clock()
        context = observers.context
        # Sessionize spans on record-granular traces only: there the
        # per-record closed/open counts are the signal; a batch trace's
        # push loop is already bracketed by its parse and detect spans.
        if context is not None and (name != "sessionize"
                                    or context.kind == "record"):
            self._span = context.span(name).__enter__()
        else:
            self._span = None
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # Span and marker unwind even when the stage body raised; a
        # failed stage is not a latency sample.
        try:
            if self._span is not None:
                self._span.annotate(**self._attributes)
                self._span.__exit__(exc_type, exc, traceback)
            telemetry = self._telemetry
            if telemetry is not None and exc_type is None:
                telemetry.observe_stage(
                    self._name, telemetry.clock() - self._start,
                    self._attributes)
        finally:
            if self._marked:
                pop_stage()


class StageObservers:
    """Owns a pipeline's observers and hands it one handle per stage.

    ``config`` is the ``[telemetry]`` table (``None`` builds nothing);
    an injected ``tracer`` / ``profiler`` overrides the config-built
    one and stays its owner's to stop.  ``tenant`` names the stage
    markers (an injected tracer's tenant wins).  ``stage`` is
    re-pointed when an observer attaches, not re-decided per call.
    """

    def __init__(self, config: TelemetryConfig | None, *, registry=None,
                 tracer: Tracer | None = None,
                 profiler: SamplingProfiler | None = None,
                 tenant: str) -> None:
        self.telemetry = (PipelineTelemetry(config, registry=registry)
                          if config is not None else None)
        self.tenant = tracer.tenant if tracer is not None else tenant
        if tracer is None and config is not None and config.tracing:
            tracer = Tracer(TraceStore(config.trace_buffer),
                            sample_rate=config.trace_sample_rate)
        self.tracer = tracer
        if tracer is not None and self.telemetry is not None:
            self.telemetry.attach_tracer(tracer)
        self._owns_profiler = (profiler is None and config is not None
                               and config.profile)
        if self._owns_profiler:
            profiler = SamplingProfiler(hz=config.profile_hz,
                                        max_stacks=config.profile_stacks)
            profiler.attach(self.telemetry.registry)
            profiler.start()
        self.profiler = profiler
        #: The sampled trace of the processing call in flight, if any.
        self.context: TraceContext | None = None
        self._repoint()

    def _repoint(self) -> None:
        dark = (self.telemetry is None and self.tracer is None
                and self.profiler is None)
        self.stage = _dark_stage if dark else partial(_Stage, self)

    def enable_telemetry(self) -> PipelineTelemetry:
        """The metrics surface, created on a late opt-in; stages are
        observed from the next one on."""
        if self.telemetry is None:
            self.telemetry = PipelineTelemetry()
            self._repoint()
        return self.telemetry

    def trace(self, kind: str, **attributes: object):
        """Root (or adopt) the sampled trace for one processing call: a
        context manager whose ``annotate`` lands on the root span and
        inside which stages open child spans."""
        return (self._rooted(kind, attributes) if self.tracer is not None
                else _DARK)

    @contextmanager
    def _rooted(self, kind: str, attributes: dict):
        context = self.context = self.tracer.begin(kind, **attributes)
        try:
            # None: the tracer did not sample this call.
            yield context if context is not None else _DARK
        finally:
            self.context = None
            self.tracer.finish(context)

    @property
    def trace_store(self) -> TraceStore | None:
        """The span ring behind ``/traces`` (``None`` with tracing off)."""
        return self.tracer.store if self.tracer is not None else None

    def record_alert(self, alert, predicted_pool: str) -> None:
        """Provenance for every alert, in a sampled trace or not."""
        if self.tracer is not None:
            context = self.context
            self.tracer.record_alert(
                alert, predicted_pool=predicted_pool,
                trace_id=context.trace_id if context is not None else None)

    def close(self) -> None:
        """Stop the sampler thread this seam started (idempotent)."""
        if self._owns_profiler:
            self.profiler.stop()
