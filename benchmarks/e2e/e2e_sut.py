"""One pass of one workload in a fresh process (the system under test).

``python e2e_sut.py JOB.json`` runs the job the runner wrote and writes
a JSON result to ``job["result"]``.  Roles:

* ``timed``  — the untraced pass every end-to-end metric comes from;
* ``traced`` — the same pass with :mod:`e2e_tracer` shims installed;
* ``setup``  — set-up only (an extra ``setup_s`` sample), then exit;
* ``oracle`` — the serial, per-record, uninstrumented pipeline whose
  alerts every other pass must reproduce.

The untraced path calls only the narrow public surface
(``read_log_lines``, ``SessionKeyExtractor.assign``,
``Pipeline.from_spec/fit/process/serve/close``, ``Gateway``,
``FileTailSource``, ``SocketSource`` and the alert fields in
:func:`alert_key`), so a refactor behind that surface cannot break the
benchmark it is judged by.  ``repro`` is imported inside the functions:
the import is part of ``setup_s``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import resource
import sys
import time

from e2e_tracer import NullTracer, Tracer

_CALIBRATION_SECONDS = 0.2


def calibrate(seconds: float = _CALIBRATION_SECONDS) -> float:
    """Thousands of fixed pure-Python loop iterations per second.

    Recorded beside every result so raw rates from different machines
    (or a throttled run of the same machine) can be told apart.
    """
    done = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        total = 0
        for value in range(1000):
            total += value * value % 7
        done += 1
    return done / (time.perf_counter() - started)


def alert_key(alert, tenant: str = "") -> list:
    """What two runs must agree on for an alert to count as the same.

    ``(report_id, session_id, pool, criticality)`` plus every event's
    ``(source, timestamp, template_id)`` — the events are digested so a
    thousand-event window costs forty bytes in the result file.
    """
    report = alert.report
    events = [(event.source, event.timestamp, event.template_id)
              for event in report.events]
    digest = hashlib.sha1(repr(events).encode("utf-8")).hexdigest()
    return [tenant, report.report_id, report.session_id, alert.pool,
            alert.criticality, len(events), digest]


def peak_rss_mb() -> float:
    """This process's own peak resident set, in MiB.

    ``VmHWM`` belongs to the address space created at exec.  ``ru_maxrss``
    does not: Linux carries the forking parent's high-water mark across
    exec, so a child of a large runner would report the runner's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _render(sink, alert, tenant: str = "") -> None:
    sink.write(f"[{alert.criticality:>8s}] tenant={tenant} pool={alert.pool} "
               f"{alert.report.summary()}\n")


def _read_records(path: str, tracer) -> list:
    """A log file to sessionized records, as ``repro pipeline`` does."""
    from repro.logs.formats import read_log_lines
    from repro.logs.sessions import SessionKeyExtractor

    with open(path, encoding="utf-8") as handle:
        with tracer.span("logs.read"):
            records = list(read_log_lines(handle))
    with tracer.span("logs.session_assign"):
        return list(SessionKeyExtractor().assign(records))


# -- shims and counters (traced pass only) ------------------------------------


def install_pipeline_shims(tracer, pipeline) -> None:
    """Time the layers of one pipeline from outside."""
    tracer.wrap(pipeline, "fit", "api.fit")
    tracer.wrap(pipeline, "process", "api.process")
    tracer.wrap(pipeline, "flush", "api.flush")
    parser = getattr(pipeline, "parser", None)
    tracer.wrap(parser, "parse_batch", "parsing.parse")
    tracer.wrap(parser, "parse_record", "parsing.parse")
    shard_parsers = list(getattr(parser, "parsers", None) or [])
    for shard in shard_parsers:
        tracer.wrap(shard, "parse_batch", "parsing.shard_parse", worker=True)
        tracer.wrap(shard, "parse_record", "parsing.shard_parse",
                    worker=True)
    maskers = {id(masker): masker
               for masker in (getattr(owner, "masker", None)
                              for owner in shard_parsers or [parser])
               if masker is not None}
    for masker in list(maskers.values()) or [None]:
        tracer.wrap(masker, "mask", "parsing.mask")
    tracer.wrap(getattr(pipeline, "executor", None), "map",
                "core.executor_map", adopt=True)
    sessionizer = getattr(pipeline, "sessionizer", None)
    if sessionizer is not None:
        tracer.wrap(sessionizer, "push", "core.sessionize",
                    count=("core.sessions_closed", len))
        tracer.wrap(sessionizer, "flush", "core.sessionize",
                    count=("core.sessions_closed", len))
    for detector in getattr(pipeline, "detectors", None) or []:
        tracer.wrap(detector, "detect", "detection.detect", worker=True)
        tracer.wrap(detector, "fit", "detection.fit")
    tracer.wrap(getattr(pipeline, "classifier", None), "classify",
                "classify.classify")
    tracer.wrap(getattr(pipeline, "pools", None), "deliver",
                "classify.classify")


def _attr(owner, *path, default=None):
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return default
    return owner() if callable(owner) else owner


def pipeline_counters(pipelines: list) -> dict:
    """Public counters of the parsing / detection layers, summed."""
    out = {"line_hits": 0, "line_misses": 0, "template_hits": 0,
           "template_misses": 0, "invalidations": 0, "templates": 0,
           "records_parsed": 0, "anomalous": 0, "alerts": 0}
    loads: list[int] = []
    caches_seen = False
    for pipeline in pipelines:
        parser = getattr(pipeline, "parser", None)
        for owner in list(getattr(parser, "parsers", None) or [parser]):
            cache = getattr(owner, "cache", None)
            if cache is None:
                continue
            caches_seen = True
            out["line_hits"] += _attr(cache, "line_hits", default=0)
            out["line_misses"] += _attr(cache, "line_misses", default=0)
            out["template_hits"] += _attr(cache, "hits", default=0)
            out["template_misses"] += _attr(cache, "misses", default=0)
            out["invalidations"] += _attr(cache, "invalidations", default=0)
        out["templates"] += _attr(parser, "template_count", default=0)
        loads.extend(_attr(parser, "shard_loads", default=[]) or [])
        stats = _attr(pipeline, "stats")
        out["records_parsed"] += _attr(stats, "records_parsed", default=0)
        out["anomalous"] += _attr(stats, "anomalies_detected", default=0)
        out["alerts"] += _attr(stats, "alerts_classified", default=0)
    out["caches_seen"] = caches_seen
    out["shard_loads"] = loads
    return out


def ingest_counters(services: dict) -> dict:
    """``IngestService.stats()`` + hand-off + source counters per name."""
    out = {}
    for name, service in services.items():
        stats = service.stats()
        handoff = getattr(service, "handoff", None)
        out[name] = {
            "records_in": sum(stats.records_in.values()),
            "records_processed": stats.records_processed,
            "batches": stats.batches,
            "size_flushes": stats.size_flushes,
            "age_flushes": stats.age_flushes,
            "late_records": stats.late_records,
            "credit_waits": stats.credit_waits,
            "credit_wait_s": stats.credit_wait_seconds,
            "forced_drains": stats.forced_drains,
            "frame_errors": sum(getattr(source, "frame_errors", 0)
                                for source in service.sources),
            "handoff_busy_s": _attr(handoff, "busy_seconds"),
            "handoff_batches": _attr(handoff, "batches"),
            "handoff_peak_depth": _attr(handoff, "peak_depth"),
        }
    return out


# -- the three kinds of pass ---------------------------------------------------


class _Pass:
    """What every kind of pass records; written out as the result."""

    def __init__(self, job: dict, tracer) -> None:
        self.job = job
        self.tracer = tracer
        self.traced = isinstance(tracer, Tracer)
        self.result: dict = {}
        self._pipelines: list = []
        self._setup_started = time.perf_counter()

    def watch(self, pipelines: list) -> None:
        """The pipelines of this pass; a traced pass shims them."""
        self._pipelines = pipelines
        if self.traced:
            for pipeline in pipelines:
                install_pipeline_shims(self.tracer, pipeline)

    def setup_done(self) -> bool:
        """Close the set-up window; True when the pass should go on."""
        self.result["setup_s"] = time.perf_counter() - self._setup_started
        if self.traced:
            self.result["setup_trace"] = self.tracer.report()
            self.result["counters_before"] = pipeline_counters(self._pipelines)
            self.tracer.reset()
        return self.job["role"] != "setup"

    def timed(self, started: float, cpu_started: float, lines: int,
              fired: list) -> None:
        """Close the timed window.  ``fired``: ``(monotonic, alert,
        tenant)`` per alert, in delivery order."""
        ended = time.monotonic()
        result = self.result
        result["cpu_s"] = time.process_time() - cpu_started
        result["wall_s"] = ended - started
        result["started"] = started
        result["rss_mb"] = peak_rss_mb()
        result["lines"] = lines
        result["alerts"] = [alert_key(alert, tenant)
                            for _, alert, tenant in fired]
        result["fired_at"] = [when for when, _, _ in fired]
        result["last_event_ts"] = [
            max(event.timestamp for event in alert.report.events)
            for _, alert, _ in fired]
        if self.traced:
            result["trace"] = self.tracer.report()
            result["missing"] = sorted(set(self.tracer.missing))
            result["counters"] = pipeline_counters(self._pipelines)


def run_batch(run: _Pass) -> None:
    """``repro pipeline``: open → read → assign → process → render."""
    from repro.api import Pipeline

    job, tracer = run.job, run.tracer
    with Pipeline.from_spec(job["spec"]) as pipeline, \
            open(os.devnull, "w", encoding="utf-8") as sink:
        run.watch([pipeline])
        pipeline.fit(_read_records(job["history"], tracer))
        if not run.setup_done():
            return
        cpu_started = time.process_time()
        started = time.monotonic()
        live = _read_records(job["live"], tracer)
        alerts = pipeline.process(live)
        with tracer.span("emit.render"):
            for alert in alerts:
                _render(sink, alert)
        # A batch hands every alert over at once, when it is complete.
        done = time.monotonic()
        run.timed(started, cpu_started, len(live),
                  [(done, alert, "") for alert in alerts])
        run.result["lines_processed"] = len(live)


async def _drive(service, samples: list | None, processed) -> None:
    """``service.run()``, sampling the processed count every 100 ms."""
    async def sample() -> None:
        while True:
            samples.append((time.monotonic(), processed()))
            await asyncio.sleep(0.1)

    sampler = (asyncio.get_running_loop().create_task(sample())
               if samples is not None else None)
    try:
        await service.run()
    finally:
        if sampler is not None:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
            samples.append((time.monotonic(), processed()))


def _serve(run: _Pass, service, services: dict, fired: list) -> None:
    """Finish set-up and run ``service`` (the ingest services by name)."""
    if run.traced:
        for ingest_service in services.values():
            handoff = getattr(ingest_service, "handoff", None)
            run.tracer.wrap(handoff, "submit", "core.handoff")
            run.tracer.wrap(handoff, "flush", "core.handoff")
    if not run.setup_done():
        return

    def processed() -> int:
        return sum(ingest_service.stats().records_processed
                   for ingest_service in services.values())

    samples: list | None = [] if run.traced else None
    cpu_started = time.process_time()
    started = time.monotonic()
    asyncio.run(_drive(service, samples, processed))
    run.timed(started, cpu_started, run.job["lines"], fired)
    run.result["ingest"] = ingest_counters(services)
    run.result["lines_processed"] = processed()
    if run.traced:
        run.result["processed_samples"] = samples


def run_tail(run: _Pass) -> None:
    """``repro tail --once``: drain pre-written files through
    ``Pipeline.serve``."""
    from repro.api import Pipeline
    from repro.ingest import FileTailSource

    job, tracer = run.job, run.tracer
    fired: list = []
    with Pipeline.from_spec(job["spec"]) as pipeline, \
            open(os.devnull, "w", encoding="utf-8") as sink:
        run.watch([pipeline])
        pipeline.fit(_read_records(job["history"], tracer))

        def on_alert(alert) -> None:
            with tracer.span("emit.render"):
                _render(sink, alert)
            fired.append((time.monotonic(), alert, ""))

        sources = [FileTailSource(path, name=name, follow=False)
                   for name, path in sorted(job["sources"].items())]
        service = pipeline.serve(sources, on_alert=on_alert)
        _serve(run, service, {"": service}, fired)


def run_gateway(run: _Pass) -> None:
    """``repro serve``: a two-tenant gateway fed over framed sockets."""
    from repro.gateway import Gateway
    from repro.ingest import SocketSource

    job, tracer = run.job, run.tracer
    fired: list = []
    with Gateway.from_spec(job["spec"]) as gateway, \
            open(os.devnull, "w", encoding="utf-8") as sink:
        run.watch([gateway.pipeline(name) for name in gateway.tenants])
        gateway.fit(_read_records(job["history"], tracer))

        def on_alert(tagged) -> None:
            with tracer.span("emit.render"):
                _render(sink, tagged.alert, tagged.tenant)
            fired.append((time.monotonic(), tagged.alert, tagged.tenant))

        # A set-up-only pass has no generator to dial: its sources are
        # built (construction is set-up) but never run.
        ports = job.get("ports") or dict.fromkeys(gateway.tenants, 9)
        sources = {
            name: [SocketSource("127.0.0.1", ports[name], name=name,
                                framing="framed", tenant=name,
                                reconnect=False, max_connect_attempts=50)]
            for name in gateway.tenants
        }
        service = gateway.serve(sources=sources, on_alert=on_alert)
        _serve(run, service, service.services, fired)


# -- the oracle ----------------------------------------------------------------


def run_oracle(job: dict) -> dict:
    """The serial, per-record, uninstrumented reference alerts."""
    from repro.api import Pipeline, PipelineSpec

    tracer = NullTracer()
    history = _read_records(job["history"], tracer)
    keys: list = []
    if job["kind"] == "batch":
        with Pipeline.from_spec(job["spec"]) as pipeline:
            pipeline.fit(history)
            live = _read_records(job["live"], tracer)
            keys = [alert_key(alert)
                    for alert in pipeline.process(live, batch_size=0)]
    elif job["kind"] == "tail":
        from repro.logs.formats import read_log_lines

        merged = []
        for path in job["sources"].values():
            with open(path, encoding="utf-8") as handle:
                merged.extend(read_log_lines(handle))
        # Timestamps are distinct by construction, so sorting *is* the
        # cross-source interleave.
        merged.sort(key=lambda record: record.timestamp)
        spec = dict(job["spec"], executor="serial")
        with Pipeline.from_spec(spec) as pipeline:
            pipeline.fit(history)
            keys = [alert_key(alert) for alert in pipeline.run_all(merged)]
    else:
        base = PipelineSpec.from_dict(job["spec"])
        for name in base.tenants:
            with open(job["records"][name], "rb") as handle:
                records = pickle.load(handle)    # written by this runner
            spec = base.tenant_spec(name).replace(streaming=True)
            with Pipeline.from_spec(spec) as pipeline:
                pipeline.fit(history)
                keys.extend(alert_key(alert, name)
                            for alert in pipeline.run_all(records))
    return {"alerts": keys}


_RUNNERS = {"batch": run_batch, "tail": run_tail, "gateway": run_gateway}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    if job.get("cpu") is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {job["cpu"]})
    sys.path.insert(0, job["src"])
    if job["role"] == "oracle":
        result = run_oracle(job)
    else:
        calibration = calibrate()
        run = _Pass(job, Tracer() if job["role"] == "traced"
                    else NullTracer())
        _RUNNERS[job["kind"]](run)
        result = run.result
        result["calibration_kops_per_s"] = calibration
    temporary = job["result"] + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(temporary, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
