"""X10 — async concurrent ingestion vs. sequential source draining.

PR 2 made shard *execution* concurrent; this bench measures the other
end of the pipe: reading the sources themselves.  The paper's platform
connects 24 live sources to one MoniLog; our model is N tailed files
ingested through the asyncio front-end (:mod:`repro.ingest`).  Two
claims are checked, not just reported:

* throughput — tailing 4 sources concurrently through one
  :class:`IngestService` sustains at least 2x the throughput of
  draining the same sources one after another (the synchronous
  caller-loop model this subsystem replaces);
* exactness — the live path changes wall-clock only: the alerts it
  produces are byte-identical, in identical order, to the offline
  ``LogStream``/``interleave`` path over the same corpus, and no
  record arrives beyond the merge's lateness budget (so the watermark
  reorder is exact, not best-effort).

What the speedup measures: each tail's chunk reads carry a fixed
latency modelling remote/network storage (the round-trip any real
collector pays per read — the files themselves sit on a local tmpfs).
Sequential draining pays those round-trips source after source;
the async front-end overlaps them across all four tails, which is
exactly the win concurrent ingestion buys on a single-core build.
The concurrency witness (per-source first/last activity spans) pins
the mechanism: all four sources must be mid-read simultaneously.
"""

import asyncio
import copy
import os
import time

from conftest import once
from repro.api import Pipeline, PipelineSpec
from repro.eval import Table
from repro.ingest import FileTailSource, IngestService
from repro.ingest.service import IngestConfig
from repro.logs.formats import read_log_lines, render_line
from repro.logs.record import LogRecord, Severity
from repro.logs.sources import ReplaySource
from repro.logs.stream import LogStream

_SMOKE = bool(os.environ.get("MONILOG_BENCH_SMOKE"))
_SOURCES = 4
_SESSIONS = 12 if _SMOKE else 40        # per source
_HOP_S = 0.006 if _SMOKE else 0.008     # per-chunk storage round-trip
_CHUNK = 1024 if _SMOKE else 2048       # bytes per (latency-charged) read
_MIN_SPEEDUP = 2.0
_SESSION_TIMEOUT = 30.0
_GAP_S = 40.0      # event-time gap between a source's sessions (> timeout)
_LATENESS_S = 400.0  # merge budget: ~5 chunks of event time at _CHUNK


def _write_corpora(root) -> tuple[list, dict[str, str]]:
    """History records plus one live log file per source.

    Each source emits bursty sessions (idle gaps close them via the
    session timeout); ~every third session takes an error detour so
    the keyword detector has something to alert on.  Timestamps are
    globally distinct and each source's are strictly increasing, so
    the offline interleave order is unique — the precondition for the
    byte-identical-alerts assertion.
    """
    def burst(source, session, start, anomalous):
        records = []
        clock = start
        request = session * 1000 + 17
        messages = (
            [f"request {request} accepted"]
            + [f"request {request} fetched 4096 bytes"] * 3
            + (["backend timeout error detected",
                "retrying request now please"] * 2 if anomalous else [])
            + [f"request {request} completed fine"]
        )
        for sequence, message in enumerate(messages):
            severity = (Severity.ERROR if "error" in message
                        else Severity.INFO)
            records.append(LogRecord(
                timestamp=round(clock, 3), source=source,
                severity=severity, message=message, sequence=sequence,
            ))
            clock += 0.040
        return records

    # No hyphens in source names: the dashed header layout uses " - "
    # as its field separator, so a hyphenated name would not round-trip
    # through render_line -> read_log_lines.
    names = [f"svc{index}" for index in range(_SOURCES)]
    history = []
    for shift, name in enumerate(names):
        for session in range(6):
            history.extend(burst(name, session,
                                 session * _GAP_S + shift * 0.010, False))
    history.sort(key=lambda record: record.timestamp)

    paths = {}
    for shift, name in enumerate(names):
        records = []
        for session in range(_SESSIONS):
            records.extend(burst(
                name, 100 + session,
                50_000.0 + session * _GAP_S + shift * 0.010,
                anomalous=session % 3 == 2,
            ))
        path = os.path.join(root, f"{name}.log")
        paths[name] = path
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(render_line(record) + "\n")
    return history, paths


class _RemoteStorageTail(FileTailSource):
    """A tail whose chunk reads pay a remote-storage round-trip."""

    def __init__(self, *args, hop: float, spans: dict, **kwargs):
        super().__init__(*args, **kwargs)
        self._hop = hop
        self._spans = spans

    async def _read_chunk(self, handle) -> bytes:
        await asyncio.sleep(self._hop)
        now = time.perf_counter()
        first, _ = self._spans.get(self.name, (now, now))
        self._spans[self.name] = (first, now)
        return handle.read(self.chunk_size)


def _trained_streaming(base: Pipeline) -> Pipeline:
    return copy.deepcopy(base).stream(session_timeout=_SESSION_TIMEOUT)


def _ingest_config() -> IngestConfig:
    # Lateness covers the cross-source arrival skew of lockstep chunk
    # reads with lots of margin, so the watermark merge reproduces
    # exact timestamp order (asserted via merger.late == 0).
    return IngestConfig(batch_size=200, max_batch_age=0.5,
                        lateness=_LATENESS_S, credits=8192)


def _alert_key(alert):
    return (alert.report.report_id, alert.report.session_id,
            alert.report.events, alert.pool, alert.criticality)


def bench_x10_concurrent_tailing(benchmark, emit, snapshot,
                                 tmp_path_factory):
    root = tmp_path_factory.mktemp("x10")
    history, paths = _write_corpora(root)

    base = Pipeline(PipelineSpec(detector="keyword"))
    base.fit(history)

    # Reference: the offline LogStream path over the same files.
    replay = []
    for name, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            replay.append(ReplaySource(name, list(read_log_lines(handle))))
    offline = _trained_streaming(base)
    expected = offline.process(list(LogStream(replay))) + offline.flush()
    assert expected, "the injected error sessions must produce alerts"

    # Sequential source draining: one source at a time, same storage
    # latency — the synchronous caller-loop model being replaced.
    sequential_pipeline = _trained_streaming(base)
    start = time.perf_counter()
    for name, path in paths.items():
        source = _RemoteStorageTail(path, name=name, hop=_HOP_S, spans={},
                                    follow=False, chunk_size=_CHUNK)
        service = IngestService([source], sequential_pipeline,
                                config=_ingest_config())
        asyncio.run(service.run())
    sequential_s = time.perf_counter() - start

    # Concurrent tailing: all sources through one IngestService.
    spans: dict = {}
    live = _trained_streaming(base)
    concurrent = IngestService(
        [_RemoteStorageTail(path, name=name, hop=_HOP_S, spans=spans,
                            follow=False, chunk_size=_CHUNK)
         for name, path in paths.items()],
        live,
        config=_ingest_config(),
    )
    start = time.perf_counter()
    actual = once(benchmark, lambda: asyncio.run(concurrent.run()))
    concurrent_s = time.perf_counter() - start

    assert [_alert_key(alert) for alert in actual] == \
        [_alert_key(alert) for alert in expected], \
        "live ingestion must be byte-identical to the offline LogStream path"
    assert concurrent.merger.late == 0, \
        "the lateness budget must cover the tails' arrival skew"
    total = sum(stats for stats in concurrent.stats().records_in.values())
    assert total == sum(len(source._records) for source in replay)

    # Concurrency witness: every source's read span must overlap every
    # other's, or the front-end silently serialized.
    assert len(spans) == _SOURCES
    latest_first = max(first for first, _ in spans.values())
    earliest_last = min(last for _, last in spans.values())
    assert latest_first < earliest_last, (
        "all sources must be mid-read simultaneously; spans were "
        f"{spans}"
    )

    speedup = sequential_s / concurrent_s
    table = Table(
        f"X10 — {_SOURCES}-source ingestion of {total:,} records "
        f"({_HOP_S * 1000:.0f} ms storage hop per {_CHUNK} B chunk)",
        ["ingestion", "seconds", "records/s", "speedup"],
    )
    table.add_row("sequential drain", f"{sequential_s:.3f}",
                  f"{total / sequential_s:,.0f}", "1.00x")
    table.add_row("concurrent tail", f"{concurrent_s:.3f}",
                  f"{total / concurrent_s:,.0f}", f"{speedup:.2f}x")
    emit()
    emit(table.render())
    emit(f"\nalerts: {len(actual)} (identical to offline), "
         f"late records: {concurrent.merger.late}, "
         f"credit waits: {concurrent.gate.waits}")
    snapshot("x10_async_ingestion", {
        "sources": _SOURCES,
        "records": total,
        "sequential_seconds": round(sequential_s, 4),
        "concurrent_seconds": round(concurrent_s, 4),
        "speedup": round(speedup, 3),
        "alerts": len(actual),
        "late_records": concurrent.merger.late,
    })
    assert speedup >= _MIN_SPEEDUP, (
        f"concurrent tailing must sustain >= {_MIN_SPEEDUP}x sequential "
        f"draining at {_SOURCES} sources, got {speedup:.2f}x"
    )
