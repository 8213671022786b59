"""X8 — batched fast path vs. per-record through the MoniLog pipeline.

The paper's real-time requirement means the pipeline must keep up with
cloud-scale traffic; this bench quantifies the batched fast path
(two-tier template cache + ``parse_batch`` / ``Pipeline.process``) against
the per-record baseline on a repetitive 50k-line synthetic stream —
the regime the cache is built for, since real log traffic re-emits a
small statement vocabulary and whole lines verbatim (heartbeats,
per-entity lifecycles).

Two claims are checked, not just reported:

* throughput — the batched+cached parse path is at least 2× the
  per-record path on the repetitive stream;
* parity — both paths produce byte-identical events and byte-identical
  classified alerts, in the same order.
"""

import os
import random
import time

from conftest import once
from repro.api.pipeline import Pipeline
from repro.detection.keyword import KeywordMatchDetector
from repro.eval import Table
from repro.logs.record import LogRecord, Severity
from repro.parsing import DrainParser, default_masker

_SMOKE = bool(os.environ.get("MONILOG_BENCH_SMOKE"))
_LINES = 6_000 if _SMOKE else 50_000
_MIN_SPEEDUP = 1.2 if _SMOKE else 2.0


def _repetitive_stream(lines: int, seed: int = 7) -> list[LogRecord]:
    """An entity-lifecycle stream, repetitive the way real logs are.

    Each session handles one block id that recurs across its lines;
    the receive/acknowledge lines repeat verbatim once per replica
    (HDFS writes three copies), the serve line repeats once per read
    (blocks are written once, read many times), nodes and sizes come
    from small pools (a cluster has few nodes and quantized transfer
    sizes), and heartbeats repeat verbatim across sessions.  About 2%
    of sessions are anomalous: the transfer hits an exception and
    retries.
    """
    rng = random.Random(seed)
    nodes = [f"10.0.{index // 8}.{index % 8}" for index in range(32)]
    sizes = [str(rng.randrange(1, 9) * 1024) for _ in range(24)]
    records: list[LogRecord] = []
    session = 0
    while len(records) < lines:
        session_id = f"sx8-{session}"
        session += 1
        block = f"blk_{rng.randrange(10 ** 9)}"
        node = rng.choice(nodes)
        size = rng.choice(sizes)
        replicas = 3
        body = (
            [(Severity.INFO, f"Receiving block {block} src {node} dest {node}")]
            * replicas
            + [(Severity.INFO,
                f"Received block {block} of size {size} from {node}")]
            * replicas
            + [(Severity.INFO,
                f"PacketResponder 1 for block {block} terminating")]
            * replicas
            + [(Severity.INFO, f"Verification succeeded for {block}")] * 2
            + [(Severity.INFO, f"Served block {block} to {node}")]
            * rng.randrange(2, 6)
            + [
                (Severity.INFO, f"heartbeat from {node} ok"),
                (Severity.INFO,
                 f"Deleting block {block} file /data/current/{block}"),
            ]
        )
        anomalous = rng.random() < 0.02
        if anomalous:
            retry = [
                (Severity.ERROR, f"Exception in receiveBlock for block {block}"),
                (Severity.WARNING, f"Retrying transfer of block {block} to {node}"),
            ]
            body = body[:2] + retry * 4 + body[2:]
        for sequence, (severity, message) in enumerate(body):
            labels = frozenset(("anomaly",)) if anomalous else frozenset()
            records.append(LogRecord(
                timestamp=float(len(records)),
                source="hdfs",
                severity=severity,
                message=message,
                session_id=session_id,
                sequence=sequence,
                labels=labels,
            ))
    return records[:lines]


def bench_x8_parser_fast_path(benchmark, emit, snapshot):
    records = _repetitive_stream(_LINES)

    baseline = DrainParser(masker=default_masker(), cache_size=0)
    start = time.perf_counter()
    expected = [baseline.parse_record(record) for record in records]
    per_record_s = time.perf_counter() - start

    fast = DrainParser(masker=default_masker())
    start = time.perf_counter()
    actual = once(benchmark, lambda: fast.parse_batch(records))
    batched_s = time.perf_counter() - start

    assert actual == expected, "batched parse must be byte-identical"
    speedup = per_record_s / batched_s
    cache = fast.cache
    hit_rate = cache.total_hits / len(records)

    table = Table(
        f"X8 — parse stage on {len(records):,} repetitive lines",
        ["path", "seconds", "records/s", "speedup"],
    )
    table.add_row("per-record (no cache)", f"{per_record_s:.3f}",
                  f"{len(records) / per_record_s:,.0f}", "1.00x")
    table.add_row("batched + cached", f"{batched_s:.3f}",
                  f"{len(records) / batched_s:,.0f}", f"{speedup:.2f}x")
    emit()
    emit(table.render())
    emit(f"\ncache: {cache.line_hits:,} line hits, {cache.hits:,} template "
         f"hits, {cache.line_misses:,}/{cache.misses:,} line/template "
         f"misses, {cache.invalidations} invalidations "
         f"({hit_rate:.0%} hit rate)")
    snapshot("x8_parser_fast_path", {
        "lines": len(records),
        "per_record_seconds": round(per_record_s, 4),
        "batched_seconds": round(batched_s, 4),
        "speedup": round(speedup, 3),
        "cache_hit_rate": round(hit_rate, 4),
    })
    assert speedup >= _MIN_SPEEDUP, (
        f"batched+cached path must be >= {_MIN_SPEEDUP}x faster on a "
        f"repetitive stream, got {speedup:.2f}x"
    )


def bench_x8_pipeline_batched(benchmark, emit, snapshot):
    records = _repetitive_stream(_LINES)
    cut = len(records) * 2 // 10
    train, live = records[:cut], records[cut:]

    def build(cache: bool) -> Pipeline:
        # The keyword baseline keeps stage 2 deterministic and equally
        # priced on both paths, so the comparison isolates batching.
        system = Pipeline(
            parser=DrainParser(masker=default_masker(),
                               cache_size=65536 if cache else 0),
            detector=KeywordMatchDetector(),
        )
        system.fit(train)
        return system

    per_record = build(cache=False)
    start = time.perf_counter()
    expected = per_record.run_all(live)
    per_record_s = time.perf_counter() - start

    batched = build(cache=True)
    start = time.perf_counter()
    actual = once(benchmark, lambda: batched.process(live, batch_size=2048))
    batched_s = time.perf_counter() - start

    assert [
        (a.report.session_id, a.report.events, a.pool, a.criticality)
        for a in actual
    ] == [
        (a.report.session_id, a.report.events, a.pool, a.criticality)
        for a in expected
    ], "batched pipeline must emit identical alerts in identical order"
    assert actual, "the anomalous sessions must produce alerts"

    speedup = per_record_s / batched_s
    table = Table(
        f"X8 — full pipeline on {len(live):,} live records "
        f"(keyword detector)",
        ["path", "seconds", "records/s", "alerts", "speedup"],
    )
    table.add_row("run_all (per-record)", f"{per_record_s:.3f}",
                  f"{len(live) / per_record_s:,.0f}", len(expected), "1.00x")
    table.add_row("process(2048)", f"{batched_s:.3f}",
                  f"{len(live) / batched_s:,.0f}", len(actual),
                  f"{speedup:.2f}x")
    emit()
    emit(table.render())
    flagged = {alert.report.session_id for alert in actual}
    truth = {record.session_id for record in live if record.is_anomalous}
    emit(f"\nflagged {len(flagged)} sessions ({len(flagged & truth)} of "
         f"{len(truth)} injected anomalies)")
    snapshot("x8_pipeline_batched", {
        "live_records": len(live),
        "per_record_seconds": round(per_record_s, 4),
        "batched_seconds": round(batched_s, 4),
        "speedup": round(speedup, 3),
        "alerts": len(actual),
    })
    assert speedup >= 1.2, (
        f"batching must pay for itself end to end, got {speedup:.2f}x"
    )
