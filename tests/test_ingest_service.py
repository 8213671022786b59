"""Service-level tests: readers → merge → batcher → pipeline.

Pins the three core claims of the ingestion front-end:

* **exactness** — concurrently ingesting N sources produces byte-
  identical alerts to the offline ``LogStream`` path over the same
  corpus (the micro-batch boundaries and executor hops change
  wall-clock only);
* **back-pressure** — a slow consumer caps the records in flight at
  the credit budget, stalling fast readers instead of buffering
  without bound;
* **flow policies** — age-based flushing keeps trickle sources live,
  the watermark merge restores cross-source timestamp order, and the
  queue-depth signal on :class:`BatchHandoff` reports truthfully.
"""

import asyncio
import copy
import time

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.core.streaming import BatchHandoff
from repro.detection.keyword import KeywordMatchDetector
from repro.ingest import AsyncSourceAdapter, CheckpointStore, IngestService
from repro.ingest.service import IngestConfig
from repro.logs.sources import ReplaySource
from repro.logs.stream import LogStream

from conftest import make_record


class RecordingPipeline:
    """A fake pipeline capturing exactly what reaches ``process``."""

    def __init__(self, delay: float = 0.0):
        self.batches: list[list] = []
        self.flushed = False
        self.delay = delay

    def process(self, records):
        if self.delay:
            time.sleep(self.delay)
        self.batches.append(list(records))
        return []

    def flush(self):
        self.flushed = True
        return []

    @property
    def records(self):
        return [record for batch in self.batches for record in batch]


def burst_records(source: str, sessions: int, *, start: float,
                  spacing: float = 0.01, gap: float = 120.0,
                  anomalous_every: int = 0):
    """Bursty per-source traffic: sessions separated by idle gaps."""
    records = []
    clock = start
    for session in range(sessions):
        messages = [
            f"request {session * 7 + index} handled in 12 ms"
            for index in range(6)
        ]
        if anomalous_every and session % anomalous_every == anomalous_every - 1:
            messages[3:3] = ["backend error timeout detected"] * 3
        for sequence, message in enumerate(messages):
            records.append(make_record(
                message, timestamp=round(clock, 6), source=source,
                sequence=sequence,
            ))
            clock += spacing
        clock += gap
    return records


def alert_key(alert):
    return (alert.report.report_id, alert.report.session_id,
            alert.report.events, alert.pool, alert.criticality)


def trained_base():
    history = (burst_records("svc-a", 6, start=0.0)
               + burst_records("svc-b", 6, start=0.003))
    history.sort(key=lambda record: record.timestamp)
    system = Pipeline(detector=KeywordMatchDetector())
    system.fit(history)
    return system


class TestOfflineParity:
    def test_concurrent_ingest_matches_logstream_path(self):
        base = trained_base()
        per_source = {
            name: burst_records(name, 5, start=10_000.0 + shift,
                                anomalous_every=2)
            for shift, name in ((0.0, "svc-a"), (0.002, "svc-b"),
                                (0.004, "svc-c"))
        }

        offline = copy.deepcopy(base).stream(session_timeout=30.0)
        stream = LogStream([ReplaySource(name, records)
                            for name, records in per_source.items()])
        expected = offline.process(list(stream)) + offline.flush()
        assert expected, "the corpus must produce alerts to compare"

        live = copy.deepcopy(base).stream(session_timeout=30.0)
        service = IngestService(
            [AsyncSourceAdapter(ReplaySource(name, records), yield_every=4)
             for name, records in per_source.items()],
            live,
            config=IngestConfig(batch_size=16, max_batch_age=5.0,
                                lateness=1_000.0),
        )
        actual = asyncio.run(service.run())
        assert [alert_key(alert) for alert in actual] == \
            [alert_key(alert) for alert in expected]
        assert service.merger.late == 0
        assert service.stats().records_processed == \
            sum(len(records) for records in per_source.values())

    def test_service_scores_through_a_streaming_pipeline(self, hdfs_small):
        # A plain spec-streaming Pipeline is the scoring backend: its
        # alerts match the same pipeline's process + flush exactly.
        cut = len(hdfs_small.records) * 6 // 10
        train, live = hdfs_small.records[:cut], hdfs_small.records[cut:]
        spec = PipelineSpec(detector="invariants", streaming=True,
                            session_timeout=1e9)
        reference = Pipeline(spec).fit(train)
        expected = reference.process(live) + reference.flush()
        assert expected

        pipeline = Pipeline(spec).fit(train)
        service = IngestService(
            [AsyncSourceAdapter(ReplaySource("replay", live))],
            pipeline,
            config=IngestConfig(batch_size=64, max_batch_age=5.0,
                                lateness=1e9),
        )
        actual = asyncio.run(service.run())
        actual.extend(pipeline.flush())
        assert [alert_key(alert) for alert in actual] == \
            [alert_key(alert) for alert in expected]

    def test_watermark_merge_restores_timestamp_order(self):
        pipeline = RecordingPipeline()
        sources = [
            AsyncSourceAdapter(ReplaySource(
                name,
                [make_record(f"{name}-{index}", timestamp=base + index * 2.0,
                             source=name) for index in range(10)],
            ), yield_every=2)
            for name, base in (("a", 0.0), ("b", 1.0))
        ]
        service = IngestService(
            sources, pipeline,
            config=IngestConfig(batch_size=4, max_batch_age=5.0,
                                lateness=100.0),
        )
        asyncio.run(service.run())
        stamps = [record.timestamp for record in pipeline.records]
        assert stamps == sorted(stamps)
        assert len(stamps) == 20
        assert pipeline.flushed


class TestBackpressure:
    def test_credits_bound_records_in_flight(self):
        pipeline = RecordingPipeline(delay=0.01)  # deliberately slow consumer
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(120)]
        credits = 16
        service = IngestService(
            [AsyncSourceAdapter(ReplaySource("fast", records),
                                yield_every=1)],
            pipeline,
            config=IngestConfig(batch_size=8, max_batch_age=5.0,
                                lateness=0.0, credits=credits),
        )

        peak = 0

        async def run_and_watch():
            nonlocal peak
            task = asyncio.ensure_future(service.run())
            while not task.done():
                peak = max(peak, service.gate.in_use)
                await asyncio.sleep(0.001)
            await task

        asyncio.run(run_and_watch())
        assert len(pipeline.records) == 120
        assert service.gate.waits > 0, "the fast reader must have stalled"
        assert peak <= credits

    def test_forced_drain_breaks_credit_watermark_deadlock(self):
        # Every credit ends up parked behind a watermark that can no
        # longer advance (one quiet source, huge lateness): only a
        # forced drain keeps the pipeline moving.
        pipeline = RecordingPipeline()
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(12)]
        service = IngestService(
            [AsyncSourceAdapter(ReplaySource("stuck", records),
                                yield_every=1)],
            pipeline,
            config=IngestConfig(batch_size=4, max_batch_age=0.05,
                                lateness=1e9, credits=6,
                                poll_interval=0.01),
        )

        async def run_with_stop():
            task = asyncio.ensure_future(service.run())
            deadline = time.monotonic() + 5.0
            while (len(pipeline.records) < 6
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.005)
            service.stop()
            await task

        asyncio.run(run_with_stop())
        assert service.forced_drains > 0
        assert len(pipeline.records) == 12  # drain + shutdown flush: no drops


class TestFlowPolicies:
    def test_age_flush_keeps_trickle_sources_live(self):
        pipeline = RecordingPipeline()

        class Trickle(AsyncSourceAdapter):
            async def items(self, start_offset=0):
                async for item in super().items(start_offset):
                    yield item
                    await asyncio.sleep(0.03)

        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(6)]
        service = IngestService(
            [Trickle(ReplaySource("drip", records))],
            pipeline,
            config=IngestConfig(batch_size=1000, max_batch_age=0.02,
                                lateness=0.0),
        )
        asyncio.run(service.run())
        assert len(pipeline.records) == 6
        assert service.batcher.age_flushes >= 1
        assert len(pipeline.batches) >= 2, \
            "a trickle source must not wait for a full batch"

    def test_batch_handoff_reports_depth(self):
        class DepthProbe:
            def __init__(self):
                self.seen_depth = None

            def process(self, records):
                self.seen_depth = handoff.depth
                return []

        probe = DepthProbe()
        handoff = BatchHandoff(probe)
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(5)]
        assert handoff.depth == 0
        assert handoff.submit(records) == []
        assert probe.seen_depth == 5, \
            "depth must expose the submitted-but-unprocessed window"
        assert handoff.depth == 0
        assert handoff.peak_depth == 5
        assert handoff.batches == 1
        assert handoff.records == 5
        assert handoff.flush() == []  # no flush() on the probe: no-op

    def test_stats_snapshot_and_summary(self):
        pipeline = RecordingPipeline()
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(10)]
        service = IngestService(
            [AsyncSourceAdapter(ReplaySource("only", records))],
            pipeline,
            config=IngestConfig(batch_size=4, max_batch_age=1.0,
                                lateness=0.0),
        )
        asyncio.run(service.run())
        stats = service.stats()
        assert stats.records_in == {"only": 10}
        assert stats.records_processed == 10
        assert stats.committed == {"only": 10}
        assert "ingested 10 records" in stats.summary()
        assert "only=10" in stats.summary()

    def test_service_validates_inputs(self):
        pipeline = RecordingPipeline()
        with pytest.raises(ValueError, match="at least one source"):
            IngestService([], pipeline)
        source = AsyncSourceAdapter(
            ReplaySource("dup", [make_record("m", timestamp=0.0)]))
        twin = AsyncSourceAdapter(
            ReplaySource("dup", [make_record("m", timestamp=0.0)]))
        with pytest.raises(ValueError, match="unique"):
            IngestService([source, twin], pipeline)

    def test_single_run_only(self):
        pipeline = RecordingPipeline()
        service = IngestService(
            [AsyncSourceAdapter(
                ReplaySource("once", [make_record("m", timestamp=0.0)]))],
            pipeline,
        )
        asyncio.run(service.run())
        with pytest.raises(RuntimeError, match="single run"):
            asyncio.run(service.run())


class TestCheckpointResume:
    def test_second_service_skips_committed_prefix(self, tmp_path):
        path = tmp_path / "ckpt.json"
        records = [make_record(f"m{index}", timestamp=float(index))
                   for index in range(20)]

        first = RecordingPipeline()
        service = IngestService(
            [AsyncSourceAdapter(ReplaySource("replay", records))],
            first,
            config=IngestConfig(batch_size=5, max_batch_age=1.0,
                                lateness=0.0),
            checkpoint=CheckpointStore(path),
        )
        asyncio.run(service.run())
        assert len(first.records) == 20

        extended = records + [make_record("m-new", timestamp=99.0)]
        second = RecordingPipeline()
        resumed = IngestService(
            [AsyncSourceAdapter(ReplaySource("replay", extended))],
            second,
            config=IngestConfig(batch_size=5, max_batch_age=1.0,
                                lateness=0.0),
            checkpoint=CheckpointStore(path),
        )
        asyncio.run(resumed.run())
        assert [record.message for record in second.records] == ["m-new"]
        assert CheckpointStore(path).get("replay") == 21
