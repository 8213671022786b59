"""Parallel shard execution: executor-independence and read-only measurement.

The concurrency contract mirrors the batching contract: the executor
may only change *where* shard work runs, never *what* comes out.
Every test here runs the same workload under the serial reference and
a concurrent executor and compares full structured output — parsed
events, shard loads, reconciled templates, and classified alerts.

Also pins the measurement bugfix: ``consistency_with`` must be
strictly read-only (no pool deliveries, no report ids consumed, no
shard Drain learning) — measuring a system must not perturb it.
"""

from __future__ import annotations

import pytest

from conftest import make_record
from repro.api import Pipeline, PipelineSpec
from repro.core.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.detection import InvariantMiningDetector
from repro.parsing import DistributedDrain, default_masker


def _alert_shape(alert):
    return (
        alert.report.report_id,
        alert.report.session_id,
        tuple(
            (event.template_id, event.template, event.variables,
             event.record.message)
            for event in alert.report.events
        ),
        alert.report.detection.anomalous,
        round(alert.report.detection.score, 12),
        alert.pool,
        alert.criticality,
    )


@pytest.fixture(params=["thread", "process"])
def concurrent_executor(request):
    executor = {"thread": ThreadedExecutor, "process": ProcessExecutor}[
        request.param
    ](max_workers=3)
    yield executor
    executor.close()


class TestDistributedDrainExecutors:
    def test_parse_batch_identical_across_executors(
        self, cloud_small, concurrent_executor
    ):
        reference = DistributedDrain(shards=3, masker=default_masker(),
                                     executor=SerialExecutor())
        concurrent = DistributedDrain(shards=3, masker=default_masker(),
                                      executor=concurrent_executor)
        expected = reference.parse_batch(cloud_small.records)
        actual = concurrent.parse_batch(cloud_small.records)
        assert actual == expected
        assert concurrent.shard_loads == reference.shard_loads
        assert concurrent.global_templates() == reference.global_templates()
        assert concurrent.template_count == reference.template_count

    def test_chunked_parsing_keeps_shard_state_across_batches(
        self, cloud_small, concurrent_executor
    ):
        # Micro-batches advance shard state between fan-outs; under the
        # process executor this exercises the reinstall hand-back.
        reference = DistributedDrain(shards=3, masker=default_masker(),
                                     executor=SerialExecutor())
        concurrent = DistributedDrain(shards=3, masker=default_masker(),
                                      executor=concurrent_executor)
        records = cloud_small.records
        expected, actual = [], []
        for start in range(0, len(records), 64):
            expected.extend(reference.parse_batch(records[start:start + 64]))
            actual.extend(concurrent.parse_batch(records[start:start + 64]))
        assert actual == expected
        assert concurrent.template_count == reference.template_count

    def test_template_string_resolves_every_global_id(self, cloud_small):
        parser = DistributedDrain(shards=3, masker=default_masker())
        parsed = parser.parse_batch(cloud_small.records)
        for event in parsed:
            assert isinstance(parser.template_string(event.template_id), str)


class TestShardedMoniLogExecutors:
    def _build(self, records, executor) -> Pipeline:
        return Pipeline(
            PipelineSpec(shards=3, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
            executor=executor,
        ).fit(records)

    def test_alerts_identical_across_executors(
        self, hdfs_small, concurrent_executor
    ):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        serial = self._build(records[:cut], SerialExecutor())
        concurrent = self._build(records[:cut], concurrent_executor)
        expected = serial.run_all(records[cut:])
        actual = concurrent.run_all(records[cut:])
        assert expected, "the HDFS fixture must produce alerts"
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]
        assert concurrent.parser.shard_loads == serial.parser.shard_loads

    def test_executor_resolves_from_spec(self):
        system = Pipeline(PipelineSpec(shards=4, executor="thread"))
        assert isinstance(system.executor, ThreadedExecutor)
        assert system.parser.executor is system.executor
        system.executor.close()

    def test_explicit_executor_overrides_spec(self):
        explicit = SerialExecutor()
        system = Pipeline(PipelineSpec(shards=4, executor="thread"),
                          executor=explicit)
        assert system.executor is explicit

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError, match="detector_shards"):
            Pipeline(PipelineSpec(shards=4, detector_shards=0))
        with pytest.raises(ValueError, match="shards"):
            Pipeline(PipelineSpec(shards=-1))

    def test_context_manager_closes_the_executor(self):
        with Pipeline(PipelineSpec(shards=4),
                      executor=ThreadedExecutor(max_workers=2)) as system:
            assert system.executor.map(len, [[1], [2, 3]]) == [1, 2]
        assert system.executor._pool is None

    def test_unsessioned_records_group_per_source(self):
        # Unsessioned events must form per-source pseudo-sessions (the
        # streaming sessionizer's scheme), not one catch-all window:
        # every window's events all carry the key it routes by.
        records = []
        for index in range(12):
            source = ("api", "db")[index % 2]
            records.append(make_record(
                f"tick {index} from worker", timestamp=float(index),
                source=source, sequence=index,
            ))
        system = Pipeline(
            PipelineSpec(shards=2, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        system.fit(records)  # two pseudo-sessions cover both shards
        from repro.api.pipeline import _sessions_by_key
        parsed = system.parser.parse_batch(records)
        grouped = _sessions_by_key(parsed)
        assert sorted(grouped) == ["source:api", "source:db"]
        for key, events in grouped.items():
            assert all(event.windowing_key == key for event in events)


class TestConsistencyWithIsReadOnly:
    def _snapshot(self, system: Pipeline):
        return (
            system._report_counter,
            {name: len(system.pools.pool(name))
             for name in system.pools.pool_names},
            system.parser.template_count,
            [parser.store.generation for parser in system.parser.parsers],
            [len(parser.store) for parser in system.parser.parsers],
            system.parser.shard_loads,
        )

    def test_pools_reports_and_parser_state_untouched(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        system = Pipeline(
            PipelineSpec(shards=3, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        ).fit(records[:cut])
        # Produce real state first so the probe has something to spoil.
        alerts = system.run_all(records[cut:])
        reference = {record.session_id: record.is_anomalous
                     for record in records[cut:]}
        before = self._snapshot(system)
        system.consistency_with(reference, records[cut:])
        assert self._snapshot(system) == before
        # And the live system still scores identically afterwards.
        rerun = Pipeline(
            PipelineSpec(shards=3, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        ).fit(records[:cut]).run_all(records[cut:])
        assert [a.report.session_id for a in rerun] == [
            a.report.session_id for a in alerts
        ]

    def test_measurement_is_repeatable(self, hdfs_small):
        # Pre-fix, each call perturbed the Drain trees and counters, so
        # back-to-back calls could disagree; read-only measurement is
        # idempotent by construction.
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        system = Pipeline(
            PipelineSpec(shards=3, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        ).fit(records[:cut])
        reference = {record.session_id: record.is_anomalous
                     for record in records[cut:]}
        first = system.consistency_with(reference, records[cut:])
        second = system.consistency_with(reference, records[cut:])
        assert first == second

    def test_requires_training(self):
        system = Pipeline(
            PipelineSpec(shards=4, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        with pytest.raises(RuntimeError, match="fit"):
            system.consistency_with({}, [])


class TestStreamingShardedPipeline:
    def _build(self, records, executor) -> Pipeline:
        return Pipeline(
            PipelineSpec(shards=3, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
            executor=executor,
        ).fit(records)

    def test_requires_trained_system(self):
        system = Pipeline(
            PipelineSpec(shards=4, detector_shards=2, streaming=True),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        with pytest.raises(RuntimeError, match="fit"):
            system.process_record(make_record("x"))

    def test_matches_batch_run_when_nothing_expires_early(
        self, hdfs_small, concurrent_executor
    ):
        # With an unreachable timeout every session closes at flush in
        # first-seen order — exactly the batch path's order — so the
        # streaming facade must reproduce run_all byte for byte.
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        batch = self._build(records[:cut], SerialExecutor())
        expected = batch.run_all(records[cut:])
        assert expected

        streaming_system = self._build(records[:cut], concurrent_executor)
        live = streaming_system.stream(
            session_timeout=1e9, max_session_events=10 ** 6
        )
        actual = []
        for start in range(0, len(records) - cut, 64):
            actual.extend(live.process(records[cut:][start:start + 64]))
        actual.extend(live.flush())
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]

    def test_process_loop_matches_process_batch(self, cloud_small):
        records = cloud_small.records
        cut = len(records) * 6 // 10

        def live(executor):
            return self._build(records[:cut], executor).stream(
                session_timeout=20.0,
                max_session_events=64,
            )

        loop = live(SerialExecutor())
        expected = []
        for record in records[cut:]:
            expected.extend(loop.process_record(record))
        expected.extend(loop.flush())

        threaded = ThreadedExecutor(max_workers=3)
        try:
            batch = live(threaded)
            actual = []
            for start in range(0, len(records) - cut, 50):
                actual.extend(
                    batch.process(records[cut:][start:start + 50])
                )
            actual.extend(batch.flush())
        finally:
            threaded.close()
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]

    def test_process_stream_flushes_at_end(self, cloud_small):
        records = cloud_small.records
        cut = len(records) * 6 // 10
        live = self._build(records[:cut], SerialExecutor()).stream(
            session_timeout=1e9)
        streamed = list(live.run(records[cut:]))
        assert live.sessionizer.open_sessions == 0
        reference = self._build(records[:cut], SerialExecutor())
        assert [_alert_shape(a) for a in streamed] == [
            _alert_shape(a) for a in reference.run_all(records[cut:])
        ]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            PipelineSpec(shards=3, batch_size=-1)
