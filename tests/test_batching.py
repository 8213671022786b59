"""Parity regressions for the batched fast path.

The batching contract is exactness, not approximation: the template
cache, ``Parser.parse_batch``, ``Pipeline.process``, the streaming
micro-batch path, and sharded micro-batch draining must all produce
byte-identical templates and alerts, in the same order, as the
one-at-a-time path.  Every test here runs both
paths on the same stream and compares full structured output.
"""

from __future__ import annotations

import dataclasses

from conftest import make_record
from repro.api import Pipeline, PipelineSpec
from repro.detection.deeplog import DeepLogDetector
from repro.detection.invariants import InvariantMiningDetector
from repro.detection.keyword import KeywordMatchDetector
from repro.parsing import DistributedDrain, DrainParser, default_masker


def _drain(cache: bool) -> DrainParser:
    return DrainParser(masker=default_masker(),
                       cache_size=65536 if cache else 0)


def _alert_shape(alert):
    """A fully structural view of an alert, for exact comparison."""
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
        round(alert.confidence, 12),
    )


class TestParserBatchParity:
    def test_parse_batch_matches_per_record_loop(self, bgl_small, hdfs_small):
        for dataset in (bgl_small, hdfs_small):
            reference = _drain(cache=False)
            batched = _drain(cache=True)
            expected = [reference.parse_record(r) for r in dataset.records]
            actual = batched.parse_batch(dataset.records)
            assert actual == expected
            assert batched.store.templates() == reference.store.templates()
            assert [t.count for t in batched.store] == [
                t.count for t in reference.store
            ]

    def test_cached_per_record_matches_uncached(self, hdfs_small):
        cached = _drain(cache=True)
        uncached = _drain(cache=False)
        for record in hdfs_small.records:
            assert cached.parse_record(record) == uncached.parse_record(record)
        assert cached.store.templates() == uncached.store.templates()
        assert cached.cache.total_hits > 0, \
            "a repetitive stream must hit the cache"

    def test_parse_batch_chunking_is_invariant(self, hdfs_small):
        whole = _drain(cache=True)
        chunked = _drain(cache=True)
        records = hdfs_small.records
        expected = whole.parse_batch(records)
        actual = []
        for start in range(0, len(records), 37):
            actual.extend(chunked.parse_batch(records[start:start + 37]))
        assert actual == expected

    def test_distributed_drain_parse_batch_parity(self, cloud_small):
        reference = DistributedDrain(shards=3, masker=default_masker(),
                                     cache_size=0)
        batched = DistributedDrain(shards=3, masker=default_masker())
        expected = reference.parse_all(cloud_small.records)
        actual = batched.parse_batch(cloud_small.records)
        assert actual == expected
        assert batched.shard_loads == reference.shard_loads
        assert batched.global_templates() == reference.global_templates()
        assert batched.template_count == reference.template_count


class TestPipelineBatchParity:
    def _trained_system(self, records) -> Pipeline:
        system = Pipeline(detector=DeepLogDetector(epochs=4, seed=0))
        system.fit(records)
        return system

    def test_process_batch_matches_run_all(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        per_record = self._trained_system(records[:cut])
        batched = self._trained_system(records[:cut])

        expected = per_record.run_all(records[cut:])
        actual = batched.process(records[cut:])
        assert expected, "the HDFS fixture must produce alerts"
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]
        assert batched.stats().records_parsed == \
            per_record.stats().records_parsed
        assert batched.stats().windows_scored == \
            per_record.stats().windows_scored
        # Inference paths keep the template stat current (templates can
        # be discovered online, after training).
        assert batched.stats().templates_discovered == \
            batched.parser.template_count
        assert per_record.stats().templates_discovered == \
            per_record.parser.template_count

    def test_process_batch_micro_batches_are_invariant(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        one_shot = self._trained_system(records[:cut])
        micro = self._trained_system(records[:cut])
        expected = one_shot.process(records[cut:])
        actual = micro.process(records[cut:], batch_size=16)
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]

    def test_arming_stream_keeps_run_offline(self, hdfs_small):
        # stream() swaps in a sessionizer; the whole-stream windowing
        # path must not notice.
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        plain = self._trained_system(records[:cut])
        armed = self._trained_system(records[:cut])
        armed.stream(session_timeout=20.0)
        expected = plain.run_all(records[cut:])
        assert expected, "the HDFS fixture must produce alerts"
        assert [_alert_shape(a) for a in armed.run_offline(records[cut:])] \
            == [_alert_shape(a) for a in expected]

    def test_streaming_process_batch_matches_process_loop(self, cloud_small):
        records = cloud_small.records
        cut = len(records) * 6 // 10

        def live(trained: Pipeline) -> Pipeline:
            return trained.stream(session_timeout=20.0,
                                  max_session_events=64)

        loop = live(self._trained_system(records[:cut]))
        batch = live(self._trained_system(records[:cut]))

        expected = []
        for record in records[cut:]:
            expected.extend(loop.process_record(record))
        expected.extend(loop.flush())

        actual = []
        for start in range(0, len(records) - cut, 50):
            actual.extend(batch.process(records[cut:][start:start + 50]))
        actual.extend(batch.flush())

        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]

    def test_sharded_micro_batches_match_per_record(self, cloud_small):
        records = cloud_small.records
        cut = len(records) * 6 // 10

        def build(batch_size: int) -> Pipeline:
            return Pipeline(
                PipelineSpec(shards=3, detector_shards=2,
                             batch_size=batch_size),
                detector_factory=lambda shard: InvariantMiningDetector(),
            ).fit(records[:cut])

        per_record = build(batch_size=1)
        batched = build(batch_size=256)
        expected = per_record.run_all(records[cut:])
        actual = batched.run_all(records[cut:])
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]
        assert batched.parser.shard_loads == per_record.parser.shard_loads


class TestOnlineTemplateStat:
    def test_templates_discovered_tracks_online_discovery(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        system = Pipeline(detector=InvariantMiningDetector())
        system.fit(records[:cut])
        trained_count = system.stats().templates_discovered
        novel = [
            make_record(f"totally new subsystem event kind {kind}",
                        session_id=f"novel-{kind}", sequence=kind)
            for kind in range(6)
            for _ in range(3)
        ]
        system.process(records[cut:] + novel)
        assert system.stats().templates_discovered == \
            system.parser.template_count
        assert system.stats().templates_discovered > trained_count

    def test_run_refreshes_template_stat(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        system = Pipeline(detector=InvariantMiningDetector())
        system.fit(records[:cut])
        system.run_all(records[cut:])
        assert system.stats().templates_discovered == \
            system.parser.template_count

    def test_streaming_refreshes_template_stat(self, hdfs_small):
        records = hdfs_small.records
        cut = len(records) * 6 // 10
        system = Pipeline(detector=InvariantMiningDetector())
        system.fit(records[:cut])
        live = system.stream(session_timeout=1e9)
        live.process_record(
            make_record("never seen statement shape", sequence=1))
        assert system.stats().templates_discovered == \
            system.parser.template_count


class TestUnsessionedFallbackIds:
    """Batch and streaming must agree on ids for records without a
    session id: both paths now derive ``window-{windows_scored}`` from
    the shared scoring routine."""

    def _sessionless(self, records):
        return [dataclasses.replace(record, session_id=None)
                for record in records]

    def _trained(self, train_records, window: int) -> Pipeline:
        spec = PipelineSpec(windowing="sliding", window_size=window)
        system = Pipeline(spec, detector=KeywordMatchDetector())
        system.fit(train_records)
        return system

    def test_batch_and_streaming_agree_on_fallback_ids(self, bgl_small):
        # One source, no session ids, tumbling windows of exactly
        # ``window`` events: the streaming sessionizer (event cap =
        # window, unreachable timeout) closes precisely the windows the
        # batch path scores, so ids must match one for one.
        window = 40
        records = self._sessionless(bgl_small.records)
        cut = len(records) // 2
        batch = self._trained(records[:cut], window)
        expected = batch.run_all(records[cut:])
        assert expected, "the BGL alert episodes must produce alerts"
        assert all(a.report.session_id.startswith("window-")
                   for a in expected)

        streaming_host = self._trained(records[:cut], window)
        live = streaming_host.stream(session_timeout=1e9,
                                     max_session_events=window)
        actual = []
        for record in records[cut:]:
            actual.extend(live.process_record(record))
        actual.extend(live.flush())
        assert [_alert_shape(a) for a in actual] == [
            _alert_shape(a) for a in expected
        ]

    def test_fallback_ids_are_dense_across_entry_points(self, bgl_small):
        # Interleaving run and streaming on one system keeps drawing
        # from the same windows_scored sequence — no id collisions, no
        # separate burst numbering.
        window = 40
        records = self._sessionless(bgl_small.records)
        cut = len(records) // 2
        system = self._trained(records[:cut], window)
        first = system.run_all(records[cut:cut + 10 * window])
        live = system.stream(session_timeout=1e9,
                             max_session_events=window)
        second = []
        for record in records[cut + 10 * window:]:
            second.extend(live.process_record(record))
        second.extend(live.flush())
        ids = [a.report.session_id for a in first + second]
        assert len(ids) == len(set(ids)), "fallback ids must never collide"
        assert all(identifier.startswith("window-") for identifier in ids)


class TestCliBatchFlag:
    def test_pipeline_output_is_batch_size_invariant(self, tmp_path, capsys):
        from repro.cli import main

        history = tmp_path / "history.log"
        live = tmp_path / "live.log"
        main(["generate", "--dataset", "cloud", "--sessions", "150",
              "--anomaly-rate", "0.0", "--seed", "1",
              "--output", str(history)])
        main(["generate", "--dataset", "cloud", "--sessions", "60",
              "--anomaly-rate", "0.1", "--seed", "2",
              "--output", str(live)])
        outputs = []
        for batch_size in ("0", "64"):
            capsys.readouterr()
            exit_code = main([
                "pipeline", "--history", str(history), "--live", str(live),
                "--batch-size", batch_size,
            ])
            assert exit_code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "parsed" in outputs[0]

    def test_parse_output_is_batch_size_invariant(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus.log"
        main(["generate", "--dataset", "hdfs", "--sessions", "120",
              "--seed", "4", "--output", str(corpus)])
        outputs = []
        for batch_size in ("0", "256"):
            capsys.readouterr()
            exit_code = main([
                "parse", "--input", str(corpus), "--parser", "drain",
                "--masking", "--batch-size", batch_size,
            ])
            assert exit_code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "templates" in outputs[0]


class TestBatchBookkeeping:
    def test_cache_hit_replays_match_counts(self):
        parser = DrainParser()
        records = [make_record("job started on node alpha", sequence=i)
                   for i in range(5)]
        parser.parse_batch(records)
        assert parser.store[0].count == 5

    def test_payloads_are_not_aliased_across_memo_hits(self):
        parser = DrainParser(extract_structured=True)
        records = [
            make_record('upload done {"bytes": 5}', sequence=i)
            for i in range(3)
        ]
        parsed = parser.parse_batch(records)
        payloads = [event.payload for event in parsed]
        assert payloads[0] == payloads[1] == payloads[2]
        payloads[0]["bytes"] = -1
        assert payloads[1] != payloads[0]
