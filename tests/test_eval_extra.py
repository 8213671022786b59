"""Additional coverage: distributed detector routing and eval helpers."""

import pytest

from repro import Pipeline, PipelineSpec
from repro.api.pipeline import _shard_of
from repro.detection import InvariantMiningDetector
from repro.datasets import generate_hdfs


class TestShardRouting:
    def test_shard_of_is_deterministic_and_bounded(self):
        for shards in (1, 2, 5):
            for session_id in ("blk_1", "req-0001", "anything"):
                shard = _shard_of(session_id, shards)
                assert 0 <= shard < shards
                assert shard == _shard_of(session_id, shards)

    def test_single_detector_shard_sees_everything(self):
        data = generate_hdfs(sessions=80, anomaly_rate=0.1, seed=13)
        sharded = Pipeline(
            PipelineSpec(shards=2, detector_shards=1),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        cut = len(data.records) * 6 // 10
        sharded.fit(data.records[:cut])
        alerts = sharded.run_all(data.records[cut:])
        anomalous = set(data.anomalous_sessions())
        assert all(
            alert.report.session_id in anomalous
            or alert.report.detection.score > 0
            for alert in alerts
        )

    def test_too_many_detector_shards_fails_loudly(self):
        data = generate_hdfs(sessions=6, anomaly_rate=0.0, seed=13)
        sharded = Pipeline(
            PipelineSpec(shards=1, detector_shards=64),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        with pytest.raises(ValueError, match="no training sessions"):
            sharded.fit(data.records)


class TestEvalHelpers:
    def test_parse_dataset_default_parser(self, hdfs_small):
        from repro.eval import parse_dataset

        parsed = parse_dataset(hdfs_small.records[:100])
        assert len(parsed) == 100
        assert all(event.template for event in parsed)

    def test_experiment_respects_min_session_events(self, hdfs_small):
        from repro.eval import DetectionExperiment

        strict = DetectionExperiment.from_dataset(
            hdfs_small, min_session_events=100, seed=1
        )
        assert strict.train_sessions == []
        assert strict.test_sessions == []
