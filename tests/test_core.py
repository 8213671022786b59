"""Tests for the core pipeline, sharded runtime, and auto-calibration."""

import pytest

from repro import Pipeline, PipelineSpec
from repro.classify.feedback import AdministratorSimulator, source_based_policy
from repro.core.calibration import (
    AutoCalibrator,
    DEFAULT_GRIDS,
    parameter_grid,
)
from repro.datasets import generate_cloud_platform, generate_hdfs
from repro.detection import DeepLogDetector, InvariantMiningDetector
from repro.parsing import DrainParser


class TestConfig:
    def test_defaults_valid(self):
        spec = PipelineSpec()
        assert spec.windowing == "session"

    def test_validation(self):
        with pytest.raises(ValueError, match="windowing"):
            PipelineSpec(windowing="nonsense")
        with pytest.raises(ValueError, match="window_size"):
            PipelineSpec(window_size=0)


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = parameter_grid({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(grid) == 6
        assert {"a": 1, "b": "x"} in grid

    def test_empty_grid(self):
        assert parameter_grid({}) == [{}]


class TestAutoCalibrator:
    def test_rejects_oversplitting_parameters(self, hdfs_small):
        calibrator = AutoCalibrator(
            lambda **parameters: DrainParser(**parameters),
            {"similarity_threshold": [0.05, 0.5, 0.95]},
        )
        result = calibrator.calibrate(hdfs_small.records[:600])
        # 0.95 over-splits HDFS into hundreds of templates; the
        # unsupervised score must steer away from it.  (0.05 and 0.5
        # behave identically here because Drain's token-prefix routing
        # already separates the statements.)
        assert result.best_parameters["similarity_threshold"] != 0.95
        assert len(result.trials) == 3

    def test_ranking_sorted(self, hdfs_small):
        calibrator = AutoCalibrator(
            lambda **parameters: DrainParser(**parameters),
            {"similarity_threshold": [0.2, 0.5]},
        )
        ranking = calibrator.calibrate(hdfs_small.records[:300]).ranking()
        assert ranking[0][1] >= ranking[1][1]

    def test_calibrated_parser_is_fresh(self, hdfs_small):
        calibrator = AutoCalibrator(
            lambda **parameters: DrainParser(**parameters),
            {"similarity_threshold": [0.4]},
        )
        parser = calibrator.calibrated_parser(hdfs_small.records[:200])
        assert parser.template_count == 0

    def test_empty_sample_rejected(self):
        calibrator = AutoCalibrator(lambda **p: DrainParser(**p), {})
        with pytest.raises(ValueError, match="sample"):
            calibrator.calibrate([])

    def test_default_grids_cover_online_parsers(self):
        assert set(DEFAULT_GRIDS) == {
            "drain", "spell", "lenma", "shiso", "logram",
        }


@pytest.fixture(scope="module")
def cloud_split():
    data = generate_cloud_platform(sessions=300, seed=21)
    cut = len(data.records) * 6 // 10
    return data, data.records[:cut], data.records[cut:]


class TestMoniLogPipeline:
    def test_requires_training(self):
        system = Pipeline()
        with pytest.raises(RuntimeError, match="fit"):
            system.run_all([])

    def test_end_to_end_detects_and_classifies(self, cloud_split):
        data, train, test = cloud_split
        system = Pipeline(detector=DeepLogDetector(epochs=8, seed=1))
        system.fit(train)
        alerts = system.run_all(test)
        assert alerts, "the test stream contains anomalies"
        flagged = {alert.report.session_id for alert in alerts}
        anomalous = set(data.anomalous_sessions())
        # Flagged sessions should be overwhelmingly real anomalies.
        true_hits = len(flagged & anomalous)
        assert true_hits / len(flagged) >= 0.7
        assert system.stats().anomalies_detected == len(alerts)

    def test_counter_detector_pipeline(self, cloud_split):
        _, train, test = cloud_split
        system = Pipeline(detector=InvariantMiningDetector())
        system.fit(train)
        alerts = system.run_all(test)
        assert system.stats().windows_scored > 0
        assert all(alert.pool == "default" for alert in alerts)

    def test_sliding_window_mode(self, bgl_small):
        spec = PipelineSpec(windowing="sliding", window_size=100)
        system = Pipeline(spec, detector=InvariantMiningDetector())
        cut = len(bgl_small.records) // 2
        system.fit(bgl_small.records[:cut])
        system.run_all(bgl_small.records[cut:])
        assert system.stats().windows_scored > 0

    def test_alert_stream_feeds_admin_loop(self, cloud_split):
        _, train, test = cloud_split
        system = Pipeline(detector=DeepLogDetector(epochs=8, seed=1))
        system.pools.create_pool("team-api")
        policy = source_based_policy({"api": "team-api"})
        admin = AdministratorSimulator(system.pools, policy, diligence=1.0)
        system.fit(train)
        for alert in system.run(test):
            admin.review(alert)
        assert system.classifier.feedback_count >= admin.pool_moves

    def test_auto_calibration_flow(self, hdfs_small):
        spec = PipelineSpec(auto_calibrate=True, calibration_sample=400)
        system = Pipeline(spec, detector=InvariantMiningDetector())
        system.fit(hdfs_small.records)
        assert system.parser.template_count > 0


class TestShardedMoniLog:
    def test_agrees_with_single_instance(self):
        data = generate_hdfs(sessions=250, seed=31)
        cut = len(data.records) * 6 // 10
        train, test = data.records[:cut], data.records[cut:]

        single = Pipeline(detector=InvariantMiningDetector())
        single.fit(train)
        flagged = {a.report.session_id for a in single.run(test)}
        test_sessions = {r.session_id for r in test}
        reference = {sid: sid in flagged for sid in test_sessions}

        sharded = Pipeline(
            PipelineSpec(shards=3, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        sharded.fit(train)
        agreement = sharded.consistency_with(reference, test)
        assert agreement >= 0.9, f"agreement {agreement:.2f}"

    def test_rejects_sliding_windows(self):
        with pytest.raises(ValueError, match="session windowing"):
            Pipeline(PipelineSpec(shards=2, windowing="sliding"))

    def test_requires_training(self):
        sharded = Pipeline(
            PipelineSpec(shards=4, detector_shards=2),
            detector_factory=lambda shard: InvariantMiningDetector(),
        )
        with pytest.raises(RuntimeError, match="fit"):
            sharded.run_all([])
