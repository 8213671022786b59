"""Tests for PipelineSpec: loading, env overrides, aggregated validation."""

import json

import pytest

from repro.api import ConfigError, Pipeline, PipelineSpec
from repro.ingest.service import IngestConfig


class TestDefaultsAndBridges:
    def test_defaults_valid(self):
        spec = PipelineSpec()
        assert spec.parser == "drain"
        assert spec.detector == "deeplog"
        assert spec.shards == 0

    def test_ingest_config_round_trip(self):
        spec = PipelineSpec(ingest_batch_size=32, credits=100, lateness=2.0)
        assert spec.ingest_config() == IngestConfig(
            batch_size=32, credits=100, lateness=2.0)


class TestAggregatedValidation:
    def test_every_bad_knob_reported_at_once(self):
        with pytest.raises(ConfigError) as failure:
            PipelineSpec(windowing="bogus", window_size=0,
                         detector_shards=0, credits=0)
        message = str(failure.value)
        assert "4 problems" in message
        for field in ("windowing", "window_size", "detector_shards",
                      "credits"):
            assert field in message
        assert failure.value.errors[0].startswith("windowing:")

    def test_unknown_component_names_are_field_errors(self):
        with pytest.raises(ConfigError) as failure:
            PipelineSpec(parser="dren", detector="deeplug")
        message = str(failure.value)
        assert "parser" in message and "dren" in message
        assert "detector" in message and "deeplug" in message
        assert "drain" in message  # choices listed

    def test_component_options_checked_against_signature(self):
        with pytest.raises(ConfigError, match="detector_options"):
            PipelineSpec(detector="deeplog",
                         detector_options={"not_a_knob": 1})

    def test_sharding_cross_field_rules(self):
        with pytest.raises(ConfigError, match="session windowing"):
            PipelineSpec(shards=2, windowing="sliding")
        with pytest.raises(ConfigError, match="cannot shard"):
            PipelineSpec(shards=2, parser="spell")

    def test_source_tables_validated(self):
        with pytest.raises(ConfigError, match="sources"):
            PipelineSpec(sources=[{"path": "x.log"}])  # no type
        with pytest.raises(ConfigError, match="sources"):
            PipelineSpec(sources=[{"type": "file", "bogus": 1}])

    def test_legacy_configs_also_aggregate(self):
        with pytest.raises(ConfigError) as failure:
            IngestConfig(batch_size=0, credits=0, poll_interval=0)
        assert "3 problems" in str(failure.value)

    def test_config_error_is_a_value_error(self):
        # Callers that caught ValueError keep working.
        with pytest.raises(ValueError):
            PipelineSpec(window_size=0)


class TestLoading:
    def test_from_dict_rejects_unknown_fields_aggregated(self):
        with pytest.raises(ConfigError) as failure:
            PipelineSpec.from_dict({"detectr": "pca", "window_size": 0})
        message = str(failure.value)
        assert "detectr" in message and "unknown field" in message
        assert "window_size" in message

    def test_from_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'parser = "drain"\n'
            'detector = "keyword"\n'
            'shards = 3\n'
            'executor = "thread"\n'
            "[parser_options]\n"
            "similarity_threshold = 0.5\n"
            "[[sources]]\n"
            'type = "file"\n'
            'path = "live.log"\n'
        )
        spec = PipelineSpec.from_file(path)
        assert spec.detector == "keyword"
        assert spec.shards == 3
        assert spec.parser_options == {"similarity_threshold": 0.5}
        assert spec.sources == [{"type": "file", "path": "live.log"}]

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"detector": "pca", "batch_size": 64}))
        spec = PipelineSpec.from_file(path)
        assert spec.detector == "pca"
        assert spec.batch_size == 64

    def test_bad_toml_reports_the_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("= nonsense")
        with pytest.raises(ConfigError, match="broken.toml"):
            PipelineSpec.from_file(path)

    def test_replace_revalidates(self):
        spec = PipelineSpec()
        with pytest.raises(ConfigError, match="shards"):
            spec.replace(shards=-1)


class TestEnvOverrides:
    def test_scalar_fields_override(self):
        spec = PipelineSpec().with_env({
            "MONILOG_DETECTOR": "keyword",
            "MONILOG_SHARDS": "4",
            "MONILOG_STREAMING": "true",
            "MONILOG_SESSION_TIMEOUT": "12.5",
        })
        assert spec.detector == "keyword"
        assert spec.shards == 4
        assert spec.streaming is True
        assert spec.session_timeout == 12.5

    def test_no_env_is_identity(self):
        spec = PipelineSpec()
        assert spec.with_env({}) is spec

    def test_bad_env_values_aggregate(self):
        with pytest.raises(ConfigError) as failure:
            PipelineSpec().with_env({
                "MONILOG_SHARDS": "many",
                "MONILOG_STREAMING": "perhaps",
            })
        message = str(failure.value)
        assert "MONILOG_SHARDS" in message
        assert "MONILOG_STREAMING" in message

    def test_executor_env_spelling_matches_legacy_variable(self):
        # MONILOG_EXECUTOR was already the suite-wide executor switch;
        # the spec's env namespace maps it onto the same field.
        spec = PipelineSpec().with_env({"MONILOG_EXECUTOR": "thread"})
        assert spec.executor == "thread"


class TestPipelineFromSpec:
    def test_from_spec_accepts_dict_and_path(self, tmp_path):
        pipeline = Pipeline.from_spec({"detector": "keyword"})
        assert type(pipeline.detector).__name__ == "KeywordMatchDetector"
        path = tmp_path / "spec.toml"
        path.write_text('detector = "keyword"\nshards = 2\n')
        sharded = Pipeline.from_spec(path)
        assert sharded.sharded
        assert sharded.detector_shards == 1
        sharded.close()

    def test_instance_overrides_conflict_with_sharding(self):
        from repro.detection import InvariantMiningDetector

        with pytest.raises(ValueError, match="sharded"):
            Pipeline(PipelineSpec(shards=2),
                     detector=InvariantMiningDetector())
        with pytest.raises(ValueError, match="detector_factory"):
            Pipeline(PipelineSpec(),
                     detector_factory=lambda shard: None)

    def test_default_detector_is_shard_seeded_deeplog(self):
        # Seed-accepting detectors get their shard index as the seed.
        from repro.detection import DeepLogDetector

        pipeline = Pipeline(PipelineSpec(shards=2, detector_shards=3))
        assert [type(detector) for detector in pipeline.detectors] == \
            [DeepLogDetector] * 3
        assert [detector.seed for detector in pipeline.detectors] == [0, 1, 2]
        pipeline.close()

    def test_build_sources_through_registry(self, tmp_path):
        spec = PipelineSpec(sources=[
            {"type": "file", "path": str(tmp_path / "a.log")},
            {"type": "socket", "host": "localhost", "port": 9}])
        sources = spec.build_sources()
        assert [type(source).__name__ for source in sources] == [
            "FileTailSource", "SocketSource",
        ]


class TestObservabilityTables:
    def test_empty_tables_mean_disabled(self):
        spec = PipelineSpec()
        assert spec.telemetry_config() is None
        assert spec.autoscale_config() is None

    def test_tables_build_registry_validated_configs(self):
        spec = PipelineSpec(
            telemetry={"metrics_port": 0, "rate_window": 2.0},
            autoscale={"interval": 0.5, "max_credits": 1024},
        )
        telemetry = spec.telemetry_config()
        assert telemetry.enabled and telemetry.metrics_port == 0
        autoscale = spec.autoscale_config()
        assert autoscale.interval == 0.5
        assert autoscale.max_credits == 1024

    def test_enabled_false_disables_with_table_present(self):
        spec = PipelineSpec(telemetry={"enabled": False, "metrics_port": 1},
                            autoscale={"enabled": False})
        assert spec.telemetry_config() is None
        assert spec.autoscale_config() is None

    def test_unknown_table_options_aggregate_with_value_errors(self):
        with pytest.raises(ConfigError) as failure:
            PipelineSpec(telemetry={"bogus_knob": 1},
                         autoscale={"interval": -1})
        message = str(failure.value)
        assert "telemetry" in message and "bogus_knob" in message
        assert "autoscale" in message and "interval" in message

    def test_non_dict_table_rejected(self):
        with pytest.raises(ConfigError, match="telemetry"):
            PipelineSpec(telemetry="yes")

    def test_unknown_table_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown telemetry"):
            PipelineSpec(telemetry={"type": "nope"})

    def test_tables_load_from_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'detector = "keyword"\n'
            "[telemetry]\n"
            "metrics_port = 0\n"
            "[autoscale]\n"
            "interval = 2.5\n"
        )
        spec = PipelineSpec.from_file(path)
        assert spec.telemetry == {"metrics_port": 0}
        assert spec.autoscale_config().interval == 2.5

    def test_nested_env_overrides(self):
        spec = PipelineSpec(autoscale={"max_credits": 512}).with_env({
            "MONILOG_TELEMETRY_ENABLED": "true",
            "MONILOG_TELEMETRY_METRICS_PORT": "9100",
            "MONILOG_AUTOSCALE_INTERVAL": "0.75",
        })
        assert spec.telemetry == {"enabled": True, "metrics_port": 9100}
        # Env merges into the existing table, not over it.
        assert spec.autoscale == {"max_credits": 512, "interval": 0.75}

    def test_nested_env_disable_wins(self):
        spec = PipelineSpec(telemetry={"metrics_port": 1}).with_env(
            {"MONILOG_TELEMETRY_ENABLED": "0"})
        assert spec.telemetry_config() is None

    def test_bad_nested_env_values_aggregate(self):
        with pytest.raises(ConfigError) as failure:
            PipelineSpec().with_env({
                "MONILOG_AUTOSCALE_INTERVAL": "soon",
                "MONILOG_TELEMETRY_ENABLED": "perhaps",
            })
        message = str(failure.value)
        assert "MONILOG_AUTOSCALE_INTERVAL" in message
        assert "MONILOG_TELEMETRY_ENABLED" in message

    def test_option_only_env_does_not_arm_an_undeclared_table(self):
        """MONILOG_AUTOSCALE_INTERVAL exported globally tunes where
        autoscaling is declared; it must not enable it elsewhere."""
        spec = PipelineSpec().with_env(
            {"MONILOG_AUTOSCALE_INTERVAL": "2.0"})
        assert spec.autoscale == {"interval": 2.0, "enabled": False}
        assert spec.autoscale_config() is None
        # ...but the tuning is carried: a later explicit enable (CLI
        # flag or table) picks it up.
        armed = spec.replace(autoscale=dict(spec.autoscale, enabled=True))
        assert armed.autoscale_config().interval == 2.0

    def test_none_default_top_level_fields_stay_strings(self):
        """MONILOG_CHECKPOINT=2024 is a path, not a number."""
        spec = PipelineSpec().with_env({"MONILOG_CHECKPOINT": "2024"})
        assert spec.checkpoint == "2024"
        assert isinstance(spec.checkpoint, str)

    def test_wrongly_typed_table_values_aggregate_not_traceback(self):
        """A quoted number in a spec file must come back as a
        field-named ConfigError, not a raw TypeError."""
        with pytest.raises(ConfigError) as failure:
            PipelineSpec(telemetry={"rate_window": "fast"},
                         autoscale={"min_credits": "16"})
        message = str(failure.value)
        assert "telemetry" in message and "autoscale" in message

    def test_fractional_metrics_port_rejected_at_validation(self):
        with pytest.raises(ConfigError, match="metrics_port"):
            PipelineSpec().with_env(
                {"MONILOG_TELEMETRY_METRICS_PORT": "9100.5"})
