"""The pipeline's one instrumentation seam, held to its contract.

Every stage call runs under ``with self._stage(name)``; the seam
(:class:`repro.telemetry.stages.StageObservers`) decides what that
costs.  Load-bearing claims: a dark pipeline gets one shared no-op
object; whichever observers are attached see every stage on every
path (the hand-copied wrappers this replaced had drifted: no
``classify`` marker on the sharded path, no markers at all for a
profiler injected without telemetry); a stage body that raises still
unwinds its marker and closes its span; and the stage histograms
measure what their declarations say."""

import time

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.datasets import generate_cloud_platform
from repro.logs.record import DEFAULT_TENANT
from repro.telemetry import SamplingProfiler
from repro.telemetry.profiling import current_stage

STAGES = ("parse", "sessionize", "detect", "classify")


@pytest.fixture(scope="module")
def corpus():
    data = generate_cloud_platform(sessions=60, anomaly_rate=0.1, seed=11)
    cut = len(data.records) * 6 // 10
    return data.records[:cut], data.records[cut:]


def _spec(sharded=False, telemetry=None):
    # Serial executor: stage markers are per thread, and a pool's
    # workers (MONILOG_EXECUTOR=thread) sample as "other" by design.
    spec = {"detector": "keyword", "streaming": True, "batch_size": 64,
            "executor": "serial", "telemetry": dict(telemetry or {})}
    if sharded:
        spec.update(shards=2, detector_shards=2)
    return PipelineSpec.from_dict(spec)


def _histogram(pipeline, name):
    return pipeline.telemetry()["metrics"][name]["values"][0]


class TestStageMarkers:
    @pytest.mark.parametrize("observers", ["telemetry", "profiler-only"])
    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["single", "sharded"])
    def test_every_stage_call_runs_under_its_marker(
            self, corpus, sharded, observers):
        history, live = corpus
        if observers == "telemetry":
            pipeline = Pipeline.from_spec(
                _spec(sharded, telemetry={"profile": True}))
        else:
            pipeline = Pipeline.from_spec(
                _spec(sharded), profiler=SamplingProfiler())
        seen = {stage: set() for stage in STAGES}

        def spy(owner, attr, stage):
            original = getattr(owner, attr)

            def recording(*args, **kwargs):
                seen[stage].add(current_stage())
                return original(*args, **kwargs)

            setattr(owner, attr, recording)

        with pipeline:
            pipeline.fit(history)
            spy(pipeline.parser, "parse_batch", "parse")
            spy(pipeline.sessionizer, "push", "sessionize")
            for detector in pipeline.detectors:
                spy(detector, "detect", "detect")
            spy(pipeline.classifier, "classify", "classify")
            alerts = pipeline.process(live) + pipeline.flush()
        assert alerts, "corpus must alert or classify is never reached"
        assert seen == {stage: {(DEFAULT_TENANT, stage)}
                        for stage in STAGES}
        assert current_stage() is None


class TestSeamContract:
    def test_dark_pipeline_shares_one_noop_handle(self, corpus):
        history, live = corpus
        with Pipeline.from_spec(_spec()) as pipeline:
            handle = pipeline._stage("parse")
            assert all(pipeline._stage(stage) is handle for stage in STAGES)
            assert pipeline._trace("batch", 0) is handle
            with handle as entered:
                assert entered is handle
                assert entered.annotate(records=3, templates=1) is None
            assert not hasattr(handle, "__dict__")  # nowhere to keep state
            pipeline.fit(history)
            assert pipeline.process(live) + pipeline.flush()
            assert pipeline._stage("detect") is handle

    def test_late_metrics_server_lights_the_next_call(self, corpus):
        history, live = corpus
        with Pipeline.from_spec(_spec()) as pipeline:
            pipeline.fit(history)
            pipeline.process(live[:50])
            assert pipeline.telemetry() is None
            pipeline.start_metrics_server(0)
            assert _histogram(pipeline, "monilog_parse_seconds")["count"] == 0
            pipeline.process(live[50:])
            assert _histogram(pipeline, "monilog_parse_seconds")["count"] == 1
            parsed = _histogram(pipeline, "monilog_parse_batch_records")
            assert parsed["sum"] == len(live) - 50

    def test_raising_stage_unwinds_marker_and_closes_span(self, corpus):
        history, live = corpus
        spec = _spec(telemetry={"tracing": True, "profile": True})
        with Pipeline.from_spec(spec) as pipeline:
            pipeline.fit(history)
            pipeline.process(live)  # leaves sessions open for the flush
            detector = pipeline.detector
            original = detector.detect

            def failing(window):
                raise RuntimeError("detector down")

            detector.detect = failing
            spans_before = len(pipeline.trace_spans(name="detect"))
            observed_before = _histogram(
                pipeline, "monilog_detect_seconds")["count"]
            with pytest.raises(RuntimeError, match="detector down"):
                pipeline.flush()
            assert current_stage() is None
            assert pipeline._observers.context is None
            # The failed stage's span and its root both closed ...
            assert (len(pipeline.trace_spans(name="detect"))
                    == spans_before + 1)
            assert pipeline.trace_spans()[-1].name == "flush"
            # ... but a failed stage is not a latency sample.
            assert _histogram(pipeline, "monilog_detect_seconds")[
                "count"] == observed_before
            detector.detect = original
            pipeline.process(live)
            pipeline.flush()
            assert _histogram(pipeline, "monilog_detect_seconds")[
                "count"] > observed_before


class TestStageHistogramsTellTheTruth:
    def test_detect_seconds_stops_before_classify(self, corpus):
        history, live = corpus
        with Pipeline.from_spec(
                _spec(telemetry={"enabled": True})) as pipeline:
            pipeline.fit(history)
            classify = pipeline.classifier.classify

            def slow_classify(report):
                time.sleep(0.02)
                return classify(report)

            pipeline.classifier.classify = slow_classify
            alerts = pipeline.process(live) + pipeline.flush()
            assert alerts
            detect = _histogram(pipeline, "monilog_detect_seconds")
            assert detect["sum"] < 0.02 * len(alerts)
            text = pipeline.metrics_text()
        assert "# HELP monilog_detect_seconds Stage-2 detect latency" in text
        assert "classify" not in text.split(
            "# HELP monilog_detect_seconds", 1)[1].split("\n", 1)[0]

    def test_sessionize_seconds_is_one_observation_per_push_loop(
            self, corpus):
        history, live = corpus
        with Pipeline.from_spec(
                _spec(telemetry={"enabled": True})) as pipeline:
            pipeline.fit(history)
            pipeline.process(live[:100])
            pipeline.process(live[100:])
            sessionize = _histogram(pipeline, "monilog_sessionize_seconds")
            assert sessionize["count"] == 2
            text = pipeline.metrics_text()
        assert ("# HELP monilog_sessionize_seconds Streaming sessionizer "
                "latency per push loop") in text


class TestProfilerFidelity:
    def test_stats_report_achieved_beside_nominal_rate(self):
        profiler = SamplingProfiler(hz=200)
        assert profiler.stats()["achieved_hz"] == 0.0  # never ran
        profiler.start()
        try:
            deadline = time.monotonic() + 10.0
            while (profiler.stats()["samples"] < 5
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            profiler.stop()
        stats = profiler.stats()
        assert stats["hz"] == 200.0
        assert 0.0 < stats["achieved_hz"] <= 200.0 * 1.5
        # Stopped: the rate is over time spent running, so it holds still.
        time.sleep(0.05)
        assert profiler.stats()["achieved_hz"] == stats["achieved_hz"]
