"""MoniLog reproduction: automated log-based anomaly detection.

This package reproduces *MoniLog: An Automated Log-Based Anomaly
Detection System for Cloud Computing Infrastructures* (Vervaet,
ICDE 2021): a three-stage pipeline that structures a multi-source log
stream, detects sequential and quantitative anomalies, and classifies
them into team pools with criticalities learned passively from
administrator actions.

Quickstart::

    from repro import Pipeline, PipelineSpec
    from repro.datasets import generate_cloud_platform

    data = generate_cloud_platform(sessions=500)
    pipeline = Pipeline.from_spec(PipelineSpec())
    pipeline.fit(data.records[: len(data.records) // 2])
    for alert in pipeline.run(data.records[len(data.records) // 2:]):
        print(alert.report.summary(), "->", alert.pool, alert.criticality)

Subpackages: :mod:`repro.api` (component registry, PipelineSpec, and
the Pipeline facade), :mod:`repro.logs` (data model & streams),
:mod:`repro.datasets` (ground-truthed generators),
:mod:`repro.parsing` (9 template miners + distribution),
:mod:`repro.nn` (numpy LSTM stack), :mod:`repro.detection`
(detectors), :mod:`repro.classify` (pool system & passive learning),
:mod:`repro.metrics`, :mod:`repro.core` (executors, streaming
sessionizer, calibration), :mod:`repro.ingest` (async live ingestion),
:mod:`repro.telemetry` (runtime metrics + Prometheus/JSON exposition),
:mod:`repro.autoscale` (adaptive batch/credit control),
:mod:`repro.eval`.
"""

from repro.api.pipeline import Pipeline, PipelineStats
from repro.api.spec import PipelineSpec
from repro.core.reports import AnomalyReport, ClassifiedAlert

__version__ = "1.0.0"

__all__ = [
    "AnomalyReport",
    "ClassifiedAlert",
    "IngestConfig",
    "Pipeline",
    "PipelineSpec",
    "PipelineStats",
    "__version__",
]


def __getattr__(name: str):
    # Resolved on first use so ``import repro`` does not pay for the
    # asyncio ingestion stack.
    if name == "IngestConfig":
        from repro.ingest.service import IngestConfig

        return IngestConfig
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
