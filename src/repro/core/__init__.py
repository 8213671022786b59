"""MoniLog core: the runtime pieces the pipeline composes.

* :mod:`repro.core.reports` — anomaly reports and classified alerts,
  the data flowing between stages 2 and 3.
* :mod:`repro.core.executors` — pluggable shard executors (serial /
  thread pool / process pool) behind sharded pipelines.
* :mod:`repro.core.streaming` — the incremental session windower and
  the ingestion hand-off point.
* :mod:`repro.core.calibration` — unsupervised auto-parametrization of
  parsers (paper §IV's acquire → calibrate → parse flow).
* :mod:`repro.core.validation` — aggregated, field-named config errors.

The pipeline itself is :class:`repro.api.pipeline.Pipeline`.
"""

from repro.core.reports import AnomalyReport, ClassifiedAlert
from repro.core.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    ThreadedExecutor,
    resolve_executor,
)
from repro.core.calibration import AutoCalibrator, CalibrationResult
from repro.core.streaming import StreamingSessionizer

__all__ = [
    "AnomalyReport",
    "AutoCalibrator",
    "CalibrationResult",
    "ClassifiedAlert",
    "EXECUTORS",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "StreamingSessionizer",
    "ThreadedExecutor",
    "resolve_executor",
]
