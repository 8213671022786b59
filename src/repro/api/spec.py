"""`PipelineSpec`: one declarative description of a MoniLog pipeline.

A spec names the components (by their registry names) and the knobs of
an end-to-end pipeline — parsing, windowing, detection, scale-out,
streaming, and ingestion — in one flat dataclass.
:class:`~repro.api.pipeline.Pipeline` builds the whole runtime from a
spec; the CLI maps its flags 1:1 onto spec fields.

Specs load from plain dicts, TOML, or JSON (:meth:`from_dict`,
:meth:`from_file`), accept ``MONILOG_<FIELD>`` environment overrides
(:meth:`with_env`), and validate **aggregated**: every bad field is
reported in one :class:`~repro.core.validation.ConfigError`, each line
naming the field, instead of failing on the first bad knob.

TOML example (see ``examples/pipeline.toml``)::

    parser = "drain"
    detector = "deeplog"
    shards = 4
    detector_shards = 2
    executor = "thread"

    [detector_options]
    epochs = 8

    [[sources]]
    type = "file"
    path = "live.log"
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.api.registry import REGISTRY
from repro.core.executors import default_executor_name
from repro.core.validation import ConfigError, Validator

if TYPE_CHECKING:
    from repro.ingest.service import IngestConfig

#: Environment-variable prefix of :meth:`PipelineSpec.with_env`.
ENV_PREFIX = "MONILOG_"

#: Spec table fields that hold registry-validated component options:
#: field name (== component kind) -> default component name.
_TABLE_COMPONENTS = {"telemetry": "standard", "autoscale": "aimd"}

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}

#: Tenant names key metric labels, checkpoint namespaces, and alert
#: tags, so they are restricted to a filesystem/exposition-safe set.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass
class PipelineSpec:
    """Everything needed to build one pipeline, declaratively.

    Component fields (``parser``, ``detector``, ``executor``, source
    ``type``\\ s) hold registry names; ``*_options`` dicts are keyword
    arguments forwarded to the component constructor and validated
    against its signature up front.

    Attributes:
        parser / parser_options: stage-1 template miner.  With
            ``shards > 0`` the parser must be ``"drain"`` (the
            distributed tree parser shards Drain instances).
        masking: apply the expert regex masker before mining (off =
            the fully-automated regime the paper targets).
        extract_structured: run JSON/XML payload extraction first.
        auto_calibrate / calibration_sample: unsupervised parser
            parametrization on the first records (single-instance
            pipelines only; the sharded runtime ignores it).
        windowing / window_size / min_window_events: how the structured
            stream becomes detector windows.
        detector / detector_options: stage-2 anomaly detector.  In a
            sharded pipeline each detector shard gets its own instance;
            a constructor that accepts ``seed`` (and has no pinned
            ``seed`` option) receives ``seed=<shard index>``, so the
            default sharded detectors are DeepLogs seeded 0, 1, 2, ...
        shards: parser shards; 0 = single-instance pipeline.  The
            *initial* count — ``Pipeline.reshard`` (or the autoscaler,
            with ``[autoscale] reshard = true``) resizes it live;
            rendezvous routing and template migration keep alerts
            byte-identical across a resize.
        detector_shards: detector replicas in the sharded runtime.
        batch_size: micro-batch size of the amortized parse path;
            0 = per-record processing.
        executor: how shard work runs (``serial``/``thread``/
            ``process``); defaults to ``MONILOG_EXECUTOR``, else serial.
        streaming: build in streaming mode — records push through an
            incremental sessionizer and alerts fire as sessions close.
        session_timeout / max_session_events: streaming session
            windowing knobs.
        ingest_batch_size / max_batch_age / lateness / credits /
            poll_interval: async ingestion front-end knobs (see
            :class:`~repro.ingest.service.IngestConfig`).
        checkpoint: offset checkpoint file path for ingestion resume.
        history: optional path of a training corpus; ``repro serve``
            (and ``repro stats`` without an explicit ``--history``)
            fits pipelines from it.
        sources: live-source declarations for ingestion, each a dict
            with a ``type`` naming a registered source plus its
            constructor kwargs.
        tenants: the ``[tenants.*]`` tables of a multi-tenant gateway
            spec.  Each value is a table of spec-field overrides
            applied on top of this spec for that tenant
            (:meth:`tenant_spec`); overrides validate exactly like the
            base fields, errors prefixed ``tenants.<name>``.  A
            non-empty table is what makes a spec servable by
            :class:`repro.gateway.Gateway` / ``repro serve``.
        telemetry: the ``[telemetry]`` table — options of
            :class:`~repro.telemetry.config.TelemetryConfig` (an
            optional ``type`` selects a registered implementation).
            Declaring the table enables runtime telemetry; empty dict
            (the default) runs dark with zero instrumentation cost.
        autoscale: the ``[autoscale]`` table — options of
            :class:`~repro.autoscale.config.AutoscaleConfig`.
            Declaring it arms the adaptive controller over the
            ingestion and batching knobs; ``reshard = true`` (with
            ``min_shards`` / ``max_shards`` / ``reshard_cooldown``)
            additionally lets it resize the parser shard count.
    """

    # -- stage 1: parsing -------------------------------------------------------
    parser: str = "drain"
    parser_options: dict[str, Any] = field(default_factory=dict)
    masking: bool = True
    extract_structured: bool = False
    auto_calibrate: bool = False
    calibration_sample: int = 2000
    # -- windowing --------------------------------------------------------------
    windowing: str = "session"
    window_size: int = 50
    min_window_events: int = 2
    # -- stage 2: detection -----------------------------------------------------
    detector: str = "deeplog"
    detector_options: dict[str, Any] = field(default_factory=dict)
    # -- scale-out --------------------------------------------------------------
    shards: int = 0
    detector_shards: int = 1
    batch_size: int = 512
    executor: str = field(default_factory=default_executor_name)
    # -- streaming --------------------------------------------------------------
    streaming: bool = False
    session_timeout: float = 30.0
    max_session_events: int = 1000
    # -- ingestion --------------------------------------------------------------
    ingest_batch_size: int = 256
    max_batch_age: float = 0.25
    lateness: float = 0.5
    credits: int = 4096
    poll_interval: float = 0.05
    checkpoint: str | None = None
    history: str | None = None
    sources: list[dict[str, Any]] = field(default_factory=list)
    # -- observability ----------------------------------------------------------
    telemetry: dict[str, Any] = field(default_factory=dict)
    autoscale: dict[str, Any] = field(default_factory=dict)
    # -- multi-tenant serving ---------------------------------------------------
    tenants: dict[str, dict[str, Any]] = field(default_factory=dict)

    # -- validation -------------------------------------------------------------

    def __post_init__(self) -> None:
        check = Validator(type(self).__name__)
        self._validate_components(check)
        self._validate_knobs(check)
        self._validate_tenants(check)
        check.done()

    def _validate_components(self, check: Validator) -> None:
        parser_names = REGISTRY.names("parser")
        if self.parser not in parser_names:
            check.error(
                "parser", f"unknown parser {self.parser!r}; "
                f"choose from {parser_names}"
            )
        elif not isinstance(self.parser_options, dict):
            check.error("parser_options", "must be a table/dict of options")
        else:
            for problem in REGISTRY.option_errors(
                "parser", self.parser, self.parser_options
            ):
                check.error("parser_options", problem)
        detector_names = REGISTRY.names("detector")
        if self.detector not in detector_names:
            check.error(
                "detector", f"unknown detector {self.detector!r}; "
                f"choose from {detector_names}"
            )
        elif not isinstance(self.detector_options, dict):
            check.error("detector_options", "must be a table/dict of options")
        else:
            for problem in REGISTRY.option_errors(
                "detector", self.detector, self.detector_options
            ):
                check.error("detector_options", problem)
        executor_names = REGISTRY.names("executor")
        check.require(
            self.executor in executor_names, "executor",
            f"must be one of {executor_names}, got {self.executor!r}",
        )
        if not isinstance(self.sources, (list, tuple)):
            check.error("sources", "must be an array of source tables")
        else:
            for index, entry in enumerate(self.sources):
                label = f"sources[{index}]"
                if not isinstance(entry, dict):
                    check.error(label, "must be a table/dict")
                    continue
                kind = entry.get("type")
                if not kind:
                    check.error(label, "needs a 'type' naming a source")
                    continue
                options = {k: v for k, v in entry.items() if k != "type"}
                for problem in REGISTRY.option_errors(
                    "source", kind, options
                ):
                    check.error(label, problem)
        for table_field, default_type in _TABLE_COMPONENTS.items():
            table = getattr(self, table_field)
            if not isinstance(table, dict):
                check.error(table_field, "must be a table/dict of options")
                continue
            if not table:
                continue
            name = table.get("type", default_type)
            options = {k: v for k, v in table.items() if k != "type"}
            problems = REGISTRY.option_errors(table_field, name, options)
            for problem in problems:
                check.error(table_field, problem)
            if not problems:
                # The config dataclasses are cheap: construct now so
                # value-range errors aggregate here, field-named, not
                # at pipeline build time.  Wrong *types* (a quoted
                # number in a spec file) surface from the same
                # construction as TypeError/ValueError — fold them
                # into the aggregate too instead of letting a raw
                # traceback escape the validation layer.
                try:
                    REGISTRY.create(table_field, name, options)
                except ConfigError as failure:
                    for line in failure.errors:
                        check.error(table_field, line)
                except (TypeError, ValueError) as failure:
                    check.error(table_field, str(failure))

    def _validate_knobs(self, check: Validator) -> None:
        check.require(
            self.windowing in ("session", "sliding"), "windowing",
            f"must be 'session' or 'sliding', got {self.windowing!r}",
        )
        check.require(self.window_size >= 1, "window_size",
                      f"must be >= 1, got {self.window_size}")
        check.require(self.min_window_events >= 1, "min_window_events",
                      f"must be >= 1, got {self.min_window_events}")
        check.require(self.calibration_sample >= 1, "calibration_sample",
                      f"must be >= 1, got {self.calibration_sample}")
        check.require(self.shards >= 0, "shards",
                      f"must be >= 0 (0 = single instance), got {self.shards}")
        check.require(self.detector_shards >= 1, "detector_shards",
                      f"must be >= 1, got {self.detector_shards}")
        check.require(self.batch_size >= 0, "batch_size",
                      f"must be >= 0 (0 = per-record), got {self.batch_size}")
        if self.shards > 0:
            check.require(
                self.windowing == "session", "shards",
                "sharded pipelines route detector work by session id "
                "and therefore require session windowing",
            )
            check.require(
                self.parser == "drain", "shards",
                f"sharding runs the distributed Drain; it cannot shard "
                f"{self.parser!r}",
            )
        check.require(self.session_timeout > 0, "session_timeout",
                      f"must be > 0, got {self.session_timeout}")
        check.require(self.max_session_events >= 1, "max_session_events",
                      f"must be >= 1, got {self.max_session_events}")
        check.require(self.ingest_batch_size >= 1, "ingest_batch_size",
                      f"must be >= 1, got {self.ingest_batch_size}")
        check.require(self.max_batch_age > 0, "max_batch_age",
                      f"must be > 0, got {self.max_batch_age}")
        check.require(self.lateness >= 0, "lateness",
                      f"must be >= 0, got {self.lateness}")
        check.require(self.credits >= 1, "credits",
                      f"must be >= 1, got {self.credits}")
        check.require(self.poll_interval > 0, "poll_interval",
                      f"must be > 0, got {self.poll_interval}")

    def _validate_tenants(self, check: Validator) -> None:
        if not isinstance(self.tenants, dict):
            check.error("tenants", "must be a table of per-tenant tables")
            return
        overridable = set(self.field_names()) - {"tenants"}
        for name, table in self.tenants.items():
            if not isinstance(name, str) or not _TENANT_NAME.match(name):
                check.error(
                    "tenants",
                    f"tenant name {name!r} must match "
                    "[A-Za-z0-9][A-Za-z0-9._-]* — it keys metric labels "
                    "and checkpoint namespaces",
                )
                continue
            label = f"tenants.{name}"
            if not isinstance(table, dict):
                check.error(label, "must be a table of spec-field overrides")
                continue
            unknown = [key for key in table if key not in overridable]
            for key in unknown:
                check.error(
                    label,
                    f"{key}: " + ("tenant tables cannot nest tenants"
                                  if key == "tenants" else "unknown field"),
                )
            if unknown:
                continue
            # A tenant's effective spec is this spec with the table
            # overriding; constructing it runs the full validation so
            # a bad per-tenant knob reports here, field-named, instead
            # of detonating when the gateway builds that tenant.
            try:
                self.replace(tenants={}, **table)
            except ConfigError as failure:
                for line in failure.errors:
                    check.error(label, line)

    # -- loading ----------------------------------------------------------------

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineSpec":
        """Build a spec from a plain mapping; unknown keys aggregate too."""
        if not isinstance(data, dict):
            raise ConfigError(cls.__name__,
                              [f"spec: must be a mapping, got {type(data).__name__}"])
        known = set(cls.field_names())
        errors = [
            f"{key}: unknown field (known fields: {sorted(known)})"
            for key in data if key not in known
        ]
        kwargs = {key: value for key, value in data.items() if key in known}
        try:
            spec = cls(**kwargs)
        except ConfigError as failure:
            raise ConfigError(cls.__name__, errors + failure.errors) from None
        if errors:
            raise ConfigError(cls.__name__, errors)
        return spec

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "PipelineSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".json":
            try:
                data = json.loads(text)
            except ValueError as error:
                raise ConfigError(cls.__name__,
                                  [f"{path}: invalid JSON: {error}"]) from None
        else:
            import tomllib
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as error:
                raise ConfigError(cls.__name__,
                                  [f"{path}: invalid TOML: {error}"]) from None
        return cls.from_dict(data)

    def replace(self, **overrides: Any) -> "PipelineSpec":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def with_env(self, env: dict[str, str] | None = None) -> "PipelineSpec":
        """Apply ``MONILOG_<FIELD>`` environment overrides.

        Scalar fields only (``MONILOG_SHARDS=4``, ``MONILOG_DETECTOR=pca``,
        ``MONILOG_STREAMING=true``); option tables and sources stay
        file/flag territory — except the ``[telemetry]``/``[autoscale]``
        tables, whose scalar options override as
        ``MONILOG_<TABLE>_<OPTION>`` (``MONILOG_TELEMETRY_ENABLED=1``,
        ``MONILOG_AUTOSCALE_INTERVAL=0.5``): observability must be
        switchable per run without editing a checked-in spec.
        Unparseable values aggregate into one :class:`ConfigError`
        like any other bad knob.
        """
        env = os.environ if env is None else env
        overrides: dict[str, Any] = {}
        errors: list[str] = []
        for spec_field in dataclasses.fields(self):
            if spec_field.name in ("parser_options", "detector_options",
                                   "sources", "tenants", *_TABLE_COMPONENTS):
                continue
            raw = env.get(ENV_PREFIX + spec_field.name.upper())
            if raw is None:
                continue
            current = getattr(self, spec_field.name)
            try:
                overrides[spec_field.name] = _coerce(raw, current)
            except ValueError as error:
                errors.append(
                    f"{spec_field.name}: bad {ENV_PREFIX}"
                    f"{spec_field.name.upper()} value {raw!r} ({error})"
                )
        for table_field, default_type in _TABLE_COMPONENTS.items():
            table = dict(getattr(self, table_field) or {})
            component = REGISTRY.get(table_field,
                                     table.get("type", default_type))
            changed = False
            for option in dataclasses.fields(component.cls):
                variable = (f"{ENV_PREFIX}{table_field.upper()}"
                            f"_{option.name.upper()}")
                raw = env.get(variable)
                if raw is None:
                    continue
                if option.name in table:
                    current = table[option.name]
                elif option.default is not dataclasses.MISSING:
                    current = option.default
                else:
                    current = None
                try:
                    table[option.name] = _coerce(raw, current,
                                                 guess_numeric=True)
                    changed = True
                except ValueError as error:
                    errors.append(
                        f"{table_field}.{option.name}: bad {variable} "
                        f"value {raw!r} ({error})"
                    )
            if changed:
                if not getattr(self, table_field) and "enabled" not in table:
                    # Declaring the table (or MONILOG_<TABLE>_ENABLED,
                    # or a CLI flag) is the opt-in; a tuning variable
                    # like MONILOG_AUTOSCALE_INTERVAL exported globally
                    # must not arm the subsystem on specs that never
                    # asked for it — carry the tuning, stay dark.
                    table["enabled"] = False
                overrides[table_field] = table
        if errors:
            raise ConfigError(type(self).__name__, errors)
        return self.replace(**overrides) if overrides else self

    def ingest_config(self) -> IngestConfig:
        """The ingestion front-end knobs as an
        :class:`~repro.ingest.service.IngestConfig`."""
        from repro.ingest.service import IngestConfig

        return IngestConfig(
            batch_size=self.ingest_batch_size,
            max_batch_age=self.max_batch_age,
            lateness=self.lateness,
            credits=self.credits,
            poll_interval=self.poll_interval,
        )

    def tenant_spec(self, name: str) -> "PipelineSpec":
        """The effective spec of one declared tenant.

        This spec with the tenant's ``[tenants.<name>]`` table
        overriding and the tenants table cleared — the single-pipeline
        spec the gateway builds that tenant from.
        """
        if name not in self.tenants:
            raise KeyError(
                f"unknown tenant {name!r}; declared: {sorted(self.tenants)}")
        return self.replace(tenants={}, **self.tenants[name])

    def build_sources(self) -> list[Any]:
        """Construct the declared live sources through the registry."""
        return [
            REGISTRY.create(
                "source", entry["type"],
                {key: value for key, value in entry.items() if key != "type"},
            )
            for entry in self.sources
        ]

    def _table_config(self, table_field: str) -> Any | None:
        table = getattr(self, table_field)
        if not table:
            return None
        config = REGISTRY.create(
            table_field, table.get("type", _TABLE_COMPONENTS[table_field]),
            {key: value for key, value in table.items() if key != "type"},
        )
        return config if config.enabled else None

    def telemetry_config(self):
        """The ``[telemetry]`` table as a
        :class:`~repro.telemetry.config.TelemetryConfig`, or ``None``
        when telemetry is off (no table, or ``enabled = false``)."""
        return self._table_config("telemetry")

    def autoscale_config(self):
        """The ``[autoscale]`` table as an
        :class:`~repro.autoscale.config.AutoscaleConfig`, or ``None``
        when autoscaling is off."""
        return self._table_config("autoscale")


def _coerce(raw: str, current: Any, guess_numeric: bool = False) -> Any:
    """Parse an environment string against the field's current type.

    ``guess_numeric`` governs ``current is None``: table options like
    ``metrics_port`` default to ``None`` but want the numeric reading,
    while top-level optional fields like ``checkpoint`` are paths —
    a checkpoint directory named ``2024`` must stay a string.
    """
    if current is None:
        if guess_numeric:
            for parse in (int, float):
                try:
                    return parse(raw)
                except ValueError:
                    continue
        return raw
    if isinstance(current, bool):
        lowered = raw.strip().lower()
        if lowered in _TRUTHY:
            return True
        if lowered in _FALSY:
            return False
        raise ValueError("expected a boolean like '1'/'0'/'true'/'false'")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw
