"""Aggregated configuration validation.

Config objects (:class:`~repro.api.spec.PipelineSpec`,
:class:`~repro.ingest.service.IngestConfig`) validate *all* of their knobs
and report every problem in one exception, each line naming the field
— an operator fixing a spec file should see the whole damage at once,
not play whack-a-mole with first-failure errors.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """One aggregated validation failure: every bad field, field-named.

    ``errors`` keeps the individual ``"field: problem"`` strings; the
    exception message joins them, one per line, under a header naming
    the config class.
    """

    def __init__(self, config_name: str, errors: list[str]) -> None:
        self.config_name = config_name
        self.errors = list(errors)
        lines = "\n".join(f"  - {error}" for error in self.errors)
        count = len(self.errors)
        noun = "problem" if count == 1 else "problems"
        super().__init__(f"invalid {config_name} ({count} {noun}):\n{lines}")


class Validator:
    """Collects ``field: problem`` strings, raises once at the end.

    >>> check = Validator("MyConfig")
    >>> check.require(size >= 1, "size", f"must be >= 1, got {size}")
    >>> check.done()  # raises ConfigError listing every failure
    """

    def __init__(self, config_name: str) -> None:
        self.config_name = config_name
        self.errors: list[str] = []

    def require(self, condition: bool, field: str, problem: str) -> None:
        if not condition:
            self.errors.append(f"{field}: {problem}")

    def error(self, field: str, problem: str) -> None:
        self.errors.append(f"{field}: {problem}")

    def done(self) -> None:
        if self.errors:
            raise ConfigError(self.config_name, self.errors)
