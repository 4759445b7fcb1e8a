"""Exception types shared across the package."""

from __future__ import annotations


class SemfuseError(Exception):
    """Base class for every error this package raises deliberately."""


class SchemaError(SemfuseError):
    """A tabular input is missing a required column or key."""


class RowError(SemfuseError):
    """A data row failed to validate; `where` is `<file>: line <n>`, n counting every line of the file."""

    def __init__(self, where: str, reason: str):
        super().__init__(f"{where}: {reason}")
        self.where = where
        self.reason = reason


class ConflictError(SemfuseError):
    """A duplicate identifier was found where uniqueness is required."""


class FormatError(SemfuseError):
    """A file does not follow its declared format."""


class DomainError(SemfuseError):
    """An argument lies outside the operation's domain."""


class UnknownKeyError(SemfuseError):
    """A lookup missed; carries the query string that failed."""

    def __init__(self, query: str, message: str | None = None):
        super().__init__(message or f"no entry for {query!r}")
        self.query = query


class CalibrationError(SemfuseError):
    """Bandwidth calibration could not reach its perplexity target."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class DivergenceError(SemfuseError):
    """An iterative optimization produced non-finite values."""

    def __init__(self, iteration: int, message: str):
        super().__init__(message)
        self.iteration = iteration


class ConfigError(SemfuseError):
    """A configuration value is invalid or a referenced path is missing."""


class PipelineError(SemfuseError):
    """A staged-pipeline input is absent; the message names the stage that produces it."""
