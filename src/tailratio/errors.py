"""Exception types shared across the package."""
from __future__ import annotations

from typing import Any

__all__ = [
    "TailratioError",
    "DomainError",
    "ModelError",
    "DataFormatError",
    "FitFailureError",
    "NoTippingPointError",
]


class TailratioError(Exception):
    """Base class for all package errors; carries a machine-readable payload."""

    code = "error"

    def __init__(self, message: str, **payload: Any) -> None:
        super().__init__(message)
        self.payload = payload

    def to_json_obj(self) -> dict[str, Any]:
        """Return the error as a JSON-serializable mapping."""
        obj: dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.payload:
            obj.update(self.payload)
        return obj


class DomainError(TailratioError):
    """An argument is outside the domain an operation is defined on."""

    code = "domain_error"


class ModelError(TailratioError):
    """A distribution model violates its structural invariants."""

    code = "model_error"


class DataFormatError(TailratioError):
    """A data file is malformed; payload carries the offending line number."""

    code = "data_format_error"

    def __init__(self, message: str, line: int | None = None, **payload: Any) -> None:
        if line is not None:
            payload["line"] = line
        super().__init__(message, **payload)
        self.line = line


class FitFailureError(TailratioError):
    """No optimizer start converged to a finite optimum; carries best-so-far."""

    code = "fit_failure"

    def __init__(self, message: str, best_model=None, best_log_likelihood=None) -> None:
        super().__init__(message)
        self.best_model = best_model
        self.best_log_likelihood = best_log_likelihood


class NoTippingPointError(TailratioError):
    """The two tail curves never cross on the search bracket."""

    code = "no_tipping_point"
