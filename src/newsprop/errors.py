"""Exception types and the row-level rejection record shared by the loaders."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RowRejection:
    """One rejected data row. Row numbers count data rows; the header is row 0."""

    row: int
    reason: str

    def __str__(self) -> str:
        return f"row {self.row}: {self.reason}"


class LoadError(ValueError):
    """A data file violates its schema badly enough to reject the whole file."""


class NoSnapshotError(LookupError):
    """No supply-chain snapshot exists for the requested year."""


class EmptyPanelError(ValueError):
    """A regression was requested on a panel with no observations."""


class CollinearError(ValueError):
    """The demeaned design matrix is rank deficient."""

    def __init__(self, column: str):
        super().__init__(f"collinear design: column '{column}' carries no independent variation")
        self.column = column


class InsufficientDataError(ValueError):
    """Too few observations for the absorbed sectors and slope parameters."""


class DegenerateVarianceError(ValueError):
    """A difference test was requested with zero variance but nonzero difference."""


class DuplicateFitError(ValueError):
    """Two fits share the same (mode, polarity, window) cell."""


class BadBinError(ValueError):
    """Histogram bin width must be positive."""


class SimConfigError(ValueError):
    """A simulation configuration violates its invariants."""
