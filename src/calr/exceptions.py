"""Exception hierarchy shared across the package.

Two branches matter to callers: InputError (bad data or parameters, CLI
exit code 1) and FitDiagnostic (the algorithm ran but could not finish
under its assumptions, CLI exit code 2).  as_points is the one shape
check behind every batch method that takes points, and _int_at_least the
one check of a count or seed.
"""

from __future__ import annotations

import numpy as np


class CalrError(Exception):
    """Base class for every error raised by this package."""


class InputError(CalrError):
    """Invalid user input: bad file, bad shape, bad parameter."""


class CsvFormatError(InputError):
    """Malformed CSV; carries the offending row/column when known."""

    def __init__(self, message, row=None, column=None):
        if row is not None:
            where = f" (row {row}" + (f", column {column})" if column is not None else ")")
            message = message + where
        super().__init__(message)
        self.row = row
        self.column = column


class SchemaError(InputError):
    """A persisted JSON document does not match the expected schema."""


class DimensionMismatchError(InputError):
    """Operands disagree on the ambient dimension d."""


class PlacementError(InputError):
    """Generator parameters are too crowded to place disjoint regions."""


class FitDiagnostic(CalrError):
    """Base class for algorithmic diagnostics (not user input errors)."""


class ConvergenceError(FitDiagnostic):
    """An iterative solver exhausted its budget without a certificate."""


class BudgetExhaustedError(FitDiagnostic):
    """Sampling budget ran out before the requested model was assembled.

    Carries the partial set of accepted models and a usable fallback so a
    caller can still report or persist something meaningful.
    """

    def __init__(self, message, partial_models=(), samples_used=0, fallback=None):
        super().__init__(message)
        self.partial_models = list(partial_models)
        self.samples_used = samples_used
        self.fallback = fallback


class SeparabilityError(FitDiagnostic):
    """The data violated a separability assumption mid-construction."""


def _int_at_least(value, low) -> bool:
    """Whether value is an int or numpy integer >= low: 1.5 and "2" are not counts."""
    return isinstance(value, (int, np.integer)) and value >= low


def as_points(X, d) -> np.ndarray:
    """X as a float (k, d) array; DimensionMismatchError for any other shape.

    d of None accepts any number of columns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (d is not None and X.shape[1] != d):
        raise DimensionMismatchError(f"expected points of dimension {d}, got shape {X.shape}")
    return X
