"""Shared error types.

Every domain error raised by this package derives from KloostermanError so
the CLI can map them to exit code 1 with a stable machine-readable code.
"""

from __future__ import annotations


class KloostermanError(Exception):
    """Base class; `code` is the stable identifier surfaced by the CLI."""

    code = "error"


class EmptyInput(KloostermanError):
    code = "empty-input"


class NotInvertible(KloostermanError):
    code = "not-invertible"


class NonPositive(KloostermanError):
    code = "non-positive"


class BadIndexSet(KloostermanError):
    code = "bad-index-set"


class SizeMismatch(KloostermanError):
    code = "size-mismatch"


class BadMatrixFile(KloostermanError):
    code = "bad-matrix-file"


class BadRank(KloostermanError):
    code = "bad-rank"


class BadRoot(KloostermanError):
    code = "bad-root"


class BadLetter(KloostermanError):
    code = "bad-letter"


class NotInBigCell(KloostermanError):
    code = "not-in-big-cell"


class InternalInconsistency(KloostermanError):
    code = "internal-inconsistency"


class NotUnimodular(KloostermanError):
    code = "not-unimodular"


class CellMismatch(KloostermanError):
    code = "cell-mismatch"


class NonIntegralRefinement(KloostermanError):
    code = "non-integral-refinement"


class NegativeCellData(KloostermanError):
    code = "negative-cell-data"


class BudgetExceeded(KloostermanError):
    code = "budget-exceeded"

    def __init__(self, budget: int, limit: int):
        super().__init__(f"enumeration budget {budget} exceeds limit {limit}")
        self.budget = budget
        self.limit = limit


class OddSize(KloostermanError):
    code = "odd-size"


class SeedRequired(KloostermanError):
    code = "seed-required"
