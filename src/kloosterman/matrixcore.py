"""Exact square-matrix arithmetic with the selection convention for minors.

M_{I,J} is the determinant of the submatrix obtained by *selecting* rows I
and columns J (1-based, strictly increasing index sets). The full-size minor
therefore equals the determinant.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

from .errors import BadIndexSet, BadMatrixFile, SizeMismatch

Scalar = int | Fraction


class Matrix:
    """Immutable n x n matrix with exact int or Fraction entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise SizeMismatch("matrix must be square and nonempty")
        self.n = n
        self.rows = tuple(tuple(_normalize(v) for v in r) for r in rows)

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        """1-based entry access: m[i, j]."""
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"Matrix[{body}]"

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for r in self.rows for v in r)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def to_json(self) -> dict:
        entries = []
        for r in self.rows:
            entries.append([v if isinstance(v, int) else [v.numerator, v.denominator] for v in r])
        return {"n": self.n, "entries": entries}


def _normalize(v) -> Scalar:
    if isinstance(v, bool):
        raise SizeMismatch("boolean is not a matrix entry")
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


def identity(n: int) -> Matrix:
    return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def diagonal(values: Sequence[Scalar]) -> Matrix:
    n = len(values)
    return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.n != b.n:
        raise SizeMismatch(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    n = a.n
    bt = b.transpose().rows
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.rows])


def mat_prod(*ms: Matrix) -> Matrix:
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def det(m: Matrix) -> Scalar:
    """Exact determinant.

    Integer matrices go through fraction-free (Bareiss) elimination; rational
    matrices are row-scaled to integers first and the scaling divided out.
    """
    scale = Fraction(1)
    work = []
    for row in m.rows:
        den = math.lcm(*(v.denominator for v in row if isinstance(v, Fraction)))
        scale *= den
        work.append([int(v * den) for v in row])
    d = _bareiss_det(work)
    if scale == 1:
        return d
    out = Fraction(d) / scale
    return out.numerator if out.denominator == 1 else out


def _bareiss_det(a: list[list[int]]) -> int:
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _check_index_set(idx: Sequence[int], n: int) -> tuple[int, ...]:
    out = tuple(idx)
    if not out:
        raise BadIndexSet("index set may not be empty")
    if any(not isinstance(i, int) or i < 1 or i > n for i in out):
        raise BadIndexSet(f"indices must lie in 1..{n}: {out}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise BadIndexSet(f"indices must be strictly increasing: {out}")
    return out


def minor(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Scalar:
    """M_{I,J}: determinant of the submatrix on rows I and columns J."""
    ri = _check_index_set(rows, m.n)
    ci = _check_index_set(cols, m.n)
    if len(ri) != len(ci):
        raise BadIndexSet(f"row and column sets must have equal size: {ri} vs {ci}")
    sub = [[m.rows[i - 1][j - 1] for j in ci] for i in ri]
    return det(Matrix(sub))


def matrix_to_file(m: Matrix, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(m.to_json(), fh)
        fh.write("\n")


def _entry_from_json(v) -> Scalar:
    if isinstance(v, list):
        num, den = v
        return Fraction(num, den)
    return v


def matrix_from_json(doc: dict) -> Matrix:
    """Matrix from {"n": ..., "entries": [[...], ...]}; a [num, den] pair is a fraction."""
    try:
        n = doc["n"]
        entries = doc["entries"]
        if len(entries) != n:
            raise SizeMismatch(f"expected {n} rows, got {len(entries)}")
        return Matrix([[_entry_from_json(v) for v in r] for r in entries])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadMatrixFile(f"not a matrix document: {exc!r}") from None


def matrix_from_file(path: str) -> Matrix:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadMatrixFile(f"cannot read matrix file {path}: {exc}") from None
    return matrix_from_json(doc)
