"""Bruhat data for integral matrices in the big cell B w0 B of SL_n.

The torus part is read off the lower-left corner minors; the unipotent
factors come entrywise from minor quotients and are then verified by exact
reconstruction, so a transcription error in the formulas cannot survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadRank, InternalInconsistency, NotInBigCell, NotUnimodular
from .exactnum import phase
from .matrixcore import Matrix, det, diagonal, identity, mat_prod, minor
from .weyl import long_word_matrix


@dataclass(frozen=True)
class BruhatDecomposition:
    u_L: Matrix
    t_values: tuple[Fraction, ...]
    u_R: Matrix
    weyl: Matrix

    def torus_matrix(self) -> Matrix:
        return diagonal(self.t_values)

    def reconstruct(self) -> Matrix:
        return mat_prod(self.u_L, self.weyl, self.torus_matrix(), self.u_R)


def corner_minors(a: Matrix) -> list:
    """M_{(n-k+1..n),(1..k)} for k = 1..n-1."""
    n = a.n
    return [minor(a, range(n - k + 1, n + 1), range(1, k + 1)) for k in range(1, n)]


def t_from_minors(a: Matrix) -> tuple:
    """Torus data (t1, t1 t2, ..., t1...t_{n-1}) from the corner minors."""
    cs = corner_minors(a)
    if any(v == 0 for v in cs):
        raise NotInBigCell(f"corner minors {cs} contain zero")
    return tuple(cs)


def _u_left_entry(a: Matrix, i: int, j: int, c: list) -> Fraction:
    n = a.n
    rows = [i] + list(range(j + 1, n + 1))
    cols = list(range(1, n - j + 2))
    return Fraction(minor(a, rows, cols), c[n - j])


def _u_right_entry(a: Matrix, i: int, j: int, c: list) -> Fraction:
    n = a.n
    rows = list(range(n - i + 1, n + 1))
    cols = list(range(1, i)) + [j]
    return Fraction(minor(a, rows, cols), c[i - 1])


def decompose(a: Matrix) -> BruhatDecomposition:
    """Exact decomposition a = u_L * w0 * diag(t) * u_R in the big cell."""
    if det(a) != 1:
        raise NotUnimodular(f"determinant is {det(a)}, not 1")
    n = a.n
    if n < 2:
        raise BadRank(f"rank must be at least 2, got {n}")
    cs = t_from_minors(a)
    t_values = [Fraction(cs[0])]
    for k in range(1, n - 1):
        t_values.append(Fraction(cs[k], cs[k - 1]))
    t_values.append(Fraction(1, cs[n - 2]))

    ul = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    ur = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ul[i - 1][j - 1] = _u_left_entry(a, i, j, cs)
            ur[i - 1][j - 1] = _u_right_entry(a, i, j, cs)

    decomposition = BruhatDecomposition(
        u_L=Matrix(ul),
        t_values=tuple(t_values),
        u_R=Matrix(ur),
        weyl=long_word_matrix(n),
    )
    if decomposition.reconstruct() != a:
        raise InternalInconsistency("minor-quotient factors do not reproduce the input")
    return decomposition


def psi(character: tuple[int, ...], u: Matrix) -> Fraction:
    """Phase of the superdiagonal character: sum of char[i] * u[i, i+1] mod 1."""
    n = u.n
    if len(character) != n - 1:
        raise InternalInconsistency(f"character length {len(character)} for rank {n}")
    total = Fraction(0)
    for i in range(1, n):
        total += character[i - 1] * Fraction(u[i, i + 1])
    return phase(total)


def elementary(n: int, i: int, j: int, k: int) -> Matrix:
    rows = [list(r) for r in identity(n).rows]
    rows[i - 1][j - 1] = k
    return Matrix(rows)


def random_big_cell_matrix(n: int, rng: random.Random, min_factors: int = 8, max_factors: int = 20) -> Matrix:
    """Seeded product of elementary matrices E_{ij}(k), k in [-3,3]\\{0},
    retried until every corner minor is nonzero."""
    while True:
        a = identity(n)
        for _ in range(rng.randint(min_factors, max_factors)):
            i = rng.randint(1, n)
            j = rng.randint(1, n - 1)
            if j >= i:
                j += 1
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            a = mat_prod(a, elementary(n, i, j, k))
        if all(v != 0 for v in corner_minors(a)):
            return a
