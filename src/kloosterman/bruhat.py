"""Bruhat data for integral matrices in the big cell B w0 B of SL_n.

The torus part is read off the lower-left corner minors; the unipotent
factors come entrywise from minor quotients and are then verified by exact
reconstruction, so a transcription error in the formulas cannot survive.
A long-word cell is cut finer by the gcd ladders of the bottom row and of
the corner minors; `grid_walk` sums a character over a cell at any rank by
walking its full u_L x u_R coordinate grid.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadRank, BudgetExceeded, InternalInconsistency, NotInBigCell, NotUnimodular
from .exactnum import PhaseSum, phase
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


def gcd_ladders(a: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prefix gcds of the bottom row a[n, 1..k] and of the corner (n-1)-minors
    on columns 1..n-1 that leave out rows 1, 2, ..., k, for k = 1..n-1.

    For an integral matrix of determinant 1 both ladders end on the same value.
    """
    n = a.n
    cols = range(1, n)
    g = h = 0
    row, minors = [], []
    for k in range(1, n):
        g = math.gcd(g, a[n, k])
        h = math.gcd(h, minor(a, [i for i in range(1, n + 1) if i != k], cols))
        row.append(g)
        minors.append(h)
    return tuple(row), tuple(minors)


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


def unipotent(n: int, numerators: Sequence[int], moduli: Sequence[int]) -> Matrix:
    """Upper unitriangular n x n matrix with numerator / modulus above the
    diagonal, entries in the order (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), num, mod in zip(positions, numerators, moduli):
        rows[i][j] = Fraction(num, mod)
    return Matrix(rows)


def grid_walk(cell, m: Sequence[int], n: Sequence[int], budget: int | None) -> PhaseSum:
    """Sum of psi(m, u_L) + psi(n, u_R) over the members of a long-word cell.

    Walks every u_L x u_R pair whose coordinates are k / M, k in [0, M), with
    M from cell.left_moduli() and cell.right_moduli(). The candidate
    u_L w0 t u_R is a member when it is integral and its gcd ladders equal
    cell.ladders(). The budget bounds the grid size, cell.enumeration_budget().
    """
    size = cell.enumeration_budget()
    if budget is not None and size > budget:
        raise BudgetExceeded(size, budget)
    torus = cell.torus()
    rank = torus.n
    w0 = long_word_matrix(rank)
    ml = cell.left_moduli()
    mr = cell.right_moduli()
    want = cell.ladders()
    out = PhaseSum()
    for nums_left in itertools.product(*map(range, ml)):
        u_left = unipotent(rank, nums_left, ml)
        left = mat_prod(u_left, w0, torus)
        for nums_right in itertools.product(*map(range, mr)):
            u_right = unipotent(rank, nums_right, mr)
            a = mat_prod(left, u_right)
            if a.is_integral() and gcd_ladders(a) == want:
                out.add_term(psi(m, u_left) + psi(n, u_right), 1)
    return out


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
