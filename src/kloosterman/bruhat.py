"""Bruhat data for integral matrices in the big cell B w0 B of SL_n.

The torus part is read off the lower-left corner minors; the unipotent
factors come entrywise from minor quotients and are then verified by exact
reconstruction, so a transcription error in the formulas cannot survive.
A long-word cell is cut finer by the gcd ladders of the bottom row and of
the corner minors; `long_word_members` lists a cell's members at any rank
row by row, solving each row's integrality congruences instead of walking
the full u_L x u_R coordinate grid, and `long_word_sum` sums a character
over them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BadRank, BudgetExceeded, InternalInconsistency, NotInBigCell, NotUnimodular
from .exactnum import PhaseSum, phase, solve_linear_congruence
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


def _solve_triangular(acc: list[int], unknowns: list, scale: int) -> list:
    """Solutions of acc + sum of u_k coeff_k = 0 mod scale in every column,
    0 <= u_k < bound_k, for unknowns (lead_k, coeff_k, bound_k) with strictly
    increasing leads and coeff_k zero before column lead_k.

    Unknown k is the last unknown in the columns from lead_k up to the next
    lead, so those columns are solved for it as one arithmetic progression
    and nothing is left to test once the last unknown is chosen. Returns
    (values, (acc + sum u_k coeff_k) / scale) pairs.
    """
    n = len(acc)
    if any(v % scale for v in acc[:unknowns[0][0]]):
        return []
    ends = [lead for lead, _, _ in unknowns[1:]] + [n]
    out = []

    def walk(k, acc, values):
        if k == len(unknowns):
            out.append((values, [v // scale for v in acc]))
            return
        lead, coeff, bound = unknowns[k]
        x0, step = 0, 1
        for col in range(lead, ends[k]):
            sol = solve_linear_congruence(coeff[col] * step, -acc[col] - coeff[col] * x0, scale)
            if sol is None:
                return
            # x0 + step u solves this column for u = sol[0] mod sol[1]; x0 stays below step.
            x0, step = x0 + step * sol[0], step * sol[1]
        for x in range(x0, bound, step):
            walk(k + 1, [a + x * c for a, c in zip(acc, coeff)], values + (x,))

    walk(0, acc, ())
    return out


Member = tuple[tuple[int, ...], tuple[int, ...]]


def long_word_members(cell, budget: int | None) -> Iterator[Member]:
    """Members of a long-word cell as (u_L numerators, u_R numerators), in the
    entry order of cell.left_moduli() and cell.right_moduli().

    A member is a point k / M, k in [0, M), of the cell's u_L x u_R grid whose
    matrix a = u_L w0 t u_R is integral with gcd ladders equal to cell.ladders().
    With B = w0 t u_R, row i of a is B[i] + sum over j > i of u_L[i, j] B[j],
    and B[n + 1 - r] is t_r times row r of u_R, up to sign. So rows are fixed
    bottom up: once the rows below are fixed, row n + 1 - r of a, scaled to
    integers, is linear in the same row of u_L and in row r of u_R, and each
    of those coordinates is the last unknown in a run of columns, which solve
    it as an arithmetic progression (_solve_triangular). Row n must also match
    the bottom-row ladder. Only the minor ladder couples rows; it is tested on
    the product of the rows' choices.
    The budget bounds the grid size, cell.enumeration_budget(), and is
    checked before the first member is asked for.
    """
    size = cell.enumeration_budget()
    if budget is not None and size > budget:
        raise BudgetExceeded(size, budget)
    return _row_factored_members(cell)


def _row_factored_members(cell) -> Iterator[Member]:
    torus = cell.torus()
    n = torus.n
    w0 = long_word_matrix(n)
    want = cell.ladders()
    starts = [sum(n - 1 - r for r in range(i)) for i in range(n)]
    left = [cell.left_moduli()[starts[i]:starts[i] + n - 1 - i] for i in range(n)]
    right = [cell.right_moduli()[starts[i]:starts[i] + n - 1 - i] for i in range(n)]
    # Row n - 1 - r of B (0-based) over the integer scale b_scale[r]: b_lead[r]
    # in column r and b_coeff[r][k - r - 1] * u_R numerator (r, k) in column k > r.
    b_lead, b_coeff, b_scale = [], [], []
    for r in range(n):
        t = Fraction(torus[r + 1, r + 1]) * w0[n - r, r + 1]
        lcm = math.lcm(*right[r])
        b_lead.append(t.numerator * lcm)
        b_coeff.append([t.numerator * (lcm // mod) for mod in right[r]])
        b_scale.append(t.denominator * lcm)

    def fix_rows(r, b, ys, choices):
        """Solve row i = n - 1 - r of a (0-based) with row r of u_R; b holds
        the integer rows of B below row i, choices the rows of a below it."""
        i = n - 1 - r
        scale = math.lcm(b_scale[r], *(mod * b[j][1] for j, mod in enumerate(left[i], i + 1)))
        own = scale // b_scale[r]
        acc = [0] * n
        acc[r] = b_lead[r] * own
        unknowns = [(n - 1 - j, [v * (scale // (mod * b[j][1])) for v in b[j][0]], mod)
                    for j, mod in reversed(list(enumerate(left[i], i + 1)))]
        for k, (c, mod) in enumerate(zip(b_coeff[r], right[r]), r + 1):
            unknowns.append((k, [0] * k + [c * own] + [0] * (n - 1 - k), mod))
        groups = {}
        for values, row in _solve_triangular(acc, unknowns, scale):
            if r == 0 and tuple(itertools.accumulate(map(abs, row[:-1]), math.gcd)) != want[0]:
                continue
            groups.setdefault(values[r:], []).append((values[r - 1::-1] if r else (), row))
        for y, rows in groups.items():
            if r == n - 1:
                for combo in itertools.product(rows, *choices):
                    if gcd_ladders(Matrix([row for _, row in combo])) == want:
                        yield sum((xs for xs, _ in combo), ()), ys
                continue
            b[i] = ([0] * r + [b_lead[r]] + [c * v for c, v in zip(b_coeff[r], y)], b_scale[r])
            yield from fix_rows(r + 1, b, ys + y, [rows] + choices)

    yield from fix_rows(0, [None] * n, (), [])


def long_word_sum(cell, m: Sequence[int], n: Sequence[int], budget: int | None) -> PhaseSum:
    """Sum of psi(m, u_L) + psi(n, u_R) over the members of a long-word cell
    (long_word_members), counted as integer numerators over the lcm of the
    superdiagonal moduli."""
    members = long_word_members(cell, budget)
    rank = cell.torus().n
    if len(m) != rank - 1 or len(n) != rank - 1:
        raise InternalInconsistency(f"character lengths {len(m)}, {len(n)} for rank {rank}")
    diagonal_slots = [sum(rank - 1 - r for r in range(i)) for i in range(rank - 1)]
    ml = [cell.left_moduli()[k] for k in diagonal_slots]
    mr = [cell.right_moduli()[k] for k in diagonal_slots]
    modulus = math.lcm(*ml, *mr)
    left_weights = [(k, c * (modulus // mod)) for k, c, mod in zip(diagonal_slots, m, ml)]
    right_weights = [(k, c * (modulus // mod)) for k, c, mod in zip(diagonal_slots, n, mr)]
    counts = Counter()
    for left, right in members:
        counts[sum(w * left[k] for k, w in left_weights)
               + sum(w * right[k] for k, w in right_weights)] += 1
    return PhaseSum.from_residues(counts, modulus)


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
