"""SL5 long-word cells: parametrization by ten 2x2 blocks and a small oracle.

Mirrors the SL4 layer one rank up and builds through the same block product,
`sl4fine.build_from_gammas`. A fine cell carries nine d-parameters and
f; canonical coordinates live at twenty superdiagonal positions. Only the
enumeration oracle is provided at this rank, with a budget guard, since the
coordinate grid grows as the product of all twenty moduli.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bruhat import decompose, psi
from .errors import BudgetExceeded, InternalInconsistency, NegativeCellData
from .exactnum import PhaseSum, gcd_many
from .matrixcore import Matrix, diagonal, mat_prod, minor
from .sl4fine import GammaFactor, KloostermanResult, build_from_gammas
from .weyl import long_word_matrix


@dataclass(frozen=True)
class SL5FineCellLabel:
    d1: int
    d2: int
    d3: int
    d4: int
    d5: int
    d6: int
    d7: int
    d8: int
    d9: int
    f: int

    def __post_init__(self):
        if any(v < 1 for v in self.as_tuple()):
            raise NegativeCellData(f"cell data must be positive: {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, ...]:
        return (self.d1, self.d2, self.d3, self.d4, self.d5,
                self.d6, self.d7, self.d8, self.d9, self.f)

    @property
    def big_d(self) -> tuple[int, int, int, int]:
        """(D1, D2, D3, D4) = (d7 d8 d9, d4 d5 d6 d8 d9, d2 d3 d5 d6 d9, d1 d3 d6)."""
        return (self.d7 * self.d8 * self.d9,
                self.d4 * self.d5 * self.d6 * self.d8 * self.d9,
                self.d2 * self.d3 * self.d5 * self.d6 * self.d9,
                self.d1 * self.d3 * self.d6)

    @property
    def moduli(self) -> tuple[int, int, int, int]:
        return tuple(D * self.f for D in self.big_d)

    def torus(self) -> Matrix:
        d1, d2, d3, d4, d5, d6, d7, d8, d9, f = self.as_tuple()
        return diagonal([
            Fraction(d7 * d8 * d9 * f),
            Fraction(d4 * d5 * d6, d7),
            Fraction(d2 * d3, d4 * d8),
            Fraction(d1, d2 * d5 * d9),
            Fraction(1, d1 * d3 * d6 * f),
        ])

    def left_moduli(self) -> dict[tuple[int, int], int]:
        d1, d2, d3, d4, d5, d6, d7, d8, d9, f = self.as_tuple()
        c1, c2, _, _ = self.moduli
        return {(1, 2): d1, (1, 3): d1 * d2 * d3, (1, 4): c2, (1, 5): c1,
                (2, 3): d2 * d3, (2, 4): c2, (2, 5): c1,
                (3, 4): d4 * d5 * d6, (3, 5): c1, (4, 5): c1}

    def right_moduli(self) -> dict[tuple[int, int], int]:
        d1, d2, d3, d4, d5, d6, d7, d8, d9, f = self.as_tuple()
        c1, c2, c3, _ = self.moduli
        return {(1, 2): d7, (1, 3): d7 * d8, (1, 4): d7 * d8 * d9, (1, 5): c1,
                (2, 3): d4 * d8, (2, 4): d4 * d5 * d8 * d9, (2, 5): c2,
                (3, 4): d2 * d5 * d9, (3, 5): c3, (4, 5): d1 * d3 * d6 * f}

    def enumeration_budget(self) -> int:
        out = 1
        for v in self.left_moduli().values():
            out *= v
        for v in self.right_moduli().values():
            out *= v
        return out


@dataclass(frozen=True)
class SL5AuxQuantities:
    u1: int
    u2: int
    u3: int
    u4: int
    v1: int
    v2: int
    v3: int
    v4: int

    @classmethod
    def from_coordinates(cls, cell: SL5FineCellLabel,
                         coords: Sequence[tuple[int, int]]) -> "SL5AuxQuantities":
        d1, d2, d3, d4, d5, d6, d7, d8, d9, _ = cell.as_tuple()
        x = [c[0] for c in coords]
        y = [c[1] for c in coords]

        def xi(i):
            return x[i - 1]

        def yi(i):
            return y[i - 1]

        return cls(
            u1=d1 * xi(2) + d2 * xi(3) * yi(1),
            u2=d2 * xi(4) + d4 * xi(5) * yi(2),
            u3=d4 * xi(7) + d7 * xi(8) * yi(4),
            u4=d6 * xi(9) * yi(5) + d9 * xi(10) * yi(6),
            v1=d1 * xi(2) * yi(3) + d2 * yi(1),
            v2=d2 * xi(4) * yi(5) + d4 * yi(2),
            v3=d4 * xi(7) * yi(8) + d7 * yi(4),
            v4=d6 * xi(9) * yi(10) + d9 * xi(5) * yi(6),
        )


def sl5_gcd_lemma_holds(a: Matrix) -> bool:
    """Bottom-row gcd equals the gcd of the four corner 4-minors."""
    row = gcd_many([a[5, 1], a[5, 2], a[5, 3], a[5, 4]])
    minors = gcd_many([
        minor(a, (2, 3, 4, 5), (1, 2, 3, 4)),
        minor(a, (1, 2, 3, 5), (1, 2, 3, 4)),
        minor(a, (1, 2, 4, 5), (1, 2, 3, 4)),
        minor(a, (1, 3, 4, 5), (1, 2, 3, 4)),
    ])
    return row == minors


def sl5_display_factors(cell: SL5FineCellLabel, gammas: Sequence[GammaFactor]):
    """Decompose the built matrix and check every closed coordinate display.

    Returns (u_L, t, u_R). Raises InternalInconsistency if any displayed
    entry disagrees with the minor-quotient decomposition.
    """
    d1, d2, d3, d4, d5, d6, d7, d8, d9, f = cell.as_tuple()
    a = build_from_gammas(cell, gammas)
    dec = decompose(a)
    coords = [(g.x, g.y) for g in gammas]
    x = [c[0] for c in coords]
    y = [c[1] for c in coords]
    aux = SL5AuxQuantities.from_coordinates(cell, coords)
    want_left = {
        (1, 2): Fraction(x[0], d1),
        (1, 3): Fraction(x[0] * aux.u1 - d2 * x[2], d1 * d2 * d3),
        (2, 3): Fraction(aux.u1, d2 * d3),
        (3, 4): Fraction(d3 * aux.u2 + d4 * d5 * x[5] * y[2], d4 * d5 * d6),
        (4, 5): Fraction(d5 * d6 * aux.u3 + d7 * d8 * aux.u4, d7 * d8 * d9 * f),
    }
    want_right = {
        (1, 2): Fraction(y[6], d7),
        (1, 3): Fraction(y[7], d7 * d8),
        (1, 4): Fraction(y[8], d7 * d8 * d9),
        (1, 5): Fraction(y[9], d7 * d8 * d9 * f),
        (2, 3): Fraction(aux.v3, d4 * d8),
        (2, 4): Fraction(d5 * y[8] * aux.u3 + d7 * d8 * y[4], d4 * d5 * d8 * d9),
        (3, 4): Fraction(d8 * aux.v2 + d2 * d5 * x[7] * y[8], d2 * d5 * d9),
        (4, 5): Fraction(d5 * d9 * aux.v1 + d1 * d3 * aux.v4, d1 * d3 * d6 * f),
    }
    for (i, j), v in want_left.items():
        if dec.u_L[i, j] != v:
            raise InternalInconsistency(f"u_L[{i},{j}] is {dec.u_L[i, j]}, display gives {v}")
    for (i, j), v in want_right.items():
        if dec.u_R[i, j] != v:
            raise InternalInconsistency(f"u_R[{i},{j}] is {dec.u_R[i, j]}, display gives {v}")
    if dec.torus_matrix() != cell.torus():
        raise InternalInconsistency("torus part does not match the cell data")
    return dec.u_L, dec.torus_matrix(), dec.u_R


def _effective_characters(m: Sequence[int], n: Sequence[int], strict_paper_psi: bool):
    if strict_paper_psi:
        return (m[0], m[1], m[2], m[2]), (n[0], n[1], n[2], n[2])
    return tuple(m), tuple(n)


def sl5_fine_sum_oracle(cell: SL5FineCellLabel, m: Sequence[int], n: Sequence[int],
                        budget: int | None = 2_000_000,
                        strict_paper_psi: bool = False) -> KloostermanResult:
    """Enumerate the twenty-coordinate grid and sum phases of cell members.

    Membership: the candidate u_L w0 t u_R is integral and all gcd ladders of
    the bottom row and of the corner 4-minors take the cell's values. The
    corner invariants themselves are fixed by t, so only the refinements are
    tested.
    """
    size = cell.enumeration_budget()
    if budget is not None and size > budget:
        raise BudgetExceeded(size, budget)
    d1, d2, d3, d4, d5, d6, d7, d8, d9, f = cell.as_tuple()
    ml = cell.left_moduli()
    mr = cell.right_moduli()
    keys_left = sorted(ml)
    keys_right = sorted(mr)
    w0 = long_word_matrix(5)
    tmat = cell.torus()
    d4f = cell.big_d[3] * f
    em, en = _effective_characters(m, n, strict_paper_psi)
    out = PhaseSum()
    for nums_left in itertools.product(*[range(ml[k]) for k in keys_left]):
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(5)] for i in range(5)]
        for k, v in zip(keys_left, nums_left):
            rows[k[0] - 1][k[1] - 1] = Fraction(v, ml[k])
        u_left = Matrix(rows)
        left = mat_prod(u_left, w0, tmat)
        for nums_right in itertools.product(*[range(mr[k]) for k in keys_right]):
            rows = [[Fraction(1) if i == j else Fraction(0) for j in range(5)] for i in range(5)]
            for k, v in zip(keys_right, nums_right):
                rows[k[0] - 1][k[1] - 1] = Fraction(v, mr[k])
            u_right = Matrix(rows)
            a = mat_prod(left, u_right)
            if not a.is_integral():
                continue
            if gcd_many([a[5, 1], a[5, 2]]) != d8 * d9 * f:
                continue
            if gcd_many([a[5, 1], a[5, 2], a[5, 3]]) != d9 * f:
                continue
            if gcd_many([a[5, 1], a[5, 2], a[5, 3], a[5, 4]]) != f:
                continue
            m1345 = minor(a, (1, 3, 4, 5), (1, 2, 3, 4))
            if gcd_many([d4f, m1345]) != d3 * d6 * f:
                continue
            m1245 = minor(a, (1, 2, 4, 5), (1, 2, 3, 4))
            if gcd_many([d4f, m1345, m1245]) != d6 * f:
                continue
            out.add_term(psi(em, u_left) + psi(en, u_right), 1)
    query = {"kind": "fine5", "cell": list(cell.as_tuple()), "m": list(m), "n": list(n),
             "strict_paper_psi": strict_paper_psi}
    return KloostermanResult.from_exact(out, "oracle", query)
