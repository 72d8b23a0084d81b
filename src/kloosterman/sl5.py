"""SL5 long-word cells: parametrization by ten 2x2 blocks and a small oracle.

Mirrors the SL4 layer one rank up and builds through the same block product,
`sl4fine.build_from_gammas`. A fine cell carries nine d-parameters and
f; canonical coordinates live at twenty superdiagonal positions. Only the
enumeration oracle is provided at this rank: `bruhat.long_word_sum` over the
row-factored enumerator `bruhat.long_word_members`. Its budget guard bounds
the size of the twenty-coordinate grid, the product of all twenty moduli,
although the enumerator does not walk that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bruhat import decompose, long_word_sum
from .errors import InternalInconsistency, NegativeCellData
from .matrixcore import Matrix, diagonal
from .sl4fine import GammaFactor, KloostermanResult, build_from_gammas

DEFAULT_BUDGET = 2_000_000


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

    def left_moduli(self) -> tuple[int, ...]:
        """Denominators of u_L coordinates, ordered (12), (13), (14), (15),
        (23), (24), (25), (34), (35), (45)."""
        d1, d2, d3, d4, d5, d6, d7, d8, d9, f = self.as_tuple()
        c1, c2, _, _ = self.moduli
        return (d1, d1 * d2 * d3, c2, c1, d2 * d3, c2, c1, d4 * d5 * d6, c1, c1)

    def right_moduli(self) -> tuple[int, ...]:
        """Denominators of u_R coordinates, same entry order as left_moduli."""
        d1, d2, d3, d4, d5, d6, d7, d8, d9, f = self.as_tuple()
        c1, c2, c3, _ = self.moduli
        return (d7, d7 * d8, d7 * d8 * d9, c1, d4 * d8, d4 * d5 * d8 * d9, c2,
                d2 * d5 * d9, c3, d1 * d3 * d6 * f)

    def enumeration_budget(self) -> int:
        """Points of the full u_L x u_R coordinate grid."""
        return math.prod(self.left_moduli() + self.right_moduli())

    def ladders(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The gcd ladders (bruhat.gcd_ladders) of every member of the cell.

        With the corner minors they fix d1, d3, d4 d5, d2 d5, d6, d7, d8, d9
        and f, but not d5 itself.
        """
        c1, _, _, c4 = self.moduli
        f = self.f
        return ((c1, self.d8 * self.d9 * f, self.d9 * f, f),
                (c4, self.d3 * self.d6 * f, self.d6 * f, f))


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
                        budget: int | None = DEFAULT_BUDGET,
                        strict_paper_psi: bool = False) -> KloostermanResult:
    """Sum the phases of the cell's members (bruhat.long_word_sum); the budget
    bounds the twenty-coordinate grid size, cell.enumeration_budget()."""
    em, en = _effective_characters(m, n, strict_paper_psi)
    query = {"kind": "fine5", "cell": list(cell.as_tuple()), "m": list(m), "n": list(n),
             "strict_paper_psi": strict_paper_psi}
    return KloostermanResult.from_exact(long_word_sum(cell, em, en, budget), "oracle", query)
