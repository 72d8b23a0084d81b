"""SL4 fine Kloosterman cells: labels, parametrization, oracle, closed form.

A fine cell is labeled by the full tuple (d1..d5, f). Canonical double-coset
representatives carry twelve unipotent coordinates k/M with k in [0, M); the
enumeration oracle solves that grid's congruences block by block and sums its
character exactly, as integer numerators over the cell level, while the
closed-form evaluator multiplies two sums of classical Kloosterman sums.
The two evaluators are compared by the verification harness; on disagreement
the oracle value is the reference and both values are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .bruhat import corner_minors, gcd_ladders, unipotent
from .classical import kloosterman
from .errors import (
    BudgetExceeded,
    CellMismatch,
    NegativeCellData,
    NonIntegralRefinement,
    NotInBigCell,
    NotUnimodular,
)
from .exactnum import (PhaseSum, divisor_tau, gcd_many, mod_inverse, phase_sum_eval,
                       solve_linear_congruence)
from .matrixcore import Matrix, diagonal, mat_prod, minor
from .weyl import SimpleRoot, embed, long_word_matrix, staircase_word

DEFAULT_BUDGET = 10_000_000

# Congruence names follow the matrix entry whose integrality each one encodes;
# the bottom row and the entry (3,1) are integral for every candidate.
CONDITION_NAMES = ("A11", "A21", "A12", "A22", "A32", "A13", "A23", "A33", "A34", "A24", "A14")


@dataclass(frozen=True)
class FineCellLabel:
    d1: int
    d2: int
    d3: int
    d4: int
    d5: int
    f: int

    def __post_init__(self):
        if any(v < 1 for v in self.as_tuple()):
            raise NegativeCellData(f"cell data must be positive: {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.d1, self.d2, self.d3, self.d4, self.d5, self.f)

    @property
    def big_d(self) -> tuple[int, int, int]:
        """(D1, D2, D3) = (d4 d5, d2 d3 d5, d1 d3)."""
        return (self.d4 * self.d5, self.d2 * self.d3 * self.d5, self.d1 * self.d3)

    @property
    def moduli(self) -> tuple[int, int, int]:
        """(c1, c2, c3) = (D1 f, D2 f, D3 f)."""
        D1, D2, D3 = self.big_d
        return (D1 * self.f, D2 * self.f, D3 * self.f)

    @property
    def level(self) -> int:
        """d1 d2 d3 d4 d5 f, the common denominator of all twelve coordinates."""
        return self.d1 * self.d2 * self.d3 * self.d4 * self.d5 * self.f

    def left_moduli(self) -> tuple[int, int, int, int, int, int]:
        """Denominators of u_L coordinates, ordered (12), (13), (14), (23), (24), (34)."""
        d1, d2, d3, d4, d5, f = self.as_tuple()
        return (d1, d1 * d2 * d3, self.level, d2 * d3, d2 * d3 * d4 * d5 * f, d4 * d5 * f)

    def right_moduli(self) -> tuple[int, int, int, int, int, int]:
        """Denominators of u_R coordinates, same entry order as left_moduli."""
        d1, d2, d3, d4, d5, f = self.as_tuple()
        return (d4, d4 * d5, d4 * d5 * f, d2 * d5, d2 * d3 * d5 * f, d1 * d3 * f)

    def enumeration_budget(self) -> int:
        """Points of the full u_L x u_R coordinate grid."""
        return math.prod(self.left_moduli() + self.right_moduli())

    def ladders(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The gcd ladders (bruhat.gcd_ladders) of every member of the cell."""
        c1, _, c3 = self.moduli
        f = self.f
        return (c1, self.d5 * f, f), (c3, self.d3 * f, f)

    def torus(self) -> Matrix:
        d1, d2, d3, d4, d5, f = self.as_tuple()
        return diagonal([
            Fraction(d4 * d5 * f),
            Fraction(d2 * d3, d4),
            Fraction(d1, d2 * d5),
            Fraction(1, d1 * d3 * f),
        ])


@dataclass(frozen=True)
class GammaFactor:
    """2x2 integer block [[x, b], [d, y]] with determinant 1."""

    x: int
    b: int
    d: int
    y: int

    def __post_init__(self):
        if self.x * self.y - self.b * self.d != 1:
            raise NotUnimodular(f"block determinant is {self.x * self.y - self.b * self.d}, not 1")

    def matrix(self) -> Matrix:
        return Matrix([[self.x, self.b], [self.d, self.y]])


@dataclass(frozen=True)
class AuxQuantities:
    u1: int
    u2: int
    v1: int
    v2: int
    S: int
    T: int

    @classmethod
    def from_coordinates(cls, cell: FineCellLabel, coords: Sequence[tuple[int, int]]) -> "AuxQuantities":
        d1, d2, d3, d4, d5, _ = cell.as_tuple()
        (x1, y1), (x2, y2), (x3, y3), (x4, y4), (x5, y5), (x6, y6) = coords
        u1 = d1 * x2 + d2 * x3 * y1
        u2 = d2 * x4 + d4 * x5 * y2
        v1 = d1 * x2 * y3 + d2 * y1
        v2 = d2 * x4 * y5 + d4 * y2
        T = d3 * u2 + d4 * d5 * x6 * y3
        S = d2 * d4 * d5 * x6 * y1 * (x3 * y3 - 1) + d3 * (u1 * u2 - d1 * d4 * x5)
        return cls(u1=u1, u2=u2, v1=v1, v2=v2, S=S, T=T)


@dataclass(frozen=True)
class KloostermanResult:
    exact: PhaseSum
    numeric: complex
    method: str
    query: dict

    @classmethod
    def from_exact(cls, exact: PhaseSum, method: str, query: dict) -> "KloostermanResult":
        return cls(exact=exact, numeric=phase_sum_eval(exact), method=method, query=query)


def gamma_coordinates(gammas: Sequence[GammaFactor]) -> tuple[tuple[int, int], ...]:
    return tuple((g.x, g.y) for g in gammas)


def build_from_gammas(cell, gammas: Sequence[GammaFactor]) -> Matrix:
    """Product of the embedded 2x2 blocks along the staircase word for w0.

    A rank-n cell carries n(n-1)/2 values, the lower-left entries of the
    blocks in order, the last one f. Word slot k takes the block numbered
    by the slot order (1)(3, 2)(6, 5, 4)(10, 9, 8, 7)...; at rank 4 the word
    is alpha beta alpha gamma beta alpha and the order (1, 3, 2, 6, 5, 4).
    """
    lower_left = cell.as_tuple()
    if len(gammas) != len(lower_left):
        raise CellMismatch(f"need {len(lower_left)} blocks, got {len(gammas)}")
    for g, want in zip(gammas, lower_left):
        if g.d != want:
            raise CellMismatch(f"block lower-left entry {g.d} does not match cell value {want}")
    n = (1 + math.isqrt(1 + 8 * len(lower_left))) // 2
    slots = [s for k in range(1, n) for s in range(k * (k + 1) // 2, k * (k - 1) // 2, -1)]
    return mat_prod(*[embed(SimpleRoot(n, letter), gammas[slot - 1].matrix())
                      for letter, slot in zip(staircase_word(n), slots)])


def cell_of(a: Matrix) -> FineCellLabel:
    """Recover the fine cell label of a big-cell matrix from gcd ladders."""
    if a.n != 4:
        raise NotInBigCell(f"expected a 4x4 matrix, got {a.n}x{a.n}")
    c1, c2, c3 = corner_minors(a)
    if c1 == 0 or c2 == 0 or c3 == 0:
        raise NotInBigCell("a corner minor vanishes")
    (_, d5f, f), (_, d3f, _) = gcd_ladders(a)
    if d5f % f or c3 % d3f or c1 % d5f or d3f % f:
        raise NonIntegralRefinement("gcd ladder does not refine integrally")
    d5 = d5f // f
    d4 = c1 // d5f
    d3 = d3f // f
    d1 = c3 // d3f
    if c2 % (d3 * d5 * f):
        raise NonIntegralRefinement(f"corner minor {c2} is not divisible by {d3 * d5 * f}")
    d2 = c2 // (d3 * d5 * f)
    if min(d1, d2, d3, d4, d5, f) < 1:
        raise NegativeCellData(f"recovered data ({d1},{d2},{d3},{d4},{d5},{f}) is not positive")
    return FineCellLabel(d1, d2, d3, d4, d5, f)


@dataclass(frozen=True)
class LemmaReport:
    gcd_equality: bool
    inverse_mod_f: bool
    units_mod_f: bool
    f: int

    @property
    def all_pass(self) -> bool:
        return self.gcd_equality and self.inverse_mod_f and self.units_mod_f


def lemma_checks(a: Matrix) -> LemmaReport:
    """Bottom-row gcd equality and the corner-inverse congruence mod f."""
    if a.n != 4 or a[4, 1] == 0:
        raise NotInBigCell("need a 4x4 big-cell matrix")
    row, minors = gcd_ladders(a)
    f = row[-1]
    m123 = minor(a, (1, 2, 3), (1, 2, 3))
    return LemmaReport(
        gcd_equality=(f == minors[-1]),
        inverse_mod_f=((a[4, 4] * m123 - 1) % f == 0),
        units_mod_f=(math.gcd(a[4, 4], f) == 1 and math.gcd(m123, f) == 1),
        f=f,
    )


def representative_data(cell: FineCellLabel, coords: Sequence[tuple[int, int]]):
    """Numerators of the twelve canonical coordinates, from parametrization data.

    Returns (pl, pr): pl are the u_L numerators in entry order (12), (13),
    (14), (23), (24), (34); pr likewise for u_R.
    """
    d1, d2, d3, d4, d5, _ = cell.as_tuple()
    (x1, y1), (x2, y2), (x3, y3), (x4, y4), (x5, y5), (x6, y6) = coords
    aux = AuxQuantities.from_coordinates(cell, coords)
    pl = (x1, x1 * aux.u1 - d2 * x3, x1 * aux.S - d2 * x3 * aux.T + d2 * d4 * d5 * x6,
          aux.u1, aux.S, aux.T)
    pr = (y4, y5, y6, aux.v2, d4 * d5 * y3 + d3 * y6 * aux.u2,
          d5 * aux.v1 + d1 * d3 * x5 * y6)
    return pl, pr


def representative_congruences(cell: FineCellLabel, pl: Sequence[int], pr: Sequence[int]) -> dict[str, int]:
    """The eleven integrality congruences, evaluated on coordinate numerators."""
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    N = cell.level
    p1, p2, p3, q1, q2, r = pl
    s1, s2, s3, w1, w2, w3 = pr
    residuals = (
        p3 % (d1 * d2 * d3),
        q2 % (d2 * d3),
        (s1 * p3 - d2 * d3 * p2) % (d1 * d2 * d3 * d4),
        (q2 * s1 - d2 * d3 * q1) % (d2 * d3 * d4),
        (r * s1 - d2 * d3) % d4,
        (d1 * d3 * d4 * p1 - d3 * p2 * w1 + p3 * s2) % (d1 * d2 * d3 * d4 * d5),
        (d1 * d3 * d4 - d3 * q1 * w1 + q2 * s2) % (d2 * d3 * d4 * d5),
        (r * s2 - d3 * w1) % (d4 * d5),
        (r * s3 - w2) % (d4 * d5 * f),
        (d4 * w3 - q1 * w2 + q2 * s3) % (d2 * d3 * d4 * d5 * f),
        (d4 * p1 * w3 - p2 * w2 + p3 * s3 - d2 * d4 * d5) % N,
    )
    return dict(zip(CONDITION_NAMES, residuals))


@dataclass(frozen=True)
class CongruenceReport:
    residuals: dict

    @property
    def satisfied(self) -> bool:
        return all(v == 0 for v in self.residuals.values())


def congruence_system(cell: FineCellLabel, coords: Sequence[tuple[int, int]]) -> CongruenceReport:
    """Evaluate the integrality congruences on parametrization coordinates."""
    pl, pr = representative_data(cell, coords)
    return CongruenceReport(residuals=representative_congruences(cell, pl, pr))


def representative_matrix(cell: FineCellLabel, pl: Sequence[int], pr: Sequence[int]):
    """Exact candidate A = u_L w0 t u_R for given coordinate numerators."""
    u_left = unipotent(4, pl, cell.left_moduli())
    u_right = unipotent(4, pr, cell.right_moduli())
    a = mat_prod(u_left, long_word_matrix(4), cell.torus(), u_right)
    return a, u_left, u_right


def display_factors(cell: FineCellLabel, gammas: Sequence[GammaFactor]):
    """(u_L, t, u_R) assembled from the closed coordinate expressions."""
    coords = gamma_coordinates(gammas)
    pl, pr = representative_data(cell, coords)
    _, u_left, u_right = representative_matrix(cell, pl, pr)
    return u_left, cell.torus(), u_right


def _check_budget(steps: int, budget: int | None) -> None:
    if budget is not None and steps > budget:
        raise BudgetExceeded(steps, budget)


def _scan(cell: FineCellLabel, budget: int | None):
    """Solve the integrality congruences block by block: (steps, blocks).

    Stage 1 takes the unit-filtered (s1, s2), solves A32 for r and A33 for
    w1, then for each s3 solves A34 for w2 and groups r by (w1, w2). Stage 2
    walks each block (s1, s2, s3, w1, w2): the (q1, q2 = d2 d3 j) allowed by
    A22 are tested on A23 and solve A24 for w3, the (p1, p2, p3 = d1 d2 d3 k)
    allowed by A12 are tested on A13 and solve A14 for w3. It yields
    ((s1, s2, s3, w1, w2, w3), rs, q pairs, p triples) for each w3 both sides
    reach, in ascending order throughout.

    steps counts the (s1, s2) filtered, the r tried per (s1, s2), the (s3, r)
    pairs swept per (s1, s2), the (r, w1, w2) grouped per s3 and, per block,
    the d2 d3 d5 f (1 + phi(d1)) candidates stage 2 walks. Every sweep is
    counted before it runs, and the s3 sweeps, the bulk of stage 1, only once
    all of them are counted; so a refused scan stops near the budget and
    reports the count so far, and an admitted one is counted in full before
    its first block is solved.
    """
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    N = cell.level
    L = d4 * d5 * f
    units = [p1 for p1 in range(d1) if math.gcd(p1, d1) == 1]
    walk = d2 * d3 * d5 * f * (1 + len(units))
    steps = 0
    blocks = []

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        _check_budget(steps, budget)

    s1s = [s1 for s1 in range(d4) if math.gcd(s1, d4) == 1]
    spend(d4 + len(s1s) * d4 * d5)
    sweeps = []
    for s1 in s1s:
        # s1 is a unit mod d4, so A32 always solves, with step d4.
        r0, _ = solve_linear_congruence(s1, d2 * d3, d4)
        for s2 in range(d4 * d5):
            if gcd_many([d4 * d5, d5 * s1, s2]) != 1:
                continue
            spend(d5 * f)
            r_w1 = []
            for r in range(r0, L, d4):
                sol = solve_linear_congruence(d3, r * s2, d4 * d5)
                if sol is not None:
                    r_w1.append((r, range(sol[0], d2 * d5, sol[1])))
            spend(L * len(r_w1))
            sweeps.append((s1, s2, r_w1))
    for s1, s2, r_w1 in sweeps:
        for s3 in range(L):
            groups: dict[tuple[int, int], list[int]] = {}
            for r, w1s in r_w1:
                w2s = range(r * s3 % L, d2 * d3 * d5 * f, L)
                spend(len(w1s) * len(w2s))
                for w1 in w1s:
                    for w2 in w2s:
                        groups.setdefault((w1, w2), []).append(r)
            spend(len(groups) * walk)
            blocks.extend((s1, s2, s3, w1, w2, rs) for (w1, w2), rs in sorted(groups.items()))

    def solved():
        walks: dict[int, tuple[list, list]] = {}
        for s1, s2, s3, w1, w2, rs in blocks:
            if s1 not in walks:
                # A22 and A12 solved for j and k, so both lists ascend.
                s1_inv = mod_inverse(s1, d4)
                walks[s1] = (
                    [(q1, d2 * d3 * j) for q1 in range(d2 * d3)
                     for j in range(q1 * s1_inv % d4, L, d4)],
                    [(p1, p2, d1 * d2 * d3 * k) for p1 in units
                     for p2 in range(0, d1 * d2 * d3, d1)
                     for k in range(p2 // d1 * s1_inv % d4, L, d4)],
                )
            q_pairs, p_triples = walks[s1]
            q_at: dict[int, list[tuple[int, int]]] = {}
            for q1, q2 in q_pairs:
                if (d1 * d3 * d4 - d3 * q1 * w1 + q2 * s2) % (d2 * d3 * d4 * d5):
                    continue
                sol = solve_linear_congruence(d4, q1 * w2 - q2 * s3, d2 * d3 * L)
                if sol is not None:
                    for w3 in range(sol[0], d1 * d3 * f, sol[1]):
                        q_at.setdefault(w3, []).append((q1, q2))
            if not q_at:
                continue
            p_at: dict[int, list[tuple[int, int, int]]] = {}
            for p1, p2, p3 in p_triples:
                if (d1 * d3 * d4 * p1 - d3 * p2 * w1 + p3 * s2) % (d1 * d2 * d3 * d4 * d5):
                    continue
                sol = solve_linear_congruence(d4 * p1, p2 * w2 - p3 * s3 + d2 * d4 * d5, N)
                if sol is not None:
                    for w3 in range(sol[0], d1 * d3 * f, sol[1]):
                        if w3 in q_at:
                            p_at.setdefault(w3, []).append((p1, p2, p3))
            for w3 in sorted(p_at):
                yield (s1, s2, s3, w1, w2, w3), rs, q_at[w3], p_at[w3]

    return steps, solved()


# cell data -> (scan steps, distribution); the steps let the budget guard
# run before a cached answer is returned. Holds at most
# DISTRIBUTION_CACHE_CELLS cells, the oldest evicted first.
DISTRIBUTION_CACHE_CELLS = 1024
_DISTRIBUTION_CACHE: dict[tuple[int, ...], tuple[int, dict]] = {}


def fine_cell_distribution(cell: FineCellLabel, budget: int | None = DEFAULT_BUDGET) -> dict:
    """Multiplicity of each phase-relevant coordinate tuple (p1, q1, r, s1, w1, w3).

    The remaining six coordinates never enter the character, so each solved
    block contributes, for every r, the product of its (q1, q2) count at q1
    and its (p1, p2, p3) count at p1.
    """
    key = cell.as_tuple()
    if key in _DISTRIBUTION_CACHE:
        steps, dist = _DISTRIBUTION_CACHE[key]
        _check_budget(steps, budget)
        return dist
    steps, blocks = _scan(cell, budget)
    dist: dict[tuple[int, int, int, int, int, int], int] = {}
    for (s1, _, _, w1, _, w3), rs, q_pairs, p_triples in blocks:
        q_counts: dict[int, int] = {}
        for q1, _ in q_pairs:
            q_counts[q1] = q_counts.get(q1, 0) + 1
        p_counts: dict[int, int] = {}
        for p1, _, _ in p_triples:
            p_counts[p1] = p_counts.get(p1, 0) + 1
        for r in rs:
            for q1, qc in q_counts.items():
                for p1, pc in p_counts.items():
                    tup = (p1, q1, r, s1, w1, w3)
                    dist[tup] = dist.get(tup, 0) + qc * pc
    while len(_DISTRIBUTION_CACHE) >= DISTRIBUTION_CACHE_CELLS:
        del _DISTRIBUTION_CACHE[next(iter(_DISTRIBUTION_CACHE))]
    _DISTRIBUTION_CACHE[key] = (steps, dist)
    return dist


def fine_cell_representatives(cell: FineCellLabel,
                              budget: int | None = DEFAULT_BUDGET) -> Iterator[tuple]:
    """Yield every canonical representative as a ((p), (s)) numerator pair.

    Same solved blocks as fine_cell_distribution, expanded instead of
    counted, so each yielded pair pins down one double coset.
    """
    _, blocks = _scan(cell, budget)
    for (s1, s2, s3, w1, w2, w3), rs, q_pairs, p_triples in blocks:
        for r in rs:
            for q1, q2 in q_pairs:
                for p1, p2, p3 in p_triples:
                    yield (p1, p2, p3, q1, q2, r), (s1, s2, s3, w1, w2, w3)


def _query(kind: str, cell_or_c, m, n) -> dict:
    return {"kind": kind, "cell" if kind.startswith("fine") else "c": list(cell_or_c),
            "m": list(m), "n": list(n)}


def fine_sum_oracle(cell: FineCellLabel, m: Sequence[int], n: Sequence[int],
                    budget: int | None = DEFAULT_BUDGET) -> KloostermanResult:
    """Character sum over the cell's double-coset representatives; the character,
    linear in each key, is summed as integer numerators mod N = cell.level,
    which all six of its denominators divide."""
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    N = cell.level
    a1, a2, a3 = m[0] * (N // d1), m[1] * (N // (d2 * d3)), m[2] * (N // (d4 * d5 * f))
    b1, b2, b3 = n[0] * (N // d4), n[1] * (N // (d2 * d5)), n[2] * (N // (d1 * d3 * f))
    counts: dict[int, int] = {}
    for (p1, q1, r, s1, w1, w3), mult in fine_cell_distribution(cell, budget).items():
        k = (a1 * p1 + a2 * q1 + a3 * r + b1 * s1 + b2 * w1 + b3 * w3) % N
        counts[k] = counts.get(k, 0) + mult
    return KloostermanResult.from_exact(PhaseSum.from_residues(counts, N), "oracle",
                                        _query("fine", cell.as_tuple(), m, n))


def closed_form_applicable(cell: FineCellLabel, m: Sequence[int], n: Sequence[int]) -> bool:
    """The four character congruences outside which the closed form is zero."""
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    return not ((m[1] * d1) % (d2 * d3) or m[2] % (d5 * f)
                or (n[1] * d4) % (d2 * d3 * d5) or n[2] % (d1 * d3 * d4 * f))


def fine_sum_closed_form(cell: FineCellLabel, m: Sequence[int], n: Sequence[int]) -> KloostermanResult:
    """Prefactor times (sum over x3 of S(m1, .; d1)) (sum over y5 of S(n1, .; d4)),
    the double sum of products of two classical sums, factored exactly."""
    query = _query("fine", cell.as_tuple(), m, n)
    if not closed_form_applicable(cell, m, n):
        return KloostermanResult.from_exact(PhaseSum(), "closed_form", query)
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    prefactor = d1 ** 3 * d2 ** 2 * d3 ** 2 * d4 ** 2 * d5 ** 4 * f ** 4
    # Both divisions are exact when applicable: d3 | m[1] d1 (as d2 d3 | m[1] d1)
    # and d3 f | n[2] on the left, d5 | n[1] d4 and d5 f | m[2] on the right.
    left = sum((kloosterman(m[0], (m[1] * d1 * f * x3 + n[2] * d2 * d5) // (d3 * f), d1)
                for x3 in range(d3)), PhaseSum())
    right = sum((kloosterman(n[0], (n[1] * d4 * f * y5 + m[2] * d2 * d3) // (d5 * f), d4)
                 for y5 in range(d5)), PhaseSum())
    return KloostermanResult.from_exact(left * right * prefactor, "closed_form", query)


def cells_for_moduli(c: Sequence[int]) -> list[FineCellLabel]:
    """All fine cells whose invariants (c1, c2, c3) equal c, over every f."""
    c1, c2, c3 = c
    if min(c1, c2, c3) < 1:
        raise NegativeCellData(f"moduli must be positive: {tuple(c)}")
    out = []
    for f in range(1, gcd_many([c1, c2, c3]) + 1):
        if c1 % f or c2 % f or c3 % f:
            continue
        D1, D2, D3 = c1 // f, c2 // f, c3 // f
        for d5 in range(1, D1 + 1):
            if D1 % d5:
                continue
            d4 = D1 // d5
            for d3 in range(1, D3 + 1):
                if D3 % d3:
                    continue
                d1 = D3 // d3
                if D2 % (d3 * d5):
                    continue
                out.append(FineCellLabel(d1, D2 // (d3 * d5), d3, d4, d5, f))
    return out


def coarse_sum(c: Sequence[int], m: Sequence[int], n: Sequence[int],
               method: str = "oracle", budget: int | None = DEFAULT_BUDGET) -> KloostermanResult:
    """Sum of fine sums over every cell with invariants c."""
    if method not in ("oracle", "closed_form"):
        raise CellMismatch(f"unknown method {method!r}")
    total = PhaseSum()
    for cell in cells_for_moduli(c):
        if method == "oracle":
            total = total + fine_sum_oracle(cell, m, n, budget).exact
        else:
            total = total + fine_sum_closed_form(cell, m, n).exact
    return KloostermanResult.from_exact(total, method, _query("coarse", tuple(c), m, n))


@dataclass(frozen=True)
class LongWordBoundReport:
    holds: bool
    lhs: float
    rhs: float


def longword_bound_holds(c: Sequence[int], m: Sequence[int], n: Sequence[int],
                         value: complex) -> LongWordBoundReport:
    """|value| against c1^3 c2^2 c3^2 (c2+1) (m1,c3)^(1/2) (n1,c1)^(1/2)
    sqrt(c1 c3) tau((c1,c2,c3)) tau(c1) tau(c3)."""
    c1, c2, c3 = c
    lhs = abs(value)
    rhs = (c1 ** 3 * c2 ** 2 * c3 ** 2 * (c2 + 1)
           * math.sqrt(math.gcd(abs(m[0]), c3)) * math.sqrt(math.gcd(abs(n[0]), c1))
           * math.sqrt(c1 * c3)
           * divisor_tau(gcd_many([c1, c2, c3])) * divisor_tau(c1) * divisor_tau(c3))
    return LongWordBoundReport(lhs <= rhs + 1e-9, lhs, rhs)
