"""Classical Kloosterman sums S(m, n; c) and the Weil bound check.

S(m,n;c) = sum over a in (Z/c)* with d = a^{-1} of e((m a + n d)/c), kept
exactly as a PhaseSum. Direct O(c) enumeration counting the numerators
(m a + n d) mod c; m, n may be negative.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import NonPositive
from .exactnum import PhaseSum, divisor_tau, mod_inverse, phase_sum_eval


@dataclass(frozen=True)
class ClassicalQuery:
    m: int
    n: int
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise NonPositive(f"modulus must be positive, got {self.c}")


def kloosterman(m: int, n: int, c: int) -> PhaseSum:
    ClassicalQuery(m, n, c)
    # a = 0 is the one unit mod 1, with inverse 0.
    counts = Counter((m * a + n * mod_inverse(a, c)) % c
                     for a in range(c) if math.gcd(a, c) == 1)
    return PhaseSum.from_residues(counts, c)


@dataclass(frozen=True)
class BoundReport:
    holds: bool
    lhs: float
    rhs: float


def weil_bound_holds(m: int, n: int, c: int) -> BoundReport:
    """|S(m,n;c)| <= gcd(m,n,c)^(1/2) * c^(1/2) * tau(c)."""
    value = phase_sum_eval(kloosterman(m, n, c))
    lhs = abs(value)
    g = math.gcd(math.gcd(abs(m), abs(n)), c)
    rhs = math.sqrt(g) * math.sqrt(c) * divisor_tau(c)
    return BoundReport(lhs <= rhs + 1e-9, lhs, rhs)
