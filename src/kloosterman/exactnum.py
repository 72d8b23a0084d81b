"""Exact scalar arithmetic for roots-of-unity sums.

A finite Z-linear combination of e(q) = exp(2*pi*i*q) with q rational is kept
exactly as a multiset of phases in [0, 1) with nonzero integer multiplicities.
Hot loops count integer numerators over one modulus (PhaseSum.from_residues).
Numeric evaluation happens once, at the end, in a deterministic order.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import EmptyInput, NonPositive, NotInvertible


def gcd_many(values: Iterable[int]) -> int:
    """Nonnegative gcd of any number of integers; gcd of all zeros is 0."""
    vals = list(values)
    if not vals:
        raise EmptyInput("gcd of an empty sequence")
    g = 0
    for v in vals:
        g = math.gcd(g, v)
    return g


def mod_inverse(a: int, modulus: int) -> int:
    """Inverse of a mod modulus, in [0, modulus). Modulus 1 gives 0."""
    if modulus <= 0:
        raise NonPositive(f"modulus must be positive, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {modulus}") from None


def solve_linear_congruence(a: int, b: int, modulus: int) -> tuple[int, int] | None:
    """Solutions of a*x = b mod modulus as (x0, step), 0 <= x0 < step.

    The solutions are exactly x = x0 mod step, so range(x0, end, step) lists
    those in [0, end); None when there is none.
    """
    if modulus <= 0:
        raise NonPositive(f"modulus must be positive, got {modulus}")
    g = math.gcd(a, modulus)
    if b % g:
        return None
    step = modulus // g
    return (b // g) * mod_inverse(a // g, step) % step, step


def divisor_tau(c: int) -> int:
    """tau(c), the number of positive divisors."""
    if c <= 0:
        raise NonPositive(f"tau is defined for positive integers, got {c}")
    count = 1
    n = c
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            count *= e + 1
        p += 1 if p == 2 else 2
    if n > 1:
        count *= 2
    return count


def euler_phi(c: int) -> int:
    """Euler totient, by trial-division factorization."""
    if c <= 0:
        raise NonPositive(f"phi is defined for positive integers, got {c}")
    result = c
    n = c
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def phase(q) -> Fraction:
    """Reduce a rational to its representative in [0, 1)."""
    q = Fraction(q)
    return q - (q.numerator // q.denominator)


class PhaseSum:
    """Exact multiset of rational phases: sum of mult * e(phase) terms.

    Terms with multiplicity zero are never stored, so equality of the
    underlying dicts is equality of the formal sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, int] | None = None):
        self.terms: dict[Fraction, int] = {}
        if terms:
            for q, mult in terms.items():
                self.add_term(q, mult)

    @classmethod
    def one(cls) -> "PhaseSum":
        """The single term e(0) = 1."""
        return cls({Fraction(0): 1})

    @classmethod
    def single(cls, q, mult: int = 1) -> "PhaseSum":
        return cls({phase(q): mult})

    @classmethod
    def from_residues(cls, counts: dict[int, int], modulus: int) -> "PhaseSum":
        """Sum of mult * e(k / modulus) over counts; k may be any integer."""
        reduced: dict[int, int] = {}
        for k, mult in counts.items():
            k %= modulus
            reduced[k] = reduced.get(k, 0) + mult
        out = cls()
        out.terms = {Fraction(k, modulus): mult for k, mult in reduced.items() if mult}
        return out

    def add_term(self, q, mult: int = 1) -> None:
        if mult == 0:
            return
        q = phase(q)
        new = self.terms.get(q, 0) + mult
        if new == 0:
            self.terms.pop(q, None)
        else:
            self.terms[q] = new

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        out = PhaseSum()
        out.terms = dict(self.terms)
        for q, mult in other.terms.items():
            new = out.terms.get(q, 0) + mult
            if new == 0:
                out.terms.pop(q, None)
            else:
                out.terms[q] = new
        return out

    def __mul__(self, other):
        """Scalar multiple by an integer, or convolution with a PhaseSum."""
        if isinstance(other, int):
            if other == 0:
                return PhaseSum()
            out = PhaseSum()
            out.terms = {q: m * other for q, m in self.terms.items()}
            return out
        if isinstance(other, PhaseSum):
            out = PhaseSum()
            for q1, m1 in self.terms.items():
                for q2, m2 in other.terms.items():
                    out.add_term(q1 + q2, m1 * m2)
            return out
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def mass(self) -> int:
        """Total multiplicity mass, sum of |mult|; bounds |eval| from above."""
        return sum(abs(m) for m in self.terms.values())

    def sorted_terms(self) -> list[tuple[Fraction, int]]:
        # Phases are distinct: sorting on them alone skips Fraction equality tests.
        return sorted(self.terms.items(), key=itemgetter(0))

    def serialize(self) -> list[list[int]]:
        """[numerator, denominator, multiplicity] triples, phases ascending."""
        return [[q.numerator, q.denominator, m] for q, m in self.sorted_terms()]

    @classmethod
    def deserialize(cls, triples: Iterable[Iterable[int]]) -> "PhaseSum":
        out = cls()
        for num, den, mult in triples:
            out.add_term(Fraction(num, den), mult)
        return out

    def __iter__(self) -> Iterator[tuple[Fraction, int]]:
        return iter(self.sorted_terms())

    def __repr__(self):
        inner = ", ".join(f"e({q})*{m}" for q, m in self.sorted_terms())
        return f"PhaseSum({inner})"


def phase_sum_eval(s: PhaseSum) -> complex:
    """Numeric value; terms are added in ascending phase order."""
    total = 0j
    for q, mult in s.sorted_terms():
        total += mult * cmath.exp(2j * cmath.pi * (q.numerator / q.denominator))
    return total


def phase_sums_close(a: PhaseSum, b: PhaseSum, scale: float = 1e-6) -> bool:
    """Numeric-equality rule: |eval(a) - eval(b)| < scale * (1 + total mass)."""
    diff = abs(phase_sum_eval(a) - phase_sum_eval(b))
    return diff < scale * (1 + a.mass() + b.mass())
