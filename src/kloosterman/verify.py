"""Verification suites: each returns a SuiteReport consumed by the CLI and tests.

The closed-form cross-validation treats the enumeration oracle as the
reference: disagreements become machine-readable discrepancy records in the
report details, never exceptions, so a complete run documents exactly where
the closed form deviates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bruhat import decompose, gcd_ladders, random_big_cell_matrix
from .classical import kloosterman
from .classicalgroups import (
    is_special_orthogonal,
    is_symplectic,
    random_symplectic_matrix,
    signed_permutation_matrices,
    so4_relations,
    sp4_minor_relations,
)
from .exactnum import PhaseSum, divisor_tau, euler_phi, gcd_many, phase_sum_eval
from .matrixcore import det
from .sl4fine import (
    FineCellLabel,
    GammaFactor,
    build_from_gammas,
    cells_for_moduli,
    closed_form_applicable,
    coarse_sum,
    fine_cell_distribution,
    fine_cell_representatives,
    fine_sum_closed_form,
    fine_sum_oracle,
    lemma_checks,
    longword_bound_holds,
)
from .sl5 import SL5FineCellLabel
from .weyl import (
    long_word_matrix,
    long_word_permutation,
    staircase_word,
    word_to_matrix,
    word_to_permutation,
)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checked: int
    failures: int
    details: dict

    @property
    def passed(self) -> bool:
        return self.checked > 0 and self.failures == 0

    def to_json(self) -> dict:
        return {"suite": self.suite, "checked": self.checked, "failures": self.failures,
                "passed": self.passed, "details": self.details}


def random_gamma_factor(lower_left: int, rng: random.Random, bound: int = 6) -> GammaFactor:
    """Seeded 2x2 block with the given lower-left entry and determinant 1."""
    while True:
        x = rng.randint(-bound, bound)
        if math.gcd(x, lower_left) == 1:
            break
    if lower_left == 1:
        y = rng.randint(-bound, bound)
        return GammaFactor(x=x, b=x * y - 1, d=1, y=y)
    y = pow(x, -1, lower_left) + lower_left * rng.randint(-2, 2)
    return GammaFactor(x=x, b=(x * y - 1) // lower_left, d=lower_left, y=y)


def classical_suite(phi_max: int = 50) -> SuiteReport:
    """Pinned classical values and the m = n = 0 totient identity."""
    failures = 0
    checked = 0
    fixed = (((1, 1, 2), 1.0), ((1, 1, 3), -1.0), ((1, 0, 4), 0.0))
    for (m, n, c), want in fixed:
        got = phase_sum_eval(kloosterman(m, n, c))
        checked += 1
        if abs(got - want) > 1e-9:
            failures += 1
    for c in range(1, phi_max + 1):
        got = phase_sum_eval(kloosterman(0, 0, c))
        checked += 1
        if abs(got - euler_phi(c)) > 1e-9:
            failures += 1
    return SuiteReport("classical", checked, failures, {"phi_max": phi_max})


def weil_suite(c_max: int = 500, char_bound: int = 20) -> SuiteReport:
    """|S(m, n; c)| against sqrt(gcd(m, n, c) c) tau(c) over the full grid.

    For each modulus the grid of sums is one complex matrix product:
    S = E1 E2 with E1[m, a] = e(m a / c) and E2[a, n] = e(n a* / c) over
    units a.
    """
    import numpy as np

    chars = np.arange(-char_bound, char_bound + 1)
    gcd_mn = np.gcd.outer(np.abs(chars), np.abs(chars))
    checked = 0
    failures = 0
    worst_ratio = 0.0
    for c in range(1, c_max + 1):
        if c == 1:
            values = np.ones((chars.size, chars.size), dtype=complex)
        else:
            units = np.array([a for a in range(1, c) if math.gcd(a, c) == 1])
            inverses = np.array([pow(int(a), -1, c) for a in units])
            e1 = np.exp(2j * np.pi * np.outer(chars, units) / c)
            e2 = np.exp(2j * np.pi * np.outer(inverses, chars) / c)
            values = e1 @ e2
        bound = np.sqrt(np.gcd(gcd_mn, c).astype(float) * c) * divisor_tau(c)
        bad = np.abs(values) > bound + 1e-6
        checked += values.size
        failures += int(np.count_nonzero(bad))
        worst_ratio = max(worst_ratio, float(np.max(np.abs(values) / bound)))
    return SuiteReport("weil", checked, failures,
                       {"c_max": c_max, "char_bound": char_bound,
                        "worst_ratio": round(worst_ratio, 9)})


def longword_suite() -> SuiteReport:
    """Staircase words of ranks 2..5 hit the signed antidiagonal matrix."""
    failures = 0
    checked = 0
    for n in range(2, 6):
        word = staircase_word(n)
        checked += 1
        if word_to_matrix(word, n) != long_word_matrix(n):
            failures += 1
        checked += 1
        if word_to_permutation(word, n) != long_word_permutation(n):
            failures += 1
        checked += 1
        if len(word) != n * (n - 1) // 2:
            failures += 1
    checked += 1
    if word_to_matrix((1, 2, 1, 3, 2, 1), 4) != long_word_matrix(4):
        failures += 1
    return SuiteReport("longword", checked, failures, {"ranks": [2, 3, 4, 5]})


def bruhat_suite(seed: int, sl4_count: int = 1000, sl5_count: int = 200) -> SuiteReport:
    """Exact reconstruction through decompose, plus the gcd identity: both
    gcd ladders end on the same value.

    decompose verifies u_L w t u_R against its input internally, so a clean
    return is already a reconstruction proof.
    """
    rng = random.Random(seed)
    failures = 0
    checked = 0
    for rank, count in ((4, sl4_count), (5, sl5_count)):
        for _ in range(count):
            a = random_big_cell_matrix(rank, rng)
            checked += 1
            try:
                decompose(a)
            except Exception:
                failures += 1
                continue
            row, minors = gcd_ladders(a)
            if row[-1] != minors[-1]:
                failures += 1
    return SuiteReport("bruhat", checked, failures,
                       {"sl4": sl4_count, "sl5": sl5_count, "seed": seed})


def builds_suite(seed: int, count: int = 500, bound: int = 3) -> SuiteReport:
    """Parametrized products: invariants, unit congruence mod f, displays.

    Each trial builds a matrix from six seeded blocks, recovers its cell,
    and checks that its corner entry times the complementary corner minor is
    1 mod f. SL5 builds piggyback at a 5:1 ratio.
    """
    from .sl4fine import cell_of, congruence_system, display_factors
    from .sl5 import sl5_display_factors

    rng = random.Random(seed)
    failures = 0
    checked = 0
    for trial in range(count):
        cell = FineCellLabel(*[rng.randint(1, bound) for _ in range(6)])
        gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
        a = build_from_gammas(cell, gammas)
        checked += 1
        rep = lemma_checks(a)
        ok = (a.is_integral() and det(a) == 1 and cell_of(a) == cell and rep.all_pass
              and congruence_system(cell, [(g.x, g.y) for g in gammas]).satisfied)
        if ok:
            u_left, torus, u_right = display_factors(cell, gammas)
            dec = decompose(a)
            ok = (dec.u_L == u_left and dec.u_R == u_right
                  and dec.torus_matrix() == torus)
        if not ok:
            failures += 1
        if trial % 5 == 0:
            cell5 = SL5FineCellLabel(*[rng.randint(1, bound) for _ in range(10)])
            gammas5 = [random_gamma_factor(v, rng) for v in cell5.as_tuple()]
            checked += 1
            try:
                a5 = build_from_gammas(cell5, gammas5)
                sl5_display_factors(cell5, gammas5)
                row, minors = gcd_ladders(a5)
                if not (a5.is_integral() and det(a5) == 1 and row[-1] == minors[-1]):
                    failures += 1
            except Exception:
                failures += 1
    return SuiteReport("builds", checked, failures,
                       {"count": count, "bound": bound, "seed": seed})


def _row_scan_mismatches(cell: FineCellLabel) -> tuple[int, int]:
    """(assignments checked, mismatches) between row integrality and the
    congruence system, exhaustively over the cell's coordinate grid.

    Row i of the candidate depends only on the row-i left coordinates and on
    all right coordinates, so the equivalence is checked row by row; every
    entry is scaled by level^2 to keep the arithmetic integral.
    """
    import numpy as np

    d1, d2, d3, d4, d5, f = cell.as_tuple()
    level = cell.level
    level2 = level * level
    ml = cell.left_moduli()
    mr = cell.right_moduli()
    s1, s2, s3, w1, w2, w3 = [g.astype(np.int64).ravel() for g in np.meshgrid(
        *[np.arange(m) for m in mr], indexing="ij")]
    scaled_row2 = [np.zeros_like(s1), np.zeros_like(s1),
                   np.full_like(s1, level * d1 // (d2 * d5)), d1 * d4 * w3]
    scaled_row3 = [np.zeros_like(s1), np.full_like(s1, -(level * d2 * d3 // d4)),
                   -d1 * d2 * d3 * d3 * f * w1, -d1 * d2 * d3 * w2]
    scaled_row4 = [np.full_like(s1, level * d4 * d5 * f), level * d5 * f * s1,
                   level * f * s2, level * s3]
    scaled_row1 = [np.zeros_like(s1), np.zeros_like(s1), np.zeros_like(s1),
                   np.full_like(s1, -d2 * d4 * d5)]
    checked = 0
    mismatches = 0
    for r in range(ml[5]):
        entries = [level * scaled_row3[k] + r * d1 * d2 * d3 * scaled_row4[k] for k in range(4)]
        row_ok = np.ones_like(s1, dtype=bool)
        for e in entries:
            row_ok &= (e % level2 == 0)
        cond_ok = (((r * s1 - d2 * d3) % d4 == 0)
                   & ((r * s2 - d3 * w1) % (d4 * d5) == 0)
                   & ((r * s3 - w2) % (d4 * d5 * f) == 0))
        checked += int(s1.size)
        mismatches += int(np.count_nonzero(row_ok != cond_ok))
    for q1 in range(ml[3]):
        for q2 in range(ml[4]):
            entries = [level * scaled_row2[k] + q1 * d1 * d4 * d5 * f * scaled_row3[k]
                       + q2 * d1 * scaled_row4[k] for k in range(4)]
            row_ok = np.ones_like(s1, dtype=bool)
            for e in entries:
                row_ok &= (e % level2 == 0)
            cond_ok = ((q2 % (d2 * d3) == 0)
                       & ((q2 * s1 - d2 * d3 * q1) % (d2 * d3 * d4) == 0)
                       & ((d1 * d3 * d4 - d3 * q1 * w1 + q2 * s2) % (d2 * d3 * d4 * d5) == 0)
                       & ((d4 * w3 - q1 * w2 + q2 * s3) % (d2 * d3 * d4 * d5 * f) == 0))
            checked += int(s1.size)
            mismatches += int(np.count_nonzero(row_ok != cond_ok))
    for p1 in range(ml[0]):
        for p2 in range(ml[1]):
            for p3 in range(ml[2]):
                entries = [level * scaled_row1[k] + p1 * d2 * d3 * d4 * d5 * f * scaled_row2[k]
                           + p2 * d4 * d5 * f * scaled_row3[k] + p3 * scaled_row4[k]
                           for k in range(4)]
                row_ok = np.ones_like(s1, dtype=bool)
                for e in entries:
                    row_ok &= (e % level2 == 0)
                cond_ok = ((p3 % (d1 * d2 * d3) == 0)
                           & ((s1 * p3 - d2 * d3 * p2) % (d1 * d2 * d3 * d4) == 0)
                           & ((d1 * d3 * d4 * p1 - d3 * p2 * w1 + p3 * s2)
                              % (d1 * d2 * d3 * d4 * d5) == 0)
                           & ((d4 * p1 * w3 - p2 * w2 + p3 * s3 - d2 * d4 * d5) % level == 0))
                checked += int(s1.size)
                mismatches += int(np.count_nonzero(row_ok != cond_ok))
    return checked, mismatches


def congruence_scan_suite(d_bound: int = 2) -> SuiteReport:
    """Integrality <=> congruence system, exhaustively per row, all small cells."""
    checked = 0
    failures = 0
    cells = 0
    for data in itertools.product(range(1, d_bound + 1), repeat=6):
        cells += 1
        c, mm = _row_scan_mismatches(FineCellLabel(*data))
        checked += c
        failures += mm
    return SuiteReport("congruences", checked, failures,
                       {"d_bound": d_bound, "cells": cells})


def trivial_cell_suite(seed: int, pairs: int = 20) -> SuiteReport:
    """Both evaluators must return exactly 1 on the all-ones cell."""
    rng = random.Random(seed)
    cell = FineCellLabel(1, 1, 1, 1, 1, 1)
    one = PhaseSum.one()
    checked = 0
    failures = 0
    for _ in range(pairs):
        m = tuple(rng.randint(-5, 5) for _ in range(3))
        n = tuple(rng.randint(-5, 5) for _ in range(3))
        checked += 2
        if fine_sum_oracle(cell, m, n).exact != one:
            failures += 1
        if fine_sum_closed_form(cell, m, n).exact != one:
            failures += 1
    return SuiteReport("trivial", checked, failures, {"pairs": pairs, "seed": seed})


def cross_validation_suite(d_bound: int = 2, char_values: tuple = (0, 1, 2),
                           tolerance: float = 1e-6) -> SuiteReport:
    """Closed form against the oracle on every small cell and in-scope character.

    Every (cell, m, n) admitted by the closed form's congruence conditions is
    evaluated by both methods; rows are never skipped. Disagreements are
    returned as discrepancy records with the oracle value authoritative.
    """
    rows = 0
    agreements = 0
    records = []
    cells = 0
    for data in itertools.product(range(1, d_bound + 1), repeat=6):
        cell = FineCellLabel(*data)
        cells += 1
        for m in itertools.product(char_values, repeat=3):
            for n in itertools.product(char_values, repeat=3):
                if not closed_form_applicable(cell, m, n):
                    continue
                rows += 1
                oracle = fine_sum_oracle(cell, m, n, budget=None)
                closed = fine_sum_closed_form(cell, m, n)
                ov = oracle.numeric
                cv = closed.numeric
                if abs(ov - cv) <= tolerance * (1 + oracle.exact.mass() + closed.exact.mass()):
                    agreements += 1
                else:
                    records.append({
                        "cell": list(data), "m": list(m), "n": list(n),
                        "oracle_re": ov.real, "oracle_im": ov.imag,
                        "closed_re": cv.real, "closed_im": cv.imag,
                        "abs_diff": abs(ov - cv),
                    })
    complete = (cells == d_bound ** 6)
    return SuiteReport("crossval", rows, 0 if complete else 1, {
        "cells": cells, "agreements": agreements,
        "disagreements": len(records), "discrepancies": records,
        "oracle_authoritative": True,
    })


def candidate_space_count(c: tuple[int, int, int]) -> int:
    """Number of integral candidates u_L w0 t u_R at torus data c.

    Integrality factors row by row, so the count is a sum over right-side
    coordinates of a product of three independent row counts.
    """
    c1, c2, c3 = c
    total = 0
    for b12, b13, b14 in itertools.product(range(c1), repeat=3):
        for b23, b24 in itertools.product(range(c2), repeat=2):
            for b34 in range(c3):
                n3 = sum(1 for a34 in range(c1)
                         if (a34 * b12 - c2) % c1 == 0
                         and (a34 * b13 - b23) % c1 == 0
                         and (a34 * b14 - b24) % c1 == 0)
                if n3 == 0:
                    continue
                n2 = sum(1 for a23 in range(c2) for a24 in range(c1)
                         if (a24 * b12 - a23) % c1 == 0
                         and (c1 * c3 - a23 * b23 + c2 * a24 * b13) % (c1 * c2) == 0
                         and (c1 * b34 - a23 * b24 + c2 * a24 * b14) % (c1 * c2) == 0)
                if n2 == 0:
                    continue
                n1 = sum(1 for a12 in range(c3) for a13 in range(c2) for a14 in range(c1)
                         if (a14 * b12 - a13) % c1 == 0
                         and (c1 * a12 - a13 * b23 + c2 * a14 * b13) % (c1 * c2) == 0
                         and (-c1 * c2 + c1 * a12 * b34 - c3 * a13 * b24
                              + c2 * c3 * a14 * b14) % (c1 * c2 * c3) == 0)
                total += n3 * n2 * n1
    return total


def _representative_keys(cell: FineCellLabel) -> set:
    """Each representative as its twelve reduced coordinates; comparable
    across cells sharing the same torus data."""
    ml = cell.left_moduli()
    mr = cell.right_moduli()
    keys = set()
    for pl, pr in fine_cell_representatives(cell, budget=None):
        keys.add(tuple(Fraction(v, m) for v, m in zip(pl, ml))
                 + tuple(Fraction(v, m) for v, m in zip(pr, mr)))
    return keys


def partition_suite(c_bound: int = 4, seed: int = 0) -> SuiteReport:
    """Cells partition the candidate space; aggregation order is irrelevant.

    For every torus datum c with entries <= c_bound: the cells' canonical
    representatives are pairwise disjoint, their total count equals the
    integral candidate count, and the coarse sum is unchanged under forward,
    reversed, and shuffled cell order.
    """
    rng = random.Random(seed)
    checked = 0
    failures = 0
    worst = None
    for c in itertools.product(range(1, c_bound + 1), repeat=3):
        cells = cells_for_moduli(c)
        keys = [_representative_keys(cell) for cell in cells]
        union: set = set()
        disjoint = True
        for k in keys:
            if union & k:
                disjoint = False
            union |= k
        count_match = (len(union) == sum(len(k) for k in keys) == candidate_space_count(c))
        m = (1, 1, 1)
        n = (1, 1, 1)
        parts = [fine_sum_oracle(cell, m, n, budget=None).exact for cell in cells]
        forward = PhaseSum()
        for p in parts:
            forward = forward + p
        backward = PhaseSum()
        for p in reversed(parts):
            backward = backward + p
        shuffled_parts = parts[:]
        rng.shuffle(shuffled_parts)
        shuffled = PhaseSum()
        for p in shuffled_parts:
            shuffled = shuffled + p
        order_ok = (forward == backward == shuffled
                    == coarse_sum(c, m, n, budget=None).exact)
        checked += 1
        if not (disjoint and count_match and order_ok):
            failures += 1
            if worst is None:
                worst = {"c": list(c), "disjoint": disjoint,
                         "count_match": count_match, "order_ok": order_ok}
    details = {"c_bound": c_bound, "seed": seed}
    if worst:
        details["first_failure"] = worst
    return SuiteReport("partition", checked, failures, details)


def bound_suite(c_bound: int = 4, char_bound: int = 2, seed: int = 0,
                spot_checks: int = 50) -> SuiteReport:
    """Coarse oracle values against the long-word bound, all c, all characters.

    |S| never exceeds the representative count, and the count is compared
    with the bound minimized over characters, which covers every (m, n) in
    range at once; cells where that margin ever failed would fall back to
    per-character evaluation. Seeded spot checks evaluate actual values.
    """
    rng = random.Random(seed)
    checked = 0
    failures = 0
    char_space = (2 * char_bound + 1) ** 6
    for c in itertools.product(range(1, c_bound + 1), repeat=3):
        c1, c2, c3 = c
        mass = 0
        for cell in cells_for_moduli(c):
            mass += sum(fine_cell_distribution(cell, budget=None).values())
        rhs_min = (c1 ** 3 * c2 ** 2 * c3 ** 2 * (c2 + 1) * math.sqrt(c1 * c3)
                   * divisor_tau(gcd_many([c1, c2, c3])) * divisor_tau(c1) * divisor_tau(c3))
        if mass <= rhs_min + 1e-9:
            checked += char_space
            continue
        for m in itertools.product(range(-char_bound, char_bound + 1), repeat=3):
            for n in itertools.product(range(-char_bound, char_bound + 1), repeat=3):
                value = coarse_sum(c, m, n, budget=None).numeric
                checked += 1
                if not longword_bound_holds(c, m, n, value).holds:
                    failures += 1
    spot_failures = 0
    for _ in range(spot_checks):
        c = tuple(rng.randint(1, 2) for _ in range(3))
        m = tuple(rng.randint(-char_bound, char_bound) for _ in range(3))
        n = tuple(rng.randint(-char_bound, char_bound) for _ in range(3))
        value = coarse_sum(c, m, n, budget=None).numeric
        checked += 1
        if not longword_bound_holds(c, m, n, value).holds:
            failures += 1
            spot_failures += 1
    return SuiteReport("bound", checked, failures,
                       {"c_bound": c_bound, "char_bound": char_bound,
                        "spot_checks": spot_checks, "spot_failures": spot_failures,
                        "seed": seed})


def groups_suite(seed: int, words: int = 200) -> SuiteReport:
    """Seeded symplectic words satisfy the minor relations; signed
    permutations satisfy the orthogonality relations exactly when det is 1."""
    rng = random.Random(seed)
    checked = 0
    failures = 0
    for _ in range(words):
        a = random_symplectic_matrix(2, rng)
        checked += 1
        if not (is_symplectic(a) and all(v == 0 for v in sp4_minor_relations(a).values())):
            failures += 1
    det_one = 0
    for mat in signed_permutation_matrices(4):
        checked += 1
        relations_zero = all(v == 0 for v in so4_relations(mat).values())
        if det(mat) == 1:
            det_one += 1
            if not (relations_zero and is_special_orthogonal(mat)):
                failures += 1
        else:
            if relations_zero:
                failures += 1
    return SuiteReport("groups", checked, failures,
                       {"words": words, "det_one_signed_permutations": det_one,
                        "seed": seed})


SUITES = {
    "classical": lambda seed, **kw: classical_suite(**kw),
    "weil": lambda seed, **kw: weil_suite(**kw),
    "longword": lambda seed, **kw: longword_suite(**kw),
    "bruhat": lambda seed, **kw: bruhat_suite(seed, **kw),
    "builds": lambda seed, **kw: builds_suite(seed, **kw),
    "congruences": lambda seed, **kw: congruence_scan_suite(**kw),
    "trivial": lambda seed, **kw: trivial_cell_suite(seed, **kw),
    "crossval": lambda seed, **kw: cross_validation_suite(**kw),
    "partition": lambda seed, **kw: partition_suite(seed=seed, **kw),
    "bound": lambda seed, **kw: bound_suite(seed=seed, **kw),
    "groups": lambda seed, **kw: groups_suite(seed, **kw),
}


def run_suite(name: str, seed: int, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, **kwargs)
