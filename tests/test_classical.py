import random
from collections import Counter
from fractions import Fraction

import pytest

from kloosterman.classical import ClassicalQuery, kloosterman, weil_bound_holds
from kloosterman.errors import NonPositive
from kloosterman.exactnum import euler_phi, phase_sum_eval


def _value(m, n, c):
    return phase_sum_eval(kloosterman(m, n, c))


def test_pinned_small_values():
    assert _value(1, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert _value(1, 1, 2).real == pytest.approx(1.0, abs=1e-12)
    assert _value(1, 1, 3).real == pytest.approx(-1.0, abs=1e-9)
    assert _value(1, 1, 4).real == pytest.approx(-2.0, abs=1e-9)
    assert _value(1, 0, 4).real == pytest.approx(0.0, abs=1e-12)
    assert _value(1, 1, 5).real == pytest.approx(0.381966011250105, abs=1e-9)
    assert _value(1, 2, 7).real == pytest.approx(-2.3568958678922094, abs=1e-9)


def test_exact_phase_content():
    s = kloosterman(1, 1, 3)
    assert s.sorted_terms() == [(Fraction(1, 3), 1), (Fraction(2, 3), 1)]
    assert kloosterman(1, 1, 1).terms == {Fraction(0): 1}
    assert kloosterman(1, 1, 5).sorted_terms() == [
        (Fraction(0), 2),
        (Fraction(2, 5), 1),
        (Fraction(3, 5), 1),
    ]


def test_matches_fraction_brute_force():
    """One Fraction per unit, inverses found by search, for every c <= 60:
    every m, n in [-c-1, c+1] up to c = 16, and beyond that the ends of that
    range, the values around 0 and c // 2 (the full range took 86 s on a
    2-core x86_64 VM)."""
    for c in range(1, 61):
        units = [(a, d) for a in range(c) for d in range(c) if (a * d - 1) % c == 0]
        if c <= 16:
            span = range(-c - 1, c + 2)
        else:
            span = (-c - 1, -c, 1 - c, -1, 0, 1, 2, c // 2, c - 1, c, c + 1)
        for m in span:
            for n in span:
                want = Counter()
                for a, d in units:
                    q = Fraction(m * a + n * d, c)
                    want[q - q.numerator // q.denominator] += 1
                assert kloosterman(m, n, c).terms == dict(want)


def test_zero_characters_give_phi():
    for c in range(1, 51):
        s = kloosterman(0, 0, c)
        assert s.mass() == euler_phi(c)
        assert phase_sum_eval(s).real == pytest.approx(euler_phi(c), abs=1e-12)
        assert phase_sum_eval(s).imag == pytest.approx(0.0, abs=1e-12)


def test_symmetry_and_periodicity():
    rng = random.Random(17)
    for _ in range(60):
        c = rng.randint(1, 40)
        m = rng.randint(-15, 15)
        n = rng.randint(-15, 15)
        assert kloosterman(m, n, c) == kloosterman(n, m, c)
        assert kloosterman(m, n, c) == kloosterman(m + c, n, c)
        assert kloosterman(m, n, c) == kloosterman(m, n - 3 * c, c)


def test_conjugation_under_negation():
    rng = random.Random(19)
    for _ in range(40):
        c = rng.randint(1, 30)
        m = rng.randint(-10, 10)
        n = rng.randint(-10, 10)
        v = _value(m, n, c)
        w = _value(-m, -n, c)
        assert v.real == pytest.approx(w.real, abs=1e-9)
        assert v.imag == pytest.approx(-w.imag, abs=1e-9)


def test_values_are_real():
    rng = random.Random(29)
    for _ in range(60):
        c = rng.randint(1, 40)
        m = rng.randint(-15, 15)
        n = rng.randint(-15, 15)
        assert _value(m, n, c).imag == pytest.approx(0.0, abs=1e-9)


def test_query_validation():
    q = ClassicalQuery(2, 3, 10)
    assert (q.m, q.n, q.c) == (2, 3, 10)
    with pytest.raises(NonPositive):
        ClassicalQuery(1, 1, 0)
    with pytest.raises(NonPositive):
        kloosterman(1, 1, -5)


def test_weil_bound_small_grid():
    for c in range(1, 60):
        for m in (-7, -1, 0, 1, 4):
            for n in (-3, 0, 1, 5):
                report = weil_bound_holds(m, n, c)
                assert report.holds
                assert report.lhs <= report.rhs + 1e-9
