import math
import random
from fractions import Fraction

import pytest

from kloosterman.errors import EmptyInput, NonPositive, NotInvertible
from kloosterman.exactnum import (
    PhaseSum,
    divisor_tau,
    euler_phi,
    gcd_many,
    mod_inverse,
    phase,
    phase_sum_eval,
    phase_sums_close,
    solve_linear_congruence,
)


def test_gcd_many():
    assert gcd_many([12, 18, 30]) == 6
    assert gcd_many([7]) == 7
    assert gcd_many([-4, 6]) == 2
    assert gcd_many([0, 0, 5]) == 5
    with pytest.raises(EmptyInput):
        gcd_many([])


def test_mod_inverse():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 1) == 0
    assert (mod_inverse(17, 40) * 17) % 40 == 1
    with pytest.raises(NotInvertible):
        mod_inverse(6, 9)


def test_solve_linear_congruence_against_brute_force():
    for modulus in range(1, 31):
        for a in range(-modulus, modulus):
            for b in range(-modulus, modulus):
                want = [x for x in range(2 * modulus) if (a * x - b) % modulus == 0]
                sol = solve_linear_congruence(a, b, modulus)
                if not want:
                    assert sol is None
                    continue
                x0, step = sol
                assert 0 <= x0 < step
                for end in (0, x0, x0 + 1, modulus - 1, modulus, 2 * modulus):
                    assert list(range(x0, end, step)) == [x for x in want if x < end]


def test_solve_linear_congruence_cases():
    assert solve_linear_congruence(3, 2, 7) == (3, 7)
    assert solve_linear_congruence(4, 6, 10) == (4, 5)
    assert solve_linear_congruence(4, 5, 10) is None
    assert solve_linear_congruence(0, 0, 6) == (0, 1)
    assert solve_linear_congruence(0, 3, 6) is None
    assert solve_linear_congruence(5, -7, 1) == (0, 1)
    x0, step = solve_linear_congruence(2, 4, 8)
    assert (x0, step) == (2, 4)
    assert list(range(x0, x0, step)) == list(range(x0, 1, step)) == []
    with pytest.raises(NonPositive):
        solve_linear_congruence(1, 1, 0)


def test_divisor_functions():
    assert divisor_tau(12) == 6
    assert divisor_tau(1) == 1
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for c in range(1, 60):
        assert euler_phi(c) == sum(1 for a in range(1, c + 1) if math.gcd(a, c) == 1)
        assert divisor_tau(c) == sum(1 for d in range(1, c + 1) if c % d == 0)


def test_phase_reduction():
    assert phase(Fraction(7, 3)) == Fraction(1, 3)
    assert phase(Fraction(-1, 4)) == Fraction(3, 4)
    assert phase(Fraction(2)) == 0


def test_phase_sum_basic_ops():
    s = PhaseSum()
    assert not s
    assert len(s) == 0
    s.add_term(Fraction(1, 3))
    s.add_term(Fraction(4, 3), 2)
    assert s.terms == {Fraction(1, 3): 3}
    assert s.mass() == 3
    one = PhaseSum.one()
    assert phase_sum_eval(one) == 1
    assert (s + one).mass() == 4


def test_phase_sum_from_residues():
    # 1, 5 and -3 all reduce to 1 and cancel; a zero count is dropped.
    s = PhaseSum.from_residues({1: 2, 5: 1, -3: -3, 2: 0, 6: 1, -1: 4}, 4)
    assert s.terms == {Fraction(1, 2): 1, Fraction(3, 4): 4}
    assert PhaseSum.from_residues({0: 0}, 4).terms == {}
    assert PhaseSum.from_residues({0: 2, 5: -1, -7: 3}, 1).terms == {Fraction(0): 4}
    rng = random.Random(3)
    for _ in range(50):
        modulus = rng.randint(1, 12)
        counts = {rng.randint(-40, 40): rng.randint(-3, 3) for _ in range(rng.randint(0, 15))}
        want = PhaseSum()
        for k, mult in counts.items():
            want.add_term(Fraction(k, modulus), mult)
        assert PhaseSum.from_residues(counts, modulus) == want


def test_phase_sum_mul():
    a = PhaseSum.single(Fraction(1, 4))
    b = PhaseSum.single(Fraction(1, 4), 2)
    conv = a * b
    assert conv.terms == {Fraction(1, 2): 2}
    assert (a * 3).terms == {Fraction(1, 4): 3}
    assert (3 * a) == (a * 3)
    # zero multiplicities are dropped
    assert (a * 0).terms == {}


def test_phase_sum_cancellation():
    s = PhaseSum.single(Fraction(0)) + PhaseSum.single(Fraction(1, 2))
    assert abs(phase_sum_eval(s)) < 1e-15
    t = PhaseSum.single(Fraction(0)) + PhaseSum.single(Fraction(0), -1)
    assert not t


def test_serialize_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        s = PhaseSum()
        for _ in range(rng.randint(0, 12)):
            s.add_term(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                       rng.randint(-3, 3))
        again = PhaseSum.deserialize(s.serialize())
        assert again == s
        assert phase_sum_eval(again) == phase_sum_eval(s)


def test_eval_is_order_independent():
    # accumulation order is pinned by sorted_terms, so two equal sums built
    # in different insertion orders evaluate to identical floats
    rng = random.Random(2)
    for _ in range(30):
        entries = [(Fraction(rng.randint(0, 30), rng.randint(1, 11)), rng.randint(1, 4))
                   for _ in range(10)]
        a = PhaseSum()
        for q, k in entries:
            a.add_term(q, k)
        b = PhaseSum()
        for q, k in reversed(entries):
            b.add_term(q, k)
        assert a == b
        assert phase_sum_eval(a) == phase_sum_eval(b)


def test_phase_sums_close():
    a = PhaseSum.single(Fraction(1, 7), 3)
    assert phase_sums_close(a, a)
    b = a + PhaseSum.one()
    assert not phase_sums_close(a, b)
