import itertools
import random
from fractions import Fraction

import pytest

from kloosterman.bruhat import (
    _solve_triangular,
    corner_minors,
    decompose,
    elementary,
    gcd_ladders,
    psi,
    random_big_cell_matrix,
    t_from_minors,
)
from kloosterman.errors import BadRank, InternalInconsistency, NotInBigCell, NotUnimodular
from kloosterman.exactnum import gcd_many
from kloosterman.matrixcore import Matrix, identity, mat_prod, minor
from kloosterman.weyl import long_word_matrix


def integral_unipotent(n, rng, bound=3):
    rows = [list(r) for r in identity(n).rows]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-bound, bound)
    return Matrix(rows)


def test_moduli_vector_rejects_zero():
    a = Matrix([[1, 0, 0], [2, 1, 0], [-3, 4, 1]])
    assert t_from_minors(a) == (-3, 11)
    with pytest.raises(NotInBigCell):
        t_from_minors(Matrix([[1, 0, 0], [1, 1, 0], [2, 2, 1]]))


def test_corner_minors_against_hand_values():
    a = Matrix([[1, 2], [3, 7]])
    assert corner_minors(a) == [3]
    d = decompose(a)
    assert d.t_values == (3, Fraction(1, 3))
    assert d.u_L[1, 2] == Fraction(1, 3)
    assert d.u_R[1, 2] == Fraction(7, 3)
    upper = Matrix([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    with pytest.raises(NotInBigCell):
        t_from_minors(upper)


def test_gcd_ladders_are_prefix_gcds():
    a = Matrix([[1, 0, 0], [2, 1, 0], [-4, 6, 1]])
    assert gcd_ladders(a) == ((4, 2), (16, 2))
    rng = random.Random(12)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            a = random_big_cell_matrix(n, rng)
            row, minors = gcd_ladders(a)
            skips = [minor(a, [i for i in range(1, n + 1) if i != k], range(1, n))
                     for k in range(1, n)]
            for k in range(1, n):
                assert row[k - 1] == gcd_many([a[n, j] for j in range(1, k + 1)])
                assert minors[k - 1] == gcd_many(skips[:k])
            assert row[-1] == minors[-1]


def test_corner_minors_unchanged_by_unipotent_factors():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice((3, 4))
        a = random_big_cell_matrix(n, rng)
        u = integral_unipotent(n, rng)
        assert corner_minors(mat_prod(u, a)) == corner_minors(a)
        assert corner_minors(mat_prod(a, u)) == corner_minors(a)


def test_decompose_long_word_matrix():
    for n in (3, 4, 5):
        d = decompose(long_word_matrix(n))
        assert d.u_L == identity(n)
        assert d.u_R == identity(n)
        assert all(t == 1 for t in d.t_values)


def test_decompose_seeded_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice((3, 4, 5))
        a = random_big_cell_matrix(n, rng)
        d = decompose(a)
        assert d.reconstruct() == a
        assert d.weyl == long_word_matrix(n)
        assert d.torus_matrix()[1, 1] == d.t_values[0]
        prod = Fraction(1)
        for t in d.t_values:
            prod *= t
        assert prod == 1


def test_decompose_rejections():
    with pytest.raises(NotUnimodular):
        decompose(Matrix([[2, 0], [0, 1]]))
    with pytest.raises(NotInBigCell):
        decompose(identity(3))
    with pytest.raises(BadRank):
        decompose(identity(1))


def test_psi_phase():
    u = Matrix([[1, Fraction(1, 3), 0], [0, 1, Fraction(1, 2)], [0, 0, 1]])
    assert psi((1, 1), u) == Fraction(5, 6)
    assert psi((3, 2), u) == Fraction(0)
    assert psi((-1, 0), u) == Fraction(2, 3)
    with pytest.raises(InternalInconsistency):
        psi((1, 1, 1), u)


def test_elementary():
    e = elementary(4, 1, 3, -2)
    assert e[1, 3] == -2
    assert e[1, 1] == 1 and e[2, 2] == 1
    assert mat_prod(e, elementary(4, 1, 3, 2)) == identity(4)


def test_solve_triangular_matches_brute_force():
    """Seeded systems of up to three unknowns over up to five columns, some
    with columns before the first lead, against every point of the box."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 5)
        leads = sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
        unknowns = [(lead, [0] * lead + [rng.randint(-12, 12) for _ in range(n - lead)],
                     rng.randint(1, 7)) for lead in leads]
        acc = [rng.randint(-30, 30) for _ in range(n)]
        scale = rng.randint(1, 12)
        got = _solve_triangular(acc, unknowns, scale)
        want = []
        for values in itertools.product(*(range(bound) for _, _, bound in unknowns)):
            row = [a + sum(v * coeff[col] for v, (_, coeff, _) in zip(values, unknowns))
                   for col, a in enumerate(acc)]
            if all(v % scale == 0 for v in row):
                want.append((values, [v // scale for v in row]))
        assert sorted(got) == sorted(want)
