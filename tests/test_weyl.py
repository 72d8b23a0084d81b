import random

import pytest

from kloosterman.errors import BadLetter, BadRank, BadRoot
from kloosterman.matrixcore import Matrix, det, identity, mat_mul, mat_prod
from kloosterman.weyl import (
    Permutation,
    SimpleRoot,
    embed,
    identity_perm,
    long_word_matrix,
    long_word_permutation,
    simple_reflection_matrix,
    simple_transposition,
    staircase_word,
    word_to_matrix,
    word_to_permutation,
)


def signed_matrix_permutation(m):
    """Column j of a signed permutation matrix has its one entry +-1 in row p(j)."""
    images = []
    for j in range(1, m.n + 1):
        hits = [i for i in range(1, m.n + 1) if m[i, j] != 0]
        assert len(hits) == 1 and m[hits[0], j] in (1, -1)
        images.append(hits[0])
    return Permutation(tuple(images))


def test_permutation_basics():
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    assert p.compose(q).images == (2, 3, 1)
    assert identity_perm(3).images == (1, 2, 3)
    assert p(1) == 2 and p(2) == 1
    assert long_word_permutation(4).images == (4, 3, 2, 1)
    with pytest.raises(BadLetter):
        Permutation((1, 1, 3))


def test_simple_transposition():
    s2 = simple_transposition(4, 2)
    assert s2.images == (1, 3, 2, 4)
    assert s2.compose(s2) == identity_perm(4)
    with pytest.raises(BadLetter):
        simple_transposition(4, 4)


def test_simple_root_range_checked():
    assert SimpleRoot(5, 4).index == 4
    with pytest.raises(BadRoot):
        SimpleRoot(4, 4)
    with pytest.raises(BadRoot):
        SimpleRoot(1, 1)


def test_embed_places_block():
    g = Matrix([[2, 1], [3, 2]])
    e = embed(SimpleRoot(4, 2), g)
    assert e[2, 2] == 2 and e[2, 3] == 1 and e[3, 2] == 3 and e[3, 3] == 2
    assert e[1, 1] == 1 and e[4, 4] == 1 and e[1, 2] == 0
    assert embed(SimpleRoot(4, 1), identity(2)) == identity(4)
    with pytest.raises(BadRoot):
        embed(SimpleRoot(4, 1), identity(3))


def test_reflection_matrix_order():
    for n in range(2, 6):
        for i in range(1, n):
            s = simple_reflection_matrix(n, i)
            assert det(s) == 1
            sq = mat_mul(s, s)
            assert sq != identity(n)
            assert mat_mul(sq, sq) == identity(n)
            assert signed_matrix_permutation(s) == simple_transposition(n, i)


def test_long_word_matrix_shape():
    w = long_word_matrix(4)
    assert w.rows == ((0, 0, 0, -1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0))
    assert long_word_matrix(2).rows == ((0, -1), (1, 0))
    assert long_word_matrix(5)[1, 5] == 1
    for n in range(2, 7):
        assert det(long_word_matrix(n)) == 1
        assert long_word_matrix(n)[n, 1] == 1
    with pytest.raises(BadRank):
        long_word_matrix(1)


def test_word_to_matrix_is_generator_product():
    word = (1, 2, 1)
    prod = mat_prod(*[simple_reflection_matrix(3, i) for i in word])
    assert word_to_matrix(word, 3) == prod == long_word_matrix(3)
    assert word_to_matrix((), 4) == identity(4)
    with pytest.raises(BadLetter):
        word_to_matrix((3,), 3)


def test_staircase_words():
    assert staircase_word(2) == (1,)
    assert staircase_word(4) == (1, 2, 1, 3, 2, 1)
    assert staircase_word(5) == (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
    for n in range(2, 6):
        word = staircase_word(n)
        # Of length l(w0) = n(n-1)/2 and evaluating to w0, so reduced.
        assert len(word) == n * (n - 1) // 2
        assert word_to_permutation(word, n) == long_word_permutation(n)
        assert word_to_matrix(word, n) == long_word_matrix(n)
    with pytest.raises(BadRank):
        staircase_word(1)


def test_word_matrix_projects_to_word_permutation():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 5)
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
        m = word_to_matrix(word, n)
        assert signed_matrix_permutation(m) == word_to_permutation(word, n)
        assert det(m) == 1
