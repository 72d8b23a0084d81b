"""Weyl-group machinery for SL_n: permutations, reduced words, the long word.

Signed permutation matrices and abstract permutations are kept as distinct
types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadLetter, BadRank, BadRoot
from .matrixcore import Matrix, identity, mat_mul


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}, stored as the tuple of images (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise BadLetter(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def simple_transposition(n: int, i: int) -> Permutation:
    if not 1 <= i <= n - 1:
        raise BadLetter(f"letter {i} out of range for rank {n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def long_word_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n, 0, -1)))


@dataclass(frozen=True)
class SimpleRoot:
    """Simple root alpha_i of SL_n, 1 <= i <= n - 1."""

    n: int
    index: int

    def __post_init__(self):
        if self.n < 2 or not 1 <= self.index <= self.n - 1:
            raise BadRoot(f"no simple root {self.index} at rank {self.n}")


def embed(root: SimpleRoot, g: Matrix) -> Matrix:
    """iota_root(g): identity with the 2x2 block g at rows/cols (i, i+1)."""
    if g.n != 2:
        raise BadRoot(f"embedding needs a 2x2 block, got {g.n}x{g.n}")
    i = root.index
    rows = [list(r) for r in identity(root.n).rows]
    rows[i - 1][i - 1] = g[1, 1]
    rows[i - 1][i] = g[1, 2]
    rows[i][i - 1] = g[2, 1]
    rows[i][i] = g[2, 2]
    return Matrix(rows)


S_BLOCK = Matrix([[0, -1], [1, 0]])


def simple_reflection_matrix(n: int, i: int) -> Matrix:
    """s_i as a signed matrix: the iota-embedded [[0,-1],[1,0]] block."""
    if not 1 <= i <= n - 1:
        raise BadLetter(f"letter {i} out of range for rank {n}")
    return embed(SimpleRoot(n, i), S_BLOCK)


def long_word_matrix(n: int) -> Matrix:
    """Antidiagonal signed matrix of the long word: bottom-left entry 1,
    alternating signs upward, top-right (-1)^(n-1); determinant 1."""
    if n < 2:
        raise BadRank(f"rank must be at least 2, got {n}")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[i - 1][n - i] = (-1) ** (n - i)
    return Matrix(rows)


def word_to_matrix(word: tuple[int, ...], n: int) -> Matrix:
    """Product of s_* matrices in word order; empty word gives the identity."""
    out = identity(n)
    for letter in word:
        out = mat_mul(out, simple_reflection_matrix(n, letter))
    return out


def word_to_permutation(word: tuple[int, ...], n: int) -> Permutation:
    out = identity_perm(n)
    for letter in word:
        out = out.compose(simple_transposition(n, letter))
    return out


def staircase_word(n: int) -> tuple[int, ...]:
    """s_1 (s_2 s_1) (s_3 s_2 s_1) ... (s_{n-1} ... s_1)."""
    if n < 2:
        raise BadRank(f"rank must be at least 2, got {n}")
    word: list[int] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)
