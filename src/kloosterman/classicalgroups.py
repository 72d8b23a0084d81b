"""Membership predicates for Sp(2n, Z) and SO(4, Z).

Membership is definitional: A^T J A = J for the symplectic group, A^T A = I
with det 1 for the special orthogonal group. The minor and entry relations
are evaluated separately as residuals so that their equivalence with the
definitions is itself testable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import OddSize, SizeMismatch
from .matrixcore import Matrix, det, identity, mat_prod, minor


@dataclass(frozen=True)
class SymplecticForm:
    """The standard alternating form [[0, I_n], [-I_n, 0]] on 2n coordinates."""

    n: int

    @property
    def matrix(self) -> Matrix:
        size = 2 * self.n
        rows = [[0] * size for _ in range(size)]
        for i in range(self.n):
            rows[i][self.n + i] = 1
            rows[self.n + i][i] = -1
        return Matrix(rows)

    def blocks(self, a: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        """The four n x n corner blocks (P, Q, R, S) of a 2n x 2n matrix."""
        if a.n != 2 * self.n:
            raise OddSize(f"expected size {2 * self.n}, got {a.n}")
        n = self.n

        def block(r0, c0):
            return Matrix([[a[r0 + i, c0 + j] for j in range(1, n + 1)]
                           for i in range(1, n + 1)])

        return block(0, 0), block(0, n), block(n, 0), block(n, n)


def block_matrix(p: Matrix, q: Matrix, r: Matrix, s: Matrix) -> Matrix:
    n = p.n
    rows = []
    for i in range(1, n + 1):
        rows.append([p[i, j] for j in range(1, n + 1)] + [q[i, j] for j in range(1, n + 1)])
    for i in range(1, n + 1):
        rows.append([r[i, j] for j in range(1, n + 1)] + [s[i, j] for j in range(1, n + 1)])
    return Matrix(rows)


def is_symplectic(a: Matrix) -> bool:
    if a.n % 2:
        raise OddSize(f"symplectic matrices have even size, got {a.n}")
    j = SymplecticForm(a.n // 2).matrix
    return mat_prod(a.transpose(), j, a) == j


def sp4_minor_relations(a: Matrix) -> dict[str, int]:
    """Residuals of the six 2x2-minor relations equivalent to A^T J A = J.

    For column pair (j, k) the sum M_{13,jk} + M_{24,jk} must equal the form
    value at (j, k): 1 on the pairs (1,3) and (2,4), 0 elsewhere.
    """
    if a.n != 4:
        raise SizeMismatch(f"Sp(4) relations need a 4x4 matrix, got {a.n}x{a.n}")
    out = {}
    for j, k in itertools.combinations((1, 2, 3, 4), 2):
        want = 1 if (j, k) in ((1, 3), (2, 4)) else 0
        got = minor(a, (1, 3), (j, k)) + minor(a, (2, 4), (j, k))
        out[f"cols{j}{k}"] = got - want
    return out


def so4_relations(a: Matrix) -> dict[str, int]:
    """Column norm, column orthogonality, and determinant residuals."""
    if a.n != 4:
        raise SizeMismatch(f"SO(4) relations need a 4x4 matrix, got {a.n}x{a.n}")
    out = {}
    for j in range(1, 5):
        out[f"col{j}"] = sum(a[i, j] * a[i, j] for i in range(1, 5)) - 1
    for j, k in itertools.combinations((1, 2, 3, 4), 2):
        out[f"cols{j}{k}"] = sum(a[i, j] * a[i, k] for i in range(1, 5))
    out["det"] = det(a) - 1
    return out


def is_special_orthogonal(a: Matrix) -> bool:
    return all(v == 0 for v in so4_relations(a).values())


def signed_permutation_matrices(n: int) -> Iterator[Matrix]:
    """All 2^n n! matrices with one entry +-1 per row and column."""
    for images in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for i, (j, s) in enumerate(zip(images, signs)):
                rows[i][j - 1] = s
            yield Matrix(rows)


def _random_unimodular_with_inverse(n: int, rng: random.Random,
                                    factors: int) -> tuple[Matrix, Matrix]:
    """(U, U^{-1}) as a product of elementary shears and its reversed inverse."""
    u = identity(n)
    u_inv = identity(n)
    for _ in range(factors):
        i = rng.randint(1, n)
        j = rng.randint(1, n - 1)
        if j >= i:
            j += 1
        k = rng.choice((-2, -1, 1, 2))
        rows = [list(r) for r in identity(n).rows]
        rows[i - 1][j - 1] = k
        shear = Matrix(rows)
        rows[i - 1][j - 1] = -k
        unshear = Matrix(rows)
        u = mat_prod(u, shear)
        u_inv = mat_prod(unshear, u_inv)
    return u, u_inv


def random_symplectic_matrix(n: int, rng: random.Random,
                             min_factors: int = 4, max_factors: int = 10) -> Matrix:
    """Seeded word in the generators of Sp(2n, Z).

    Letters: the form matrix J, an upper translation [[I, B], [0, I]] with B
    symmetric, or a block torus [[U, 0], [0, (U^T)^{-1}]] with U unimodular.
    """
    form = SymplecticForm(n)
    zero = Matrix([[0] * n for _ in range(n)])
    out = identity(2 * n)
    for _ in range(rng.randint(min_factors, max_factors)):
        kind = rng.choice(("J", "B", "U"))
        if kind == "J":
            letter = form.matrix
        elif kind == "B":
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.randint(-3, 3)
                    rows[i][j] = v
                    rows[j][i] = v
            letter = block_matrix(identity(n), Matrix(rows), zero, identity(n))
        else:
            u, u_inv = _random_unimodular_with_inverse(n, rng, rng.randint(2, 5))
            letter = block_matrix(u, zero, zero, u_inv.transpose())
        out = mat_prod(out, letter)
    return out
