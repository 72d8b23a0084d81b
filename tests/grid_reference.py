"""Test-only slow reference for long-word cell enumeration: the full grid walk.

Walks every u_L x u_R pair whose coordinates are k / M, k in [0, M), with M
from cell.left_moduli() and cell.right_moduli(), and keeps u_L w0 t u_R when
it is integral and its gcd ladders equal cell.ladders(). One Fraction matrix
is built per grid point, about 0.2-0.3 ms each, so cells of a few thousand
points are the practical limit. Member lists are cached per cell, so tests
comparing several characters on one cell walk its grid once.
"""

import functools
import itertools

from kloosterman.bruhat import gcd_ladders, psi, unipotent
from kloosterman.errors import BudgetExceeded
from kloosterman.exactnum import PhaseSum
from kloosterman.matrixcore import mat_prod
from kloosterman.weyl import long_word_matrix


@functools.lru_cache(maxsize=None)
def grid_members(cell) -> tuple:
    """(u_L, u_R, left numerators, right numerators) of every member, with
    the numerators in the entry order of cell.left_moduli()/right_moduli()."""
    torus = cell.torus()
    rank = torus.n
    w0 = long_word_matrix(rank)
    ml = cell.left_moduli()
    mr = cell.right_moduli()
    want = cell.ladders()
    rights = [(nums, unipotent(rank, nums, mr)) for nums in itertools.product(*map(range, mr))]
    out = []
    for nums_left in itertools.product(*map(range, ml)):
        u_left = unipotent(rank, nums_left, ml)
        left = mat_prod(u_left, w0, torus)
        for nums_right, u_right in rights:
            a = mat_prod(left, u_right)
            if a.is_integral() and gcd_ladders(a) == want:
                out.append((u_left, u_right, nums_left, nums_right))
    return tuple(out)


def grid_walk(cell, m, n, budget) -> PhaseSum:
    """Sum of psi(m, u_L) + psi(n, u_R) over the members; the budget bounds
    the grid size, cell.enumeration_budget()."""
    size = cell.enumeration_budget()
    if budget is not None and size > budget:
        raise BudgetExceeded(size, budget)
    out = PhaseSum()
    for u_left, u_right, _, _ in grid_members(cell):
        out.add_term(psi(m, u_left) + psi(n, u_right), 1)
    return out
