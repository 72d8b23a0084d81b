import itertools
import random

import pytest

from grid_reference import grid_members, grid_walk
from kloosterman.bruhat import corner_minors, decompose, gcd_ladders, long_word_members
from kloosterman.errors import BudgetExceeded, CellMismatch, NegativeCellData
from kloosterman.exactnum import PhaseSum
from kloosterman.matrixcore import det
from kloosterman.sl4fine import build_from_gammas
from kloosterman.sl5 import (
    DEFAULT_BUDGET,
    SL5FineCellLabel,
    sl5_display_factors,
    sl5_fine_sum_oracle,
)
from kloosterman.verify import random_gamma_factor

SMALL_CELLS = [
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 2, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 2, 1, 1),
    (1, 2, 1, 1, 1, 3, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 2),
]

# Three cells of the sl5-grid benchmark workload, 729 to 1,296 grid points.
BENCHMARK_CELLS = [
    (1, 1, 1, 1, 1, 3, 1, 1, 1, 1),
    (1, 1, 1, 3, 1, 1, 1, 1, 1, 1),
    (1, 2, 3, 1, 1, 1, 1, 1, 1, 1),
]


def test_cell_label_arithmetic():
    cell = SL5FineCellLabel(*range(1, 11))
    assert cell.as_tuple() == tuple(range(1, 11))
    d1, d2, d3, d4, d5, d6, d7, d8, d9, f = cell.as_tuple()
    assert cell.big_d == (d7 * d8 * d9, d4 * d5 * d6 * d8 * d9, d2 * d3 * d5 * d6 * d9, d1 * d3 * d6)
    assert cell.moduli == tuple(D * f for D in cell.big_d)
    assert det(cell.torus()) == 1
    c1, c2, c3, c4 = cell.moduli
    assert cell.left_moduli() == (d1, d1 * d2 * d3, c2, c1, d2 * d3, c2, c1, d4 * d5 * d6, c1, c1)
    assert cell.right_moduli() == (d7, d7 * d8, d7 * d8 * d9, c1, d4 * d8, d4 * d5 * d8 * d9, c2,
                                   d2 * d5 * d9, c3, c4)
    budget = 1
    for v in cell.left_moduli() + cell.right_moduli():
        budget *= v
    assert cell.enumeration_budget() == budget
    with pytest.raises(NegativeCellData):
        SL5FineCellLabel(1, 1, 1, 0, 1, 1, 1, 1, 1, 1)


def test_seeded_builds_round_trip():
    rng = random.Random(211)
    for _ in range(40):
        cell = SL5FineCellLabel(*rng.choice(SMALL_CELLS))
        gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
        a = build_from_gammas(cell, gammas)
        assert a.is_integral()
        assert det(a) == 1
        assert corner_minors(a) == list(cell.moduli)
        assert gcd_ladders(a) == cell.ladders()
        u_left, torus, u_right = sl5_display_factors(cell, gammas)
        d = decompose(a)
        assert u_left == d.u_L
        assert torus == d.torus_matrix() == cell.torus()
        assert u_right == d.u_R


def test_build_rejections():
    cell = SL5FineCellLabel(*SMALL_CELLS[1])
    rng = random.Random(3)
    gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
    with pytest.raises(CellMismatch):
        build_from_gammas(cell, gammas[:9])
    bad = list(gammas)
    bad[0] = random_gamma_factor(5, rng)
    with pytest.raises(CellMismatch):
        build_from_gammas(cell, bad)


def test_oracle_trivial_cell():
    cell = SL5FineCellLabel(*SMALL_CELLS[0])
    res = sl5_fine_sum_oracle(cell, (1, -2, 3, 0), (2, 0, -1, 4))
    assert res.exact == PhaseSum.one()
    assert res.method == "oracle"
    assert res.query["kind"] == "fine5"
    assert res.query["strict_paper_psi"] is False


def test_oracle_f_two_cell():
    cell = SL5FineCellLabel(*SMALL_CELLS[5])
    res = sl5_fine_sum_oracle(cell, (0, 0, 0, 0), (0, 0, 0, 0))
    assert res.exact.serialize() == [[0, 1, 8]]
    phased = sl5_fine_sum_oracle(cell, (0, 0, 0, 1), (0, 0, 0, 0))
    assert phased.exact.mass() == 8
    strict = sl5_fine_sum_oracle(cell, (0, 0, 1, 7), (0, 0, 0, 0), strict_paper_psi=True)
    relaxed = sl5_fine_sum_oracle(cell, (0, 0, 1, 1), (0, 0, 0, 0))
    assert strict.exact == relaxed.exact


def test_oracle_budget_guard():
    cell = SL5FineCellLabel(2, 2, 2, 2, 2, 2, 2, 2, 2, 2)
    with pytest.raises(BudgetExceeded) as exc:
        sl5_fine_sum_oracle(cell, (0, 0, 0, 0), (0, 0, 0, 0))
    assert exc.value.budget == cell.enumeration_budget()
    assert exc.value.limit == 2_000_000


def test_members_match_grid_walk():
    """The row-factored enumerator lists exactly the full grid walk's members,
    each once, on every cell in {1,2}^10 whose grid has at most 1,024 points."""
    cells = [SL5FineCellLabel(*t) for t in itertools.product((1, 2), repeat=10)]
    cells = [cell for cell in cells if cell.enumeration_budget() <= 1024]
    assert len(cells) == 19
    for cell in cells:
        got = list(long_word_members(cell, None))
        assert len(got) == len(set(got))
        assert set(got) == {(left, right) for _, _, left, right in grid_members(cell)}


def test_oracle_matches_grid_walk():
    """Identical terms from the oracle and the full grid walk, under both
    character conventions. SMALL_CELLS[4] is left out: its grid has
    47,775,744 points, beyond the default budget and hours for the walk."""
    cells = [t for t in SMALL_CELLS if SL5FineCellLabel(*t).enumeration_budget() <= DEFAULT_BUDGET]
    assert len(cells) == 5
    for t in cells + BENCHMARK_CELLS:
        cell = SL5FineCellLabel(*t)
        for m, n in [((1, 0, 2, 1), (0, 1, 1, 2)), ((-1, 3, -5, 7), (4, -2, 9, -11))]:
            assert sl5_fine_sum_oracle(cell, m, n, None).exact.terms == grid_walk(cell, m, n, None).terms
            strict = sl5_fine_sum_oracle(cell, m, n, None, strict_paper_psi=True).exact
            assert strict.terms == grid_walk(cell, m[:3] + m[2:3], n[:3] + n[2:3], None).terms
