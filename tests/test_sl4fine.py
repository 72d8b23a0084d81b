import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from grid_reference import grid_walk
from kloosterman.bruhat import decompose, gcd_ladders, long_word_sum
from kloosterman.classical import kloosterman
from kloosterman.errors import (
    BudgetExceeded,
    CellMismatch,
    NegativeCellData,
    NotInBigCell,
    NotUnimodular,
)
from kloosterman.exactnum import PhaseSum, gcd_many
from kloosterman import sl4fine
from kloosterman.matrixcore import det
from kloosterman.sl4fine import (
    CONDITION_NAMES,
    DEFAULT_BUDGET,
    FineCellLabel,
    GammaFactor,
    _scan,
    build_from_gammas,
    cell_of,
    cells_for_moduli,
    closed_form_applicable,
    coarse_sum,
    congruence_system,
    display_factors,
    fine_cell_distribution,
    fine_cell_representatives,
    fine_sum_closed_form,
    fine_sum_oracle,
    gamma_coordinates,
    lemma_checks,
    longword_bound_holds,
    representative_congruences,
    representative_data,
    representative_matrix,
)
from kloosterman.verify import random_gamma_factor

SINGLE_TWO_CELLS = [
    (2, 1, 1, 1, 1, 1),
    (1, 2, 1, 1, 1, 1),
    (1, 1, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1),
    (1, 1, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 2),
]


def test_cell_label_arithmetic():
    cell = FineCellLabel(1, 2, 3, 4, 5, 6)
    assert cell.as_tuple() == (1, 2, 3, 4, 5, 6)
    assert cell.big_d == (20, 30, 3)
    assert cell.moduli == (120, 180, 18)
    assert cell.level == 720
    assert cell.left_moduli() == (1, 6, 720, 6, 720, 120)
    assert cell.right_moduli() == (4, 20, 120, 10, 180, 18)
    budget = 1
    for v in cell.left_moduli() + cell.right_moduli():
        budget *= v
    assert cell.enumeration_budget() == budget
    assert det(cell.torus()) == 1
    with pytest.raises(NegativeCellData):
        FineCellLabel(0, 1, 1, 1, 1, 1)
    with pytest.raises(NegativeCellData):
        FineCellLabel(1, 1, 1, 1, 1, -2)


def test_gamma_factor():
    g = GammaFactor(x=2, b=1, d=3, y=2)
    assert g.matrix().rows == ((2, 1), (3, 2))
    with pytest.raises(NotUnimodular):
        GammaFactor(x=2, b=2, d=3, y=2)


def test_seeded_builds_round_trip():
    rng = random.Random(101)
    cells = [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1), (1, 2, 1, 3, 1, 2),
             (2, 3, 1, 1, 2, 1), (3, 1, 2, 2, 1, 1), (1, 1, 1, 2, 3, 2)]
    for _ in range(60):
        cell = FineCellLabel(*rng.choice(cells))
        gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
        a = build_from_gammas(cell, gammas)
        assert a.is_integral()
        assert det(a) == 1
        assert cell_of(a) == cell
        assert gcd_ladders(a) == cell.ladders()
        assert lemma_checks(a).all_pass
        assert congruence_system(cell, gamma_coordinates(gammas)).satisfied
        u_left, torus, u_right = display_factors(cell, gammas)
        d = decompose(a)
        assert u_left == d.u_L
        assert torus == d.torus_matrix()
        assert u_right == d.u_R


def test_build_rejects_wrong_blocks():
    cell = FineCellLabel(2, 1, 1, 1, 1, 1)
    rng = random.Random(0)
    gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
    with pytest.raises(CellMismatch):
        build_from_gammas(cell, gammas[:5])
    bad = list(gammas)
    bad[0] = random_gamma_factor(3, rng)
    with pytest.raises(CellMismatch):
        build_from_gammas(cell, bad)


def test_cell_of_rejections():
    with pytest.raises(NotInBigCell):
        cell_of(FineCellLabel(1, 1, 1, 1, 1, 1).torus())
    from kloosterman.matrixcore import identity
    with pytest.raises(NotInBigCell):
        cell_of(identity(4))
    with pytest.raises(NotInBigCell):
        cell_of(identity(3))


def test_congruences_match_integrality():
    rng = random.Random(7)
    cells = [FineCellLabel(*t) for t in
             [(2, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1), (1, 1, 2, 1, 1, 1),
              (2, 1, 2, 1, 1, 1), (1, 1, 1, 2, 2, 1), (1, 2, 1, 1, 1, 2),
              (3, 1, 1, 2, 1, 1)]]
    integral_seen = 0
    for _ in range(600):
        cell = rng.choice(cells)
        pl = tuple(rng.randrange(v) for v in cell.left_moduli())
        pr = tuple(rng.randrange(v) for v in cell.right_moduli())
        residuals = representative_congruences(cell, pl, pr)
        assert set(residuals) == set(CONDITION_NAMES)
        a, _, _ = representative_matrix(cell, pl, pr)
        integral = a.is_integral()
        integral_seen += integral
        assert integral == all(v == 0 for v in residuals.values())
    assert integral_seen > 0


def test_fast_oracle_matches_reference():
    """The solved scan against the full-grid walk on every cell in {1,2}^6
    whose u_L x u_R grid has at most 1,024 points."""
    cells = [FineCellLabel(*t) for t in itertools.product((1, 2), repeat=6)]
    cells = [cell for cell in cells if cell.enumeration_budget() <= 1024]
    assert len(cells) == 11
    assert set(SINGLE_TWO_CELLS) <= {cell.as_tuple() for cell in cells}
    for cell in cells:
        for m, n in [((0, 0, 1), (1, 0, 1)), ((1, 1, 1), (1, 1, 1))]:
            fast = fine_sum_oracle(cell, m, n)
            assert fast.exact == grid_walk(cell, m, n, DEFAULT_BUDGET)


def test_long_word_sum_matches_solved_scan():
    """The rank-generic row-factored enumerator against the solved scan on
    every cell in {1,2}^6."""
    for t in itertools.product((1, 2), repeat=6):
        cell = FineCellLabel(*t)
        for m, n in [((0, 0, 1), (1, 0, 1)), ((-1, 2, 5), (3, -4, 1))]:
            assert long_word_sum(cell, m, n, None) == fine_sum_oracle(cell, m, n, budget=None).exact


def _oracle_terms_reference(cell: FineCellLabel, m, n) -> dict:
    """Reference for fine_sum_oracle's aggregation: one Fraction phase per key."""
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    out = PhaseSum()
    for (p1, q1, r, s1, w1, w3), mult in fine_cell_distribution(cell, budget=None).items():
        out.add_term(Fraction(m[0] * p1, d1) + Fraction(m[1] * q1, d2 * d3)
                     + Fraction(m[2] * r, d4 * d5 * f)
                     + Fraction(n[0] * s1, d4) + Fraction(n[1] * w1, d2 * d5)
                     + Fraction(n[2] * w3, d1 * d3 * f), mult)
    return out.terms


def test_oracle_matches_fraction_aggregation():
    """Integer numerators mod the level against one Fraction per key, with
    negative characters and characters beyond the cell's moduli."""
    cells = list(itertools.product((1, 2), repeat=6))
    cells += [(2, 2, 1, 3, 3, 2), (2, 1, 2, 2, 2, 4), (3, 3, 3, 3, 3, 3)]
    rng = random.Random(53)
    for tup in cells:
        cell = FineCellLabel(*tup)
        d1, d2, d3, d4, d5, f = tup
        N = cell.level
        chars = [((0, 0, 0), (0, 0, 0)), ((1, 1, 1), (1, 1, 1)), ((-1, 2, -3), (4, -5, 6)),
                 ((d1 + 1, -d2 * d3 - 1, 2 * d4 * d5 * f + 1),
                  (-d4 - 2, d2 * d5 + 1, -d1 * d3 * f - 3))]
        chars += [(tuple(rng.randint(-3 * N, 3 * N) for _ in range(3)),
                   tuple(rng.randint(-3 * N, 3 * N) for _ in range(3))) for _ in range(2)]
        for m, n in chars:
            assert fine_sum_oracle(cell, m, n, budget=None).exact.terms == \
                _oracle_terms_reference(cell, m, n)


def _closed_form_reference(cell: FineCellLabel, m, n) -> PhaseSum:
    """The closed form's double sum unfactored: one product per (x3, y5)."""
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    total = PhaseSum()
    for x3 in range(d3):
        num_left = m[1] * d1 * f * x3 + n[2] * d2 * d5
        assert num_left % (d3 * f) == 0
        left = kloosterman(m[0], num_left // (d3 * f), d1)
        for y5 in range(d5):
            num_right = n[1] * d4 * f * y5 + m[2] * d2 * d3
            assert num_right % (d5 * f) == 0
            total = total + left * kloosterman(n[0], num_right // (d5 * f), d4)
    return total * (d1 ** 3 * d2 ** 2 * d3 ** 2 * d4 ** 2 * d5 ** 4 * f ** 4)


def test_closed_form_matches_double_sum():
    """Every in-scope row of the criterion 9 grid, {1,2}^6 x {0,1,2}^3 x {0,1,2}^3."""
    rows = 0
    for tup in itertools.product((1, 2), repeat=6):
        cell = FineCellLabel(*tup)
        for m in itertools.product((0, 1, 2), repeat=3):
            for n in itertools.product((0, 1, 2), repeat=3):
                if not closed_form_applicable(cell, m, n):
                    continue
                rows += 1
                closed = fine_sum_closed_form(cell, m, n)
                assert closed.exact.terms == _closed_form_reference(cell, m, n).terms
    assert rows == 8748


def _blocked_representatives(cell: FineCellLabel):
    """Reference for the congruence-solved scan: the blocked loop it replaced,
    which tests every (q1, q2) and (p1, p2, p3) inside each u_R block."""
    d1, d2, d3, d4, d5, f = cell.as_tuple()
    N = cell.level
    ml = cell.left_moduli()
    mr = cell.right_moduli()
    for s1 in range(mr[0]):
        if math.gcd(s1, d4) != 1:
            continue
        for s2 in range(mr[1]):
            if gcd_many([d4 * d5, d5 * s1, s2]) != 1:
                continue
            for s3 in range(mr[2]):
                for w1 in range(mr[3]):
                    for w2 in range(mr[4]):
                        rs = [r for r in range(ml[5])
                              if (r * s1 - d2 * d3) % d4 == 0
                              and (r * s2 - d3 * w1) % (d4 * d5) == 0
                              and (r * s3 - w2) % (d4 * d5 * f) == 0]
                        if not rs:
                            continue
                        for w3 in range(mr[5]):
                            q_pairs = []
                            for q1 in range(ml[3]):
                                for q2_step in range(ml[5]):
                                    q2 = d2 * d3 * q2_step
                                    if (q2 * s1 - d2 * d3 * q1) % (d2 * d3 * d4):
                                        continue
                                    if (d1 * d3 * d4 - d3 * q1 * w1 + q2 * s2) % (d2 * d3 * d4 * d5):
                                        continue
                                    if (d4 * w3 - q1 * w2 + q2 * s3) % (d2 * d3 * d4 * d5 * f):
                                        continue
                                    q_pairs.append((q1, q2))
                            if not q_pairs:
                                continue
                            p_triples = []
                            for p1 in range(ml[0]):
                                if math.gcd(p1, d1) != 1:
                                    continue
                                for p2 in range(ml[1]):
                                    for p3_step in range(ml[5]):
                                        p3 = d1 * d2 * d3 * p3_step
                                        if (s1 * p3 - d2 * d3 * p2) % (d1 * d2 * d3 * d4):
                                            continue
                                        if (d1 * d3 * d4 * p1 - d3 * p2 * w1 + p3 * s2) % (d1 * d2 * d3 * d4 * d5):
                                            continue
                                        if (d4 * p1 * w3 - p2 * w2 + p3 * s3 - d2 * d4 * d5) % N:
                                            continue
                                        p_triples.append((p1, p2, p3))
                            if not p_triples:
                                continue
                            for r in rs:
                                for q1, q2 in q_pairs:
                                    for p1, p2, p3 in p_triples:
                                        yield ((p1, p2, p3, q1, q2, r),
                                               (s1, s2, s3, w1, w2, w3))


def test_solved_scan_matches_blocked_loop():
    cells = list(itertools.product((1, 2), repeat=6))
    cells += [(2, 2, 2, 2, 2, 2), (2, 1, 2, 2, 2, 4), (2, 2, 1, 3, 3, 2)]
    # Units mod 5 are not all their own inverses, unlike those mod 2, 3 and 4.
    cells += [(1, 2, 1, 5, 1, 1), (1, 1, 2, 5, 1, 1), (2, 2, 2, 5, 1, 2)]
    for tup in cells:
        cell = FineCellLabel(*tup)
        want = sorted(_blocked_representatives(cell))
        assert sorted(fine_cell_representatives(cell, budget=None)) == want
        aggregated: dict = {}
        for pl, pr in want:
            key = (pl[0], pl[3], pl[5], pr[0], pr[3], pr[5])
            aggregated[key] = aggregated.get(key, 0) + 1
        assert fine_cell_distribution(cell, budget=None) == aggregated


def test_frozen_distribution_masses():
    assert sum(fine_cell_distribution(FineCellLabel(1, 1, 1, 1, 1, 2)).values()) == 4
    assert sum(fine_cell_distribution(FineCellLabel(1, 1, 1, 1, 2, 1)).values()) == 2
    assert sum(fine_cell_distribution(FineCellLabel(1, 1, 2, 1, 1, 1)).values()) == 2
    assert sum(fine_cell_distribution(FineCellLabel(2, 1, 1, 1, 1, 1)).values()) == 1
    assert fine_cell_distribution(FineCellLabel(1, 1, 1, 1, 1, 2)) == {
        (0, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 0, 1): 1,
        (0, 0, 1, 0, 0, 0): 1,
        (0, 0, 1, 0, 0, 1): 1,
    }


def test_frozen_oracle_values():
    cell = FineCellLabel(1, 1, 1, 1, 1, 2)
    assert fine_sum_oracle(cell, (0, 0, 0), (0, 0, 0)).exact.serialize() == [[0, 1, 4]]
    assert fine_sum_oracle(cell, (0, 0, 1), (0, 0, 0)).exact.serialize() == [[0, 1, 2], [1, 2, 2]]
    assert fine_sum_oracle(cell, (0, 0, 2), (0, 0, 2)).exact.serialize() == [[0, 1, 4]]
    cell2 = FineCellLabel(1, 1, 1, 1, 2, 1)
    assert fine_sum_oracle(cell2, (1, 1, 1), (1, 1, 1)).exact.serialize() == [[0, 1, 2]]


def test_closed_form_disagrees_where_measured():
    cell = FineCellLabel(1, 1, 1, 1, 1, 2)
    closed = fine_sum_closed_form(cell, (0, 0, 0), (0, 0, 0))
    assert closed.exact.serialize() == [[0, 1, 16]]
    oracle = fine_sum_oracle(cell, (0, 0, 0), (0, 0, 0))
    assert oracle.exact.serialize() == [[0, 1, 4]]
    assert closed.exact != oracle.exact


def test_trivial_cell_both_methods():
    cell = FineCellLabel(1, 1, 1, 1, 1, 1)
    rng = random.Random(13)
    for _ in range(20):
        m = tuple(rng.randint(-5, 5) for _ in range(3))
        n = tuple(rng.randint(-5, 5) for _ in range(3))
        assert fine_sum_oracle(cell, m, n).exact == PhaseSum.one()
        assert fine_sum_closed_form(cell, m, n).exact == PhaseSum.one()


def test_closed_form_applicability():
    cell = FineCellLabel(1, 1, 1, 1, 1, 2)
    assert closed_form_applicable(cell, (0, 0, 2), (0, 0, 0))
    assert not closed_form_applicable(cell, (0, 0, 1), (0, 0, 0))
    assert fine_sum_closed_form(cell, (0, 0, 1), (0, 0, 0)).exact == PhaseSum()
    assert closed_form_applicable(FineCellLabel(1, 1, 1, 1, 1, 1), (3, -2, 5), (1, 4, -7))


def test_character_shift_invariance():
    rng = random.Random(37)
    for tup in [(1, 2, 1, 1, 1, 2), (2, 1, 1, 1, 2, 1)]:
        cell = FineCellLabel(*tup)
        d1, d2, d3, d4, d5, f = tup
        m = tuple(rng.randint(-3, 3) for _ in range(3))
        n = tuple(rng.randint(-3, 3) for _ in range(3))
        base = fine_sum_oracle(cell, m, n).exact
        shifted_m = (m[0] + d1, m[1] + d2 * d3, m[2] + d4 * d5 * f)
        shifted_n = (n[0] + d4, n[1] + d2 * d5, n[2] + d1 * d3 * f)
        assert fine_sum_oracle(cell, shifted_m, n).exact == base
        assert fine_sum_oracle(cell, m, shifted_n).exact == base


def test_representatives_are_canonical_and_aggregate():
    for tup in [(1, 1, 1, 1, 1, 2), (2, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1)]:
        cell = FineCellLabel(*tup)
        reps = list(fine_cell_representatives(cell))
        assert len(set(reps)) == len(reps)
        aggregated: dict = {}
        for pl, pr in reps:
            a, u_left, u_right = representative_matrix(cell, pl, pr)
            assert a.is_integral()
            assert cell_of(a) == cell
            for u in (u_left, u_right):
                assert all(0 <= u[i, j] < 1 for i in range(1, 5) for j in range(i + 1, 5))
            key = (pl[0], pl[3], pl[5], pr[0], pr[3], pr[5])
            aggregated[key] = aggregated.get(key, 0) + 1
        assert aggregated == fine_cell_distribution(cell)


def test_budget_guard():
    cell = FineCellLabel(2, 2, 2, 2, 2, 2)
    steps, _ = _scan(cell, None)
    assert 1000 < steps < cell.enumeration_budget()
    # A cold scan stops once its running step count passes the limit.
    with pytest.raises(BudgetExceeded) as exc:
        next(fine_cell_representatives(cell, budget=1000))
    assert 1000 < exc.value.budget <= steps
    assert exc.value.limit == 1000
    # A cached distribution keeps its full count, and the guard runs first.
    fine_cell_distribution(cell, budget=None)
    with pytest.raises(BudgetExceeded) as exc:
        fine_cell_distribution(cell, budget=1000)
    assert exc.value.budget == steps
    assert exc.value.limit == 1000
    with pytest.raises(BudgetExceeded):
        fine_sum_oracle(cell, (1, 1, 1), (1, 1, 1), budget=1000)
    assert fine_cell_distribution(cell) is fine_cell_distribution(cell, budget=steps)


def test_distribution_cache_evicts_oldest_cells(monkeypatch):
    monkeypatch.setattr(sl4fine, "DISTRIBUTION_CACHE_CELLS", 2)
    monkeypatch.setattr(sl4fine, "_DISTRIBUTION_CACHE", {})
    a, b, c = (FineCellLabel(*t) for t in SINGLE_TWO_CELLS[:3])
    dist_a = fine_cell_distribution(a)
    dist_b = fine_cell_distribution(b)
    assert fine_cell_distribution(a) is dist_a
    fine_cell_distribution(c)
    assert list(sl4fine._DISTRIBUTION_CACHE) == [b.as_tuple(), c.as_tuple()]
    assert fine_cell_distribution(b) is dist_b
    rescanned = fine_cell_distribution(a)
    assert rescanned is not dist_a and rescanned == dist_a
    assert list(sl4fine._DISTRIBUTION_CACHE) == [c.as_tuple(), a.as_tuple()]


def test_budget_guard_refuses_large_cells_early():
    # One (r, w1, w2) group here is 10^9 steps, after four of set-up: it is
    # counted, not built.
    with pytest.raises(BudgetExceeded) as exc:
        fine_cell_distribution(FineCellLabel(1, 1000, 1000, 1, 1, 1))
    assert exc.value.budget == 4 + 10 ** 9
    assert exc.value.limit == DEFAULT_BUDGET
    # Here each (s1, s2) sweeps 1,000 values of s3: about 4 * 10^8 passes in
    # all. Every sweep is counted before any runs, so the refusal is prompt.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        fine_cell_distribution(FineCellLabel(1, 1, 1, 1000, 1, 1))
    assert time.perf_counter() - start < 5
    assert DEFAULT_BUDGET < exc.value.budget <= DEFAULT_BUDGET + 1000


def test_cells_for_moduli_frozen():
    assert [c.as_tuple() for c in cells_for_moduli((1, 1, 1))] == [(1, 1, 1, 1, 1, 1)]
    cells = cells_for_moduli((2, 2, 2))
    assert [c.as_tuple() for c in cells] == [
        (2, 2, 1, 2, 1, 1),
        (1, 1, 2, 2, 1, 1),
        (2, 1, 1, 1, 2, 1),
        (1, 1, 1, 1, 1, 2),
    ]
    for c in cells:
        assert c.moduli == (2, 2, 2)
    assert len(cells_for_moduli((3, 3, 3))) == 4
    assert len(cells_for_moduli((4, 4, 2))) == 7
    with pytest.raises(NegativeCellData):
        cells_for_moduli((0, 1, 1))


def test_coarse_sum_frozen_value():
    res = coarse_sum((2, 2, 2), (1, 1, 1), (1, 1, 1))
    assert res.exact.serialize() == [[0, 1, 3], [1, 2, 6]]
    assert res.numeric.real == pytest.approx(-3.0, abs=1e-12)
    assert res.query == {"kind": "coarse", "c": [2, 2, 2], "m": [1, 1, 1], "n": [1, 1, 1]}
    assert coarse_sum((1, 1, 1), (4, -1, 2), (0, 3, 1)).exact == PhaseSum.one()
    with pytest.raises(CellMismatch):
        coarse_sum((2, 2, 2), (1, 1, 1), (1, 1, 1), method="brute")


def test_longword_bound_report():
    value = coarse_sum((2, 2, 2), (1, 1, 1), (1, 1, 1)).numeric
    report = longword_bound_holds((2, 2, 2), (1, 1, 1), (1, 1, 1), value)
    assert report.holds
    assert report.lhs == pytest.approx(3.0, abs=1e-9)
    assert not longword_bound_holds((1, 1, 1), (1, 1, 1), (1, 1, 1), 1e9).holds


def test_representative_data_numerators_are_integers():
    rng = random.Random(41)
    cell = FineCellLabel(2, 3, 1, 2, 1, 1)
    gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
    pl, pr = representative_data(cell, gamma_coordinates(gammas))
    assert all(isinstance(v, int) for v in pl + pr)
    a, _, _ = representative_matrix(cell, pl, pr)
    assert a == build_from_gammas(cell, gammas)
