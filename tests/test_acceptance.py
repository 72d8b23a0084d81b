"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Runtime limits and tolerances are pinned in the assertions. Where a measured
outcome is itself the contract (the closed-form discrepancy counts, the
det-1 signed permutation count) the measured value is frozen here so a
regression shows up as a failed criterion, not a silent drift.
"""

import functools
import json
import random
import subprocess
import sys
import time

from kloosterman.bruhat import decompose, gcd_ladders, random_big_cell_matrix
from kloosterman.matrixcore import det
from kloosterman.sl4fine import FineCellLabel, build_from_gammas, lemma_checks
from kloosterman.verify import (
    bound_suite,
    bruhat_suite,
    classical_suite,
    congruence_scan_suite,
    cross_validation_suite,
    groups_suite,
    longword_suite,
    partition_suite,
    random_gamma_factor,
    trivial_cell_suite,
    weil_suite,
)
from kloosterman.weyl import long_word_matrix, word_to_matrix


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    pad = 76
    left = label[:pad].ljust(pad)
    tail = f"  {detail}" if detail else ""
    print(f"{tag:4}  {left}{tail}")


@functools.lru_cache(maxsize=1)
def _reconstruction_families():
    """Seeded big-cell families shared by criteria 4 and 5."""
    rng = random.Random(2026)
    sl4 = [random_big_cell_matrix(4, rng) for _ in range(1000)]
    sl5 = [random_big_cell_matrix(5, rng) for _ in range(200)]
    return sl4, sl5


def test_criterion_01_classical_values():
    started = time.perf_counter()
    report = classical_suite(phi_max=50)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.checked == 53 and elapsed < 1.0
    ok_line(ok, "1. classical pinned values and totient identity, tol 1e-9",
            f"{report.checked} checks, {elapsed:.2f}s (limit 1s)")
    assert report.failures == 0
    assert report.checked == 53
    assert elapsed < 1.0


def test_criterion_02_weil_bound_grid():
    started = time.perf_counter()
    report = weil_suite(c_max=500, char_bound=20)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.checked == 500 * 41 * 41 and elapsed < 30.0
    ok_line(ok, "2. Weil bound, c <= 500, |m|,|n| <= 20",
            f"{report.checked} checks, worst ratio {report.details['worst_ratio']}, "
            f"{elapsed:.1f}s (limit 30s)")
    assert report.failures == 0
    assert report.checked == 840500
    assert elapsed < 30.0


def test_criterion_03_long_word_matrix():
    started = time.perf_counter()
    pinned = word_to_matrix((1, 2, 1, 3, 2, 1), 4)
    exact = pinned.rows == ((0, 0, 0, -1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0))
    report = longword_suite()
    elapsed = time.perf_counter() - started
    ok = exact and pinned == long_word_matrix(4) and report.passed and elapsed < 1.0
    ok_line(ok, "3. long-word matrix pinned entries; staircase words n in 2..5",
            f"{report.checked} checks, {elapsed:.2f}s (limit 1s)")
    assert exact
    assert pinned == long_word_matrix(4)
    assert report.failures == 0
    assert elapsed < 1.0


def test_criterion_04_bruhat_reconstruction():
    started = time.perf_counter()
    sl4, sl5 = _reconstruction_families()
    failures = 0
    for a in sl4 + sl5:
        if decompose(a).reconstruct() != a:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and len(sl4) == 1000 and len(sl5) == 200 and elapsed < 60.0
    ok_line(ok, "4. exact Bruhat reconstruction, 1000 SL4 + 200 SL5 seeded matrices",
            f"{failures} failures, {elapsed:.1f}s (limit 60s)")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_05_gcd_lemmas_on_same_families():
    sl4, sl5 = _reconstruction_families()
    failures = 0
    for a in sl4 + sl5:
        row, minors = gcd_ladders(a)
        failures += row[-1] != minors[-1]
    ok = failures == 0
    ok_line(ok, "5. bottom-row gcd equals corner-minor gcd on criterion-4 families",
            f"{len(sl4) + len(sl5)} matrices, {failures} failures")
    assert failures == 0


def test_criterion_06_corner_inverse_mod_f():
    rng = random.Random(606)
    failures = 0
    for _ in range(500):
        cell = FineCellLabel(*[rng.randint(1, 3) for _ in range(6)])
        gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
        a = build_from_gammas(cell, gammas)
        report = lemma_checks(a)
        if not (report.inverse_mod_f and report.units_mod_f):
            failures += 1
    ok = failures == 0
    ok_line(ok, "6. corner entry times complementary minor is 1 mod f, 500 builds",
            f"cells with d,f <= 3, {failures} failures")
    assert failures == 0


def test_criterion_07_integrality_iff_congruences():
    started = time.perf_counter()
    report = congruence_scan_suite(d_bound=2)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.details["cells"] == 64 and elapsed < 120.0
    ok_line(ok, "7. integrality <=> congruence system, all cells with d,f in {1,2}",
            f"{report.checked} row assignments, {report.failures} mismatches, "
            f"{elapsed:.1f}s (limit 120s)")
    assert report.failures == 0
    assert report.details["cells"] == 64
    assert report.checked == 55839135
    assert elapsed < 120.0


def test_criterion_08_trivial_cell_identity():
    report = trivial_cell_suite(seed=8, pairs=20)
    ok = report.passed and report.checked == 40
    ok_line(ok, "8. trivial cell gives exactly 1 by both methods, 20 character pairs",
            f"{report.checked} evaluations, {report.failures} failures")
    assert report.failures == 0
    assert report.checked == 40


def test_criterion_09_closed_form_cross_validation():
    started = time.perf_counter()
    report = cross_validation_suite(d_bound=2, char_values=(0, 1, 2), tolerance=1e-6)
    elapsed = time.perf_counter() - started
    details = report.details
    records = details["discrepancies"]
    complete = report.failures == 0 and details["cells"] == 64
    schema_ok = all(
        set(r) == {"cell", "m", "n", "oracle_re", "oracle_im",
                   "closed_re", "closed_im", "abs_diff"}
        for r in records)
    surfaced = details["disagreements"] == len(records)
    no_false_zero = all(abs(complex(r["oracle_re"], r["oracle_im"])) > 1e-9
                        for r in records)
    ok = (complete and schema_ok and surfaced and no_false_zero
          and details["oracle_authoritative"] and elapsed < 600.0)
    ok_line(ok, "9. oracle vs closed form, complete matrix, tol 1e-6",
            f"{report.checked} rows: {details['agreements']} agree, "
            f"{details['disagreements']} discrepancy records, "
            f"{elapsed:.1f}s (limit 600s)")
    assert complete
    assert schema_ok and surfaced and no_false_zero
    assert report.checked == 8748
    assert details["agreements"] == 729
    assert details["disagreements"] == 8019
    # The closed form cancels to zero on 522 rows, in 12 cells, where the
    # oracle is nonzero; no_false_zero rules out the reverse.
    closed_zero = [r for r in records if abs(complex(r["closed_re"], r["closed_im"])) < 1e-9]
    assert len(closed_zero) == 522
    assert len({tuple(r["cell"]) for r in closed_zero}) == 12
    assert elapsed < 600.0


def test_criterion_10_partition_and_order_invariance():
    report = partition_suite(c_bound=4, seed=10)
    ok = report.passed and report.checked == 64
    ok_line(ok, "10. cells partition the candidate space; aggregation order free",
            f"{report.checked} torus data, {report.failures} failures")
    assert report.failures == 0
    assert report.checked == 64


def test_criterion_11_long_word_bound():
    report = bound_suite(c_bound=4, char_bound=2, seed=11, spot_checks=50)
    ok = report.passed and report.details["spot_failures"] == 0
    ok_line(ok, "11. long-word bound on coarse values, c <= 4, |m|,|n| <= 2",
            f"{report.checked} checks, {report.failures} failures")
    assert report.failures == 0
    assert report.details["spot_failures"] == 0


def test_criterion_12_group_relations():
    report = groups_suite(seed=12, words=200)
    det_one = report.details["det_one_signed_permutations"]
    ok = report.passed and det_one == 192
    ok_line(ok, "12. Sp4 minor relations on 200 words; SO4 relations on signed perms",
            f"{report.checked} checks, det-1 signed permutations: {det_one}")
    assert report.failures == 0
    assert det_one == 192


def _cli(args, cache=None):
    argv = [sys.executable, "-m", "kloosterman"] + args
    if cache:
        argv += ["--cache", cache]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _normalized(stdout: str) -> str:
    doc = json.loads(stdout)
    doc.pop("elapsed_ms")
    return json.dumps(doc, sort_keys=True)


def test_criterion_13_cli_determinism(tmp_path):
    commands = [
        ["classical", "-m", "1", "-n", "1", "-c", "5"],
        ["sl4", "fine", "--cell", "2,1,1,1,2,1", "-m", "1,1,1", "-n", "1,1,1",
         "--method", "both"],
        ["verify", "--suite", "trivial", "--seed", "99"],
    ]
    deterministic = True
    for args in commands:
        if _normalized(_cli(args)) != _normalized(_cli(args)):
            deterministic = False
    cache = str(tmp_path / "cache.jsonl")
    args = ["classical", "-m", "3", "-n", "4", "-c", "11"]
    first = json.loads(_cli(args, cache=cache))
    second = json.loads(_cli(args, cache=cache))
    cache_ok = (first["cache_hit"] is False and second["cache_hit"] is True
                and first["exact_phases"] == second["exact_phases"]
                and first["value_re"] == second["value_re"]
                and first["value_im"] == second["value_im"])
    ok = deterministic and cache_ok
    ok_line(ok, "13. CLI byte-identical outside elapsed_ms; cache round trip",
            f"{len(commands)} repeated commands, cache hit preserves phases")
    assert deterministic
    assert cache_ok
