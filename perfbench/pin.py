"""Build the workload pools and pin the program's exact outputs on them.

    python3 perfbench/pin.py

writes ``data/pools.json`` and every ``data/pins_*.json``, always together, so
that the pins describe the pools. Pins are short digests of
the serialized oracle phases (library workloads) and of the CLI stdout with
``elapsed_ms`` and ``cache_hit`` removed (CLI workload), taken with
``budget=None`` so that a query the default budget refuses today can be
checked if a later version answers it. Closed-form values are not pinned.
Rerun this script only when the workloads change: new pins are a new
benchmark.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from kloosterman import cli  # noqa: E402
from kloosterman.bruhat import corner_minors  # noqa: E402
from kloosterman.matrixcore import Matrix  # noqa: E402
from kloosterman.sl4fine import (  # noqa: E402
    DEFAULT_BUDGET,
    FineCellLabel,
    cells_for_moduli,
    fine_cell_representatives,
    fine_sum_oracle,
)
from kloosterman.sl5 import SL5FineCellLabel, sl5_fine_sum_oracle  # noqa: E402

# Cells with entries in {1,2,3}, f <= 5 and level 64..324, in three bands of
# near-equal cost per call (best of five representative enumerations on a
# 2-core x86_64 machine): 0.03-0.05 s, 0.23-0.25 s and 0.48-0.55 s. With 3, 4
# and 3 cells, p50 and p90 fall inside a band rather than on an edge between
# two cells. The set is fixed and the seed picks each cell's character and the
# order: drawing cells by seed moved run_s by more than 10% between seeds,
# because cost varies 50-fold between cells of one level.
SL4_SCAN_CELLS = ((2, 2, 2, 2, 2, 2), (2, 1, 2, 2, 2, 4), (2, 2, 1, 3, 3, 2),
                  (2, 2, 3, 2, 3, 2), (2, 2, 3, 2, 2, 3), (2, 1, 2, 3, 2, 5), (2, 2, 2, 3, 3, 2),
                  (2, 2, 2, 3, 2, 4), (2, 1, 3, 2, 3, 4), (1, 2, 3, 2, 3, 3))
# Every cell with entries in {1,2} and a 1,024-point grid (six), and the two
# of 729 and the two of 1,296 points with entries in {1,2,3}: one cost band of
# about 0.2-0.35 s per walk, so that p50 and p90 fall inside it rather than on
# an edge between grid sizes. Fixed for the same reason as SL4_SCAN_CELLS; the
# seed picks characters and the order.
SL5_GRID_CELLS = ((1, 1, 1, 1, 1, 1, 1, 1, 1, 2), (1, 1, 2, 1, 1, 2, 1, 1, 1, 1),
                  (1, 1, 2, 2, 1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 2, 1, 1, 1, 1),
                  (1, 2, 1, 2, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 2, 1, 1, 1, 1, 1),
                  (1, 1, 1, 1, 1, 3, 1, 1, 1, 1), (1, 1, 1, 3, 1, 1, 1, 1, 1, 1),
                  (1, 2, 3, 1, 1, 1, 1, 1, 1, 1), (1, 3, 2, 1, 1, 1, 1, 1, 1, 1))
SL5_CHARACTERS = (((1, 1, 1, 1), (1, 1, 1, 1)), ((0, 1, 2, 1), (2, 1, 0, 1)),
                  ((1, 0, 0, 2), (0, 2, 1, 0)), ((2, 2, 1, 1), (1, 1, 2, 2)))
CLI_DRAWS = {"decompose": 2, "groups": 2, "sl4_fine_ok": 5, "sl4_fine_refused": 2,
             "sl4_coarse_ok": 1, "sl4_coarse_refused": 1, "sl5_fine": 2, "verify_weil": 1,
             "verify": 2}
# Classical queries: c roughly log-uniform up to 2e4. The seed picks m, n and
# one of a few c within 6% of each slot's centre, so the O(c) work per pass
# hardly depends on the seed; --check-bound and --cache are fixed per slot.
CLASSICAL_SLOTS = ((5, False, True), (17, True, False), (90, False, True), (480, True, False),
                   (2500, False, True), (7000, True, False), (19000, False, False))


def csv(values) -> str:
    return ",".join(str(v) for v in values)


# ------------------------------------------------------------------ pools

def sl4_scan_pool() -> dict:
    chars = [[list(m), list(n)] for m in itertools.product((0, 1), repeat=3)
             for n in itertools.product((0, 1), repeat=3)]
    return {"cells": [list(c) for c in SL4_SCAN_CELLS], "characters": chars}


def sl5_grid_pool() -> dict:
    return {"cells": [list(c) for c in SL5_GRID_CELLS],
            "characters": [[list(m), list(n)] for m, n in SL5_CHARACTERS]}


def _elementary_product(n: int, rng: random.Random, steps: int) -> list[list[int]]:
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in a:  # a <- a * E_ij(k): column j += k * column i
            row[j] += k * row[i]
    return a


def _symplectic(rng: random.Random) -> list[list[int]]:
    """Product of [[I, S], [0, I]] and [[I, 0], [S, I]] with S symmetric."""
    a = [[int(i == j) for j in range(4)] for i in range(4)]
    for step in range(rng.randint(2, 4)):
        s = [[rng.randint(-1, 1), 0], [0, rng.randint(-1, 1)]]
        s[0][1] = s[1][0] = rng.randint(-1, 1)
        g = [[int(i == j) for j in range(4)] for i in range(4)]
        for i in range(2):
            for j in range(2):
                if step % 2 == 0:
                    g[i][j + 2] = s[i][j]
                else:
                    g[i + 2][j] = s[i][j]
        a = [[sum(a[i][k] * g[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    return a


def _signed_permutation(rng: random.Random) -> list[list[int]]:
    perm = rng.sample(range(4), 4)
    return [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(4)] for i in range(4)]


def _q(shape: str, argv: list, **extra) -> dict:
    return {"shape": shape, "argv": [str(a) for a in argv], **extra}


def classical_query(c: int, m: int, n: int, check: bool) -> dict:
    argv = ["classical", f"-m={m}", f"-n={n}", "-c", c] + (["--check-bound"] if check else [])
    return _q("classical", argv, m=m, n=n, c=c)


def cli_pool(rng: random.Random) -> dict:
    pool: dict = {"draws": CLI_DRAWS}
    slots = []
    for center, check, cache in CLASSICAL_SLOTS:
        cs = sorted({max(2, round(center * (1 + 0.02 * j))) for j in (-2, -1, 0, 1)})
        zero = not slots  # the first slot is always m = n = 0, for S(0,0;c) = phi(c)
        slots.append({"c": cs, "check": check, "cache": cache, "zero": zero})
    pool["classical_slots"] = slots
    # m, n = +-1: every unit gives its own phase, so output size and memory
    # depend on c alone.
    pool["classical_mn"] = [list(mn) for mn in itertools.product((-1, 1), repeat=2)]

    chars = list(itertools.product((0, 1, 2), repeat=3))
    small = list(itertools.product((1, 2), repeat=6))
    ok_cells = [d for d in small if FineCellLabel(*d).enumeration_budget() <= DEFAULT_BUDGET]
    refused_cells = [d for d in small if FineCellLabel(*d).enumeration_budget() > DEFAULT_BUDGET]
    pool["sl4_fine_ok"] = [
        _q("sl4-fine", ["sl4", "fine", "--cell", csv(cell), "-m", csv(rng.choice(chars)),
                        "-n", csv(rng.choice(chars)), "--method", method])
        for cell, method in zip(rng.sample(ok_cells, 21), itertools.cycle(("oracle", "closed", "both")))]
    pool["sl4_fine_refused"] = [
        _q("sl4-fine", ["sl4", "fine", "--cell", csv(cell), "-m", csv(rng.choice(chars)),
                        "-n", csv(rng.choice(chars)), "--method", method], refusable=True)
        for cell, method in zip(refused_cells, itertools.cycle(("oracle", "both")))]

    coarse_ok, coarse_refused = [], []
    for c in itertools.product((1, 2, 3, 4), repeat=3):
        budget = max(cell.enumeration_budget() for cell in cells_for_moduli(c))
        if budget <= DEFAULT_BUDGET and max(c) <= 3:
            coarse_ok.append(c)
        elif budget > DEFAULT_BUDGET and math.prod(c) <= 16:
            coarse_refused.append(c)
    pool["sl4_coarse_ok"] = [
        _q("sl4-coarse", ["sl4", "coarse", "--c", csv(c), "-m", csv(rng.choice(chars)),
                          "-n", csv(rng.choice(chars)), "--method", rng.choice(("oracle", "both"))])
        for c in rng.sample(coarse_ok, min(8, len(coarse_ok)))]
    pool["sl4_coarse_refused"] = [
        _q("sl4-coarse", ["sl4", "coarse", "--c", csv(c), "-m", csv(rng.choice(chars)),
                          "-n", csv(rng.choice(chars)), "--method", "oracle"], refusable=True)
        for c in coarse_refused[:8]]

    tiny = [d for d in itertools.product((1, 2), repeat=10)
            if SL5FineCellLabel(*d).enumeration_budget() <= 128]
    chars4 = list(itertools.product((0, 1, 2), repeat=4))
    pool["sl5_fine"] = [
        _q("sl5-fine", ["sl5", "fine", "--cell", csv(cell), "-m", csv(rng.choice(chars4)),
                        "-n", csv(rng.choice(chars4))] + (["--strict-paper-psi"] if i % 2 else []))
        for i, cell in enumerate(rng.sample(tiny, min(10, len(tiny))))]

    matrices = {}
    for i in range(10):
        n = 5 if i % 5 == 4 else 4
        while True:
            a = _elementary_product(n, rng, rng.randint(8, 14))
            if all(v != 0 for v in corner_minors(Matrix(a))):
                break
        matrices[f"a{i:02d}.json"] = a
    for i in range(4):
        matrices[f"s{i:02d}.json"] = _symplectic(rng)
        matrices[f"p{i:02d}.json"] = _signed_permutation(rng)
    pool["matrices"] = {name: {"n": len(a), "entries": a} for name, a in matrices.items()}
    pool["decompose"] = [_q("decompose", ["decompose", "--matrix", name])
                         for name in matrices if name.startswith("a")]
    # Members (signed permutations in SO(4), symplectic words in Sp(4)) and two
    # non-members.
    checks = [(kind, f"{prefix}{i:02d}.json") for prefix, kind in (("p", "so4"), ("s", "sp4"))
              for i in range(4)] + [("sp4", "a00.json"), ("so4", "a01.json")]
    pool["groups"] = [_q("groups-check", ["groups", "check", "--kind", kind, "--matrix", name])
                      for kind, name in checks]
    # One weil query per pass: it is the largest CLI process (numpy arrays), so
    # peak_rss_mb does not depend on whether the seed drew it.
    pool["verify_weil"] = [_q("verify", ["verify", "--suite", "weil", "--max-c", c])
                           for c in ("30", "40")]
    pool["verify"] = [_q("verify", argv) for argv in (
        ["verify", "--suite", "classical"], ["verify", "--suite", "longword"],
        ["verify", "--suite", "trivial", "--seed", "1"], ["verify", "--suite", "trivial", "--seed", "2"],
        ["verify", "--suite", "partition", "--max-c", "2", "--seed", "1"],
        ["verify", "--suite", "bound", "--max-c", "2", "--seed", "3"],
        ["verify", "--suite", "congruences", "--d-bound", "1"],
        ["verify", "--suite", "crossval", "--d-bound", "1"])]
    fillers = [_q("classical", ["classical", f"-m={m}", f"-n={n}", "-c", c], m=m, n=n, c=c)
               for c in (7, 23, 61, 150, 333, 700, 1300, 2100, 3100)
               for m, n in ((1, 1), (2, -1))]
    fillers += rng.sample(pool["sl4_fine_ok"], 4) + rng.sample(pool["sl5_fine"], 2)
    pool["prefill"] = fillers
    return pool


# ------------------------------------------------------------------- pins

def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_digest(stdout: str) -> str:
    doc = json.loads(stdout)
    doc.pop("elapsed_ms", None)
    doc.pop("cache_hit", None)
    return gen.digest(doc)


def pin_cli(pool: dict, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    for name, doc in pool["matrices"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    queries = list(pool["prefill"])
    for slot in pool["classical_slots"]:
        for c in slot["c"]:
            for m, n in ([(0, 0)] if slot["zero"] else pool["classical_mn"]):
                queries.append(classical_query(c, m, n, slot["check"]))
    for shape in CLI_DRAWS:
        queries += pool[shape]
    pins = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for q in queries:
            argv = list(q["argv"])
            if q["shape"] in ("sl4-fine", "sl4-coarse"):
                argv += ["--budget", "none"]
            code, stdout = run_cli(argv)
            if code != 0:
                raise SystemExit(f"pinning failed for {' '.join(argv)}")
            pins[" ".join(q["argv"])] = cli_digest(stdout)
    finally:
        os.chdir(cwd)
    return pins


def pin_sl4_scan(pool: dict) -> dict:
    pins = {}
    for cell_data in pool["cells"]:
        cell = FineCellLabel(*cell_data)
        reps = sorted(fine_cell_representatives(cell, budget=None))
        pins[gen.key(cell_data, ["reps"])] = gen.digest([list(map(list, r)) for r in reps])
        for m, n in pool["characters"]:
            exact = fine_sum_oracle(cell, m, n, budget=None).exact
            pins[gen.key(cell_data, m, n)] = gen.digest(exact.serialize())
    return pins


def pin_sweep() -> list[str]:
    return [gen.digest(fine_sum_oracle(FineCellLabel(*cell), m, n, budget=None).exact.serialize())
            for cell, m, n in gen.sweep_rows_canonical()]


def pin_sl5(pool: dict) -> dict:
    pins = {}
    for cell_data in pool["cells"]:
        cell = SL5FineCellLabel(*cell_data)
        for m, n in pool["characters"]:
            for strict in (False, True):
                exact = sl5_fine_sum_oracle(cell, m, n, None, strict).exact
                pins[gen.key(cell_data, m, n, [int(strict)])] = gen.digest(exact.serialize())
    return pins


def write(name: str, doc) -> None:
    with open(os.path.join(gen.DATA, name), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def main() -> int:
    pools = {"sl4_scan": sl4_scan_pool(), "sl5_grid": sl5_grid_pool(),
             "cli": cli_pool(random.Random(20251017))}
    write("pools.json", pools)
    write("pins_sl4_scan.json", pin_sl4_scan(pools["sl4_scan"]))
    write("pins_character_sweep.json", pin_sweep())
    write("pins_sl5_grid.json", pin_sl5(pools["sl5_grid"]))
    write("pins_cli_queries.json",
          pin_cli(pools["cli"], os.path.join(ROOT, ".perfbench", "pin-work")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
