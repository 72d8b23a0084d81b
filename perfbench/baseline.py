"""Rerun the ROADMAP baseline rows that fit the benchmark's workloads.

    python3 perfbench/baseline.py [--out FILE]

Each row is timed several times (each library sample in a fresh process, so
the distribution cache is cold) and reported as median and quartiles with its
sample count. Rows are raw wall times, as in the ROADMAP table, except the
import row, which is calibrated like the benchmark's ``cli.import_ms``. Rows
outside every workload are not rerun: Tier-1, ``kloosterman(1, 2, 100003)``
(c above the CLI mix's 2e4), the SL(4) cell (3,3,3,3,3,3) (level 729, above
sl4-scan's 324) and the coarse sum at c = (6,6,6) (above the CLI mix's coarse
moduli).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SAMPLES = 7  # timings per row

TIMED = """
import sys, time
from kloosterman.classical import kloosterman
from kloosterman.sl4fine import FineCellLabel, fine_sum_oracle
from kloosterman.sl5 import SL5FineCellLabel, sl5_fine_sum_oracle
t0 = time.perf_counter()
{call}
print(time.perf_counter() - t0)
"""

ROWS = (
    ("kloosterman(1, 2, 10007)", "workload cli-queries (classical, c up to 2e4)",
     "kloosterman(1, 2, 10007)"),
    ("SL(4) scan, cell (2,2,2,2,2,2)", "workload sl4-scan",
     "fine_sum_oracle(FineCellLabel(2, 2, 2, 2, 2, 2), (1, 1, 1), (1, 1, 1), budget=None)"),
    ("SL(5) oracle, cell (1,...,1,2), 1,024-point grid", "workload sl5-grid",
     "sl5_fine_sum_oracle(SL5FineCellLabel(1, 1, 1, 1, 1, 1, 1, 1, 1, 2), (1, 1, 1, 1),"
     " (1, 1, 1, 1), None)"),
)


def summary(values: list[float], unit: str, scale: float = 1.0) -> dict:
    values = [v * scale for v in values]
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": med, "q1": q1, "q3": q3, "unit": unit, "samples": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(run.STATE, "baseline.json"))
    args = parser.parse_args()
    env = run.child_env()
    rows = {}

    walls = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "kloosterman", "classical", "-m", "1", "-n", "1",
                        "-c", "5"], env=env, cwd=run.ROOT, check=True, capture_output=True)
        walls.append(time.perf_counter() - t0)
    rows["python -m kloosterman classical -c 5 (wall)"] = dict(
        summary(walls, "ms", 1000.0), workload="cli-queries")
    imports = [run.import_ms(samples=3) for _ in range(SAMPLES)]
    rows["import kloosterman.cli minus a bare interpreter"] = dict(
        summary(imports, "ms"), workload="cli-queries")
    for label, workload, call in ROWS:
        times = []
        for _ in range(SAMPLES):
            out = subprocess.run([sys.executable, "-c", TIMED.format(call=call)], env=env,
                                 cwd=run.ROOT, check=True, capture_output=True, text=True)
            times.append(float(out.stdout.strip()))
        rows[label] = dict(summary(times, "ms", 1000.0), workload=workload)
    record = {**run.environment(seed=None), "rows": rows}
    for label, row in rows.items():
        print(f"{label:52s} {row['median']:10.2f} {row['unit']}  "
              f"(q1 {row['q1']:.2f}, q3 {row['q3']:.2f}, n={row['samples']})")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
