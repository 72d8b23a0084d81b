"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sl4-scan,cli-queries --seeds 101-110

For every workload and end-to-end metric it prints the median of the runs and
the distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of that median, next to a third of the metric's bound
from BENCHMARK.json. A JSON summary goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="a range like 101-110 or a list 1,2,3")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "spread.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=False)
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for entry in spec["end_to_end"]:
            values = [r[entry["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[entry["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / statistics.median(values),
                                   "bound": entry["bound"], "values": values}
            print(f"  {entry['name']:16s} median {statistics.median(values):12.5g} "
                  f"spread {rows[entry['name']]['spread']:.4f} "
                  f"(a third of the bound: {entry['bound'] / 3:.4f})", flush=True)
        summary[workload] = {"runs": runs, "metrics": rows}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
