"""One pass of a library workload in a fresh process, or a CLI cache pre-fill.

    python3 perfbench/worker.py --workload sl4-scan --seed 1 [--trace 1 --spans F]

A fresh process per pass means the program's module-level distribution cache
starts cold every time, as it does for each CLI call. The worker imports the
program, generates its inputs from the seed, prints ``ready``, runs the pass,
checks every output against the pins and the invariants, and prints one JSON
result line. Only the pass itself is timed, without the reference-loop samples
it takes between queries; its latencies are reported calibrated (calib.py), its
time raw with the pass's mean speed factor. Checks run after the pass with
tracing off.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from kloosterman import cli, exactnum, sl4fine, sl5  # noqa: E402
from kloosterman.exactnum import PhaseSum  # noqa: E402
from kloosterman.sl4fine import FineCellLabel  # noqa: E402
from kloosterman.sl5 import SL5FineCellLabel  # noqa: E402

LIBRARY_WORKLOADS = ("sl4-scan", "character-sweep", "sl5-grid")


def corrupted(exact: PhaseSum) -> PhaseSum:
    """A copy with one extra term: what a wrong answer looks like to the checks."""
    return exact + PhaseSum({Fraction(1, 7): 1})


class Pass:
    """Runs one workload pass; ``outputs`` keeps what the checks need."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.inputs = {"sl4-scan": gen.sl4_scan, "character-sweep": gen.character_sweep,
                       "sl5-grid": gen.sl5_grid}[workload](seed)
        self.pins = gen.load(f"pins_{workload.replace('-', '_')}.json")
        self.latency_s: list[float] = []
        self.outputs: list = []
        self.counts: dict[str, int] = {}
        self.loop_samples: list[float] = []
        self.segments: list[tuple[float, int]] = []

    def run(self) -> float:
        """Run the pass and return its time, without the reference-loop samples
        (calib.py) taken between queries. ``segments`` gets the raw time of each
        stretch between two samples and the number of latencies up to its end."""
        clock = time.perf_counter
        lat = self.latency_s
        out = self.outputs
        loops, segments = self.loop_samples, self.segments
        loops.append(calib.loop_s())
        seg_start = clock()
        due = seg_start + calib.LOOP_EVERY_S

        def between():
            nonlocal seg_start, due
            now = clock()
            if now >= due:
                segments.append((now - seg_start, len(lat)))
                loops.append(calib.loop_s())
                seg_start = clock()
                due = seg_start + calib.LOOP_EVERY_S

        if self.workload == "sl4-scan":
            for cell_data, m, n in self.inputs:
                cell = FineCellLabel(*cell_data)
                t0 = clock()
                exact = sl4fine.fine_sum_oracle(cell, m, n, budget=None).exact
                lat.append(clock() - t0)
                between()
                t0 = clock()
                reps = list(sl4fine.fine_cell_representatives(cell, budget=None))
                lat.append(clock() - t0)
                out.append((cell_data, m, n, exact, reps))
                between()
        elif self.workload == "character-sweep":
            agreements = 0
            for index, cell_data, m, n in self.inputs:
                cell = FineCellLabel(*cell_data)
                t0 = clock()
                exact = sl4fine.fine_sum_oracle(cell, m, n, budget=None).exact
                closed = sl4fine.fine_sum_closed_form(cell, m, n).exact
                agreements += exactnum.phase_sums_close(exact, closed)
                lat.append(clock() - t0)
                out.append((index, exact))
                between()
            self.counts = {"sl4fine.closed_form.agreements": agreements,
                           "sl4fine.closed_form.rows": len(self.inputs)}
        else:
            for cell_data, m, n, strict in self.inputs:
                t0 = clock()
                exact = sl5.sl5_fine_sum_oracle(SL5FineCellLabel(*cell_data), m, n,
                                                None, strict).exact
                lat.append(clock() - t0)
                out.append((cell_data, m, n, strict, exact))
                between()
        segments.append((clock() - seg_start, len(lat)))
        loops.append(calib.loop_s())
        return sum(seconds for seconds, _ in segments)

    def calibrated(self) -> tuple[float, list[float]]:
        """Pass time and latencies, each stretch scaled by the speed factor of
        the loop samples at its two ends (calib.py)."""
        factors = calib.segment_factors(calib.REF_LOOP_S, self.loop_samples)
        pass_s, latency, first = 0.0, [], 0
        for (seconds, last), f in zip(self.segments, factors):
            pass_s += seconds * f
            latency += [v * f for v in self.latency_s[first:last]]
            first = last
        return pass_s, latency

    def corrupt(self, index: int) -> None:
        row = list(self.outputs[index])
        phase_at = 3 if self.workload == "sl4-scan" else len(row) - 1
        row[phase_at] = corrupted(row[phase_at])
        self.outputs[index] = tuple(row)

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, first failures). Every output is one query,
        except that an SL(4) scan cell is two: the sum and the representatives."""
        failures: list[str] = []
        attempted = 0
        pins = self.pins
        for row in self.outputs:
            if self.workload == "sl4-scan":
                cell_data, m, n, exact, reps = row
                attempted += 2
                if gen.digest(exact.serialize()) != pins[gen.key(cell_data, m, n)]:
                    failures.append(f"sum {cell_data} {m} {n}: digest differs from the pin")
                mass = sum(sl4fine.fine_cell_distribution(FineCellLabel(*cell_data),
                                                          budget=None).values())
                reps_digest = gen.digest([list(map(list, r)) for r in sorted(reps)])
                if reps_digest != pins[gen.key(cell_data, ["reps"])] or len(reps) != mass:
                    failures.append(f"representatives {cell_data}: {len(reps)} listed, "
                                    f"distribution mass {mass}")
            elif self.workload == "character-sweep":
                index, exact = row
                attempted += 1
                if gen.digest(exact.serialize()) != pins[index]:
                    failures.append(f"row {index}: digest differs from the pin")
            else:
                cell_data, m, n, strict, exact = row
                attempted += 1
                if gen.digest(exact.serialize()) != pins[gen.key(cell_data, m, n, [int(strict)])]:
                    failures.append(f"sl5 {cell_data} {m} {n} strict={strict}: digest differs")
        return attempted, len(failures), failures[:5]


def prefill(seed: int, workdir: str) -> dict:
    """Write the pass's matrix files and fill its cache through ``cli.main``."""
    plan = gen.cli_pass(seed)
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    for name, doc in plan["matrices"].items():
        with open(name, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    if os.path.exists("cache.jsonl"):
        os.remove("cache.jsonl")
    sink = io.StringIO()
    for argv in plan["prefill"]:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(list(argv) + ["--cache", "cache.jsonl"])
        sink.seek(0)
        sink.truncate()
    return {"records": len(plan["prefill"]), "bytes": os.path.getsize("cache.jsonl")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=LIBRARY_WORKLOADS + ("prefill",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced pass's spans here")
    parser.add_argument("--workdir", default=None, help="prefill: the CLI pass directory")
    parser.add_argument("--repeat", type=int, default=1,
                        help="passes in this one process; only the last is reported")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up: a set-up time sample for run.py")
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="self-test: corrupt the output with this index before checking")
    args = parser.parse_args()

    if args.workload == "prefill":
        print(json.dumps(prefill(args.seed, args.workdir)), flush=True)
        return 0

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = Pass(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    for i in range(args.repeat):
        if i:
            work = Pass(args.workload, args.seed)
        if tracer:
            tracer.reset()
            with tracer.root("bench.pass"):
                pass_s = work.run()
            tracer.enabled = False
        else:
            pass_s = work.run()
    if args.corrupt >= 0:
        work.corrupt(args.corrupt)
    attempted, failed, failures = work.check()
    calibrated_s, latency = work.calibrated()
    result = {
        "pass_s": pass_s,
        "speed": calibrated_s / pass_s,
        "latency_ms": [v * 1000.0 for v in latency],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "counts": work.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
