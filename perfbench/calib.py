"""Host-speed calibration of the benchmark's time figures.

On a shared host the same work runs 30-60% slower from one minute to the next,
and process CPU time slows down with wall time (the machine runs slower, it
does not steal time), so neither wall nor CPU time measures the program alone.
The host's speed changes over seconds more than from one millisecond to the
next, so each pass also times fixed reference work of the kind it measures,
between its queries, and each stretch of work between two reference samples is
multiplied by its *speed factor*: ``REF`` over the mean of those two samples.
A calibrated second is a second on a host that runs the reference work in its
reference time. The reference work uses only the standard library, never the
program, so a change to the program moves the calibrated figures in full and a
change of host speed mostly cancels. Raw wall times stay in the run record.

Two kinds of reference work:

- ``loop``: a fixed pure-Python loop (integer, dict and Fraction work, like the
  program's scans) in the measuring process, between queries once a quarter
  second has gone by since the last sample. It scales library passes.
- ``start``: a bare ``python -c pass`` from spawn to exit. It scales CLI passes,
  where process start and imports dominate, and every pass's set-up.

REF values are the medians measured on the 2-core x86_64 VM the benchmark was
defined on; they set the unit, not the stability.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_LOOP_S = 0.0125
REF_START_S = 0.065
LOOP_EVERY_S = 0.25  # a library pass takes a loop sample this often, between queries


def loop_s(n: int = 16000) -> float:
    """Seconds one run of the reference loop takes here and now."""
    start = time.perf_counter()
    seen: dict = {}
    acc = 0
    frac = Fraction(0)
    for a in range(1, n):
        x = (a * a * 7 + 3) % 1009
        k = (x, a & 7)
        seen[k] = seen.get(k, 0) + 1
        acc += pow(a, 5, 10007)
        if a % 64 == 0:
            frac += Fraction(a % 13, a % 97 + 1)
    return time.perf_counter() - start


def start_s(env: dict, cwd: str) -> float:
    """Seconds a bare interpreter takes from spawn to exit here and now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


def factor(ref: float, samples: list[float]) -> float:
    return ref / statistics.median(samples)


def segment_factors(ref: float, samples: list[float]) -> list[float]:
    """Speed factor of each stretch of work between two consecutive samples."""
    return [2.0 * ref / (a + b) for a, b in zip(samples, samples[1:])]
