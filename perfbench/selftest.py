"""Self-test of the benchmark's own accounting.

    python3 perfbench/selftest.py

Checks that (1) a corrupted PhaseSum is counted as a failure, in a library
pass and in a CLI pass; (2) a ``budget-exceeded`` exit is counted as a refusal
and not as a failure, while any other error is a failure; (3) a library
workload run twice in fresh processes reports the same counts, and a second
pass inside one process does not (its distribution cache is warm), so the
counts do show that every pass starts cold. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

COUNTS = ("sl4fine.distribution.scans", "sl4fine.members", "sl4fine.budget_proxy",
          "sl4fine.representatives.count", "exactnum.distinct_phases")


def worker(*args: str) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                         capture_output=True, text=True, env=run.child_env(), cwd=run.ROOT,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli_record(workdir: str, name: str, query: dict, code: int, stdout: str, stderr: str):
    out_path = os.path.join(workdir, f"{name}.out")
    err_path = os.path.join(workdir, f"{name}.err")
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(stdout)
    with open(err_path, "w", encoding="utf-8") as handle:
        handle.write(stderr)
    return (query, code, 0.2, 30.0, out_path, err_path, os.path.join(workdir, "none"))


def judge(query: dict, code: int, stdout: str, stderr: str, workdir: str) -> dict:
    plan = {"queries": [query], "prefill": []}
    record = cli_record(workdir, "q", query, code, stdout, stderr)
    return run.judge_cli_pass(plan, [record], 0.2, 0.1, 0, traced=False)


def run_cli(argv: list[str], workdir: str) -> tuple[int, str, str]:
    out = subprocess.run([sys.executable, "-m", "kloosterman", *argv], capture_output=True,
                         text=True, env=run.child_env(), cwd=workdir, check=False)
    return out.returncode, out.stdout, out.stderr


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    # (1) a corrupted PhaseSum is a failure
    clean = worker("--workload", "sl4-scan", "--seed", "1")
    bad = worker("--workload", "sl4-scan", "--seed", "1", "--corrupt", "0")
    expect(clean["failed"] == 0, "sl4-scan pass is clean")
    expect(bad["failed"] == 1 and bad["attempted"] == clean["attempted"],
           f"one corrupted sum counts once in failed ({bad['failed']} of {bad['attempted']})")

    workdir = os.path.join(run.STATE, "work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    pool = gen.load("pools.json")["cli"]
    classical = dict(pool["prefill"][3], cache=False)
    code, stdout, stderr = run_cli(classical["argv"], workdir)
    result = judge(classical, code, stdout, stderr, workdir)
    expect(result["failed"] == 0 and result["refused"] == 0, "a real classical query passes")
    doc = json.loads(stdout)
    doc["exact_phases"][0][2] += 1
    result = judge(classical, code, json.dumps(doc), stderr, workdir)
    expect(result["failed"] == 1, "a CLI output with one multiplicity changed is a failure")

    # (2) budget-exceeded is a refusal, any other error a failure
    refused = dict(pool["sl4_fine_refused"][0], cache=False)
    code, stdout, stderr = run_cli(refused["argv"], workdir)
    result = judge(refused, code, stdout, stderr, workdir)
    expect(code == 1 and result["refused"] == 1 and result["failed"] == 0,
           "a budget-exceeded exit is refused, not failed")
    other = '{"error": "not-in-big-cell", "message": "x"}\n'
    result = judge(refused, 1, "", other, workdir)
    expect(result["refused"] == 0 and result["failed"] == 1, "another error code is a failure")

    # (3) fresh processes start cold: same counts twice; a warm second pass differs
    first = worker("--workload", "sl4-scan", "--seed", "1", "--trace", "1")["trace"]["counts"]
    second = worker("--workload", "sl4-scan", "--seed", "1", "--trace", "1")["trace"]["counts"]
    warm = worker("--workload", "sl4-scan", "--seed", "1", "--trace", "1",
                  "--repeat", "2")["trace"]["counts"]
    expect(all(first[k] == second[k] for k in COUNTS) and first["sl4fine.distribution.scans"] > 0,
           f"two fresh runs report the same counts ({first['sl4fine.distribution.scans']} scans)")
    expect(warm["sl4fine.distribution.scans"] == 0,
           "a second pass in the same process scans nothing, so the counts would show a warm cache")

    print("selftest: " + ("passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
