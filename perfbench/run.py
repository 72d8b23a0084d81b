"""Benchmark of the kloosterman system: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 12 --trace 0

A run repeats whole passes of the workload until ``--seconds`` of measured
pass time have gone by; a ``cli-queries`` run also until at least 100 queries
have been answered, so that p90 has ten samples beyond it. Each pass starts
from a fresh set-up: a new worker process for the library workloads, a new
pre-filled cache for the CLI workload; ``setup_s`` is the median of at least
five set-ups, some made alone where a run has fewer passes. Every time figure
of a pass is scaled by speed factors taken from reference work interleaved
with it (calib.py), so that the figures stay put when the host's speed drifts.
Every output is checked against pins and invariants. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The lines before it print every metric
by name and unit, and a full record is written under ``.perfbench/results/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli-queries", "sl4-scan", "character-sweep", "sl5-grid")
MIN_CLI_SAMPLES = 100  # CLI latency samples per run: p90 then has ten beyond it
MIN_SETUPS = 5  # set-up samples per untraced run; set-up only, where passes give fewer
MIN_TRACED_PAIRS = 2  # a traced run alternates at least this many pairs of passes
WALL_LIMIT_S = 100.0  # stop starting passes here, whatever else asks for more
CLI_KINDS = ("classical", "decompose", "sl4-fine", "sl4-coarse", "sl5-fine", "groups-check",
             "verify")
VERIFY_SUITES = ("classical", "longword", "trivial", "weil", "partition", "bound",
                 "congruences", "crossval")


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KLOOSTERMAN_CACHE", None)  # queries without --cache must bypass the cache
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_child(proc: subprocess.Popen) -> float:
    """Reap the child; return its peak resident memory in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


# ---------------------------------------------------------- library passes

def start_worker(workload: str, seed: int, args: list[str]):
    """Run a worker; return its set-up time (spawn to ``ready``), its stdout
    after ``ready`` and its peak resident memory in MB."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed)] + args
    err_path = os.path.join(STATE, "work", f"{workload}-worker.err")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            body = proc.stdout.read()
        finally:
            proc.stdout.close()
            rss = wait_child(proc)
    if ready.strip() != b"ready" or proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            raise RuntimeError(f"{workload} worker failed (exit {proc.returncode}): "
                               f"{handle.read()[-2000:]}")
    return setup_s, body, rss


def library_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    args = ["--trace", str(int(traced))]
    if traced:
        spans_path = os.path.join(STATE, "spans", f"{workload}-seed{seed}-pass{index}.tsv.gz")
        args += ["--spans", spans_path]
    starts = [calib.start_s(child_env(), ROOT) for _ in range(3)]
    setup_s, body, rss = start_worker(workload, seed, args)
    result = json.loads(body.decode().strip().splitlines()[-1])
    result.update(setup_s=setup_s, peak_rss_mb=rss, refused=0)
    return calibrated(result, calib.factor(calib.REF_START_S, starts))


# -------------------------------------------------------------- CLI passes

def cli_setup(seed: int, workdir: str) -> tuple[dict, float]:
    """Pass set-up: inputs, matrix files and a pre-filled cache, in a fresh process."""
    start = time.perf_counter()
    plan = gen.cli_pass(seed)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "prefill",
         "--seed", str(seed), "--workdir", workdir],
        capture_output=True, env=child_env(), cwd=ROOT, check=False)
    setup_s = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"cache pre-fill failed: {out.stderr.decode()[-2000:]}")
    return plan, setup_s


def setup_only(workload: str, seed: int) -> float:
    """One more calibrated set-up sample, without the pass that would follow."""
    starts = [calib.start_s(child_env(), ROOT) for _ in range(3)]
    if workload == "cli-queries":
        workdir = os.path.join(STATE, "work", "cli-setup")
        shutil.rmtree(workdir, ignore_errors=True)
        setup_s = cli_setup(seed, workdir)[1]
    else:
        setup_s = start_worker(workload, seed, ["--setup-only"])[0]
    return setup_s * calib.factor(calib.REF_START_S, starts)


def expected_hits(plan: dict) -> list[bool | None]:
    """Whether each query should hit the cache, by replaying the pass's keys."""
    present = {" ".join(a for a in argv if a != "--check-bound") for argv in plan["prefill"]}
    out = []
    for q in plan["queries"]:
        cache_key = gen.cli_cache_key(q)
        if cache_key is None:
            out.append(None)
        elif not q["cache"]:
            out.append(False)
        else:
            out.append(cache_key in present)
            if not q.get("refusable"):
                present.add(cache_key)
    return out


def cli_pass(seed: int, traced: bool, index: int) -> dict:
    workdir = os.path.join(STATE, "work", "cli")
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()
    # Bare interpreter starts (calib.py): two before set-up, one before each
    # query and one after the last.
    starts = [calib.start_s(env, ROOT) for _ in range(2)]
    plan, setup_s = cli_setup(seed, workdir)
    records = []
    paused = 0.0
    start = time.perf_counter()
    for i, q in enumerate(plan["queries"]):
        starts.append(calib.start_s(env, workdir))
        paused += starts[-1]
        args = list(q["argv"]) + (["--cache", "cache.jsonl"] if q["cache"] else [])
        span_path = os.path.join(workdir, f"q{i}.spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracedcli.py"), span_path] + args
        else:
            cmd = [sys.executable, "-m", "kloosterman"] + args
        out_path = os.path.join(workdir, f"q{i}.out")
        err_path = os.path.join(workdir, f"q{i}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)
            rss = wait_child(proc)
            wall = time.perf_counter() - t0
        records.append((q, proc.returncode, wall, rss, out_path, err_path, span_path))
    pass_s = time.perf_counter() - start - paused
    starts.append(calib.start_s(env, workdir))
    cache_bytes = os.path.getsize(os.path.join(workdir, "cache.jsonl"))
    result = judge_cli_pass(plan, records, pass_s, setup_s, cache_bytes, traced)
    # Each query is scaled by the bare starts on either side of it.
    factors = calib.segment_factors(calib.REF_START_S, starts[2:])
    walls = [r[2] for r in records]
    result["latency_ms"] = [v * f for v, f in zip(result["latency_ms"], factors)]
    result["speed"] = sum(w * f for w, f in zip(walls, factors)) / sum(walls)
    return calibrated(result, calib.factor(calib.REF_START_S, starts[:3]))


def calibrated(result: dict, setup_speed: float) -> dict:
    """Check a traced pass's self times against its wall time, then scale the
    pass's time figures by its mean speed factor and its set-up by
    ``setup_speed`` (calib.py). Latencies come calibrated query by query. Raw
    pass and set-up times stay in ``pass_wall_s`` and ``setup_wall_s``."""
    speed = result["speed"]
    trace = result.get("trace")
    if trace:
        self_sum = sum(v for k, v in trace["self_s"].items() if k.split(".")[0] in spans.LAYERS)
        if self_sum > result["pass_s"]:
            result["failed"] += 1
            result["failures"].append(f"layer self times add up to {self_sum:.4f} s, more than "
                                      f"the pass's {result['pass_s']:.4f} s")
        for part in ("busy_s", "self_s"):
            trace[part] = {k: v * speed for k, v in trace[part].items()}
    result.update(pass_wall_s=result["pass_s"], setup_wall_s=result["setup_s"],
                  setup_speed=setup_speed)
    result["pass_s"] *= speed
    result["setup_s"] *= setup_speed
    for key in ("startup_ms", "hit_ms"):
        result[key] = [v * speed for v in result.get(key, [])]
    result["compute_ms"] = {k: v * speed for k, v in result.get("compute_ms", {}).items()}
    result["verify_ms"] = {k: [v * speed for v in vs]
                           for k, vs in result.get("verify_ms", {}).items()}
    return result


@functools.lru_cache(maxsize=None)
def fine_sums_total(c: tuple, m: tuple, n: tuple) -> list:
    """The sum of the fine oracle sums over cells_for_moduli(c), serialized:
    what a coarse oracle sum must equal."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from kloosterman.exactnum import PhaseSum
    from kloosterman.sl4fine import cells_for_moduli, fine_sum_oracle
    total = PhaseSum()
    for cell in cells_for_moduli(c):
        total = total + fine_sum_oracle(cell, m, n, budget=None).exact
    return total.serialize()


def judge_cli_pass(plan, records, pass_s, setup_s, cache_bytes, traced) -> dict:
    pins = gen.load("pins_cli_queries.json")
    hits_expected = expected_hits(plan)
    failures, latency, startup, hit_ms = [], [], [], []
    compute = {k: 0.0 for k in CLI_KINDS}
    verify_ms: dict[str, list[float]] = {}
    refused = hits = misses = 0
    summaries = []
    for (q, code, wall, rss, out_path, err_path, span_path), want_hit in zip(records, hits_expected):
        latency.append(wall * 1000.0)
        label = " ".join(q["argv"])
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8") as handle:
            stderr = handle.read()
        if traced and os.path.exists(span_path):
            with open(span_path, encoding="utf-8") as handle:
                summaries.append(json.load(handle))
        if code != 0:
            try:
                error = json.loads(stderr.strip().splitlines()[-1]).get("error")
            except (ValueError, IndexError, AttributeError):
                error = None
            if code == 1 and error == "budget-exceeded":
                refused += 1
            else:
                failures.append(f"{label}: exit {code} {stderr.strip()[-200:]}")
            continue
        try:
            doc = json.loads(stdout)
        except ValueError:
            failures.append(f"{label}: stdout is not JSON")
            continue
        elapsed = doc.pop("elapsed_ms")
        hit = doc.pop("cache_hit", None)
        startup.append(wall * 1000.0 - elapsed)
        compute[q["shape"]] += elapsed
        if q["shape"] == "verify":
            verify_ms.setdefault(doc["query"]["suite"], []).append(elapsed)
        if hit:
            hits += 1
            hit_ms.append(elapsed)
        elif want_hit is not None and q["cache"]:
            misses += 1
        problem = None
        if gen.digest(doc) != pins[label]:
            problem = "output differs from the pin"
        elif want_hit is not None and bool(hit) != want_hit:
            problem = f"cache_hit is {hit}, expected {want_hit}"
        elif q["shape"] == "classical" and q["m"] == 0 and q["n"] == 0 \
                and doc["exact_phases"] != [[0, 1, gen.euler_phi(q["c"])]]:
            problem = "S(0,0;c) is not phi(c)"
        elif q["shape"] == "sl4-coarse" and "--method" in q["argv"] \
                and q["argv"][q["argv"].index("--method") + 1] != "closed":
            c, m, n = (tuple(doc["query"][k]) for k in ("c", "m", "n"))
            if fine_sums_total(c, m, n) != doc["exact_phases"]:
                problem = "coarse sum differs from the sum of its fine sums"
        if problem:
            failures.append(f"{label}: {problem}")
    return {
        "pass_s": pass_s, "setup_s": setup_s, "latency_ms": latency,
        "peak_rss_mb": max(r[3] for r in records),
        "attempted": len(records), "failed": len(failures), "failures": failures[:5],
        "refused": refused, "startup_ms": startup, "hit_ms": hit_ms,
        "counts": {"cache.hits": hits, "cache.misses": misses, "cache.file_bytes": cache_bytes},
        "compute_ms": compute, "verify_ms": verify_ms,
        "trace": merge_summaries(summaries) if traced else None,
    }


def merge_summaries(summaries: list[dict]) -> dict:
    out = {"calls": {}, "busy_s": {}, "self_s": {}, "counts": {}}
    for s in summaries:
        for part in out:
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
    return out


# ------------------------------------------------------------------ metrics

def import_ms(samples: int = 5) -> float:
    """A fresh interpreter's ``import kloosterman.cli`` minus a bare start,
    scaled by the speed factor of the bare starts (calib.py)."""
    env = child_env()
    imports, bare = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kloosterman.cli"], env=env, cwd=ROOT,
                       check=True)
        imports.append(time.perf_counter() - t0)
        bare.append(calib.start_s(env, ROOT))
    return (median(imports) - median(bare)) * 1000.0 * calib.factor(calib.REF_START_S, bare)


def layer_metrics(traced: list[dict], untraced: list[dict], cli_import_ms: float) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    def med(f):
        return median([f(p) for p in traced])

    def tr(part, name):
        return med(lambda p: p["trace"][part].get(name, 0 if part == "calls" else 0.0))

    def cnt(name):
        return med(lambda p: p["trace"]["counts"].get(name, 0))

    m = {}
    m["cli.startup_ms_p50"] = median([v for p in untraced for v in p.get("startup_ms", [])])
    m["cli.import_ms"] = cli_import_ms
    for kind in CLI_KINDS:
        m[f"cli.compute_ms.{kind}"] = median([p.get("compute_ms", {}).get(kind, 0.0)
                                             for p in untraced])
    for name in ("cache.hits", "cache.misses", "cache.file_bytes"):
        m[name] = median([p["counts"].get(name, 0) for p in untraced])
    m["cache.hit_ms_p50"] = median([v for p in untraced for v in p.get("hit_ms", [])])
    m["sl4fine.distribution.calls"] = tr("calls", "sl4fine.distribution")
    m["sl4fine.distribution.scans"] = cnt("sl4fine.distribution.scans")
    m["sl4fine.distribution.busy_s"] = tr("busy_s", "sl4fine.distribution")
    m["sl4fine.representatives.busy_s"] = tr("busy_s", "sl4fine.representatives")
    m["sl4fine.representatives.count"] = cnt("sl4fine.representatives.count")
    m["sl4fine.members"] = cnt("sl4fine.members")
    m["sl4fine.budget_proxy"] = cnt("sl4fine.budget_proxy")
    m["sl4fine.members_per_proxy"] = (m["sl4fine.members"] / m["sl4fine.budget_proxy"]
                                      if m["sl4fine.budget_proxy"] else 0.0)
    m["sl4fine.oracle.self_s"] = tr("self_s", "sl4fine.oracle")
    m["sl4fine.closed_form.self_s"] = tr("self_s", "sl4fine.closed_form")
    m["sl4fine.closed_form.agreements"] = med(
        lambda p: p["counts"].get("sl4fine.closed_form.agreements", 0))
    m["sl4fine.closed_form.rows"] = med(lambda p: p["counts"].get("sl4fine.closed_form.rows", 0))
    m["classical.kloosterman.calls"] = tr("calls", "classical.kloosterman")
    m["classical.kloosterman.busy_s"] = tr("busy_s", "classical.kloosterman")
    m["exactnum.phase_sum_eval.calls"] = tr("calls", "exactnum.phase_sum_eval")
    m["exactnum.phase_sum_eval.busy_s"] = tr("busy_s", "exactnum.phase_sum_eval")
    m["exactnum.distinct_phases"] = cnt("exactnum.distinct_phases")
    m["sl5.oracle.busy_s"] = tr("busy_s", "sl5.oracle")
    m["sl5.grid_points"] = cnt("sl5.grid_points")
    m["sl5.members"] = cnt("sl5.members")
    m["sl5.members_per_grid_point"] = (m["sl5.members"] / m["sl5.grid_points"]
                                       if m["sl5.grid_points"] else 0.0)
    for name in ("mat_prod", "minor"):
        m[f"matrixcore.{name}.calls"] = tr("calls", f"matrixcore.{name}")
        m[f"matrixcore.{name}.busy_s"] = tr("busy_s", f"matrixcore.{name}")
    m["bruhat.psi.busy_s"] = tr("busy_s", "bruhat.psi")
    m["bruhat.decompose.busy_s"] = tr("busy_s", "bruhat.decompose")
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.ms"] = median([v for p in untraced
                                          for v in p.get("verify_ms", {}).get(suite, [])])
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = med(lambda p: sum(
            (v for k, v in p["trace"]["self_s"].items() if k.startswith(layer + ".")), 0.0))
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    m["trace.run_s"] = med(lambda p: p["pass_s"])
    m["trace.untraced_run_s"] = median([p["pass_s"] for p in untraced])
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    m["trace.overhead_share"] = m["trace.overhead_s"] / m["trace.untraced_run_s"]
    # Pass-to-pass noise: an overhead smaller than this is not resolved.
    m["trace.pass_range_s"] = max(max(v) - min(v) for v in
                                  ([p["pass_s"] for p in untraced], [p["pass_s"] for p in traced]))
    return m


def sample_counts(passes: list[dict], setups: list[float]) -> dict:
    latencies = sum(len(p["latency_ms"]) for p in passes)
    return {"run_s": len(passes), "setup_s": len(setups), "peak_rss_mb": len(passes),
            "latency_p50_ms": latencies, "latency_p90_ms": latencies}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    latency = [v for p in passes for v in p["latency_ms"]]
    return {
        "run_s": median([p["pass_s"] for p in passes]),
        "latency_p50_ms": median(latency),
        "latency_p90_ms": p90(latency),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


# ------------------------------------------------------------------- record

def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "kloosterman"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(), check=False).stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit(), "source_digest": source_digest(), "seed": seed,
            "machine": platform.machine()}


# --------------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    passes: list[dict] = []  # untraced
    traced: list[dict] = []
    index = 0

    def one(traced_pass: bool) -> dict:
        nonlocal index
        index += 1
        if workload == "cli-queries":
            return cli_pass(seed, traced_pass, index)
        return library_pass(workload, seed, traced_pass, index)

    while True:
        if trace:
            # Alternate which side goes first (ABBA), so drift hits both alike.
            for traced_pass in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                (traced if traced_pass else passes).append(one(traced_pass))
        else:
            passes.append(one(False))
        walls = [p["pass_wall_s"] for p in passes + traced]
        samples = sum(len(p["latency_ms"]) for p in passes)
        more = (sum(walls) + median(walls) / 2 < seconds
                or (trace and len(traced) < MIN_TRACED_PAIRS)
                or (not trace and workload == "cli-queries" and samples < MIN_CLI_SAMPLES))
        if not more or time.perf_counter() - started > WALL_LIMIT_S:
            break

    done = passes + traced
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    refused = sum(p["refused"] for p in done)
    record = {"workload": workload, "trace": int(trace), "seconds": seconds,
              **environment(seed), "passes": len(passes), "traced_passes": len(traced),
              "attempted": attempted, "failed": failed, "refused": refused,
              "failed_share": failed / attempted, "refused_share": refused / attempted,
              "failures": [f for p in done for f in p["failures"]][:10],
              "pass_s": [p["pass_s"] for p in passes], "traced_pass_s": [p["pass_s"] for p in traced],
              "setup_s": [p["setup_s"] for p in done],
              "pass_wall_s": [p["pass_wall_s"] for p in passes],
              "traced_pass_wall_s": [p["pass_wall_s"] for p in traced],
              "setup_wall_s": [p["setup_wall_s"] for p in done],
              "speed": [p["speed"] for p in done], "setup_speed": [p["setup_speed"] for p in done]}
    if trace:
        values = layer_metrics(traced, passes, import_ms())
        record["per_layer"] = values
        # Tracing cannot speed a pass up, so a negative overhead is noise too.
        record["trace_overhead_resolved"] = (values["trace.overhead_s"]
                                             > values["trace.pass_range_s"])
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(setup_only(workload, seed))
        record["setup_s"] = setups
        values = end_to_end(passes, setups)
        record["end_to_end"] = values
        record["samples"] = sample_counts(passes, setups)
    record["wall_s"] = time.perf_counter() - started
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "kloosterman", "cli.py")):
        print(f"error: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for sub in ("results", "work", "spans"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    samples = record.get("samples", {})
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:36s} {values[name]:>16.7g} {entry['unit']}{n}")
    for name in ("failed_share", "refused_share"):
        print(f"{name:36s} {record[name]:>16.7g} share  (n={record['attempted']})")
    if args.trace and not record["trace_overhead_resolved"]:
        print("trace.overhead_s is unresolved: not above trace.pass_range_s")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    out_path = os.path.join(STATE, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
