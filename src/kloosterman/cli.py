"""Command-line front end with JSON/CSV/text output and a JSON-lines cache.

Exit codes: 0 success, 1 domain error (stable machine-readable code on
stderr), 2 usage error. Output is deterministic for fixed arguments and
seed except for the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time

from . import __version__
from .bruhat import decompose
from .classical import ClassicalQuery, kloosterman, weil_bound_holds
from .classicalgroups import is_special_orthogonal, is_symplectic, so4_relations, sp4_minor_relations
from .errors import KloostermanError, SeedRequired
from .exactnum import PhaseSum, phase_sum_eval, phase_sums_close
from .matrixcore import matrix_from_file
from .sl4fine import (
    DEFAULT_BUDGET,
    FineCellLabel,
    coarse_sum,
    fine_sum_closed_form,
    fine_sum_oracle,
)
from .sl5 import DEFAULT_BUDGET as SL5_DEFAULT_BUDGET, SL5FineCellLabel, sl5_fine_sum_oracle
from .verify import SUITES, run_suite

CACHE_ENV = "KLOOSTERMAN_CACHE"
SEEDED_SUITES = ("bruhat", "builds", "trivial", "partition", "bound", "groups")


def _int_list(text: str, want: int, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{label} must be comma-separated integers")
    if len(values) != want:
        raise argparse.ArgumentTypeError(f"{label} needs exactly {want} entries, got {len(values)}")
    return values


def _budget(text: str):
    if text.lower() == "none":
        return None
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("budget must be an integer or 'none'")
    if budget < 0:
        raise argparse.ArgumentTypeError("budget must not be negative")
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kloosterman")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--cache", default=None,
                       help=f"JSON-lines cache file; default from ${CACHE_ENV}")

    p_classical = sub.add_parser("classical", help="classical sum S(m, n; c)")
    p_classical.add_argument("-m", type=int, required=True)
    p_classical.add_argument("-n", type=int, required=True)
    p_classical.add_argument("-c", type=int, required=True)
    p_classical.add_argument("--check-bound", action="store_true")
    add_common(p_classical)

    p_dec = sub.add_parser("decompose", help="factor a big-cell integral matrix")
    p_dec.add_argument("--matrix", required=True, help="JSON file with a row-list matrix")
    add_common(p_dec)

    p_sl4 = sub.add_parser("sl4", help="rank-4 fine and coarse sums")
    sub4 = p_sl4.add_subparsers(dest="sl4_command", required=True)
    p_fine = sub4.add_parser("fine", help="one cell")
    p_fine.add_argument("--cell", type=lambda s: _int_list(s, 6, "--cell"), required=True)
    p_fine.add_argument("-m", type=lambda s: _int_list(s, 3, "-m"), required=True)
    p_fine.add_argument("-n", type=lambda s: _int_list(s, 3, "-n"), required=True)
    p_fine.add_argument("--method", choices=("oracle", "closed", "both"), default="oracle")
    p_fine.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    add_common(p_fine)
    p_coarse = sub4.add_parser("coarse", help="aggregate over all cells at given moduli")
    p_coarse.add_argument("--c", dest="moduli", type=lambda s: _int_list(s, 3, "--c"),
                          required=True)
    p_coarse.add_argument("-m", type=lambda s: _int_list(s, 3, "-m"), required=True)
    p_coarse.add_argument("-n", type=lambda s: _int_list(s, 3, "-n"), required=True)
    p_coarse.add_argument("--method", choices=("oracle", "closed", "both"), default="oracle")
    p_coarse.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    add_common(p_coarse)

    p_sl5 = sub.add_parser("sl5", help="rank-5 fine sums")
    sub5 = p_sl5.add_subparsers(dest="sl5_command", required=True)
    p_fine5 = sub5.add_parser("fine", help="one cell, oracle only")
    p_fine5.add_argument("--cell", type=lambda s: _int_list(s, 10, "--cell"), required=True)
    p_fine5.add_argument("-m", type=lambda s: _int_list(s, 4, "-m"), required=True)
    p_fine5.add_argument("-n", type=lambda s: _int_list(s, 4, "-n"), required=True)
    p_fine5.add_argument("--strict-paper-psi", action="store_true",
                         help="apply the third character component to both of the last"
                              " two superdiagonal entries")
    p_fine5.add_argument("--budget", type=_budget, default=SL5_DEFAULT_BUDGET)
    add_common(p_fine5)

    p_groups = sub.add_parser("groups", help="classical-group membership reports")
    subg = p_groups.add_subparsers(dest="groups_command", required=True)
    p_check = subg.add_parser("check")
    p_check.add_argument("--kind", choices=("sp4", "so4"), required=True)
    p_check.add_argument("--matrix", required=True)
    add_common(p_check)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"required for the seeded suites: {', '.join(SEEDED_SUITES)}")
    p_verify.add_argument("--max-c", type=int, default=None,
                          help="grid size: c_max for weil, c_bound for partition/bound")
    p_verify.add_argument("--d-bound", type=int, default=None,
                          help="cell-parameter bound for congruences/crossval")
    add_common(p_verify)
    return parser


def _serialize_result(kind: str, params: dict, exact: PhaseSum, method: str,
                      extra: dict | None = None) -> dict:
    value = phase_sum_eval(exact)
    doc = {
        "query": {"kind": kind, **params},
        "method": method,
        "exact_phases": exact.serialize(),
        "value_re": value.real,
        "value_im": value.imag,
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    return doc


def _cache_key(kind: str, params: dict) -> str:
    return json.dumps({"kind": kind, "params": params}, sort_keys=True, separators=(",", ":"))


def _cache_read(path: str, key: str, decode):
    """decode(payload) of the first usable record for key, or None.

    Lines that are not JSON objects, and matching records whose payload
    decode rejects, are skipped with a warning; other versions silently.
    """
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("key") == key and record.get("version") == __version__:
                        return decode(record["payload"])
                except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
                    print("warning: skipping corrupt cache line", file=sys.stderr)
    except OSError:
        return None
    return None


def _cache_append(path: str, record: dict) -> None:
    try:
        with open(path, "a", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    except OSError as exc:
        print(f"warning: cache write failed: {exc}", file=sys.stderr)


def cache_lookup_or_compute(cache_path: str | None, kind: str, params: dict, compute, decode):
    """Returns (decode(payload), cache_hit). compute() gives the payload dict
    of serialized phase data that the cache stores."""
    key = _cache_key(kind, params)
    if cache_path:
        value = _cache_read(cache_path, key, decode)
        if value is not None:
            return value, True
    payload = compute()
    if cache_path:
        _cache_append(cache_path, {"key": key, "version": __version__, "payload": payload})
    return decode(payload), False


def _decode_phases(payload: dict) -> tuple[PhaseSum, str]:
    return PhaseSum.deserialize(payload["exact_phases"]), payload["method"]


def _fraction_cell(value) -> list | int:
    from fractions import Fraction
    if isinstance(value, Fraction) and value.denominator != 1:
        return [value.numerator, value.denominator]
    return int(value)


def _matrix_json(m) -> list:
    return [[_fraction_cell(v) for v in row] for row in m.rows]


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        flat = _flatten(doc)
        keys = sorted(flat)
        print(",".join(keys))
        print(",".join(_csv_cell(flat[k]) for k in keys))
    else:
        flat = _flatten(doc)
        width = max(len(k) for k in flat)
        for k in sorted(flat):
            print(f"{k.ljust(width)}  {flat[k]}")


def _csv_cell(value) -> str:
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for k in sorted(doc):
            out.update(_flatten(doc[k], f"{prefix}{k}."))
    elif isinstance(doc, list):
        out[prefix.rstrip(".")] = json.dumps(doc, sort_keys=True)
    else:
        out[prefix.rstrip(".")] = doc
    return out


def _run_classical(args) -> dict:
    query = ClassicalQuery(args.m, args.n, args.c)
    params = {"m": args.m, "n": args.n, "c": args.c}

    def compute():
        exact = kloosterman(query.m, query.n, query.c)
        return {"exact_phases": exact.serialize(), "method": "oracle"}

    (exact, method), hit = cache_lookup_or_compute(args.cache, "classical", params, compute,
                                                   _decode_phases)
    doc = _serialize_result("classical", params, exact, method, {"cache_hit": hit})
    if args.check_bound:
        report = weil_bound_holds(args.m, args.n, args.c)
        doc["bound"] = {"holds": report.holds, "lhs": report.lhs, "rhs": report.rhs}
    return doc


def _run_decompose(args) -> dict:
    a = matrix_from_file(args.matrix)
    dec = decompose(a)
    return {
        "query": {"kind": "decompose", "matrix": args.matrix},
        "u_L": _matrix_json(dec.u_L),
        "t": [_fraction_cell(v) for v in dec.t_values],
        "u_R": _matrix_json(dec.u_R),
        "weyl": "long-word",
        "version": __version__,
    }


def _sl4_values(args, kind: str, params: dict, oracle_fn, closed_fn) -> dict:
    parts = {"oracle": ("oracle",), "closed": ("closed",),
             "both": ("oracle", "closed")}[args.method]

    def compute():
        fns = {"oracle": oracle_fn, "closed": closed_fn}
        return {part: fns[part]().exact.serialize() for part in parts}

    def decode(payload):
        return {part: PhaseSum.deserialize(payload[part]) for part in parts}

    sums, hit = cache_lookup_or_compute(
        args.cache, kind, {**params, "method": args.method}, compute, decode)
    extra: dict = {"cache_hit": hit}
    if args.method == "oracle":
        exact = sums["oracle"]
        method = "oracle"
    elif args.method == "closed":
        exact = sums["closed"]
        method = "closed_form"
    else:
        exact = sums["oracle"]
        closed = sums["closed"]
        method = "both"
        closed_value = phase_sum_eval(closed)
        extra["closed_value_re"] = closed_value.real
        extra["closed_value_im"] = closed_value.imag
        if phase_sums_close(exact, closed):
            extra["discrepancy"] = None
        else:
            oracle_value = phase_sum_eval(exact)
            extra["discrepancy"] = {
                "oracle_re": oracle_value.real, "oracle_im": oracle_value.imag,
                "closed_re": closed_value.real, "closed_im": closed_value.imag,
                "abs_diff": abs(oracle_value - closed_value),
                "authoritative": "oracle",
            }
    return _serialize_result(kind, params, exact, method, extra)


def _run_sl4_fine(args) -> dict:
    cell = FineCellLabel(*args.cell)
    params = {"cell": list(args.cell), "m": list(args.m), "n": list(args.n)}
    return _sl4_values(
        args, "sl4-fine", params,
        lambda: fine_sum_oracle(cell, args.m, args.n, args.budget),
        lambda: fine_sum_closed_form(cell, args.m, args.n))


def _run_sl4_coarse(args) -> dict:
    params = {"c": list(args.moduli), "m": list(args.m), "n": list(args.n)}
    return _sl4_values(
        args, "sl4-coarse", params,
        lambda: coarse_sum(args.moduli, args.m, args.n, "oracle", args.budget),
        lambda: coarse_sum(args.moduli, args.m, args.n, "closed_form", args.budget))


def _run_sl5_fine(args) -> dict:
    cell = SL5FineCellLabel(*args.cell)
    params = {"cell": list(args.cell), "m": list(args.m), "n": list(args.n),
              "strict_paper_psi": args.strict_paper_psi}

    def compute():
        result = sl5_fine_sum_oracle(cell, args.m, args.n, args.budget,
                                     args.strict_paper_psi)
        return {"exact_phases": result.exact.serialize(), "method": result.method}

    (exact, method), hit = cache_lookup_or_compute(args.cache, "sl5-fine", params, compute,
                                                   _decode_phases)
    return _serialize_result("sl5-fine", params, exact, method, {"cache_hit": hit})


def _run_groups(args) -> dict:
    a = matrix_from_file(args.matrix)
    if args.kind == "sp4":
        residuals = sp4_minor_relations(a)
        member = is_symplectic(a)
    else:
        residuals = so4_relations(a)
        member = is_special_orthogonal(a)
    return {
        "query": {"kind": "groups-check", "group": args.kind, "matrix": args.matrix},
        "member": member,
        "residuals": {k: _fraction_cell(v) for k, v in residuals.items()},
        "version": __version__,
    }


def _run_verify(args) -> tuple[dict, bool]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name in SEEDED_SUITES and args.seed is None:
            raise SeedRequired(f"suite {name} requires --seed")
    reports = []
    for name in names:
        kwargs = {}
        if args.max_c is not None:
            if name == "weil":
                kwargs["c_max"] = args.max_c
            elif name in ("partition", "bound"):
                kwargs["c_bound"] = args.max_c
        if args.d_bound is not None and name in ("congruences", "crossval"):
            kwargs["d_bound"] = args.d_bound
        reports.append(run_suite(name, args.seed, **kwargs))
    doc = {
        "query": {"kind": "verify", "suite": args.suite, "seed": args.seed},
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
        "version": __version__,
    }
    return doc, doc["passed"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache", None) is None and hasattr(args, "cache"):
        args.cache = os.environ.get(CACHE_ENV) or None
    started = time.perf_counter()
    try:
        ok = True
        if args.command == "classical":
            doc = _run_classical(args)
        elif args.command == "decompose":
            doc = _run_decompose(args)
        elif args.command == "sl4" and args.sl4_command == "fine":
            doc = _run_sl4_fine(args)
        elif args.command == "sl4" and args.sl4_command == "coarse":
            doc = _run_sl4_coarse(args)
        elif args.command == "sl5" and args.sl5_command == "fine":
            doc = _run_sl5_fine(args)
        elif args.command == "groups":
            doc = _run_groups(args)
        else:
            doc, ok = _run_verify(args)
    except KloostermanError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 1
    doc["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(doc, args.format)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
