"""``python -m kloosterman`` with the span tracer installed, for traced CLI runs.

    python3 perfbench/tracedcli.py SPANS_FILE <cli arguments>

Runs ``kloosterman.cli.main`` on the arguments, then writes the call's span
summary as JSON to SPANS_FILE and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from kloosterman import cli  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.enabled = False
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
