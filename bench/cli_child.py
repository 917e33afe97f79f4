"""Run one `platevac` command in this fresh process with the layers traced.

Usage: python3 cli_child.py SPANS_JSON COMMAND [ARGS...]

Imports platevac.cli, wraps the layers, calls ``platevac.cli.main`` with
the remaining arguments, writes the spans and counters to SPANS_JSON and
exits with the command's exit code. The parent benchmark adopts the spans.
"""

import json
import sys

import platevac.cli
import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    with tr.installed():
        code = platevac.cli.main(argv)
    with open(spans_path, "w") as handle:
        json.dump({"spans": tr.spans, "counters": tr.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
