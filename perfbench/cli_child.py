"""Traced stand-in for ``python -m helispin.cli``, one cold process per op.

Usage: cli_child.py <spans-out> <helispin cli arguments...>

Times ``import helispin.cli``, installs the span wrappers, runs the CLI's
``main`` and writes the spans to <spans-out>. Exits with the CLI's code.
"""
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    start = time.perf_counter()
    import helispin.cli
    tracer.add_span("import.helispin_cli", start, time.perf_counter())
    tracer.install()
    try:
        return helispin.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
