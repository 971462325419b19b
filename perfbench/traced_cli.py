"""Run one chemofront CLI command with its layers traced.

    python3 perfbench/traced_cli.py SPANS.json -- <chemofront arguments>

Behaves like ``python -m chemofront.cli <arguments>`` and, on exit, writes
the spans and counters it recorded to SPANS.json.  A ``scan`` with more than
one worker loses its cells' spans, because they run in other processes.
"""

import sys

import chemofront.cli
import spans


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.dispatch", chemofront.cli.parse_and_dispatch, argv)
    finally:
        tracer.uninstall()
    tracer.counts["kernels.table_misses"] += spans.table_misses()
    spans.write(tracer.dump(), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
