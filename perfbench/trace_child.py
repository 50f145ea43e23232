"""Run one ``omband`` CLI invocation in this process, under the tracer.

    python3 perfbench/trace_child.py SPANS_FILE ARG...

times a fresh ``import omband.cli``, rebinds the traced names, calls
``omband.cli.main(ARGS)`` and, when it returns, writes the spans to
SPANS_FILE with ``marshal``.  The exit code is main's.
"""

from __future__ import annotations

import importlib
import marshal
import sys

from tracer import Tracer


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    cli = tracer.call("import", importlib.import_module, "omband.cli")
    tracer.install()
    try:
        return tracer.call("main", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "wb") as fh:
            marshal.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
