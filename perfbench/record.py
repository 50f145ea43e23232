"""Record the reference tables that ``checks.check_reference`` compares with.

    python3 perfbench/record.py

runs every invocation any seed can produce, once each, checks its
invariants and writes ``perfbench/reference.json``.  Run it only at a
commit whose outputs are known to be right: the benchmark then holds
later commits to these values.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import workloads
from run import BENCH, CLI_PROGRAM, WORK, Runner, _package_version


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    version = _package_version()
    reference = {}
    with Runner(time.perf_counter()) as runner:
        for name in workloads.NAMES:
            for inv in workloads.every_table(name):
                runner.started = time.perf_counter()
                stdout, stderr = WORK / "record.out", WORK / "record.err"
                _, code, _ = runner.spawn([sys.executable, "-c", CLI_PROGRAM, *inv.argv],
                                          stdout, stderr)
                if code != 0:
                    print(f"{inv.key}: exit {code}\n{stderr.read_text()}", file=sys.stderr)
                    return 1
                table = checks.parse_csv(stdout.read_text())
                checks.check_metadata(table, inv, version)
                checks.check_invariants(table, inv)
                reference[inv.key] = checks.reference_entry(table)
                print(f"recorded {inv.key}", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
