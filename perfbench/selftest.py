"""The benchmark's own test.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default): two traced runs with the same seed
must report identical work counts, and a traced and an untraced run must
check every output with no failure (error_ratio 0).  Exits 1 on the first
workload that does not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=BENCH.parent,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    """The metrics that count work, as opposed to timing it."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "B") or name == "quench.magnus.series_share"}


def main(names: list[str]) -> int:
    for name in names or workloads.NAMES:
        first, second, plain = run(name, 1), run(name, 1), run(name, 0)
        problems = []
        if counts(first) != counts(second):
            diff = {k: (v, counts(second).get(k)) for k, v in counts(first).items()
                    if counts(second).get(k) != v}
            problems.append(f"counts differ between traced runs: {diff}")
        for label, result in (("traced", first), ("traced", second), ("untraced", plain)):
            if result["failed"] or not result["correct"]:
                problems.append(f"{label} run: {result['failed']} of "
                                f"{result['attempted']} invocations failed")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            return 1
        print(f"ok   {name}: {len(counts(first))} counts repeat exactly; "
              f"error_ratio 0 over {first['attempted'] + second['attempted'] + plain['attempted']}"
              " invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
