"""Wall time of the Tier-1 suite, and test_05's share of it, parent against change.

    python bench/tier1.py PARENT_DIR CHANGE_DIR [PAIRS] > BENCH_<n>.json

Each run is the Tier-1 command of ROADMAP.md in a fresh interpreter, in
the checkout's own directory with ``PYTHONPATH`` set to its ``src``.  The
parent and change runs alternate, parent first, ``PAIRS`` times (default
3), so that host drift falls on both sides alike.  The record has the
shape of ``bench/compare.py``'s: for each metric the median, quartiles
and run count on both sides, and the change/parent ratio of the medians.
``tier1_wall`` is the suite's wall time from process start to exit,
``test_05_propagator_vs_integrator`` that test's time in the suite's
JUnit XML report (setup, call and teardown), and ``test_05_share`` their
ratio.  ``outcome`` holds each side's pass and fail counts in its last run.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

import numpy as np

TEST_05 = "test_05_propagator_vs_integrator"


def run_once(checkout: str) -> tuple[float, float, dict]:
    """One Tier-1 run: wall seconds, test_05's seconds and the outcome counts."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"],
            cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        root = ET.parse(report).getroot()
    suite = next(root.iter("testsuite"))
    test_05 = sum(float(case.get("time")) for case in root.iter("testcase")
                  if case.get("name") == TEST_05)
    tests, failed = (int(suite.get(k)) for k in ("tests", "failures"))
    errors, skipped = (int(suite.get(k)) for k in ("errors", "skipped"))
    counts = {"passed": tests - failed - errors - skipped, "failed": failed + errors}
    return wall, test_05, counts


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(values), "runs": values}


def main(parent: str, change: str, pairs: str = "3") -> None:
    runs = {"parent": [], "change": []}
    for _ in range(int(pairs)):
        for side, checkout in (("parent", parent), ("change", change)):
            runs[side].append(run_once(checkout))
    metrics = {
        "tier1_wall": lambda r: r[0],
        TEST_05: lambda r: r[1],
        "test_05_share": lambda r: r[1] / r[0],
    }
    benchmarks = {}
    for name, metric in metrics.items():
        row = {side: stats([metric(r) for r in rs]) for side, rs in runs.items()}
        row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        benchmarks[name] = row
    record = {
        "unit": "s",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "outcome": {side: rs[-1][2] for side, rs in runs.items()},
        "benchmarks": benchmarks,
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
