"""perfbench's end-to-end metrics in paired runs, parent against change.

    python bench/pairs.py PARENT_DIR CHANGE_DIR --workload NAME [--pairs N]
        [--seconds S] [--seed N] > BENCH_<n>.json

Each pair runs ``perfbench/run.py --workload NAME --seconds S --seed N`` once
in each checkout, in a fresh interpreter; the side that goes first flips
from pair to pair (parent first in the first pair), so that host drift
falls on both sides alike.  NAME is a workload of ``BENCHMARK.json`` or
``all`` for each of them, in turn within every pair.

For each end-to-end metric of ``BENCHMARK.json`` and each workload it
prints to stderr both sides' medians and quartiles, the change's wins
(pairs in which it is better than the parent) and a verdict.  The verdict
is ``gain`` only if the change wins at least 9 in 10 pairs and its median
is better than the parent's by more than the parent's quartile spread
(q3 - q1), and ``too few pairs`` if that holds in fewer than ten pairs.
Otherwise it is ``unresolved`` where the parent's quartile spread is
wider than the metric's bound (read, like every bound here, as a fraction
of the parent's median), unless every change run is better than every
parent run, and ``none`` elsewhere.  ``WORSE`` marks a metric whose change
median is worse than the parent's by more than its bound.

stdout gets one JSON record in ``bench/compare.py``'s shape: for each
``workload/metric`` the median, quartiles, run count and runs on both
sides, the change/parent ratio of the medians, and the unit, bound, wins,
verdict and bound flag.  ``outcome`` holds each side's attempted and
failed invocations, summed over its runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

WIN_SHARE = 0.9  # 9 of 10 pairs
MIN_PAIRS = 10


def run_once(checkout: str, workload: str, seconds: float, seed: int) -> dict:
    """One perfbench run in ``checkout``: its final JSON object."""
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(values), "runs": values}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's row: both sides' statistics, the wins and the verdict."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # > 0 where the change is better
    row = {"parent": stats(parent), "change": stats(change), "unit": spec["unit"]}
    p, c = row["parent"], row["change"]
    row["ratio"] = c["median"] / p["median"] if p["median"] else None
    row["wins"] = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    row["pairs"] = len(parent)
    gain = sign * (p["median"] - c["median"])
    resolved = gain > p["q3"] - p["q1"]
    met = row["wins"] >= WIN_SHARE * row["pairs"] and resolved
    spread = p["q3"] - p["q1"] > spec["bound"] * abs(p["median"])
    all_better = min(sign * (a - b) for a in parent for b in change) > 0
    if met:
        row["verdict"] = "gain" if row["pairs"] >= MIN_PAIRS else "too few pairs"
    else:
        row["verdict"] = "unresolved" if spread and not all_better else "none"
    row["bound"] = spec["bound"]
    row["worse_than_bound"] = -gain > spec["bound"] * abs(p["median"])
    return row


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"--workload must be one of {', '.join(names)} or all")

    sides = {"parent": args.parent, "change": args.change}
    runs: dict = {(w, side): [] for w in workloads for side in sides}
    for i in range(args.pairs):
        for w in workloads:
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[w, side].append(run_once(sides[side], w, args.seconds, args.seed))
                print(f"pairs: pair {i + 1} {w} {side} done", file=sys.stderr)

    benchmarks = {}
    for w in workloads:
        for spec in bench["end_to_end"]:
            values = {side: [r["metrics"][spec["name"]]["value"] for r in runs[w, side]]
                      for side in sides}
            benchmarks[f"{w}/{spec['name']}"] = compare(spec, values["parent"], values["change"])
    for name, row in benchmarks.items():
        p, c = row["parent"], row["change"]
        print(f"{name:<32} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {row['unit']}  "
              f"wins {row['wins']}/{row['pairs']}  {row['verdict']}"
              + ("  WORSE than bound" if row["worse_than_bound"] else ""), file=sys.stderr)
    record = {
        "unit": "per benchmark",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "protocol": {"workloads": workloads, "pairs": args.pairs, "seconds": args.seconds,
                     "seed": args.seed, "win_share": WIN_SHARE, "min_pairs": MIN_PAIRS},
        "outcome": {side: {key: sum(r[key] for w in workloads for r in runs[w, side])
                           for key in ("attempted", "failed")} for side in sides},
        "benchmarks": benchmarks,
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
