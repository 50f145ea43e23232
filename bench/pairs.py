"""Every before/after number of a change, in paired runs, parent against change.

    python bench/pairs.py PARENT_DIR CHANGE_DIR --workload NAME[,NAME...]
        [--pairs N] [--seconds S] [--seed N] > BENCH_<n>.json

Each NAME is a program run once per side in every pair, in a fresh
interpreter in the side's checkout:

* a workload of ``BENCHMARK.json`` (``all`` for each of them):
  ``perfbench/run.py --workload NAME --seconds S --seed N``, whose
  end-to-end metrics it records, with its attempted and failed
  invocations;
* ``tier1``: the Tier-1 command of ROADMAP.md with ``PYTHONPATH`` set to
  the checkout's ``src``, whose wall time from process start to exit
  (``tier1_wall``), ``test_05_propagator_vs_integrator``'s time in its
  JUnit XML report (setup, call and teardown) and their ratio
  (``test_05_share``) it records, with the tests run and failed;
* ``layers``: ``python -m pytest bench`` (``bench/test_layers.py``), whose
  median per benchmark it records, with each benchmark's ``peak_bytes``
  and ``importtime_self_us`` entries, and the benchmarks run and failed.

The side that goes first flips from pair to pair (parent first in the
first pair), so that host drift falls on both sides alike.

For each metric it prints to stderr both sides' medians and quartiles, the
change's wins (pairs in which it is better than the parent) and a verdict.
The verdict is ``gain`` only if the change wins at least 9 in 10 pairs and
its median is better than the parent's by more than the parent's quartile
spread (q3 - q1); ``too few pairs`` if that holds in fewer than ten pairs;
``more failures`` if it holds but the change failed a larger share of its
program's operations (invocations or tests) than the parent.  Otherwise it
is ``unresolved`` where the metric has a bound in ``BENCHMARK.json`` and
the parent's quartile spread is wider than it (read, like every bound
here, as a fraction of the parent's median), unless every change run is
better than every parent run, and ``none`` elsewhere.  ``WORSE`` marks a
metric whose change median is worse than the parent's by more than its
bound.  Metrics without a bound (all but perfbench's) are lower-is-better.

stdout gets one JSON record: the machine, the protocol, each program's
``outcome`` on each side (attempted and failed, summed over its runs) and,
for each ``program/metric``, the median, quartiles, run count and runs on
both sides, the change/parent ratio of the medians, and the unit, wins,
verdict and, where the metric has a bound, the bound and its flag.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

import numpy as np

WIN_SHARE = 0.9  # 9 of 10 pairs
MIN_PAIRS = 10
TEST_05 = "test_05_propagator_vs_integrator"


def run_perfbench(checkout: str, workload: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: its metrics and outcome."""
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
         "--seconds", str(args.seconds), "--seed", str(args.seed)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"], {key: result[key] for key in ("attempted", "failed")}


def run_pytest(checkout: str, tmp: str, *argv: str) -> tuple[float, ET.Element, dict]:
    """One pytest run in ``checkout``: wall seconds, JUnit XML root and outcome."""
    report = os.path.join(tmp, "junit.xml")
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", *argv, f"--junitxml={report}"], cwd=checkout,
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    root = ET.parse(report).getroot()
    tests, failures, errors, skipped = (
        int(next(root.iter("testsuite")).get(key))
        for key in ("tests", "failures", "errors", "skipped"))
    return wall, root, {"attempted": tests - skipped, "failed": failures + errors}


def run_tier1(checkout: str, _program: str, _args: argparse.Namespace) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        wall, root, outcome = run_pytest(checkout, tmp, "-q", "--continue-on-collection-errors")
    test_05 = sum(float(case.get("time")) for case in root.iter("testcase")
                  if case.get("name") == TEST_05)
    values = {"tier1_wall": (wall, "s"), TEST_05: (test_05, "s"),
              "test_05_share": (test_05 / wall, "1")}
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}, outcome


def layer_metrics(data: dict) -> dict:
    """Each benchmark's median, ``peak_bytes`` and import self times in a
    pytest-benchmark JSON record, as perfbench-style metrics."""
    metrics = {}
    for b in data["benchmarks"]:
        info = b["extra_info"]
        metrics[b["name"]] = {"value": b["stats"]["median"], "unit": "s"}
        if "peak_bytes" in info:
            metrics[f"{b['name']}/peak_bytes"] = {"value": info["peak_bytes"], "unit": "B"}
        for module, us in info.get("importtime_self_us", {}).items():
            metrics[f"{b['name']}/{module}"] = {"value": us, "unit": "us"}
    return metrics


def run_layers(checkout: str, _program: str, _args: argparse.Namespace) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        _, _, outcome = run_pytest(checkout, tmp, "bench", f"--benchmark-json={path}")
        with open(path, encoding="utf-8") as fh:
            return layer_metrics(json.load(fh)), outcome


def stats(values: list[float]) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(values), "runs": values}


def failed_share(outcome: dict) -> float:
    return outcome["failed"] / max(outcome["attempted"], 1)


def compare(spec: dict, parent: list[float], change: list[float], outcome: dict) -> dict:
    """One metric's row: both sides' statistics, the wins and the verdict.

    ``spec`` holds the metric's ``unit``, ``better`` and, if it has one, its
    ``bound``; ``outcome`` its program's attempted and failed operations on
    each side."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # > 0 where the change is better
    row = {"parent": stats(parent), "change": stats(change), "unit": spec["unit"]}
    p, c = row["parent"], row["change"]
    row["ratio"] = c["median"] / p["median"] if p["median"] else None
    row["wins"] = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    row["pairs"] = len(parent)
    gain = sign * (p["median"] - c["median"])
    spread = p["q3"] - p["q1"]
    bound = spec.get("bound")
    if row["wins"] >= WIN_SHARE * row["pairs"] and gain > spread:
        if failed_share(outcome["change"]) > failed_share(outcome["parent"]):
            row["verdict"] = "more failures"
        else:
            row["verdict"] = "gain" if row["pairs"] >= MIN_PAIRS else "too few pairs"
    else:
        wide = bound is not None and spread > bound * abs(p["median"])
        all_better = min(sign * (a - b) for a in parent for b in change) > 0
        row["verdict"] = "unresolved" if wide and not all_better else "none"
    if bound is not None:
        row["bound"] = bound
        row["worse_than_bound"] = -gain > bound * abs(p["median"])
    return row


def parse_args(argv: list[str] | None) -> tuple[argparse.Namespace, list[str], dict]:
    """The arguments, the programs named by ``--workload`` and CHANGE_DIR's
    ``BENCHMARK.json``; a usage error exits 2 with one message."""
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
    programs: list[str] = []
    for name in args.workload.split(","):
        if name not in (*names, "all", "tier1", "layers"):
            parser.error(f"--workload takes a comma-separated list of {', '.join(names)}, "
                         f"all, tier1 and layers (got {name!r})")
        programs += names if name == "all" else [name]
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1 (got {args.pairs})")
    return args, list(dict.fromkeys(programs)), bench


def main(argv: list[str] | None = None) -> None:
    args, programs, bench = parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runners = {"tier1": run_tier1, "layers": run_layers}  # else a perfbench workload
    runs: dict = {(prog, side): [] for prog in programs for side in sides}
    outcome = {prog: {side: {"attempted": 0, "failed": 0} for side in sides} for prog in programs}
    for i in range(args.pairs):
        for prog in programs:
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                metrics, done = runners.get(prog, run_perfbench)(sides[side], prog, args)
                runs[prog, side].append(metrics)
                for key in done:
                    outcome[prog][side][key] += done[key]
                print(f"pairs: pair {i + 1} {prog} {side} done", file=sys.stderr)

    specs = {spec["name"]: spec for spec in bench["end_to_end"]}
    benchmarks = {}
    for prog in programs:
        every = runs[prog, "parent"] + runs[prog, "change"]
        for name, first in every[0].items():
            if all(name in r for r in every):
                spec = specs.get(name, {"unit": first["unit"], "better": "lower"})
                values = {side: [r[name]["value"] for r in runs[prog, side]] for side in sides}
                benchmarks[f"{prog}/{name}"] = compare(spec, values["parent"], values["change"],
                                                       outcome[prog])
    for name, row in benchmarks.items():
        p, c = row["parent"], row["change"]
        print(f"{name:<32} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {row['unit']}  "
              f"wins {row['wins']}/{row['pairs']}  {row['verdict']}"
              + ("  WORSE than bound" if row.get("worse_than_bound") else ""), file=sys.stderr)
    record = {
        "unit": "per benchmark",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "protocol": {"programs": programs, "pairs": args.pairs, "seconds": args.seconds,
                     "seed": args.seed, "win_share": WIN_SHARE, "min_pairs": MIN_PAIRS},
        "outcome": outcome,
        "benchmarks": benchmarks,
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
