"""Merge two pytest-benchmark JSON files into one before/after record.

    python bench/compare.py parent.json change.json > BENCH_<n>.json

Each benchmark keeps its median, quartiles and round count on both sides,
with the change/parent median ratio; the machine record (CPU count,
Python and numpy versions) comes from the benchmarks' ``extra_info``.
"""

import json
import sys


def _stats(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    rows = {
        b["name"]: {k: b["stats"][k] for k in ("median", "q1", "q3", "rounds")}
        for b in data["benchmarks"]
    }
    return rows, data["benchmarks"][0]["extra_info"]


def main(parent_path: str, change_path: str) -> None:
    parent, machine = _stats(parent_path)
    change, _ = _stats(change_path)
    rows = {
        name: {
            "parent": parent[name],
            "change": change[name],
            "ratio": change[name]["median"] / parent[name]["median"],
        }
        for name in parent
        if name in change
    }
    json.dump({"unit": "s", "machine": machine, "benchmarks": rows}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
