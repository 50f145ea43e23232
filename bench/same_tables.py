"""Whether two checkouts print the same bytes for every benchmark table.

    python bench/same_tables.py PARENT_DIR CHANGE_DIR

Runs every invocation of ``perfbench/workloads.every_table`` (both
workloads: one per distinct output table) in each checkout, in a fresh
interpreter with ``PYTHONPATH`` set to the checkout's ``src``, and
compares their CSV stdout.  An invocation that the benchmark writes as
JSON to a file (``json_out``) is run once more with ``--format json --out
JSON_OUT``, the same path relative to each checkout, since the metadata
records it; their files are compared too, and their stdout must be empty.
The invocations, and ``checks.parse_csv`` and ``checks.parse_json`` to
read a table, come from CHANGE_DIR's ``perfbench/``.  Prints one line per
table that differs or fails, with its largest cell change as a fraction
of the parent's column scale (perfbench's ``REL_TOL`` measure; ``inf``
where the header, the shape, the string cells or the NaN cells differ),
then a summary; exits 0 only if every table is byte-identical and every
run exited 0.
"""

import math
import os
import subprocess
import sys

import numpy as np

CLI_PROGRAM = "import sys; from omband.cli import main; sys.exit(main())"
JSON_OUT = os.path.join(".bench_build", "same_tables.json")


def run(checkout: str, argv: tuple[str, ...]) -> tuple[int, bytes]:
    """The exit code and the stdout of one invocation in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CLI_PROGRAM, *argv], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.returncode, done.stdout


def run_json(checkout: str, argv: tuple[str, ...]) -> tuple[int, bytes]:
    """The exit code and the ``JSON_OUT`` file of one invocation written as
    JSON there; output on stdout counts as a failed run."""
    path = os.path.join(checkout, JSON_OUT)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        os.remove(path)
    code, out = run(checkout, (*argv, "--format", "json", "--out", JSON_OUT))
    if not os.path.exists(path):
        return code or 1, b""
    with open(path, "rb") as fh:
        text = fh.read()
    os.remove(path)
    return code or int(out != b""), text


def largest_change(parse, parent: bytes, change: bytes) -> float:
    """The largest cell change over the parent's column scale, or inf if not comparable."""
    import checks

    try:
        a, b = (parse(out.decode()) for out in (parent, change))
    except (checks.CheckError, ValueError, KeyError):
        return math.inf
    if (a.columns, a.values.shape, a.strings) != (b.columns, b.values.shape, b.strings):
        return math.inf
    nan = np.isnan(a.values)
    if (nan != np.isnan(b.values)).any():
        return math.inf
    dev = np.abs(np.where(nan, 0.0, b.values - a.values))
    scale = np.array(checks._column_scale(a.values))
    ratio = np.divide(dev, scale, out=np.where(dev > 0.0, math.inf, 0.0), where=scale > 0.0)
    return float(np.max(ratio, initial=0.0))


def main(parent: str, change: str) -> int:
    sys.path.insert(0, os.path.join(change, "perfbench"))
    import checks
    import workloads

    invs = [inv for name in workloads.NAMES for inv in workloads.every_table(name)]
    tables = [("CSV", run, checks.parse_csv, inv) for inv in invs]
    tables += [("JSON", run_json, checks.parse_json, inv) for inv in invs if inv.json_out]
    bad = 0
    for kind, runner, parse, inv in tables:
        (code_p, out_p), (code_c, out_c) = runner(parent, inv.argv), runner(change, inv.argv)
        if code_p or code_c or out_p != out_c:
            bad += 1
            print(f"DIFFERS {kind} {inv.key}: exit {code_p} -> {code_c}, largest change "
                  f"{largest_change(parse, out_p, out_c):.2g} of column scale")
    n_json = len(tables) - len(invs)
    print(f"{len(tables) - bad} of {len(tables)} tables byte-identical "
          f"({len(invs)} CSV stdouts, {n_json} JSON files)")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
