"""Whether two checkouts print the same bytes for every benchmark table.

    python bench/same_tables.py PARENT_DIR CHANGE_DIR

Runs every invocation of ``perfbench/workloads.every_table`` (both
workloads: one per distinct output table) in each checkout, in a fresh
interpreter with ``PYTHONPATH`` set to the checkout's ``src``, and
compares their stdout.  The invocations, and ``checks.parse_csv`` to read
a table, come from CHANGE_DIR's ``perfbench/``.  Prints one line per table
that differs or fails, with its largest cell change as a fraction of the
parent's column scale (perfbench's ``REL_TOL`` measure; ``inf`` where the
header, the shape, the string cells or the NaN cells differ), then a
summary; exits 0 only if every table is byte-identical and every run
exited 0.
"""

import math
import os
import subprocess
import sys

import numpy as np

CLI_PROGRAM = "import sys; from omband.cli import main; sys.exit(main())"


def run(checkout: str, argv: tuple[str, ...]) -> tuple[int, bytes]:
    """The exit code and the stdout of one invocation in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CLI_PROGRAM, *argv], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.returncode, done.stdout


def largest_change(checks, parent: bytes, change: bytes) -> float:
    """The largest cell change over the parent's column scale, or inf if not comparable."""
    try:
        a, b = (checks.parse_csv(out.decode()) for out in (parent, change))
    except (checks.CheckError, ValueError):
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
    bad = 0
    for inv in invs:
        (code_p, out_p), (code_c, out_c) = run(parent, inv.argv), run(change, inv.argv)
        if code_p or code_c or out_p != out_c:
            bad += 1
            print(f"DIFFERS {inv.key}: exit {code_p} -> {code_c}, largest change "
                  f"{largest_change(checks, out_p, out_c):.2g} of column scale")
    print(f"{len(invs) - bad} of {len(invs)} tables byte-identical")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
