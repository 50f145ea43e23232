"""Whether two checkouts print the same bytes for every benchmark table.

    python bench/same_tables.py PARENT_DIR CHANGE_DIR

Runs every invocation of ``perfbench/workloads.every_table`` (both
workloads: one per distinct output table) in each checkout, in a fresh
interpreter with ``PYTHONPATH`` set to the checkout's ``src``, and
compares the SHA-256 of its stdout.  The invocations come from
CHANGE_DIR's ``perfbench/workloads.py``.  Prints one line per table that
differs or fails, then a summary; exits 0 only if every table is
byte-identical and every run exited 0.
"""

import hashlib
import os
import subprocess
import sys

CLI_PROGRAM = "import sys; from omband.cli import main; sys.exit(main())"


def digest(checkout: str, argv: tuple[str, ...]) -> tuple[int, str]:
    """The exit code and the SHA-256 of stdout of one invocation in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CLI_PROGRAM, *argv], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def main(parent: str, change: str) -> int:
    sys.path.insert(0, os.path.join(change, "perfbench"))
    import workloads

    invs = [inv for name in workloads.NAMES for inv in workloads.every_table(name)]
    bad = 0
    for inv in invs:
        (code_p, sha_p), (code_c, sha_c) = digest(parent, inv.argv), digest(change, inv.argv)
        if code_p or code_c or sha_p != sha_c:
            bad += 1
            print(f"DIFFERS {inv.key}: exit {code_p} -> {code_c}, "
                  f"sha256 {sha_p[:12]} -> {sha_c[:12]}")
    print(f"{len(invs) - bad} of {len(invs)} tables byte-identical")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
