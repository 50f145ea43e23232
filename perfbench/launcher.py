"""Start commands one at a time and report how each ended.

    python3 perfbench/launcher.py

reads one JSON request per line on stdin,
``{"cmd": [...], "stdout": PATH, "stderr": PATH, "cwd": DIR, "env": {...},
"timeout": SECONDS}``, runs the command to completion and writes one JSON
reply per line on stdout, ``{"latency": s, "code": n, "maxrss_kb": n}``.
A command still running after ``timeout`` seconds is killed.

Linux carries a process's peak RSS across ``exec``, so the max-RSS that
``wait4`` reports for a child is at least the peak RSS of the process that
forked it.  ``run.py`` grows while it checks outputs; children
forked from this small process report their own peak instead.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=req["cwd"], env=req["env"])
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"latency": latency, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
