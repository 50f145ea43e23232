"""omband's benchmark: real CLI invocations, timed end to end and traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  Run it from anywhere inside a checkout; it builds nothing, runs the
package from ``src/`` and writes only under ``.bench_build/perfbench/``.

With ``--trace 0`` one closed-loop client runs the workload's invocations
one at a time, each in a fresh interpreter
(``python -c "import sys; from omband.cli import main; sys.exit(main())" ARGS``
with ``PYTHONPATH=src``).  Each pass runs every invocation once, at the
next drive phases in the seed's order (``workloads.build``), and is
preceded by four set-up interpreters.  It makes one whole pass, and another
only if the last pass's time still fits in S seconds.  It reports

    wall_s              one pass, first process start to last exit (median)
    invocation_p50_s    one invocation, start to exit (median)
    invocation_ptail_s  one invocation, start to exit (90th percentile)
    setup_s             fresh interpreter: import omband.cli, parse_config
                        on the workload's flags, exit (median)
    peak_rss_mb         largest max-RSS of one invocation (from wait4)

With ``--trace 1`` it runs one untraced pass and then one traced pass, in
which each invocation calls ``omband.cli.main`` in its own interpreter
under ``tracer.py``; it reports self time and work counts per layer and
the tracing overhead.  Every output of every pass is checked
(``checks.py``); a non-zero exit or a failed check counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and the machine the run was on.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import marshal
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import LAYERS, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
CLI_PROGRAM = "import sys; from omband.cli import main; sys.exit(main())"
DEFAULT_SEED = 0
#: Set-up interpreters timed ahead of each untraced pass.
SETUP_PER_PASS = 4
#: Tail percentile of invocation latency.  Every pass runs each kind of
#: invocation once, so a fixed percentile stays on the same kind however
#: many passes a run makes (a ``gap`` run in zone-tables, a ``per-k`` or
#: ``global-min`` n_k=4096 ``quench-scan`` in ramp-verify); a rank such as
#: "10 samples beyond it" moves between kinds as that number changes.
TAIL_PCT = 90
#: Every child is killed once the run has lasted this long (the run must end
#: within 180 s).
RUN_LIMIT_S = 170.0


@dataclass
class Sample:
    """One finished invocation."""

    inv: workloads.Invocation
    latency: float
    code: int
    maxrss_kb: int
    stdout: Path
    stderr: Path
    out: Path | None
    spans: Path | None
    error: str | None = None

    def digest(self) -> str:
        """SHA-256 of everything the invocation wrote to stdout and ``--out``."""
        h = hashlib.sha256(self.stdout.read_bytes())
        if self.out is not None:
            h.update(b"\0" + self.out.read_bytes())
        return h.hexdigest()

    def bytes_written(self) -> int:
        size = self.stdout.stat().st_size
        return size + (self.out.stat().st_size if self.out else 0)


class Runner:
    """Runs commands through ``launcher.py`` and checks their outputs."""

    def __init__(self, started: float) -> None:
        self.started = started
        # Started before this process imports numpy or reads any output, so
        # the peak RSS that every child inherits from the launcher stays small.
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.version = _package_version()
        self.reference = json.loads((BENCH / "reference.json").read_text())
        #: Digest of the output of each invocation that passed every check.
        self._passed: dict[str, str] = {}

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc: object) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()

    def spawn(self, cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, int, int]:
        """Run ``cmd`` to completion: (latency, exit code, max RSS in KiB)."""
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        request = {"cmd": cmd, "stdout": str(stdout), "stderr": str(stderr),
                   "cwd": str(ROOT), "env": self.env, "timeout": budget}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench launcher exited")
        done = json.loads(reply)
        return done["latency"], done["code"], done["maxrss_kb"]

    def run_pass(self, invs: list[workloads.Invocation], traced: bool) -> tuple[float, list[Sample]]:
        """One pass in a closed loop: (wall time, samples), checked after it."""
        samples = []
        for i, inv in enumerate(invs):
            argv = list(inv.argv)
            out = spans = None
            if inv.json_out:
                out = WORK / f"out-{i}.json"
                argv += ["--format", "json", "--out", str(out.relative_to(ROOT))]
            if traced:
                spans = WORK / f"spans-{i}.marshal"
                cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans), *argv]
            else:
                cmd = [sys.executable, "-c", CLI_PROGRAM, *argv]
            stdout, stderr = WORK / f"stdout-{i}", WORK / f"stderr-{i}"
            if i == 0:
                first = time.perf_counter()
            latency, code, rss = self.spawn(cmd, stdout, stderr)
            samples.append(Sample(inv, latency, code, rss, stdout, stderr, out, spans))
            if time.perf_counter() - self.started > RUN_LIMIT_S:
                break
        wall = time.perf_counter() - first
        for s in samples:
            s.error = self.check(s)
        if len(samples) < len(invs):
            samples[-1].error = samples[-1].error or "run time limit reached"
        return wall, samples

    def check(self, s: Sample) -> str | None:
        """None if the invocation exited 0 and its output passed every check."""
        import checks  # numpy; only after the launcher has started

        if s.code != 0:
            return f"exit code {s.code}"
        try:
            if "--verify" in s.inv.argv and "omband: verify passed" not in s.stderr.read_text():
                raise checks.CheckError("--verify true did not report 'verify passed'")
            digest = s.digest()
            if self._passed.get(s.inv.key) == digest:
                return None  # the same bytes as an output that passed below
            if s.out is not None:
                if s.stdout.stat().st_size:
                    raise checks.CheckError("stdout not empty with --out")
                table = checks.parse_json(s.out.read_text())
            else:
                table = checks.parse_csv(s.stdout.read_text())
            checks.check_metadata(table, s.inv, self.version)
            checks.check_invariants(table, s.inv)
            ref = self.reference.get(s.inv.key)
            if ref is None:
                raise checks.CheckError("no reference recorded for this invocation")
            checks.check_reference(table, ref)
            self._passed[s.inv.key] = digest
        except (checks.CheckError, ValueError, KeyError, IndexError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def setup_times(self, invs: list[workloads.Invocation], n: int) -> list[float]:
        """Fresh interpreters that import omband.cli and parse every config."""
        flags = [inv.flags() for inv in invs]
        program = ("from omband.cli import parse_config\n"
                   f"for flags in {flags!r}:\n    parse_config(None, flags)\n")
        times = []
        for _ in range(n):
            latency, code, _ = self.spawn([sys.executable, "-c", program],
                                          WORK / "setup.out", WORK / "setup.err")
            if code != 0:
                raise RuntimeError(f"set-up interpreter exited {code}: "
                                   + (WORK / "setup.err").read_text())
            times.append(latency)
        return times


def _package_version() -> str:
    text = (ROOT / "src" / "omband" / "_version.py").read_text()
    return re.search(r"__version__\s*=\s*['\"]([^'\"]+)['\"]", text).group(1)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def machine(seed: int, name: str) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "commit": _git_commit(),
        "workload": name,
        "seed": seed,
    }


def _tail(latencies: list[float]) -> float:
    """The TAIL_PCT-th percentile, interpolated between ranks."""
    return statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PCT - 1]


def _metric(metrics: dict, lines: list, name: str, value: float, unit: str, note: str) -> None:
    metrics[name] = {"value": value, "unit": unit}
    lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")


def end_to_end(runner: Runner, name: str, seed: int, seconds: float) -> tuple[dict, list, list]:
    invs = workloads.build(name, seed)
    runner.setup_times(invs, 1)  # warm-up: byte-compile, fill the file cache
    setup, walls, samples = [], [], []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        invs = workloads.build(name, seed, len(walls))
        # set-up samples spread over the run, like the passes they precede
        setup += runner.setup_times(invs, SETUP_PER_PASS)
        wall, got = runner.run_pass(invs, traced=False)
        walls.append(wall)
        samples += got
        # whole passes only, and another only if it should end within S
        # seconds, so every run weighs each kind of invocation alike
        now = time.perf_counter()
        if (len(got) < len(invs) or now - runner.started > RUN_LIMIT_S
                or now - t0 + (now - t_pass) > seconds):
            break
    lat = [s.latency for s in samples]
    tail = _tail(lat)
    metrics: dict = {}
    lines = [f"{name}: {len(walls)} passes of {len(invs)} invocations"]
    _metric(metrics, lines, "wall_s", statistics.median(walls), "s",
            f"median of {len(walls)} passes")
    _metric(metrics, lines, "invocation_p50_s", statistics.median(lat), "s",
            f"median of {len(lat)} invocations")
    _metric(metrics, lines, "invocation_ptail_s", tail, "s",
            f"p{TAIL_PCT} of {len(lat)} invocations")
    _metric(metrics, lines, "setup_s", statistics.median(setup), "s",
            f"median of {len(setup)} interpreters")
    _metric(metrics, lines, "peak_rss_mb", max(s.maxrss_kb for s in samples) / 1024.0,
            "MB", f"max of {len(samples)} invocations")
    return metrics, lines, samples


def per_layer(runner: Runner, name: str, invs: list) -> tuple[dict, list, list]:
    runner.setup_times(invs, 1)  # warm-up, as in the untraced run
    wall_u, plain = runner.run_pass(invs, traced=False)
    wall_t, traced = runner.run_pass(invs, traced=True)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, list] = defaultdict(list)
    process_s = 0.0
    for s in traced:
        try:
            spans = marshal.loads(s.spans.read_bytes())
        except (OSError, EOFError, ValueError) as exc:
            s.error = s.error or f"no spans: {exc}"
            continue
        for span, t in zip(spans, self_times(spans)):
            fn = span[1]
            self_s[LAYERS[fn]] += t
            calls[fn] += 1
            if span[6] is not None:
                work[fn].append(span[6])
        roots = sum(sp[3] - sp[2] for sp in spans if sp[4] == -1)
        process_s += s.latency - roots

    def total(*names: str) -> int:
        return sum(sum(work[n]) for n in names)

    def n_calls(*names: str) -> int:
        return sum(calls[n] for n in names)

    layer_of: dict[str, list[str]] = {}
    for fn, layer in LAYERS.items():
        layer_of.setdefault(layer, []).append(fn)
    magnus = n_calls("magnus_propagator")
    quench_records = work["quench_scan"] + work["quench_trace"]
    metrics: dict = {}
    lines = [f"{name}: traced pass of {len(invs)} invocations "
             f"({sum(calls.values())} spans)"]
    for layer in layer_of:
        _metric(metrics, lines, f"{layer}.self_s", self_s[layer], "s",
                f"{n_calls(*layer_of[layer])} spans")
    _metric(metrics, lines, "process.self_s", process_s, "s",
            "interpreter start and exit outside the traced calls")
    counts = {
        "cli.config.calls": n_calls("parse_config"),
        "cli.main.bytes_written": sum(s.bytes_written() for s in traced if s.code == 0),
        "cli.commands.rows": total("run_command"),
        "cli.emit.bytes": total("emit"),
        "bands.calls": n_calls(*layer_of["bands"]),
        "bands.kpts": total(*layer_of["bands"]),
        "bands.extrema.calls": n_calls("gap_extrema"),
        "quench.rows": sum(r for r, _ in quench_records),
        "quench.nan_rows": sum(nan for _, nan in quench_records),
        "quench.magnus.calls": magnus,
        "meanfield.iterations": total("solve_meanfield"),
        "oracle.rk4.step_trajectories": total("_rk4_ramp"),
        "oracle.lattice.dim": total("finite_lattice_spectrum"),
    }
    for key, value in counts.items():
        unit = "B" if key.endswith("bytes") or key.endswith("bytes_written") else "count"
        _metric(metrics, lines, key, value, unit, "")
    share = total("magnus_propagator") / magnus if magnus else 0.0
    _metric(metrics, lines, "quench.magnus.series_share", share, "1",
            f"of {magnus} magnus_propagator calls")
    _metric(metrics, lines, "trace.overhead_ratio", wall_t / wall_u - 1.0, "1",
            f"traced pass {wall_t:.3f} s / untraced pass {wall_u:.3f} s - 1")
    attributed = sum(self_s.values()) + process_s
    _metric(metrics, lines, "trace.attributed_share", attributed / wall_t, "1",
            f"layer and process self times {attributed:.3f} s of traced wall {wall_t:.3f} s")
    return metrics, lines, plain + traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    with Runner(started) as runner:
        if trace:
            metrics, lines, samples = per_layer(runner, name, workloads.build(name, seed))
        else:
            metrics, lines, samples = end_to_end(runner, name, seed, seconds)
    failed = [s for s in samples if s.error]
    lines.append(f"  {'error_ratio':<34} {len(failed) / len(samples):>14.6g} {'1':<6} "
                 f"{len(failed)} of {len(samples)} invocations failed")
    for s in failed:
        print(f"perfbench: FAILED {s.inv.key}: {s.error}", file=sys.stderr)
    print("\n".join(lines))
    print("machine: " + json.dumps(machine(seed, name)))
    return {"correct": not failed, "attempted": len(samples), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "omband" / "cli.py").is_file():
        print(f"perfbench: no omband package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"# {name}: {workloads.WHY[name]}")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     started if len(names) == 1 else time.perf_counter())
        print(json.dumps(results[name]))
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
