"""Spans around calls into omband's modules, recorded from outside the package.

The tracer wraps public functions by rebinding their names in the calling
module's namespace, so the package itself is not edited: a call that goes
through ``omband.cli.gap`` is recorded, a call ``bands.py`` makes to its
own ``gap`` is not.  Each span is ``(id, name, start, end, parent, thread,
work)``; ``work`` is a per-call count taken from the call's arguments or
result (k-points, rows, iterations, ...).  Spans are kept in memory and
written out when the traced invocation ends.

Worker threads (the default ``quench_scan`` pool) have their own span
stacks; a span opened on a worker with an empty stack takes as parent the
span open on the main thread, which is blocked waiting for the pool.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Callable

# span name -> layer
LAYERS = {
    "import": "import",
    "parse_config": "cli.config",
    "main": "cli.main",
    "run_command": "cli.commands",
    "emit": "cli.emit",
    "band_scan": "bands",
    "gap": "bands",
    "hybrid_basis": "bands",
    "band_energies": "bands",
    "gap_extrema": "bands.extrema",
    "quench_scan": "quench",
    "quench_trace": "quench",
    "quench_map": "quench",
    "magnus_propagator": "quench",
    "thermal_populations": "quench",
    "solve_meanfield": "meanfield",
    "_rk4_ramp": "oracle.rk4",
    "finite_lattice_spectrum": "oracle.lattice",
    "bloch_grid_energies": "oracle.lattice",
}


def _records(args: tuple, result: list) -> tuple[int, int]:
    return len(result), sum(1 for r in result if math.isnan(r.Nq_A))


# span name -> work taken from (positional args, result); default None.
# magnus_propagator's work (1 on the series branch) is added by install().
_WORK: dict[str, Callable[[tuple, object], object]] = {
    "run_command": lambda a, r: len(r.rows),
    "emit": lambda a, r: len(r),
    "band_scan": lambda a, r: len(r),
    "gap": lambda a, r: 1,
    "hybrid_basis": lambda a, r: 1,
    "band_energies": lambda a, r: 1,
    "quench_scan": _records,
    "quench_trace": _records,
    "solve_meanfield": lambda a, r: r.iterations,
    "_rk4_ramp": lambda a, r: a[3] * len(a[0]),
    "finite_lattice_spectrum": lambda a, r: 2 * a[1],
}

# module -> names rebound there (the modules whose code makes the calls)
_REBIND = {
    "omband.cli": (
        "parse_config", "run_command", "emit", "band_scan", "gap", "gap_extrema",
        "hybrid_basis", "quench_scan", "quench_trace", "magnus_propagator",
        "thermal_populations", "solve_meanfield", "_rk4_ramp",
        "finite_lattice_spectrum", "bloch_grid_energies",
    ),
    "omband.quench": (
        "gap", "gap_extrema", "hybrid_basis", "quench_map", "magnus_propagator",
        "thermal_populations",
    ),
    "omband.oracle": ("band_energies",),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._work = dict(_WORK)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        sid = next(self._ids)
        stack.append(sid)
        work = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            count = self._work.get(name)
            if count is not None:
                work = count(args, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), work))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced name in the modules that call it."""
        import sys

        crossover = sys.modules["omband.quench"].MAGNUS_SERIES_CROSSOVER
        # magnus_propagator(g0, delta_half, t_q, t): the branch rule of quench.py
        self._work["magnus_propagator"] = lambda a, r: int(abs(2.0 * a[1] * a[2]) < crossover)
        for module_name, names in _REBIND.items():
            module = sys.modules[module_name]
            for name in names:
                setattr(module, name, self.wrap(name, getattr(module, name)))


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span, partitioning the covered wall time exactly.

    At every instant the innermost open spans -- open spans with no open
    child on any thread -- share the elapsed time equally.  On one thread
    this is a span's duration minus its children; where pool threads run
    at once, their overlapping time is split between them, so the self
    times of all spans sum to the wall time the spans cover.
    """
    index = {s[0]: i for i, s in enumerate(spans)}
    parent = [index.get(s[4], -1) for s in spans]
    events = [(s[2], 1, i) for i, s in enumerate(spans)]
    events += [(s[3], 0, i) for i, s in enumerate(spans)]
    events.sort()
    open_children = [0] * len(spans)
    self_t = [0.0] * len(spans)
    active: set[int] = set()
    prev = events[0][0] if events else 0.0
    for t, is_start, i in events:
        if active:
            share = (t - prev) / len(active)
            for j in active:
                self_t[j] += share
        prev = t
        p = parent[i]
        if is_start:
            if p >= 0:
                open_children[p] += 1
                active.discard(p)
            active.add(i)
        else:
            active.discard(i)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0:
                    active.add(p)
    return self_t
