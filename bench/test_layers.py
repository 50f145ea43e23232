"""Per-layer timings of config parsing, the tables and ``verify``'s oracles.

The ``bands`` layers, at n_k = 512, 4096 and 32768, are ``band_scan``
(the array kernel) and ``emit`` to CSV and to JSON.  The four zone tables
(``bands``, ``weights``, ``thermal`` and ``gap`` over five phases) are
computed a block at a time as they are written, so ``run_command`` builds
almost nothing for them: their layer is ``run_command`` plus
``write_table`` to CSV in ``os.devnull``, at the same three sizes, with
each size's tracemalloc peak in ``extra_info["peak_bytes"]`` (taken on one
untimed call).  For a zone table ``emit`` includes its computation too.
At the same sizes, on a default ``quench-scan``'s inputs, the layers are
the hybrid basis (``basis_arrays``), the Magnus integrals alone
(``_magnus_arrays``, where the per-k ramp times keep |2 delta t_q| <= 1e-4
and so time the series branch alone; it is also timed on the inputs of
a default ``quench-scan --tq_mode fixed --tq_value 1``, where 37% of the
zone takes the closed form), the 2x2 propagators (``propagator_array``), the
thermal occupations and their propagation (``thermal_arrays`` and
``_populations``) and the whole ``quench-scan`` table build; the
``quench-trace`` table build is timed at n_t = 4096.  The quench tables
are computed as they are written too, so each build is ``run_command``
plus ``write_table`` to CSV in ``os.devnull``.  ``gap_extrema`` is timed
on the wide- and narrow-band sets.  ``emit`` is also timed on the largest
``zone-tables`` table (``gap`` at n_k = 32768, five phases) and on
``quench-trace`` at n_t = 4096, whose tiny populations fall outside the
formatter's fast range.  One formatter pass, ``fmt17._text`` on a
4096-cell block of mixed sign and magnitude with a few cells outside the
fast range, is timed to CSV and to JSON.  The file write is
``write_table`` of that ``gap`` table into a fresh file, opened and
closed as ``main`` does for ``--out``.
``parse_config`` is timed on the flags of a benchmark invocation.
The oracle layers are ``_rk4_ramp`` at verify's own batch (the 256 gapped
points of its four phases, 1024 steps), ``finite_lattice_spectrum`` at
N = 8, 24 and 128 cells, and the whole ``verify`` table build.  Whole
invocations, end to end, are ``bands`` and ``quench-scan`` at the three
sizes with ``--out /dev/null``, each run as ``perfbench/run.py`` runs one:
a fresh interpreter started with ``subprocess.run`` on the same program,
with ``PYTHONPATH`` set to the ``src`` directory of the omband imported
here.  The import layer is ``import omband.cli`` in such an interpreter,
with each module's median ``-X importtime`` self time over 21 more
interpreters in ``extra_info["importtime_self_us"]``.  Run from a checkout:

    python -m pytest bench --benchmark-json=bench.json

``bench/pairs.py PARENT CHANGE --workload layers`` runs it in both
checkouts, alternating, and compares the medians, ``peak_bytes`` and
import self times.  Tier-1 does not collect this directory
(``testpaths = ["tests"]``).
"""

import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import omband
from omband import fmt17
from omband.bands import band_scan, basis_arrays, gap_array, gap_extrema
from omband.cli import emit, parse_config, run_command, write_table
from omband.model import coeff_arrays
from omband.oracle import _rk4_ramp, finite_lattice_spectrum
from omband.quench import (
    _magnus_arrays,
    _populations,
    _ramp_map,
    propagator_array,
    thermal_arrays,
)

SIZES = (512, 4096, 32768)


@pytest.fixture
def bench(benchmark):
    benchmark.extra_info.update(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    return benchmark


@pytest.fixture
def devnull():
    with open(os.devnull, "w", encoding="utf-8") as fh:
        yield fh


@pytest.mark.parametrize("n_k", SIZES)
def test_band_scan(bench, n_k):
    bench(band_scan, parse_config().lattice, n_k)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_k", SIZES)
def test_emit_bands(bench, n_k, fmt):
    table = run_command(parse_config(None, {"n_k": str(n_k)}), "bands")
    bench(emit, table, fmt)


def scan_inputs(n_k):
    """A default quench-scan's g, delta and per-k ramp times 1e-4 / gap."""
    p = parse_config().lattice
    kds = np.linspace(-math.pi, math.pi, n_k)
    return p.g, coeff_arrays(p, kds)[2], 1e-4 / gap_array(p, kds)


@pytest.mark.parametrize("n_k", SIZES)
def test_basis_arrays(bench, n_k):
    g, delta, _ = scan_inputs(n_k)
    bench(basis_arrays, g, delta)


@pytest.mark.parametrize("n_k", SIZES)
def test_magnus_arrays(bench, n_k):
    g, delta, t_q = scan_inputs(n_k)
    bench(_magnus_arrays, g, delta, t_q, t_q)


@pytest.mark.parametrize("n_k", SIZES)
def test_magnus_arrays_fixed(bench, n_k):
    g, delta, _ = scan_inputs(n_k)
    t_q = np.full(n_k, 1.0)
    bench(_magnus_arrays, g, delta, t_q, t_q)


@pytest.mark.parametrize("n_k", SIZES)
def test_propagator_array(bench, n_k):
    g, delta, t_q = scan_inputs(n_k)
    bench(propagator_array, g, delta, t_q, t_q)


@pytest.mark.parametrize("n_k", SIZES)
def test_populations(bench, n_k):
    g, delta, t_q = scan_inputs(n_k)
    M, alpha_A = _ramp_map(delta, g, t_q, t_q)
    bath = parse_config().bath

    def populations():
        return _populations(M, *thermal_arrays(alpha_A, bath), bath.n_th)

    bench(populations)


@pytest.mark.parametrize("n_k", SIZES)
def test_quench_scan_table(bench, devnull, n_k):
    cfg = parse_config(None, {"n_k": str(n_k)})
    bench(lambda: write_table(run_command(cfg, "quench-scan"), "csv", devnull))


GAP_FLAGS = {"n_k": "32768", "theta_list": "0,0.25pi,0.5pi,0.8pi,pi"}
ZONE_FLAGS = {
    "bands": {}, "weights": {}, "thermal": {}, "gap": {"theta_list": GAP_FLAGS["theta_list"]}
}


@pytest.mark.parametrize("n_k", SIZES)
@pytest.mark.parametrize("command", ZONE_FLAGS)
def test_zone_table(bench, devnull, command, n_k):
    cfg = parse_config(None, {**ZONE_FLAGS[command], "n_k": str(n_k)})

    def write():
        write_table(run_command(cfg, command), "csv", devnull)

    tracemalloc.start()
    try:
        write()
        bench.extra_info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bench(write)
NARROW_FLAGS = {"J": "0.043", "K": "0.0013", "g": "0.086"}
TRACE_FLAGS = {"n_t": "4096", **NARROW_FLAGS, "kd_over_pi": "0.1"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, flags", [("gap", GAP_FLAGS), ("quench-trace", TRACE_FLAGS)], ids=["gap", "trace"]
)
def test_emit_table(bench, command, flags, fmt):
    table = run_command(parse_config(None, flags), command)
    bench(emit, table, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_pass(bench, fmt):
    rng = np.random.default_rng(21)
    block = rng.choice([-1.0, 1.0], (512, 8)) * 10.0 ** rng.uniform(-5.05, 16.05, (512, 8))
    block.flat[::97] = 0.0
    block.flat[::211] = np.nan
    bench(fmt17._text, block, fmt == "json", True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table(bench, tmp_path, fmt):
    table = run_command(parse_config(None, GAP_FLAGS), "gap")
    path = tmp_path / f"gap.{fmt}"

    def write():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_table(table, fmt, fh)

    bench(write)


def test_quench_trace_table(bench, devnull):
    cfg = parse_config(None, TRACE_FLAGS)
    bench(lambda: write_table(run_command(cfg, "quench-trace"), "csv", devnull))


@pytest.mark.parametrize("flags", [{}, NARROW_FLAGS], ids=["wide", "narrow"])
def test_gap_extrema(bench, flags):
    bench(gap_extrema, parse_config(None, flags).lattice)


def test_parse_config(bench):
    # the flags of a narrow-band fixed-ramp quench-scan in ramp-verify
    flags = {"n_k": "4096", "J": "0.043", "K": "0.0013", "g": "0.086",
             "theta": "0.8pi", "tq_mode": "fixed", "tq_value": "1", "format": "json"}
    bench(parse_config, None, flags)


def test_rk4_verify_batch(bench):
    p = parse_config().lattice
    kds = np.linspace(-math.pi, math.pi, 64)
    thetas = (0.0, 0.25 * math.pi, math.pi, 0.8 * math.pi)
    phases = [replace(p, theta=th) for th in thetas]
    delta = np.concatenate([coeff_arrays(ph, kds)[2] for ph in phases])
    gaps = np.concatenate([gap_array(ph, kds) for ph in phases])
    keep = gaps > 0

    def ramp(frac):
        return p.g * (1.0 - 2.0 * frac)

    bench(_rk4_ramp, delta[keep], 1e-4 / gaps[keep], ramp, 1024)


@pytest.mark.parametrize("N, m", [(8, 1), (24, 5), (128, 1)])
def test_lattice_spectrum(bench, N, m):
    p = replace(parse_config().lattice, theta=2.0 * math.pi * m / N)
    bench(finite_lattice_spectrum, p, N, m)


def test_verify_table(bench):
    bench(run_command, parse_config(), "verify")


# the program perfbench/run.py starts for each invocation
CLI_PROGRAM = "import sys; from omband.cli import main; sys.exit(main())"
# a fresh interpreter's environment: the omband imported here comes first
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(omband.__file__).resolve().parents[1]))


@pytest.mark.parametrize("n_k", SIZES)
@pytest.mark.parametrize("command", ["bands", "quench-scan"])
def test_invocation(bench, command, n_k):
    argv = [sys.executable, "-c", CLI_PROGRAM, command, "--n_k", str(n_k), "--out", os.devnull]
    bench(subprocess.run, argv, env=CLI_ENV, check=True)


IMPORTTIME_RUNS = 21


def test_import(bench):
    """``import omband.cli`` in a fresh interpreter; ``extra_info`` holds the
    median ``-X importtime`` self time, in microseconds, of each omband
    module and of ``argparse`` and ``gettext`` where they are imported."""
    selfs: dict[str, list[int]] = {}
    for _ in range(IMPORTTIME_RUNS):
        argv = [sys.executable, "-X", "importtime", "-c", "import omband.cli"]
        err = subprocess.run(argv, env=CLI_ENV, check=True, capture_output=True, text=True).stderr
        for line in err.splitlines():
            us, _, name = (cell.strip() for cell in line.partition(":")[2].split("|"))
            if us.isdigit() and (name.startswith("omband") or name in ("argparse", "gettext")):
                selfs.setdefault(name, []).append(int(us))
    bench.extra_info["importtime_self_us"] = {k: statistics.median(v) for k, v in selfs.items()}
    bench(subprocess.run, [sys.executable, "-c", "import omband.cli"], env=CLI_ENV, check=True)
