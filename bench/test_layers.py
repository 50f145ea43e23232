"""Per-layer timings of the ``bands`` table and of ``verify``'s oracles.

The ``bands`` layers, at n_k = 512, 4096 and 32768, are ``band_scan``
(the array kernel), the table build (``run_command``) and ``emit`` to CSV
and to JSON.  The oracle layers are ``_rk4_ramp`` at verify's own batch
(the 256 gapped points of its four phases, 1024 steps),
``finite_lattice_spectrum`` at N = 8 and 24 cells, and the whole
``verify`` table build.  Run from a checkout:

    python -m pytest bench --benchmark-json=bench.json

and merge two such files (parent, change) with ``bench/compare.py``.
Tier-1 does not collect this directory (``testpaths = ["tests"]``).
"""

import math
import os
import platform
from dataclasses import replace

import numpy as np
import pytest

from omband.bands import band_scan, gap_array
from omband.cli import emit, parse_config, run_command
from omband.model import coeff_arrays
from omband.oracle import _rk4_ramp, finite_lattice_spectrum

SIZES = (512, 4096, 32768)


@pytest.fixture
def bench(benchmark):
    benchmark.extra_info.update(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    return benchmark


@pytest.mark.parametrize("n_k", SIZES)
def test_band_scan(bench, n_k):
    bench(band_scan, parse_config().lattice, n_k)


@pytest.mark.parametrize("n_k", SIZES)
def test_bands_table(bench, n_k):
    bench(run_command, parse_config(None, {"n_k": str(n_k)}), "bands")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_k", SIZES)
def test_emit_bands(bench, n_k, fmt):
    table = run_command(parse_config(None, {"n_k": str(n_k)}), "bands")
    bench(emit, table, fmt)


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


@pytest.mark.parametrize("N, m", [(8, 1), (24, 5)])
def test_lattice_spectrum(bench, N, m):
    p = replace(parse_config().lattice, theta=2.0 * math.pi * m / N)
    bench(finite_lattice_spectrum, p, N, m)


def test_verify_table(bench):
    bench(run_command, parse_config(), "verify")
