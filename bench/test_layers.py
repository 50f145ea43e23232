"""Per-layer timings of the ``bands`` table at n_k = 512, 4096 and 32768.

The layers are ``band_scan`` (the array kernel), the table build
(``run_command``) and ``emit`` to CSV and to JSON.  Run from a checkout:

    python -m pytest bench --benchmark-json=bench.json

and merge two such files (parent, change) with ``bench/compare.py``.
Tier-1 does not collect this directory (``testpaths = ["tests"]``).
"""

import os
import platform

import numpy as np
import pytest

from omband.bands import band_scan
from omband.cli import emit, parse_config, run_command

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
