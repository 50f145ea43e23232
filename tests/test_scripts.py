"""Smoke tests: the dataset scripts run from a checkout and write valid tables."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import omband

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(omband.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


# rows per table at --n_k 17, by file-name prefix (five gap phases, n_t = 512)
EXPECTED_ROWS = {
    "bands": 17, "quench_scan": 17, "thermal": 17, "gap_profiles": 5 * 17,
    "quench_trace": 512, "meanfield": 1,
}


def test_figure_data_writes_parsable_tables(tmp_path):
    proc = run_script("figure_data.py", "--n_k", "17", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    files = sorted(tmp_path.iterdir())
    assert len(files) == 2 * (2 * 4 + 2) + 2 + 1
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == f"# version = {omband.__version__}", path.name
        body = [ln for ln in lines if not ln.startswith("#")]
        header, rows = body[0].split(","), body[1:]
        prefix = next(k for k in EXPECTED_ROWS if path.name.startswith(k))
        assert len(rows) == EXPECTED_ROWS[prefix], path.name
        table = np.array([[float(x) for x in ln.split(",")] for ln in rows])
        assert table.shape[1] == len(header), path.name


def test_gap_report_runs():
    proc = run_script("gap_report.py")
    assert proc.returncode == 0, proc.stderr
    assert "wide bands" in proc.stdout and "narrow bands" in proc.stdout
    assert "minimum" in proc.stdout and "maximum" in proc.stdout
