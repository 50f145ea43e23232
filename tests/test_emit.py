"""Byte oracle for ``emit``: block formatting against the per-cell writer.

``_reference_emit`` is the per-cell serializer that ``emit`` used before
it formatted numeric tables a block of rows at a time; every table of
every command must come out byte-identical to it, NaN cells included.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omband import fmt17
from omband.cli import OutputTable, emit, parse_config, run_command


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return str(value)


def _json_cell(value: object) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return "null"
    return _csv_cell(value)


def _reference_emit(table: OutputTable, fmt: str) -> str:
    rows = table.rows.tolist() if isinstance(table.rows, np.ndarray) else table.rows
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in table.metadata.items()]
        lines.append(",".join(table.columns))
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    meta = ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in table.metadata.items())
    cols = ",".join(json.dumps(c) for c in table.columns)
    body = ",".join("[" + ",".join(_json_cell(v) for v in row) + "]" for row in rows)
    return '{"metadata":{' + meta + '},"columns":[' + cols + '],"rows":[' + body + "]}\n"


def _mismatch(got: str, want: str) -> tuple[str, str] | None:
    """The text around the first difference, or None when equal (a cheap
    failure report: tables run to megabytes)."""
    if got == want:
        return None
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    i = min(len(got), len(want)) if i is None else i
    return got[max(i - 60, 0) : i + 60], want[max(i - 60, 0) : i + 60]


NARROW = {"J": "0.043", "K": "0.0013", "g": "0.086"}
# (command, flags, has NaN cells); n_k = 8197 spans many row blocks and a
# partial one, and at g = 0 puts grid points on the degenerate kd = +-pi/2
CASES = [
    ("bands", {"n_k": "8197"}, False),
    ("bands", {"g": "0", "n_k": "8197"}, True),
    ("weights", {"g": "0", "n_k": "8197"}, True),
    ("weights", {**NARROW, "theta": "0.8pi"}, False),
    ("thermal", {"g": "0", "n_k": "8197"}, True),
    ("thermal", NARROW, False),
    ("gap", {"n_k": "1025", "theta_list": "0,0.25pi,0.5pi,0.8pi,pi"}, False),
    ("meanfield", {}, False),
    ("meanfield", NARROW, False),
    ("quench-trace", {"n_t": "4097", "kd_over_pi": "0.1"}, False),
    ("quench-scan", {"n_k": "513", "tq_mode": "global-min"}, False),
    ("quench-scan", {**NARROW, "tq_mode": "fixed"}, False),
    ("quench-scan", {"g": "0", "n_k": "8197"}, True),  # zero gap: NaN rows
    ("verify", {}, False),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(("command", "flags", "has_nan"), CASES)
def test_emit_matches_per_cell_reference(command, flags, has_nan, fmt):
    table = run_command(parse_config(None, {**flags, "format": fmt}), command)
    text = emit(table, fmt)
    assert _mismatch(text, _reference_emit(table, fmt)) is None
    if fmt == "csv":
        data = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        assert any("nan" in ln.split(",") for ln in data) == has_nan
    else:
        data = json.loads(text)["rows"]
        assert any(None in row for row in data) == has_nan
    assert len(table.rows) == len(data)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 10), st.integers(1, 5)),
        elements=st.floats(),
    )
)
def test_block_format_matches_fmt_float(values):
    table = OutputTable(
        columns=tuple(f"c{j}" for j in range(values.shape[1])),
        rows=values,
        metadata={},
    )
    cells = values.tolist()
    with mock.patch.object(fmt17, "_PASS_CELLS", 3):  # several blocks per table
        csv_text, json_text = emit(table, "csv"), emit(table, "json")
    data = csv_text.splitlines()[1:]
    assert [ln.split(",") for ln in data] == [[_fmt_float(x) for x in r] for r in cells]
    expected = ",".join(
        "[" + ",".join(_fmt_float(x) if math.isfinite(x) else "null" for x in r) + "]"
        for r in cells
    )
    assert json_text.endswith('"rows":[' + expected + "]}\n")
    got = json.loads(json_text)["rows"]
    assert got == [[x if math.isfinite(x) else None for x in r] for r in cells]
