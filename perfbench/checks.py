"""Output checks for one invocation: parse, metadata, invariants, reference.

A table is checked three ways:

* metadata: only ``version`` and the keys the invocation set, so that a
  later change may drop other config keys without tripping the check;
* invariants that hold for every seed (band gap and weights, thermal
  populations, net excitations, verify rows, mean-field residual);
* the reference recorded in ``reference.json``: every cell equal to the
  recorded value (a digest over the whole table), or else every sampled
  cell and every column sum within ``REL_TOL`` of its column scale, with
  NaN in the same cells.  ``REL_TOL`` is the tolerance the project allows
  where vectorised floating point changes the order of operations.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import SET_G, Invocation

REL_TOL = 1e-13
#: Cells held in the reference per table besides the digest and column sums.
N_SAMPLES = 17

_STRING_COLUMNS = {"check"}

COLUMNS = {
    "bands": ("kd_over_pi", "omega_plus", "omega_minus", "gap",
              "alpha_A", "beta_A", "alpha_B", "beta_B"),
    "weights": ("kd_over_pi", "alpha_A", "beta_A", "alpha_B", "beta_B"),
    "gap": ("theta", "kd_over_pi", "gap"),
    "thermal": ("kd_over_pi", "alpha_A", "N_th_A", "N_th_B"),
    "quench-scan": ("kd_over_pi", "Nq_A", "Nq_B"),
    "quench-trace": ("t_over_tq", "N_A", "N_B", "Nq_A", "Nq_B"),
    "verify": ("check", "value", "threshold", "passed"),
    "meanfield": ("alpha_re", "alpha_im", "beta_re", "beta_im",
                  "g_enhanced", "iterations", "residual"),
}

class CheckError(Exception):
    """An output did not pass a check."""


@dataclass
class Table:
    metadata: dict[str, str]
    columns: tuple[str, ...]
    values: np.ndarray  # float cells; string columns hold NaN
    strings: dict[str, list[str]]

    def col(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def _numeric_matrix(rows: list[list], n_cols: int,
                    string_idx: list[int]) -> np.ndarray:
    out = np.full((len(rows), n_cols), math.nan)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if j not in string_idx and cell is not None:
                out[i, j] = float(cell)
    return out


def parse_csv(text: str) -> Table:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    meta: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition("=")
        meta[key.strip()] = value.strip()
        i += 1
    if i >= len(lines):
        raise CheckError("no header row")
    columns = tuple(lines[i].split(","))
    data = lines[i + 1:]
    string_idx = [j for j, c in enumerate(columns) if c in _STRING_COLUMNS]
    if string_idx:
        rows = [ln.split(",") for ln in data]
        values = _numeric_matrix(rows, len(columns), string_idx)
        strings = {columns[j]: [r[j] for r in rows] for j in string_idx}
    else:
        values = np.loadtxt(io.StringIO("\n".join(data)), delimiter=",",
                            dtype=float, ndmin=2)
        strings = {}
    if values.shape[0] and values.shape[1] != len(columns):
        raise CheckError(f"{values.shape[1]} cells per row, {len(columns)} columns")
    return Table(meta, columns, values.reshape(len(data), len(columns)), strings)


def parse_json(text: str) -> Table:
    obj = json.loads(text)
    if set(obj) != {"metadata", "columns", "rows"}:
        raise CheckError(f"JSON keys {sorted(obj)}")
    columns = tuple(obj["columns"])
    rows = obj["rows"]
    string_idx = [j for j, c in enumerate(columns) if c in _STRING_COLUMNS]
    if string_idx:
        values = _numeric_matrix(rows, len(columns), string_idx)
    else:
        values = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    strings = {columns[j]: [r[j] for r in rows] for j in string_idx}
    return Table(dict(obj["metadata"]), columns, values, strings)


# ------------------------------------------------------------- metadata


def _parse_angle(s: str) -> float:
    s = s.strip()
    if s.endswith("pi"):
        head = s[:-2]
        return (float(head) if head not in ("", "+", "-") else
                (-1.0 if head == "-" else 1.0)) * math.pi
    return float(s)


def _same_number(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-15, abs_tol=1e-15)


def check_metadata(table: Table, inv: Invocation, version: str) -> None:
    meta = table.metadata
    if meta.get("version") != version:
        raise CheckError(f"metadata version {meta.get('version')!r} != {version!r}")
    for key, value in inv.flags().items():
        if key not in meta:
            raise CheckError(f"metadata lacks the key {key!r} the invocation set")
        got = meta[key]
        if key == "theta_list":
            want_l = [_parse_angle(v) for v in value.split(",")]
            got_l = [float(v) for v in got.split(",")]
            ok = len(want_l) == len(got_l) and all(map(_same_number, want_l, got_l))
        elif key in ("verify", "tq_mode"):
            ok = got == value
        else:
            ok = _same_number(_parse_angle(value), float(got))
        if not ok:
            raise CheckError(f"metadata {key} = {got!r}, invocation set {value!r}")


# ----------------------------------------------------------- invariants


def _close(a: np.ndarray, b: np.ndarray, scale: float, what: str) -> None:
    dev = float(np.max(np.abs(a - b), initial=0.0))
    if not dev <= REL_TOL * scale:
        raise CheckError(f"{what}: deviation {dev:.3e} > {REL_TOL:g} x {scale:.3e}")


def _expected_rows(inv: Invocation) -> int:
    f = inv.flags()
    if inv.command in ("verify", "meanfield"):
        return 5 if inv.command == "verify" else 1
    if inv.command == "quench-trace":
        return int(f["n_t"])
    n_k = int(f["n_k"])
    return n_k * len(f["theta_list"].split(",")) if inv.command == "gap" else n_k


def check_invariants(t: Table, inv: Invocation) -> None:
    cmd = inv.command
    if t.columns != COLUMNS[cmd]:
        raise CheckError(f"columns {t.columns} != {COLUMNS[cmd]}")
    if t.values.shape[0] != _expected_rows(inv):
        raise CheckError(f"{t.values.shape[0]} rows, expected {_expected_rows(inv)}")
    numeric = [j for j, c in enumerate(t.columns) if c not in _STRING_COLUMNS]
    if not np.all(np.isfinite(t.values[:, numeric])):
        raise CheckError("non-finite cell where g != 0 admits none")
    two_g = 2.0 * abs(SET_G[inv.set_name])
    if cmd in ("bands", "weights"):
        for mode in ("A", "B"):
            _close(t.col(f"alpha_{mode}") + t.col(f"beta_{mode}"), 1.0, 1.0,
                   f"alpha_{mode} + beta_{mode} = 1")
        _close(t.col("alpha_A"), t.col("beta_B"), 1.0, "alpha_A = beta_B")
    if cmd == "bands":
        scale = float(np.max(np.abs(t.values[:, 1:3])))
        _close(t.col("gap"), t.col("omega_plus") - t.col("omega_minus"), scale,
               "gap = omega_plus - omega_minus")
    if cmd in ("bands", "gap"):
        least = float(np.min(t.col("gap")))
        if not least >= two_g * (1.0 - REL_TOL):
            raise CheckError(f"minimum gap {least!r} < 2|g| = {two_g!r}")
    if cmd == "thermal":
        alpha = t.col("alpha_A")
        if not (np.all(alpha >= 0.0) and np.all(alpha <= 1.0)):
            raise CheckError("alpha_A outside [0, 1]")
    if cmd in ("quench-scan", "quench-trace"):
        _close(t.col("Nq_A"), -t.col("Nq_B"), 1.0, "Nq_A = -Nq_B")
    if cmd == "verify":
        failed = [c for c, ok in zip(t.strings["check"], t.col("passed")) if ok != 1]
        if failed:
            raise CheckError(f"verify rows failed: {failed}")
    if cmd == "meanfield":
        res = float(t.col("residual")[0])
        if not res <= 1e-9:
            raise CheckError(f"meanfield residual {res!r} > 1e-9")


# ------------------------------------------------------------ reference


def _digest(t: Table) -> str:
    h = hashlib.sha256(",".join(t.columns).encode())
    vals = np.where(np.isnan(t.values), math.nan, t.values)  # one NaN pattern
    h.update(np.ascontiguousarray(vals, dtype="<f8").tobytes())
    for name in sorted(t.strings):
        h.update("\n".join(t.strings[name]).encode())
    return h.hexdigest()


def _nan_cells(t: Table) -> list[list[int]]:
    numeric = np.array([c not in _STRING_COLUMNS for c in t.columns])
    rows, cols = np.nonzero(np.isnan(t.values) & numeric)
    return [[int(r), int(c)] for r, c in zip(rows, cols)]


def _column_scale(values: np.ndarray) -> list[float]:
    finite = np.where(np.isfinite(values), np.abs(values), 0.0)
    return [float(x) for x in np.max(finite, axis=0, initial=0.0)]


def _column_sums(values: np.ndarray) -> list[float]:
    return [math.fsum(x for x in col if math.isfinite(x)) for col in values.T]


def _sample_index(n: int) -> list[int]:
    return sorted({int(i) for i in np.linspace(0, n - 1, N_SAMPLES).round()}) if n else []


def reference_entry(t: Table) -> dict:
    """What ``reference.json`` holds for one table."""
    idx = _sample_index(t.values.shape[0])
    return {
        "columns": list(t.columns),
        "rows": int(t.values.shape[0]),
        "digest": _digest(t),
        "scale": _column_scale(t.values),
        "sums": _column_sums(t.values),
        "nan_cells": _nan_cells(t),
        "sample_rows": idx,
        "samples": [[None if math.isnan(x) else float(x) for x in t.values[i]]
                    for i in idx],
        "strings": t.strings,
    }


def check_reference(t: Table, ref: dict) -> bool:
    """Raise unless ``t`` matches ``ref``; True when every cell is equal."""
    if list(t.columns) != ref["columns"] or t.values.shape[0] != ref["rows"]:
        raise CheckError("header or row count differs from the reference")
    if t.strings != ref["strings"]:
        raise CheckError("string cells differ from the reference")
    if _digest(t) == ref["digest"]:
        return True
    if _nan_cells(t) != ref["nan_cells"]:
        raise CheckError("NaN cells differ from the reference")
    scale = np.array(ref["scale"])
    samples = np.array(ref["samples"], dtype=float)
    got = t.values[ref["sample_rows"]]
    dev = np.abs(np.where(np.isnan(samples), 0.0, got - samples))
    if np.any(dev > REL_TOL * scale):
        j = int(np.argmax(np.max(dev / np.maximum(scale, 1e-300), axis=0)))
        raise CheckError(f"column {t.columns[j]} differs from the reference by more "
                         f"than {REL_TOL:g} of its scale")
    sums = np.array(_column_sums(t.values))
    if np.any(np.abs(sums - np.array(ref["sums"])) > REL_TOL * scale * t.values.shape[0]):
        raise CheckError("a column sum differs from the reference")
    return False
