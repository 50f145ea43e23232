"""Command-line front end.

Eight subcommands map onto the library:

    bands         band energies, gap and weights over the zone
    weights       photon/phonon weights only
    gap           gap profile for each phase in theta_list
    meanfield     classical amplitudes and the enhanced coupling
    thermal       steady-state hybrid-mode occupations over the zone
    quench-trace  populations along one ramp at fixed kd
    quench-scan   end-of-ramp net excitations over the zone
    verify        internal cross-checks (closed forms vs brute force)

Configuration is flat ``key = value`` text; every key can also be given
as a ``--key value`` or ``--key=value`` flag, spelt in full, with
precedence defaults < file < flags.  The token after a key's flag is
always its value; the one bare token is the command; ``-h`` prints the
usage.  Angles accept a trailing ``pi`` token (``0.8pi``, ``-pi``).
Output is CSV (default) or JSON; both embed the fully resolved
configuration, the CSV as ``# key = value`` lines that are themselves a
valid config file.  Output is byte-deterministic: floats are printed
with 17 significant digits and nothing time- or host-dependent is
emitted.

Exit codes: 0 success, 1 failed verification (``--verify true`` writes
one line that names every failed check), 2 bad configuration or usage (a
value outside its key's accepted values, declared once in ``_RANGES`` or
in the library type that takes the key, and refused by
:func:`omband.model.check` in one ``<key>: must lie in [least, most]``
line; an unknown command or flag, a flag with no value, a stray
argument), 3 non-convergence, 4 degenerate point, 5 I/O error.  A zero
gap under ``tq_mode`` per-k or global-min leaves the ramp time undefined:
a scan writes those rows as NaN, a trace exits 4.  A nonzero gap whose
``tq_scale / gap`` overflows exits 2, and so does one that gives a ramp
time of 0: a gap that overflows names the first of ``g``, ``J``, ``K``,
``omega_m``, ``Delta`` whose double overflows, an underflowing
``tq_scale / gap`` names ``tq_scale``.  So does a ramp time so long
that the propagator's closed forms overflow (a bad ``tq_value`` in fixed
mode, a bad ``tq_scale`` otherwise): from about ``t_q = 4e10`` on the
series branch (``|2 delta t_q| < 0.5``, powers of ``t_q`` up to the 29th)
and about ``t_q = 4e102`` on the closed-form branch.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, replace
from typing import NoReturn, TextIO

import numpy as np

from ._version import __version__
from .bands import (
    BAND_SCAN_COLUMNS,
    DegeneratePointError,
    ZoneRows,
    band_scan,
    gap_array,
    weight_arrays,
)
from .fmt17 import iter_row_blocks
from .meanfield import (
    DriveParams,
    MeanFieldConvergenceError,
    SingularParameterError,
    solve_meanfield,
)
from .model import POSITIVE, LatticeParams, check, coeff_arrays
from .oracle import (
    CommensurabilityError,
    _rk4_ramp,
    bloch_grid_energies,
    finite_lattice_spectrum,
)
from .quench import (
    QUENCH_COLUMNS,
    BathParams,
    QuenchSchedule,
    QuenchTimeRule,
    SingularBathError,
    propagator_array,
    quench_scan_array,
    quench_trace_array,
    ramp_times,
    thermal_arrays,
)

# perfbench/tracer.py rebinds these names in this module; keep them importable.
from .bands import gap, gap_extrema, hybrid_basis  # noqa: F401
from .quench import magnus_propagator, quench_scan, quench_trace, thermal_populations  # noqa: F401

__all__ = [
    "ConfigError", "RunConfig", "OutputTable", "parse_config", "run_command", "emit",
    "write_table", "main",
]

_ALIASES = {"gamma_m": "Gamma"}

# Config text may give an angle with a trailing pi token.  A key's parse
# kind is the text of its RunConfig annotation: float, Angle, Angles, int,
# str or bool.
Angle = float
Angles = tuple[Angle, ...]


class ConfigError(ValueError):
    """Bad key, bad value, or bad combination; maps to exit code 2."""


def _parse_pi_float(key: str, s: str) -> float:
    txt = s.strip()
    try:
        if txt.lower().endswith("pi"):
            head = txt[:-2].strip()
            if head in ("", "+"):
                coef = 1.0
            elif head == "-":
                coef = -1.0
            else:
                coef = float(head)
            return coef * math.pi
        return float(txt)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {s!r} as a number") from None


def _parse_value(key: str, kind: str, s: str) -> object:
    txt = s.strip()
    if kind == "float":
        try:
            return float(txt)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {s!r} as a number") from None
    if kind == "Angle":
        return _parse_pi_float(key, txt)
    if kind == "Angles":
        parts = [q for q in (q.strip() for q in txt.split(",")) if q]
        if not parts:
            raise ConfigError(f"{key}: empty list")
        return tuple(_parse_pi_float(key, q) for q in parts)
    if kind == "int":
        try:
            return int(txt, 10)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {s!r} as an integer") from None
    if kind == "bool":
        low = txt.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: cannot parse {s!r} as a boolean")
    return txt  # str


@dataclass(frozen=True)
class RunConfig:
    """The resolved configuration: one field per config key, with its default.

    Field order is the metadata order.  Building a RunConfig, also through
    ``dataclasses.replace``, checks every key and builds the library
    parameters ``lattice``, ``bath``, ``drive`` and ``time_rule``; a bad
    value raises ConfigError.  ``theta`` is stored folded into (-pi, pi],
    so metadata and round-trips are canonical.
    """

    omega_m: float = 4.3
    Delta: float = -4.3
    J: float = 0.5
    K: float = 0.2
    g: float = 0.1
    theta: Angle = 0.0
    kappa: float = 0.1
    Gamma: float = 0.001
    n_th: float = 100.0
    Omega_d: float = 1.0
    G: float = 0.001
    tol: float = 1e-12
    max_iter: int = 10000
    damping: float = 0.5
    n_k: int = 512
    n_t: int = 512
    kd_over_pi: float = 0.48
    tq_mode: str = "per-k"
    tq_scale: float = 1e-4
    tq_value: float = 1.0
    theta_list: Angles = (0.0, 0.25 * math.pi, 0.5 * math.pi, math.pi)
    rk4_steps: int = 1024
    lattice_N: int = 8
    lattice_m: int = 1
    format: str = "csv"
    out: str = "-"
    verify: bool = False
    lattice: LatticeParams = field(init=False, repr=False)
    bath: BathParams = field(init=False, repr=False)
    drive: DriveParams = field(init=False, repr=False)
    time_rule: QuenchTimeRule = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _validate(self)
        try:
            lattice = LatticeParams(
                self.omega_m, self.Delta, self.J, self.K, self.g, self.theta
            )
            # the bath first, so a bad Gamma is reported as Gamma, not gamma_m
            bath = BathParams(self.kappa, self.Gamma, self.n_th)
            drive = DriveParams(
                lattice, self.Omega_d, self.G, self.kappa, gamma_m=self.Gamma
            )
            time_rule = QuenchTimeRule(
                mode=self.tq_mode,
                scale=self.tq_scale,
                t_q=self.tq_value if self.tq_mode == "fixed" else None,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, value in (
            ("theta", lattice.theta),
            ("lattice", lattice),
            ("bath", bath),
            ("drive", drive),
            ("time_rule", time_rule),
        ):
            object.__setattr__(self, name, value)


# config key -> parse kind, in metadata order
_KINDS = {f.name: f.type for f in fields(RunConfig) if f.init}


# The accepted values of each key that no library parameter type checks under
# the key's own name, in model.check's form: a closed range (least, most),
# which NaN fails, or the allowed words.  The library types check the other
# keys through model.check too.
_GRID = (2, np.iinfo(np.intp).max // 8)  # the most points whose float64 grid numpy can size
_RANGES: dict[str, tuple] = {
    "tol": POSITIVE,
    "max_iter": (1, 2**63 - 1),
    "damping": (5e-324, 1.0),
    "n_k": _GRID,
    "n_t": _GRID,
    "kd_over_pi": (-sys.float_info.max / math.pi, sys.float_info.max / math.pi),  # kd finite
    "tq_mode": ("per-k", "global-min", "fixed"),
    "tq_scale": POSITIVE,
    "tq_value": POSITIVE,
    "rk4_steps": (16, 65536),  # about 4 s of verify's RK4 batch at the top
    "lattice_N": (2, 128),  # about 5 s of Jacobi sweeps at the top
    "lattice_m": (1 - 2**63, 2**63 - 1),
    "format": ("csv", "json"),
}


def _check(key: str, value: object) -> None:
    """:func:`~omband.model.check` against ``key``'s ``_RANGES`` entry, raising ConfigError."""
    try:
        check(key, value, _RANGES[key])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _validate(cfg: RunConfig) -> None:
    """Check the keys that no library parameter type checks."""
    for key in _RANGES:
        _check(key, getattr(cfg, key))
    if not (cfg.theta_list and all(map(math.isfinite, cfg.theta_list))):
        raise ConfigError(f"theta_list: must be one or more finite angles (got {cfg.theta_list!r})")


def _read_assignments(source: str, text: str) -> dict[str, str]:
    """Raw key -> value strings from config text (last assignment wins).

    Lines starting with ``#`` are comments unless, once the marker is
    stripped, they are an assignment to a known key -- exactly the shape
    of the metadata block this tool emits, which therefore round-trips.
    """
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        commented = stripped.startswith("#")
        if commented:
            stripped = stripped.lstrip("#").strip()
        if "=" not in stripped:
            if commented:
                continue
            raise ConfigError(f"{source}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        known = key in _KINDS or key in _ALIASES
        if not known:
            if commented:
                continue  # ordinary comment that happens to contain '='
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}")
        out[key] = value
    return out


def _apply_source(
    values: dict[str, object], raw: dict[str, str], source: str
) -> None:
    # resolve aliases first so conflicts inside one source are caught
    resolved: dict[str, str] = {}
    for key, text in raw.items():
        canon = _ALIASES.get(key, key)
        if canon in resolved and resolved[canon] != text:
            raise ConfigError(
                f"{source}: conflicting values for {canon!r} (alias collision)"
            )
        resolved[canon] = text
    for key, text in resolved.items():
        values[key] = _parse_value(key, _KINDS[key], text)


def parse_config(
    file_text: str | None = None, flags: dict[str, str] | None = None
) -> RunConfig:
    """Resolve defaults, config-file text, and flag strings into a RunConfig."""
    values: dict[str, object] = {}
    if file_text is not None:
        _apply_source(values, _read_assignments("config", file_text), "config")
    if flags:
        unknown = [k for k in flags if k not in _KINDS and k not in _ALIASES]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r}")
        _apply_source(values, dict(flags), "flags")
    return RunConfig(**values)  # type: ignore[arg-type]


# ---------------------------------------------------------------- output


@dataclass(frozen=True)
class OutputTable:
    columns: tuple[str, ...]
    rows: np.ndarray | ZoneRows | list[tuple]  # 2-D floats; tuples for verify's string column
    metadata: dict[str, str]


def _metadata(cfg: RunConfig) -> dict[str, str]:
    # "version" is not a config key: on re-parse the commented line is
    # skipped as an ordinary comment, so round-trips stay exact.
    meta = {"version": __version__}
    for key in _KINDS:
        value = getattr(cfg, key)
        if isinstance(value, tuple):
            meta[key] = ",".join(map(_csv_cell, value))
        else:
            meta[key] = _csv_cell(value)
    return meta


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value  # also "nan", "inf", "-inf"
    return str(value)


def _json_cell(value: object) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return "null"
    return _csv_cell(value)


# Rows per block of output: fmt17 fills each in passes of a few thousand
# cells, so its temporaries stay smaller than the block.
_BLOCK_ROWS = 4096


def _pieces(table: OutputTable, fmt: str) -> Iterator[str]:
    """The table's text in order: the header, the body in blocks of
    ``_BLOCK_ROWS`` rows, then the trailer.  A bad ``fmt`` raises
    ConfigError at the first step, before anything is yielded."""
    _check("format", fmt)
    if fmt == "csv":
        head = "".join(f"# {k} = {v}\n" for k, v in table.metadata.items())
        yield head + ",".join(table.columns) + "\n"
    else:
        meta = ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in table.metadata.items())
        cols = ",".join(json.dumps(c) for c in table.columns)
        yield '{"metadata":{' + meta + '},"columns":[' + cols + '],"rows":['
    if not isinstance(table.rows, list):
        yield from iter_row_blocks(table.rows, _BLOCK_ROWS, fmt)
    elif fmt == "csv":
        yield "".join(",".join(map(_csv_cell, row)) + "\n" for row in table.rows)
    else:
        yield ",".join("[" + ",".join(map(_json_cell, r)) + "]" for r in table.rows)
    if fmt == "json":
        yield "]}\n"


def emit(table: OutputTable, fmt: str) -> str:
    """Serialize a table to CSV or JSON text, byte-deterministically."""
    return "".join(_pieces(table, fmt))


def write_table(table: OutputTable, fmt: str, fh: TextIO) -> int:
    """Write :func:`emit`'s text to ``fh`` one block at a time, so that no
    more than one block is held; returns the number of characters written.
    A bad ``fmt`` raises ConfigError before anything is written."""
    # map drops each piece once written; a for loop would still hold it
    # while the next block is formatted
    return sum(map(fh.write, _pieces(table, fmt)))


# ---------------------------------------------------------------- commands


def _cmd_bands(cfg: RunConfig) -> tuple:
    def rows_at(_phase: int, kd: np.ndarray) -> np.ndarray:
        return np.column_stack((kd / math.pi, band_scan(cfg.lattice, kd=kd)[:, 1:]))

    return ("kd_over_pi", *BAND_SCAN_COLUMNS[1:]), ZoneRows(cfg.n_k, 1, rows_at)


def _cmd_weights(cfg: RunConfig) -> tuple:
    def rows_at(_phase: int, kd: np.ndarray) -> np.ndarray:
        return np.column_stack((kd / math.pi, *weight_arrays(cfg.lattice, kd)))

    return ("kd_over_pi", *BAND_SCAN_COLUMNS[-4:]), ZoneRows(cfg.n_k, 1, rows_at)


def _cmd_gap(cfg: RunConfig) -> tuple:
    phases = [replace(cfg.lattice, theta=theta) for theta in cfg.theta_list]

    def rows_at(phase: int, kd: np.ndarray) -> np.ndarray:
        p = phases[phase]
        return np.column_stack((np.full(len(kd), p.theta), kd / math.pi, gap_array(p, kd)))

    return ("theta", "kd_over_pi", "gap"), ZoneRows(cfg.n_k, len(phases), rows_at)


def _cmd_meanfield(cfg: RunConfig) -> tuple:
    sol = solve_meanfield(
        cfg.drive, tol=cfg.tol, max_iter=cfg.max_iter, damping=cfg.damping
    )
    row = {
        "alpha_re": sol.alpha.real,
        "alpha_im": sol.alpha.imag,
        "beta_re": sol.beta.real,
        "beta_im": sol.beta.imag,
        "g_enhanced": sol.g_enhanced,
        "iterations": sol.iterations,  # "%.17g" % 12.0 == "12"
        "residual": sol.residual,
    }
    return tuple(row), np.array([list(row.values())])


def _cmd_thermal(cfg: RunConfig) -> tuple:
    bath = cfg.bath

    def rows_at(_phase: int, kd: np.ndarray) -> np.ndarray:
        alpha_A = weight_arrays(cfg.lattice, kd)[0]  # NaN if degenerate
        return np.column_stack((kd / math.pi, alpha_A, *thermal_arrays(alpha_A, bath)))

    rows = ZoneRows(cfg.n_k, 1, rows_at)
    # a mode decays at min(kappa, Gamma) / 2 or faster; if that is 0, compute
    # every row now, so that SingularBathError comes before any output
    if 0.5 * min(bath.kappa, bath.Gamma) == 0.0:
        for _ in rows:
            pass
    return ("kd_over_pi", "alpha_A", "N_th_A", "N_th_B"), rows


def _cmd_quench_trace(cfg: RunConfig) -> tuple:
    p = cfg.lattice
    kd = cfg.kd_over_pi * math.pi
    t_q = float(ramp_times(p, cfg.time_rule, kd))
    if math.isnan(t_q):
        if cfg.tq_mode == "global-min":
            where = "the zone's minimum gap is zero"
        else:
            where = f"gap vanishes (kd={kd!r})"
        raise DegeneratePointError(f"{where}; no finite ramp time under tq_mode={cfg.tq_mode}")
    trace = quench_trace_array(p, kd, QuenchSchedule(p.g, t_q), n_t=cfg.n_t, bath=cfg.bath)
    return ("t_over_tq", *QUENCH_COLUMNS[2:]), np.column_stack((trace[:, 1] / t_q, trace[:, 2:]))


def _cmd_quench_scan(cfg: RunConfig) -> tuple:
    scan = quench_scan_array(cfg.lattice, cfg.time_rule, n_k=cfg.n_k, bath=cfg.bath)
    return ("kd_over_pi", *QUENCH_COLUMNS[4:]), np.column_stack((scan[:, 0] / math.pi, scan[:, 4:]))


def _verify_checks(cfg: RunConfig) -> list[tuple[str, float, float, int]]:
    """Five self-consistency checks; all cheap enough to run routinely."""
    p = cfg.lattice
    thetas = [0.0, 0.25 * math.pi, math.pi, 0.8 * math.pi]
    if all(abs(p.theta - th) > 1e-12 for th in thetas):
        thetas.append(p.theta)

    def ramp(frac: float) -> float:
        return p.g * (1.0 - 2.0 * frac)

    # every phase's 64-point grid in one RK4 batch, zero-gap points left out
    kds = np.linspace(-math.pi, math.pi, 64)
    phases = [replace(p, theta=theta) for theta in thetas]
    delta = np.concatenate([coeff_arrays(pth, kds)[2] for pth in phases])
    gaps = np.concatenate([gap_array(pth, kds) for pth in phases])
    keep = gaps > 0
    if keep.any():
        delta, tqs = delta[keep], 1e-4 / gaps[keep]
        U = _rk4_ramp(delta, tqs, ramp, cfg.rk4_steps)
        S = propagator_array(p.g, delta, tqs, tqs)
        max_dev = float(np.max(np.abs(U - S)))
        max_unit = float(np.max(np.abs(S @ S.conj().swapaxes(-1, -2) - np.eye(2))))
    else:  # g = 0 and flat, coincident bands: nothing to ramp
        max_dev, max_unit = math.nan, 0.0

    kd0 = 0.48 * math.pi
    gap0 = float(gap_array(p, kd0))
    if gap0 > 0:
        d0 = coeff_arrays(p, [kd0])[2]
        T0 = np.array([2.0 / gap0])
        U64 = _rk4_ramp(d0, T0, ramp, 64)[0]
        U128 = _rk4_ramp(d0, T0, ramp, 128)[0]
        U256 = _rk4_ramp(d0, T0, ramp, 256)[0]
        num = float(np.max(np.abs(U64 - U128)))
        den = float(np.max(np.abs(U128 - U256)))
        ratio = num / den if den > 0 else math.nan
    else:
        ratio = math.nan

    p_lat = replace(p, theta=2.0 * math.pi * cfg.lattice_m / cfg.lattice_N)
    spec = finite_lattice_spectrum(p_lat, cfg.lattice_N, cfg.lattice_m)
    ref = bloch_grid_energies(p_lat, cfg.lattice_N)
    lat_dev = float(np.max(np.abs(spec.eigenvalues - ref)))

    try:
        sol = solve_meanfield(
            cfg.drive, tol=cfg.tol, max_iter=cfg.max_iter, damping=cfg.damping
        )
        mf_res = sol.residual
    except MeanFieldConvergenceError:
        mf_res = math.inf

    checks = [
        ("magnus_vs_rk4", max_dev, 1e-6),
        ("propagator_unitarity", max_unit, 1e-12),
        ("rk4_order_ratio", ratio, 16.0),  # fourth order: passes in [12, 20]
        ("lattice_vs_bloch", lat_dev, 1e-10),
        ("meanfield_residual", mf_res, 1e-9),
    ]
    return [
        (name, value, th, int(12.0 <= value <= 20.0 if name == "rk4_order_ratio" else value <= th))
        for name, value, th in checks
    ]


_RUNNERS = {
    "bands": _cmd_bands,
    "weights": _cmd_weights,
    "gap": _cmd_gap,
    "meanfield": _cmd_meanfield,
    "thermal": _cmd_thermal,
    "quench-trace": _cmd_quench_trace,
    "quench-scan": _cmd_quench_scan,
    "verify": lambda cfg: (("check", "value", "threshold", "passed"), _verify_checks(cfg)),
}


def run_command(cfg: RunConfig, command: str) -> OutputTable:
    """Produce the output table for one subcommand (no I/O); a zone table's
    rows are computed as they are written, but any error is raised here."""
    try:
        runner = _RUNNERS[command]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}") from None
    return OutputTable(*runner(cfg), _metadata(cfg))


# ---------------------------------------------------------------- driver

_USAGE = "usage: omband <command> [--config FILE] [--key value ...]"
_HELP = f"{_USAGE}\ncommands: {', '.join(_RUNNERS)}\n"


def _parse_argv(argv: list[str]) -> tuple[str | None, str | None, dict[str, str]]:
    """The command, the ``--config`` path and the config flags in ``argv``,
    by the rules in the module docstring; no command for ``-h`` or ``--help``."""
    def usage_error(why: str) -> NoReturn:
        print(f"omband: usage error: {why}", file=sys.stderr)
        raise SystemExit(2)

    bare: list[str] = []
    flags: dict[str, str] = {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None, None, {}
        key, eq, value = token[2:].partition("=")
        if not token.startswith("-"):
            bare.append(token)
        elif not token.startswith("--") or key not in {*_KINDS, *_ALIASES, "config"}:
            usage_error(f"unknown flag {token.partition('=')[0]!r}")
        elif eq or (value := next(tokens, None)) is not None:
            flags[key] = value
        else:
            usage_error(f"flag {token!r} needs a value")
    if len(bare) != 1 or bare[0] not in _RUNNERS:
        usage_error(f"expected one command of {', '.join(_RUNNERS)}; got {bare}")
    return bare[0], flags.pop("config", None), flags


def _write(out: str, write: Callable[[TextIO], object]) -> int:
    """Call ``write`` on stdout (``out`` is ``-``) or the file ``out``: 0, or 5 if it fails."""
    try:
        with (
            contextlib.nullcontext(sys.stdout)
            if out == "-"
            else open(out, "w", encoding="utf-8", newline="\n")
        ) as fh:
            write(fh)
            fh.flush()  # now rather than at exit, so that a closed pipe exits 5
    except OSError as exc:
        print(f"omband: cannot write output: {exc}", file=sys.stderr)
        if out == "-":  # the exit-time flush of stdout would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 5
    return 0


def main(argv: list[str] | None = None) -> int:
    command, config_path, flags = _parse_argv(sys.argv[1:] if argv is None else argv)
    if command is None:
        return _write("-", lambda fh: fh.write(_HELP))
    try:
        file_text = None
        if config_path is not None:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    file_text = fh.read()
            except OSError as exc:
                print(f"omband: cannot read config: {exc}", file=sys.stderr)
                return 5
        cfg = parse_config(file_text, flags)

        if cfg.verify and command != "verify":
            failed = [c for c in _verify_checks(cfg) if not c[3]]
            if failed:  # one line that names every failed check
                why = "; ".join("%s = %.3e (threshold %g)" % c[:3] for c in failed)
                print(f"omband: verify failed: {why}", file=sys.stderr)
                return 1
            print("omband: verify passed", file=sys.stderr)

        table = run_command(cfg, command)
        failed = command == "verify" and any(not row[3] for row in table.rows)
        return _write(cfg.out, lambda fh: write_table(table, cfg.format, fh)) or int(failed)
    except MeanFieldConvergenceError as exc:
        print(f"omband: did not converge: {exc}", file=sys.stderr)
        return 3
    except DegeneratePointError as exc:
        print(f"omband: degenerate point: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:  # the ramp time overflows, or the closed forms at it
        key = "tq_value" if cfg.tq_mode == "fixed" else "tq_scale"
        if not math.isfinite(cfg.g * cfg.g):
            key = "g"
        # a rate whose double overflows makes the gap overflow, and the ramp time 0
        lattice = ("g", "J", "K", "omega_m", "Delta")
        key = next((k for k in lattice if math.isinf(2.0 * getattr(cfg, k))), key)
        print(f"omband: config error: {key}: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CommensurabilityError, SingularBathError, SingularParameterError) as exc:
        print(f"omband: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
