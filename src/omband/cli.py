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
as a ``--key value`` flag, with precedence defaults < file < flags.
Angles accept a trailing ``pi`` token (``0.8pi``, ``-pi``).  Output is
CSV (default) or JSON; both embed the fully resolved configuration, the
CSV as ``# key = value`` lines that are themselves a valid config file.
Output is byte-deterministic: floats are printed with 17 significant
digits and nothing time- or host-dependent is emitted.

Exit codes: 0 success, 1 failed verification, 2 bad configuration,
3 non-convergence, 4 degenerate point, 5 I/O error.  A zero gap under
``tq_mode`` per-k or global-min leaves the ramp time undefined: a scan
writes those rows as NaN, a trace exits 4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._version import __version__
from .bands import (
    BAND_SCAN_COLUMNS,
    DegeneratePointError,
    band_scan,
    gap_array,
)
from .meanfield import (
    DriveParams,
    MeanFieldConvergenceError,
    SingularParameterError,
    solve_meanfield,
)
from .model import LatticeParams, coeff_arrays
from .oracle import (
    CommensurabilityError,
    _rk4_ramp,
    bloch_grid_energies,
    finite_lattice_spectrum,
)
from .quench import (
    BathParams,
    QuenchSchedule,
    QuenchTimeRule,
    SingularBathError,
    propagator_array,
    quench_scan,
    quench_trace,
    ramp_times,
    thermal_arrays,
)

# perfbench/tracer.py rebinds these names in this module; keep them importable.
from .bands import gap, gap_extrema, hybrid_basis  # noqa: F401
from .quench import magnus_propagator, thermal_populations  # noqa: F401

__all__ = ["ConfigError", "RunConfig", "OutputTable", "parse_config", "run_command", "emit", "main"]

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


def _validate(cfg: RunConfig) -> None:
    """Check the keys that no library parameter type checks.

    QuenchTimeRule checks only the one of tq_scale and tq_value that its
    mode uses, and its messages name neither key, so both are checked here.
    """

    def bad(key: str, why: str) -> ConfigError:
        return ConfigError(f"{key}: {why} (got {getattr(cfg, key)!r})")

    for key in ("tol", "tq_scale", "tq_value"):
        v = getattr(cfg, key)
        if not (math.isfinite(v) and v > 0):
            raise bad(key, "must be positive")
    if not math.isfinite(cfg.kd_over_pi):
        raise bad("kd_over_pi", "must be finite")
    if not (cfg.theta_list and all(map(math.isfinite, cfg.theta_list))):
        raise bad("theta_list", "must be a non-empty list of finite angles")
    if not (0.0 < cfg.damping <= 1.0):
        raise bad("damping", "must lie in (0, 1]")
    for key, least in (
        ("max_iter", 1),
        ("n_k", 2),
        ("n_t", 2),
        ("lattice_N", 2),
        ("rk4_steps", 16),
    ):
        if getattr(cfg, key) < least:
            raise bad(key, f"must be at least {least}")
    if cfg.tq_mode not in ("per-k", "global-min", "fixed"):
        raise bad("tq_mode", "must be per-k, global-min or fixed")
    if cfg.format not in ("csv", "json"):
        raise bad("format", "must be csv or json")


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
    rows: np.ndarray | list[tuple]  # 2-D floats; tuples for verify's string column
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


# Rows per "%" call in emit: one call per block, not one per cell, while
# a block's Python floats and template stay a few hundred kB.
_BLOCK_ROWS = 4096


def _row_blocks(rows: np.ndarray, row: str, sep: str) -> list[str]:
    """Each block of ``rows`` as text: ``row`` per row, joined by ``sep``."""
    blocks = (rows[i : i + _BLOCK_ROWS] for i in range(0, len(rows), _BLOCK_ROWS))
    return [sep.join([row] * len(b)) % tuple(b.ravel().tolist()) for b in blocks]


def emit(table: OutputTable, fmt: str) -> str:
    """Serialize a table to CSV or JSON text, byte-deterministically."""
    numeric = isinstance(table.rows, np.ndarray)
    cells = ",".join(["%.17g"] * len(table.columns))  # as _csv_cell writes a float
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in table.metadata.items()]
        lines.append(",".join(table.columns))
        if numeric:
            lines += _row_blocks(table.rows, cells, "\n")
        else:
            lines += (",".join(map(_csv_cell, row)) for row in table.rows)
        lines.append("")  # the final newline, without copying the text again
        return "\n".join(lines)
    if fmt == "json":
        meta = ",".join(
            f"{json.dumps(k)}:{json.dumps(v)}" for k, v in table.metadata.items()
        )
        cols = ",".join(json.dumps(c) for c in table.columns)
        if numeric:
            # JSON has no nan or inf, and a finite %.17g cell has no letter but e
            rows = ",".join(
                b.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
                for b in _row_blocks(table.rows, f"[{cells}]", ",")
            )
        else:
            rows = ",".join("[" + ",".join(map(_json_cell, r)) + "]" for r in table.rows)
        return "".join(
            ('{"metadata":{', meta, '},"columns":[', cols, '],"rows":[', rows, "]}\n")
        )
    raise ConfigError(f"format: must be csv or json (got {fmt!r})")


# ---------------------------------------------------------------- commands


def _band_table(cfg: RunConfig, first: int) -> OutputTable:
    """``band_scan`` columns from ``first`` on, after kd in units of pi."""
    scan = band_scan(cfg.lattice, cfg.n_k)
    return OutputTable(
        columns=("kd_over_pi", *BAND_SCAN_COLUMNS[first:]),
        rows=np.column_stack((scan[:, 0] / math.pi, scan[:, first:])),
        metadata=_metadata(cfg),
    )


def _cmd_bands(cfg: RunConfig) -> OutputTable:
    return _band_table(cfg, 1)


def _cmd_weights(cfg: RunConfig) -> OutputTable:
    return _band_table(cfg, BAND_SCAN_COLUMNS.index("alpha_A"))


def _cmd_gap(cfg: RunConfig) -> OutputTable:
    kds = np.linspace(-math.pi, math.pi, cfg.n_k)
    phases = [replace(cfg.lattice, theta=theta) for theta in cfg.theta_list]
    theta = np.repeat([p.theta for p in phases], cfg.n_k)
    kd_over_pi = np.tile(kds / math.pi, len(phases))
    gaps = np.concatenate([gap_array(p, kds) for p in phases])
    return OutputTable(
        columns=("theta", "kd_over_pi", "gap"),
        rows=np.column_stack((theta, kd_over_pi, gaps)),
        metadata=_metadata(cfg),
    )


def _cmd_meanfield(cfg: RunConfig) -> OutputTable:
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
    return OutputTable(
        columns=tuple(row), rows=np.array([list(row.values())]), metadata=_metadata(cfg)
    )


def _cmd_thermal(cfg: RunConfig) -> OutputTable:
    scan = band_scan(cfg.lattice, cfg.n_k)
    alpha_A = scan[:, BAND_SCAN_COLUMNS.index("alpha_A")]  # NaN if degenerate
    N_th_A, N_th_B = thermal_arrays(alpha_A, cfg.bath)
    return OutputTable(
        columns=("kd_over_pi", "alpha_A", "N_th_A", "N_th_B"),
        rows=np.column_stack((scan[:, 0] / math.pi, alpha_A, N_th_A, N_th_B)),
        metadata=_metadata(cfg),
    )


def _record_columns(records: list, *names: str) -> np.ndarray:
    # one list per column: an array from one tuple per row peaks higher
    return np.column_stack([[getattr(r, n) for r in records] for n in names])


def _cmd_quench_trace(cfg: RunConfig) -> OutputTable:
    p = cfg.lattice
    kd = cfg.kd_over_pi * math.pi
    t_q = float(ramp_times(p, cfg.time_rule, kd))
    if math.isnan(t_q):
        raise DegeneratePointError(
            f"gap vanishes (kd={kd!r}); no finite ramp time under tq_mode={cfg.tq_mode}"
        )
    records = quench_trace(
        p, kd, QuenchSchedule(g0=p.g, t_q=t_q), n_t=cfg.n_t, bath=cfg.bath
    )
    rows = _record_columns(records, "t", "N_A", "N_B", "Nq_A", "Nq_B")
    rows[:, 0] /= t_q
    return OutputTable(
        columns=("t_over_tq", "N_A", "N_B", "Nq_A", "Nq_B"),
        rows=rows,
        metadata=_metadata(cfg),
    )


def _cmd_quench_scan(cfg: RunConfig) -> OutputTable:
    records = quench_scan(
        cfg.lattice, cfg.time_rule, n_k=cfg.n_k, bath=cfg.bath
    )
    rows = _record_columns(records, "kd", "Nq_A", "Nq_B")
    rows[:, 0] /= math.pi
    return OutputTable(
        columns=("kd_over_pi", "Nq_A", "Nq_B"), rows=rows, metadata=_metadata(cfg)
    )


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

    def ok(flag: bool) -> int:
        return 1 if flag else 0

    return [
        ("magnus_vs_rk4", max_dev, 1e-6, ok(max_dev <= 1e-6)),
        ("propagator_unitarity", max_unit, 1e-12, ok(max_unit <= 1e-12)),
        ("rk4_order_ratio", ratio, 16.0, ok(12.0 <= ratio <= 20.0)),
        ("lattice_vs_bloch", lat_dev, 1e-10, ok(lat_dev <= 1e-10)),
        ("meanfield_residual", mf_res, 1e-9, ok(mf_res <= 1e-9)),
    ]


def _cmd_verify(cfg: RunConfig) -> OutputTable:
    return OutputTable(
        columns=("check", "value", "threshold", "passed"),
        rows=_verify_checks(cfg),
        metadata=_metadata(cfg),
    )


_RUNNERS = {
    "bands": _cmd_bands,
    "weights": _cmd_weights,
    "gap": _cmd_gap,
    "meanfield": _cmd_meanfield,
    "thermal": _cmd_thermal,
    "quench-trace": _cmd_quench_trace,
    "quench-scan": _cmd_quench_scan,
    "verify": _cmd_verify,
}


def run_command(cfg: RunConfig, command: str) -> OutputTable:
    """Produce the output table for one subcommand (no I/O)."""
    try:
        runner = _RUNNERS[command]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}") from None
    return runner(cfg)


# ---------------------------------------------------------------- driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omband",
        description="Band structure and ramp dynamics of a phase-driven "
        "optomechanical ring.",
    )
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", metavar="FILE", help="flat key = value file")
    for key in (*_KINDS, *_ALIASES):
        parser.add_argument(f"--{key}", metavar="V", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_text = None
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    file_text = fh.read()
            except OSError as exc:
                print(f"omband: cannot read config: {exc}", file=sys.stderr)
                return 5
        flags = {
            key: getattr(args, key)
            for key in (*_KINDS, *_ALIASES)
            if getattr(args, key) is not None
        }
        cfg = parse_config(file_text, flags)

        if cfg.verify and args.command != "verify":
            failures = [c for c in _verify_checks(cfg) if not c[3]]
            if failures:
                for name, value, threshold, _ in failures:
                    print(
                        f"omband: verify failed: {name} = {value:.3e} "
                        f"(threshold {threshold:g})",
                        file=sys.stderr,
                    )
                return 1
            print("omband: verify passed", file=sys.stderr)

        table = run_command(cfg, args.command)
        text = emit(table, cfg.format)
        if cfg.out == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"omband: cannot write output: {exc}", file=sys.stderr)
                return 5
        if args.command == "verify" and any(not row[3] for row in table.rows):
            return 1
        return 0
    except ConfigError as exc:
        print(f"omband: config error: {exc}", file=sys.stderr)
        return 2
    except MeanFieldConvergenceError as exc:
        print(f"omband: did not converge: {exc}", file=sys.stderr)
        return 3
    except DegeneratePointError as exc:
        print(f"omband: degenerate point: {exc}", file=sys.stderr)
        return 4
    except (CommensurabilityError, SingularBathError, SingularParameterError) as exc:
        print(f"omband: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
