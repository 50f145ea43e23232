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
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

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

COMMANDS = (
    "bands",
    "weights",
    "gap",
    "meanfield",
    "thermal",
    "quench-trace",
    "quench-scan",
    "verify",
)

# key -> (kind, default).  Order fixed: it is the metadata emission order.
# kinds: float | angle (pi token allowed) | angles (comma list) | int | str | bool
_SCHEMA: dict[str, tuple[str, object]] = {
    "omega_m": ("float", 4.3),
    "Delta": ("float", -4.3),
    "J": ("float", 0.5),
    "K": ("float", 0.2),
    "g": ("float", 0.1),
    "theta": ("angle", 0.0),
    "kappa": ("float", 0.1),
    "Gamma": ("float", 0.001),
    "n_th": ("float", 100.0),
    "Omega_d": ("float", 1.0),
    "G": ("float", 0.001),
    "tol": ("float", 1e-12),
    "max_iter": ("int", 10000),
    "damping": ("float", 0.5),
    "n_k": ("int", 512),
    "n_t": ("int", 512),
    "kd_over_pi": ("float", 0.48),
    "tq_mode": ("str", "per-k"),
    "tq_scale": ("float", 1e-4),
    "tq_value": ("float", 1.0),
    "theta_list": ("angles", (0.0, 0.25 * math.pi, 0.5 * math.pi, math.pi)),
    "rk4_steps": ("int", 1024),
    "lattice_N": ("int", 8),
    "lattice_m": ("int", 1),
    "format": ("str", "csv"),
    "out": ("str", "-"),
    "verify": ("bool", False),
}

_ALIASES = {"gamma_m": "Gamma"}


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
    if kind == "angle":
        return _parse_pi_float(key, txt)
    if kind == "angles":
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
    omega_m: float
    Delta: float
    J: float
    K: float
    g: float
    theta: float
    kappa: float
    Gamma: float
    n_th: float
    Omega_d: float
    G: float
    tol: float
    max_iter: int
    damping: float
    n_k: int
    n_t: int
    kd_over_pi: float
    tq_mode: str
    tq_scale: float
    tq_value: float
    theta_list: tuple[float, ...]
    rk4_steps: int
    lattice_N: int
    lattice_m: int
    format: str
    out: str
    verify: bool

    def lattice_params(self, theta: float | None = None) -> LatticeParams:
        try:
            return LatticeParams(
                omega_m=self.omega_m,
                Delta=self.Delta,
                J=self.J,
                K=self.K,
                g=self.g,
                theta=self.theta if theta is None else theta,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def bath(self) -> BathParams:
        try:
            return BathParams(kappa=self.kappa, Gamma=self.Gamma, n_th=self.n_th)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def drive(self) -> DriveParams:
        try:
            return DriveParams(
                lattice=self.lattice_params(),
                Omega_d=self.Omega_d,
                G=self.G,
                kappa=self.kappa,
                gamma_m=self.Gamma,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def time_rule(self) -> QuenchTimeRule:
        try:
            return QuenchTimeRule(
                mode=self.tq_mode,
                scale=self.tq_scale,
                t_q=self.tq_value if self.tq_mode == "fixed" else None,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
        known = key in _SCHEMA or key in _ALIASES
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
        kind = _SCHEMA[key][0]
        values[key] = _parse_value(key, kind, text)


def _validate(values: dict[str, object]) -> None:
    def bad(key: str, why: str) -> ConfigError:
        return ConfigError(f"{key}: {why} (got {values[key]!r})")

    for key in ("omega_m", "tol", "tq_scale", "tq_value"):
        v = values[key]
        if not (isinstance(v, float) and math.isfinite(v) and v > 0):
            raise bad(key, "must be positive")
    for key in ("J", "K", "n_th", "kappa", "Gamma", "Omega_d", "G"):
        v = values[key]
        if not (isinstance(v, float) and math.isfinite(v) and v >= 0):
            raise bad(key, "must be non-negative")
    for key in ("Delta", "g", "theta", "kd_over_pi"):
        if not math.isfinite(values[key]):  # type: ignore[arg-type]
            raise bad(key, "must be finite")
    if values["kappa"] + values["Gamma"] <= 0:  # type: ignore[operator]
        raise bad("kappa", "kappa + Gamma must be positive")
    if not (0.0 < values["damping"] <= 1.0):  # type: ignore[operator]
        raise bad("damping", "must lie in (0, 1]")
    if values["max_iter"] < 1:  # type: ignore[operator]
        raise bad("max_iter", "must be at least 1")
    for key, least in (
        ("n_k", 2),
        ("n_t", 2),
        ("lattice_N", 2),
        ("rk4_steps", 16),
    ):
        if values[key] < least:  # type: ignore[operator]
            raise bad(key, f"must be at least {least}")
    if values["tq_mode"] not in ("per-k", "global-min", "fixed"):
        raise bad("tq_mode", "must be per-k, global-min or fixed")
    if values["format"] not in ("csv", "json"):
        raise bad("format", "must be csv or json")
    if not values["theta_list"]:
        raise bad("theta_list", "must not be empty")


def parse_config(
    file_text: str | None = None, flags: dict[str, str] | None = None
) -> RunConfig:
    """Resolve defaults, config-file text, and flag strings into a RunConfig."""
    values: dict[str, object] = {k: spec[1] for k, spec in _SCHEMA.items()}
    if file_text is not None:
        _apply_source(values, _read_assignments("config", file_text), "config")
    if flags:
        unknown = [k for k in flags if k not in _SCHEMA and k not in _ALIASES]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r}")
        _apply_source(values, dict(flags), "flags")
    _validate(values)
    cfg = RunConfig(**values)  # type: ignore[arg-type]
    cfg.lattice_params()  # surface parameter problems as ConfigError now
    # store the folded angle so metadata and round-trips are canonical
    return replace(cfg, theta=cfg.lattice_params().theta)


# ---------------------------------------------------------------- output


@dataclass(frozen=True)
class OutputTable:
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _meta_value(key: str, value: object) -> str:
    kind = _SCHEMA[key][0]
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int":
        return str(value)
    if kind in ("float", "angle"):
        return _fmt_float(value)  # type: ignore[arg-type]
    if kind == "angles":
        return ",".join(_fmt_float(v) for v in value)  # type: ignore[union-attr]
    return str(value)


def _metadata(cfg: RunConfig) -> dict[str, str]:
    # "version" is not a config key: on re-parse the commented line is
    # skipped as an ordinary comment, so round-trips stay exact.
    meta = {"version": __version__}
    meta.update((key, _meta_value(key, getattr(cfg, key))) for key in _SCHEMA)
    return meta


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return str(value)


def _json_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return _fmt_float(x)
    return json.dumps(str(value))


def emit(table: OutputTable, fmt: str) -> str:
    """Serialize a table to CSV or JSON text, byte-deterministically."""
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in table.metadata.items()]
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        meta = ",".join(
            f"{json.dumps(k)}:{json.dumps(v)}" for k, v in table.metadata.items()
        )
        cols = ",".join(json.dumps(c) for c in table.columns)
        rows = ",".join(
            "[" + ",".join(_json_cell(v) for v in row) + "]" for row in table.rows
        )
        return (
            '{"metadata":{' + meta + '},"columns":[' + cols + '],"rows":[' + rows + "]}\n"
        )
    raise ConfigError(f"format: must be csv or json (got {fmt!r})")


# ---------------------------------------------------------------- commands


def _rows(*columns: np.ndarray) -> list[tuple]:
    return list(zip(*(c.tolist() for c in columns)))


def _band_table(cfg: RunConfig, first: int) -> OutputTable:
    """``band_scan`` columns from ``first`` on, after kd in units of pi."""
    scan = band_scan(cfg.lattice_params(), cfg.n_k)
    return OutputTable(
        columns=("kd_over_pi", *BAND_SCAN_COLUMNS[first:]),
        rows=_rows(scan[:, 0] / math.pi, *scan[:, first:].T),
        metadata=_metadata(cfg),
    )


def _cmd_bands(cfg: RunConfig) -> OutputTable:
    return _band_table(cfg, 1)


def _cmd_weights(cfg: RunConfig) -> OutputTable:
    return _band_table(cfg, BAND_SCAN_COLUMNS.index("alpha_A"))


def _cmd_gap(cfg: RunConfig) -> OutputTable:
    kds = np.linspace(-math.pi, math.pi, cfg.n_k)
    kd_over_pi = (kds / math.pi).tolist()
    rows: list[tuple] = []
    for theta in cfg.theta_list:
        p = cfg.lattice_params(theta=theta)
        rows += zip(itertools.repeat(p.theta), kd_over_pi, gap_array(p, kds).tolist())
    return OutputTable(
        columns=("theta", "kd_over_pi", "gap"), rows=rows, metadata=_metadata(cfg)
    )


def _cmd_meanfield(cfg: RunConfig) -> OutputTable:
    sol = solve_meanfield(
        cfg.drive(), tol=cfg.tol, max_iter=cfg.max_iter, damping=cfg.damping
    )
    row = (
        sol.alpha.real,
        sol.alpha.imag,
        sol.beta.real,
        sol.beta.imag,
        sol.g_enhanced,
        sol.iterations,
        sol.residual,
    )
    return OutputTable(
        columns=(
            "alpha_re",
            "alpha_im",
            "beta_re",
            "beta_im",
            "g_enhanced",
            "iterations",
            "residual",
        ),
        rows=[row],
        metadata=_metadata(cfg),
    )


def _cmd_thermal(cfg: RunConfig) -> OutputTable:
    scan = band_scan(cfg.lattice_params(), cfg.n_k)
    alpha_A = scan[:, BAND_SCAN_COLUMNS.index("alpha_A")]  # NaN if degenerate
    N_th_A, N_th_B = thermal_arrays(alpha_A, cfg.bath())
    return OutputTable(
        columns=("kd_over_pi", "alpha_A", "N_th_A", "N_th_B"),
        rows=_rows(scan[:, 0] / math.pi, alpha_A, N_th_A, N_th_B),
        metadata=_metadata(cfg),
    )


def _cmd_quench_trace(cfg: RunConfig) -> OutputTable:
    p = cfg.lattice_params()
    kd = cfg.kd_over_pi * math.pi
    t_q = float(ramp_times(p, cfg.time_rule(), kd))
    if math.isnan(t_q):
        raise DegeneratePointError(
            f"gap vanishes (kd={kd!r}); no finite ramp time under tq_mode={cfg.tq_mode}"
        )
    records = quench_trace(
        p, kd, QuenchSchedule(g0=p.g, t_q=t_q), n_t=cfg.n_t, bath=cfg.bath()
    )
    rows = [(r.t / t_q, r.N_A, r.N_B, r.Nq_A, r.Nq_B) for r in records]
    return OutputTable(
        columns=("t_over_tq", "N_A", "N_B", "Nq_A", "Nq_B"),
        rows=rows,
        metadata=_metadata(cfg),
    )


def _cmd_quench_scan(cfg: RunConfig) -> OutputTable:
    records = quench_scan(
        cfg.lattice_params(), cfg.time_rule(), n_k=cfg.n_k, bath=cfg.bath()
    )
    rows = [(r.kd / math.pi, r.Nq_A, r.Nq_B) for r in records]
    return OutputTable(
        columns=("kd_over_pi", "Nq_A", "Nq_B"), rows=rows, metadata=_metadata(cfg)
    )


def _verify_checks(cfg: RunConfig) -> list[tuple[str, float, float, int]]:
    """Five self-consistency checks; all cheap enough to run routinely."""
    p = cfg.lattice_params()
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
            cfg.drive(), tol=cfg.tol, max_iter=cfg.max_iter, damping=cfg.damping
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
    rows = [tuple(check) for check in _verify_checks(cfg)]
    return OutputTable(
        columns=("check", "value", "threshold", "passed"),
        rows=rows,
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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE", help="flat key = value file")
    for key in _SCHEMA:
        parser.add_argument(f"--{key}", metavar="V", default=None)
    for alias in _ALIASES:
        parser.add_argument(f"--{alias}", metavar="V", default=None)
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
            for key in (*_SCHEMA, *_ALIASES)
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
