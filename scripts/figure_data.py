#!/usr/bin/env python3
"""Regenerate the standard datasets into an output directory.

Every table is produced through the same code path as the ``omband``
command line, so each file carries its full configuration in the
metadata block and can be reproduced with ``omband <cmd> --config``.
"""

import argparse
import pathlib

from omband.cli import parse_config, run_command, write_table

WIDE = {}  # package defaults: J, K well above g
NARROW = {"J": "0.043", "K": "0.0013", "g": "0.086"}

PHASES = {"theta0": "0", "theta025pi": "0.25pi", "theta05pi": "0.5pi", "thetapi": "pi"}


def write(outdir: pathlib.Path, name: str, command: str, flags: dict, fmt: str) -> None:
    cfg = parse_config(flags={**flags, "format": fmt})
    table = run_command(cfg, command)
    ext = "csv" if fmt == "csv" else "json"
    path = outdir / f"{name}.{ext}"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        write_table(table, fmt, fh)
    print(f"wrote {path} ({len(table.rows)} rows)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="data", help="destination directory")
    ap.add_argument("--format", default="csv", choices=("csv", "json"))
    ap.add_argument("--n_k", default="512")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for label, base in (("wide", WIDE), ("narrow", NARROW)):
        for tag, theta in PHASES.items():
            write(
                outdir,
                f"bands_{label}_{tag}",
                "bands",
                {**base, "theta": theta, "n_k": args.n_k},
                args.format,
            )
            write(
                outdir,
                f"quench_scan_{label}_{tag}",
                "quench-scan",
                {**base, "theta": theta, "n_k": args.n_k},
                args.format,
            )
        write(
            outdir,
            f"gap_profiles_{label}",
            "gap",
            {**base, "theta_list": "0,0.25pi,0.5pi,0.8pi,pi", "n_k": args.n_k},
            args.format,
        )
        write(outdir, f"thermal_{label}", "thermal", {**base, "n_k": args.n_k}, args.format)

    # ramp traces at the reference quasimomentum, both phase settings
    for tag, theta in (("theta0", "0"), ("thetapi", "pi")):
        write(
            outdir,
            f"quench_trace_wide_{tag}",
            "quench-trace",
            {"theta": theta, "kd_over_pi": "0.48"},
            args.format,
        )

    write(outdir, "meanfield_defaults", "meanfield", {}, args.format)


if __name__ == "__main__":
    main()
