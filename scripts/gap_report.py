#!/usr/bin/env python3
"""Print where the direct gap closes down and opens up as theta turns."""

import argparse
import math
from dataclasses import replace

from omband import LatticeParams, gap_extrema


def report(label: str, base: LatticeParams, thetas) -> None:
    print(f"\n{label}: J={base.J}, K={base.K}, g={base.g}")
    print(f"{'theta/pi':>9}  {'kind':<8} {'kd/pi':>8}  {'gap':>10}")
    for theta in thetas:
        for e in gap_extrema(replace(base, theta=theta)):
            kd = "flat" if e.kd != e.kd else f"{e.kd / math.pi:8.4f}"
            print(f"{theta / math.pi:9.3f}  {e.kind or 'flat':<8} {kd:>8}  {e.value:10.6f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--thetas", default="0,0.25,0.5,0.8,1",
        help="comma-separated values of theta in units of pi",
    )
    args = ap.parse_args()
    thetas = [float(s) * math.pi for s in args.thetas.split(",")]

    report("wide bands", LatticeParams(), thetas)
    report(
        "narrow bands",
        LatticeParams(omega_m=4.3, Delta=-4.3, J=0.043, K=0.0013, g=0.086),
        thetas,
    )


if __name__ == "__main__":
    main()
