"""Hybridized band structure of the two-mode Bloch problem.

Diagonalizing the real symmetric block ``H(kd)`` gives two bands

    omega_pm(kd) = (Omega - xi)/2 +- r,      r = sqrt(g^2 + delta^2),

with ``delta = (Omega + xi)/2``.  The direct gap is ``2 r``, minimal
where the detuning-like quantity ``delta`` crosses zero (an avoided
crossing of width ``2|g|``).  The orthogonal eigenbasis

    A_k = u_A a_k + v_A b_k   (band omega_plus)
    B_k = u_B a_k + v_B b_k   (band omega_minus)

mixes photon (``a``) and phonon (``b``) amplitudes; ``alpha_X = u_X^2``
and ``beta_X = v_X^2`` are the photon and phonon weights of mode X.
Closed forms are used throughout -- the amplitudes are written so that
no catastrophic cancellation occurs for small ``g`` on either side of
the crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LatticeParams, coeff_arrays, reduced_coeffs

__all__ = [
    "DegeneratePointError",
    "HybridBasis",
    "GapExtremum",
    "band_energies",
    "gap",
    "gap_array",
    "basis_arrays",
    "hybrid_basis",
    "band_scan",
    "gap_extrema",
    "BAND_SCAN_COLUMNS",
]


class DegeneratePointError(ValueError):
    """The two bands touch (g = 0 and delta = 0): no preferred eigenbasis."""

    @classmethod
    def at(cls, kd: float) -> DegeneratePointError:
        return cls(f"bands are degenerate at kd={kd!r} (g = 0 and delta = 0)")


@dataclass(frozen=True)
class HybridBasis:
    """Eigen-decomposition of one Bloch block.

    ``omega_plus``/``omega_minus`` are the band energies, ``(u_X, v_X)``
    the real orthonormal eigenvector amplitudes, and ``alpha_X``,
    ``beta_X = 1 - alpha_X`` the photon/phonon weights.
    """

    omega_plus: float
    omega_minus: float
    u_A: float
    v_A: float
    u_B: float
    v_B: float
    alpha_A: float
    beta_A: float
    alpha_B: float
    beta_B: float

    @property
    def R(self) -> np.ndarray:
        """Rotation with rows (u_A, v_A), (u_B, v_B); R H R^T is diagonal."""
        return np.array([[self.u_A, self.v_A], [self.u_B, self.v_B]])


@dataclass(frozen=True)
class GapExtremum:
    """Local extremum of the direct gap.

    ``kind`` is ``"minimum"`` or ``"maximum"``; a completely flat gap is
    reported as a single record with ``kind=None`` and ``kd=nan``.
    """

    kd: float
    value: float
    kind: str | None


def gap_array(p: LatticeParams, kd: np.ndarray) -> np.ndarray:
    """Direct gap ``2 sqrt(g^2 + delta^2)`` elementwise over ``kd``."""
    return 2.0 * np.hypot(p.g, coeff_arrays(p, kd)[2])


def basis_arrays(g: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Half-splitting and eigenvector amplitudes, elementwise over ``g, delta``.

    Returns ``(r, u_A, v_A, u_B, v_B)`` with ``r = sqrt(g^2 + delta^2)``.
    The amplitudes are evaluated from whichever of the two algebraically
    equivalent forms of ``delta +- r`` is addition of same-sign
    quantities, so the weights stay accurate down to ``alpha ~ eps``
    instead of losing half the digits near the band edges.  ``g = 0`` is
    the exact decoupled limit; where also ``delta = 0`` (degenerate
    bands) the amplitudes are NaN.
    """
    shape = np.broadcast_shapes(np.shape(g), np.shape(delta))
    g, d = np.broadcast_arrays(np.atleast_1d(g), np.atleast_1d(delta))
    r = np.hypot(g, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = np.where(d >= 0.0, d + r, (g * g) / (r - d))  # = delta + r
        dm = np.where(d <= 0.0, d - r, -(g * g) / (r + d))  # = delta - r
        n_plus = np.hypot(g, dp)
        n_minus = np.hypot(g, dm)
        amps = [-g / n_plus, dp / n_plus, -g / n_minus, dm / n_minus]
    decoupled = g == 0.0
    if decoupled.any():  # the upper band is whichever bare mode lies higher
        up = d[decoupled] > 0.0
        for a, hi, lo in zip(amps, (0.0, 1.0, -1.0, 0.0), (-1.0, 0.0, 0.0, -1.0)):
            a[decoupled] = np.where(up, hi, lo)
            a[r == 0.0] = math.nan
    return tuple(x.reshape(shape) for x in (r, *amps))


def band_energies(p: LatticeParams, kd: float) -> tuple[float, float]:
    """Return ``(omega_plus, omega_minus)`` at quasimomentum ``kd``."""
    rc = reduced_coeffs(p, kd)
    mid = 0.5 * (rc.Omega - rc.xi)
    r = float(np.hypot(p.g, rc.delta))
    return mid + r, mid - r


def gap(p: LatticeParams, kd: float) -> float:
    """Direct gap ``omega_plus - omega_minus = 2 sqrt(g^2 + delta^2)``."""
    return 2.0 * float(np.hypot(p.g, reduced_coeffs(p, kd).delta))


def hybrid_basis(p: LatticeParams, kd: float) -> HybridBasis:
    """Diagonalize the Bloch block at ``kd`` (see :func:`basis_arrays`).

    Raises :class:`DegeneratePointError` when ``g = 0`` and
    ``delta = 0`` simultaneously.
    """
    rc = reduced_coeffs(p, kd)
    r, u_A, v_A, u_B, v_B = (float(x) for x in basis_arrays(p.g, rc.delta))
    if r == 0.0:
        raise DegeneratePointError.at(kd)
    mid = 0.5 * (rc.Omega - rc.xi)
    amps = (u_A, v_A, u_B, v_B)
    return HybridBasis(mid + r, mid - r, *amps, *(a * a for a in amps))


BAND_SCAN_COLUMNS = (
    "kd",
    "omega_plus",
    "omega_minus",
    "gap",
    "alpha_A",
    "beta_A",
    "alpha_B",
    "beta_B",
)


def band_scan(p: LatticeParams, n_k: int = 512) -> np.ndarray:
    """Tabulate bands and weights on an inclusive grid over [-pi, pi].

    Returns an ``(n_k, 8)`` array with columns :data:`BAND_SCAN_COLUMNS`
    in ascending ``kd``.  At an exactly degenerate point the four weight
    columns are NaN (the energies and the zero gap are still recorded).
    """
    if n_k < 2:
        raise ValueError(f"n_k must be at least 2, got {n_k}")
    kds = np.linspace(-math.pi, math.pi, n_k)
    Omega, xi, delta = coeff_arrays(p, kds)
    mid = 0.5 * (Omega - xi)
    r, *amps = basis_arrays(p.g, delta)
    wp, wm = mid + r, mid - r
    return np.column_stack([kds, wp, wm, wp - wm, *(a * a for a in amps)])


_INVPHI = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_min(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum of a unimodal f on [a, b] to width tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _fold_half_open(kd: float) -> float:
    r = math.remainder(kd, 2.0 * math.pi)
    if r >= math.pi:
        r -= 2.0 * math.pi
    return r


def gap_extrema(
    p: LatticeParams, n_k_coarse: int = 1024, refine_tol: float = 1e-6
) -> list[GapExtremum]:
    """Locate all local extrema of the gap over one Brillouin zone.

    A coarse scan on ``n_k_coarse`` points marks sign changes of the
    discrete slope; each bracket is then refined by golden-section
    search to a ``kd`` resolution of ``refine_tol``.  Since the gap
    profile is ``2 sqrt(g^2 + (c0 + A cos(kd + phi0))^2)`` there are at
    most two minima and two maxima; a flat profile (A = 0) yields the
    degenerate single record described in :class:`GapExtremum`.
    """
    if n_k_coarse < 64:
        raise ValueError(f"n_k_coarse must be at least 64, got {n_k_coarse}")
    h = 2.0 * math.pi / n_k_coarse
    xs = -math.pi + h * np.arange(n_k_coarse)
    vals = gap_array(p, xs)
    vmax = float(vals.max())
    vmin = float(vals.min())
    if vmax - vmin <= 1e-13 * max(1.0, abs(vmax)):
        return [GapExtremum(kd=math.nan, value=float(vals[0]), kind=None)]

    def f(x: float) -> float:
        return gap(p, x)

    found: list[GapExtremum] = []
    left, right = np.roll(vals, 1), np.roll(vals, -1)  # periodic neighbours
    for kind, sign, marked in (
        ("minimum", 1.0, (vals < left) & (vals <= right)),
        ("maximum", -1.0, (vals > left) & (vals >= right)),
    ):
        for x in xs[marked]:
            loc = _golden_min(lambda y: sign * f(y), x - h, x + h, refine_tol)
            found.append(GapExtremum(kd=_fold_half_open(loc), value=f(loc), kind=kind))
    found.sort(key=lambda e: e.kd)
    return found
