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

import cmath
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import LatticeParams, check, coeff_arrays, reduced_coeffs

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
    "weight_arrays",
    "ZoneRows",
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
    instead of losing half the digits near the band edges.  Where
    ``max(|g|, |delta|) >= 2**511`` both are first scaled by the same exact
    power of two, so one formula covers every finite pair.  ``g = 0`` is
    the exact decoupled limit; where also ``delta = 0`` (degenerate
    bands) the amplitudes are NaN.
    """
    shape = np.broadcast_shapes(np.shape(g), np.shape(delta))
    g, d = np.broadcast_arrays(np.atleast_1d(g), np.atleast_1d(delta))
    # scale by 2**-e so that the larger of |g|, |delta| lies below 2**511 and
    # g * g cannot overflow; e = 0 below that, and the scaling is exact
    e = np.maximum(np.frexp(np.maximum(np.abs(g), np.abs(d)))[1] - 511, 0)
    g, d = np.ldexp(g, -e), np.ldexp(d, -e)
    r = np.hypot(g, d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dp = np.where(d >= 0.0, d + r, (g * g) / (r - d))  # = delta + r
        dm = np.where(d <= 0.0, d - r, -(g * g) / (r + d))  # = delta - r
        n_plus = np.hypot(g, dp)
        n_minus = np.hypot(g, dm)
        amps = [-g / n_plus, dp / n_plus, -g / n_minus, dm / n_minus]
        r = np.ldexp(r, e)  # inf where sqrt(g^2 + delta^2) is past the float range
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
    mid = 0.5 * rc.Omega - 0.5 * rc.xi
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
    mid = 0.5 * rc.Omega - 0.5 * rc.xi
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


def band_scan(p: LatticeParams, n_k: int = 512, *, kd: np.ndarray | None = None) -> np.ndarray:
    """Tabulate bands and weights on an inclusive grid over [-pi, pi].

    Returns an ``(n_k, 8)`` array with columns :data:`BAND_SCAN_COLUMNS`
    in ascending ``kd``.  At an exactly degenerate point the four weight
    columns are NaN (the energies and the zero gap are still recorded).
    Given ``kd``, the rows are those quasimomenta instead of the grid
    (``n_k`` is then unused): each row depends on its own ``kd`` only, so
    a slice of the grid gives the same bytes as the grid's rows.
    """
    if kd is not None:
        kds = np.asarray(kd, dtype=float)
    else:
        check("n_k", n_k, (2, math.inf))
        kds = np.linspace(-math.pi, math.pi, n_k)
    Omega, xi, delta = coeff_arrays(p, kds)
    mid = 0.5 * Omega - 0.5 * xi
    r, *amps = basis_arrays(p.g, delta)
    wp, wm = mid + r, mid - r
    return np.column_stack([kds, wp, wm, wp - wm, *(a * a for a in amps)])


def weight_arrays(p: LatticeParams, kd: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(alpha_A, beta_A, alpha_B, beta_B)`` elementwise over ``kd``.

    The same bits as :func:`band_scan`'s weight columns, without its
    energies and gap, which overflow where the weights do not.
    """
    _, *amps = basis_arrays(p.g, coeff_arrays(p, kd)[2])
    return tuple(a * a for a in amps)


class ZoneRows:
    """The rows of a table over the zone, computed when they are asked for.

    The table runs over :func:`band_scan`'s kd grid once per phase, and
    ``rows_at(phase, kd)`` gives one phase's 2-D float rows at a slice of
    the grid.  ``len()`` is the row count; a slice ``rows[a:b]`` computes
    those rows as one array; iteration yields the rows, computing them a
    block at a time.  Only the grid and the rows asked for are held.
    """

    def __init__(
        self, n_k: int, n_phases: int, rows_at: Callable[[int, np.ndarray], np.ndarray]
    ) -> None:
        self.kd = np.linspace(-math.pi, math.pi, n_k)
        self.n_phases = n_phases
        self.rows_at = rows_at

    def __len__(self) -> int:
        return self.n_phases * len(self.kd)

    def __getitem__(self, rows: slice) -> np.ndarray:
        first, stop, _ = rows.indices(len(self))
        n = len(self.kd)
        return np.concatenate([
            self.rows_at(phase, self.kd[max(first - phase * n, 0) : stop - phase * n])
            for phase in range(first // n, (stop - 1) // n + 1)
        ])

    def __iter__(self) -> Iterator[np.ndarray]:
        for first in range(0, len(self), 4096):
            yield from self[first : first + 4096]


def _fold_half_open(kd: float) -> float:
    r = math.remainder(kd, 2.0 * math.pi)
    if r >= math.pi:
        r -= 2.0 * math.pi
    return r + 0.0  # -0.0 -> 0.0


def gap_extrema(
    p: LatticeParams, n_k_coarse: int = 1024, refine_tol: float = 1e-6
) -> list[GapExtremum]:
    """All local extrema of the gap over one Brillouin zone, in closed form.

    With ``delta(kd) = c0 + A cos(kd + phi)``, ``A e^{i phi} = J e^{i theta} - K``
    and ``c0 = (omega_m + Delta)/2``, the gap ``2 sqrt(g^2 + delta^2)`` has
    an extremum wherever ``delta`` has (``kd = -phi`` and ``pi - phi``).
    If ``|c0| < A`` both are maxima, and the two minima, exactly ``2|g|``,
    sit at the zeros ``kd = +-arccos(-c0/A) - phi``; otherwise the extremum
    of ``delta`` nearer to zero is the one minimum.  A flat profile yields
    the single record described in :class:`GapExtremum`.  Records are
    sorted by ``kd``, folded into [-pi, pi).  ``n_k_coarse`` (at least 64)
    and ``refine_tol`` are not used.
    """
    check("n_k_coarse", n_k_coarse, (64, math.inf))
    c0 = 0.5 * (p.omega_m + p.Delta)
    A, phi = cmath.polar(cmath.rect(p.J, p.theta) - p.K)
    top = 2.0 * math.hypot(p.g, abs(c0) + A)
    if top - 2.0 * math.hypot(p.g, max(abs(c0) - A, 0.0)) <= 1e-13 * max(1.0, top):
        return [GapExtremum(kd=math.nan, value=2.0 * math.hypot(p.g, c0), kind=None)]
    ends = [(-phi, c0 + A), (math.pi - phi, c0 - A)]  # (kd, delta) at delta's extrema
    if abs(c0) < A:
        zero = math.acos(-c0 / A)
        found = [(zero - phi, 0.0, "minimum"), (-zero - phi, 0.0, "minimum")]
        found += [(kd, d, "maximum") for kd, d in ends]
    else:
        near, far = sorted(ends, key=lambda e: abs(e[1]))
        found = [(*near, "minimum"), (*far, "maximum")]
    return sorted(
        (GapExtremum(_fold_half_open(kd), 2.0 * math.hypot(p.g, d), kind) for kd, d, kind in found),
        key=lambda e: e.kd,
    )
