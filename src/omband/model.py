"""Bloch-level description of a driven optomechanical ring.

Each unit cell carries one optical mode and one mechanical mode.  The
optical modes hop with amplitude ``J`` and pick up a phase ``theta`` per
bond (imprinted by the drive), the mechanical modes hop with amplitude
``K``, and the drive linearizes the on-site coupling to a beam-splitter
term of strength ``g``.  In the rotating frame the quadratic Hamiltonian
is diagonal in quasimomentum, and for each ``kd`` reduces to a real
symmetric 2x2 block acting on (photon, phonon) amplitudes::

    H(kd) = [[-xi(kd),   -g      ],
             [-g,        Omega(kd)]]

with ``Omega(kd) = omega_m - 2 K cos(kd)`` the mechanical band and
``xi(kd) = Delta + 2 J cos(kd + theta)`` the (sign-flipped) optical band.
All rates are angular frequencies in rad/ns, so a value of 4.3 means
4.3 GHz in ordinary-frequency units times 2*pi/(2*pi) -- i.e. numbers
quoted in GHz are used verbatim.

Quasimomentum ``kd`` is the Bloch phase per cell and lives on
``[-pi, pi]``; all formulas are 2*pi-periodic so out-of-range values are
equivalent to their folded images.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FINITE",
    "NONNEGATIVE",
    "POSITIVE",
    "check",
    "LatticeParams",
    "ReducedCoeffs",
    "reduced_coeffs",
    "coeff_arrays",
    "bloch_hamiltonian",
]

_TWO_PI = 2.0 * math.pi

#: The closed ranges of the finite floats, of those >= 0 and of those > 0.
FINITE = (-sys.float_info.max, sys.float_info.max)
NONNEGATIVE = (0.0, sys.float_info.max)
POSITIVE = (5e-324, sys.float_info.max)


def check(name: str, value: object, accepted: tuple) -> None:
    """Raise ValueError, naming ``name`` and ``accepted``, unless ``value`` is in it.

    ``accepted`` is a closed range ``(least, most)``, which NaN and every
    non-number fail, or a tuple of the allowed words.  The message is
    ``<name>: must lie in [least, most] (got value)``, or ``<name>: must be
    one of ...`` for words.
    """
    if isinstance(accepted[0], str):
        if value not in accepted:
            raise ValueError(f"{name}: must be one of {', '.join(accepted)} (got {value!r})")
        return
    try:
        inside = accepted[0] <= value <= accepted[1]  # type: ignore[operator]
    except TypeError:
        inside = False
    if not inside:
        raise ValueError(f"{name}: must lie in [{accepted[0]!r}, {accepted[1]!r}] (got {value!r})")


def _fold_angle(theta: float) -> float:
    """Map an angle to the canonical interval (-pi, pi]."""
    r = math.remainder(theta, _TWO_PI)
    if r <= -math.pi:  # remainder() returns values in [-pi, pi]
        r += _TWO_PI
    return r


@dataclass(frozen=True)
class LatticeParams:
    """Physical parameters of the ring, all finite and in rad/ns.

    Attributes
    ----------
    omega_m : float
        Mechanical frequency, must be positive.
    Delta : float
        Laser detuning from the cavity resonance (red detuned is negative).
    J : float
        Photon hopping amplitude, non-negative.
    K : float
        Phonon hopping amplitude, non-negative.
    g : float
        Drive-enhanced optomechanical coupling.  Real; may take either
        sign (a linear ramp through zero flips it).
    theta : float
        Drive phase step per site.  Stored folded into (-pi, pi].
    """

    omega_m: float = 4.3
    Delta: float = -4.3
    J: float = 0.5
    K: float = 0.2
    g: float = 0.1
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name, accepted in (
            ("omega_m", POSITIVE), ("Delta", FINITE), ("J", NONNEGATIVE), ("K", NONNEGATIVE),
            ("g", FINITE), ("theta", FINITE),
        ):
            check(name, getattr(self, name), accepted)
        object.__setattr__(self, "theta", _fold_angle(float(self.theta)))
        # normalize any ints handed in so downstream arithmetic is uniform
        for name in ("omega_m", "Delta", "J", "K", "g"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class ReducedCoeffs:
    """Per-``kd`` coefficients of the 2x2 Bloch block.

    ``Omega`` is the mechanical band, ``xi`` the sign-flipped optical
    band, and ``delta = (Omega + xi) / 2`` the half-sum that controls
    both the hybridization and the phase accumulated during a quench.
    """

    Omega: float
    xi: float
    delta: float


def coeff_arrays(p: LatticeParams, kd: np.ndarray) -> tuple[np.ndarray, ...]:
    """Omega, xi and delta elementwise over an array of quasimomenta ``kd``."""
    kd = np.asarray(kd, dtype=float)
    Omega = p.omega_m - 2.0 * p.K * np.cos(kd)
    xi = p.Delta + 2.0 * p.J * np.cos(kd + p.theta)
    return Omega, xi, 0.5 * Omega + 0.5 * xi  # halved first: Omega + xi may overflow


def reduced_coeffs(p: LatticeParams, kd: float) -> ReducedCoeffs:
    """Evaluate Omega, xi and their half-sum delta at quasimomentum ``kd``."""
    check("kd", kd, FINITE)
    Omega, xi, delta = coeff_arrays(p, float(kd))
    return ReducedCoeffs(Omega=float(Omega), xi=float(xi), delta=float(delta))


def bloch_hamiltonian(p: LatticeParams, kd: float) -> np.ndarray:
    """Real symmetric 2x2 Bloch block at ``kd`` in the (photon, phonon) basis."""
    rc = reduced_coeffs(p, kd)
    return np.array([[-rc.xi, -p.g], [-p.g, rc.Omega]], dtype=float)
