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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeParams",
    "ReducedCoeffs",
    "reduced_coeffs",
    "coeff_arrays",
    "bloch_hamiltonian",
]

_TWO_PI = 2.0 * math.pi


def _fold_angle(theta: float) -> float:
    """Map an angle to the canonical interval (-pi, pi]."""
    r = math.remainder(theta, _TWO_PI)
    if r <= -math.pi:  # remainder() returns values in [-pi, pi]
        r += _TWO_PI
    return r


@dataclass(frozen=True)
class LatticeParams:
    """Physical parameters of the ring, all in rad/ns.

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
        for name in ("omega_m", "Delta", "J", "K", "g", "theta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.omega_m <= 0:
            raise ValueError(f"omega_m must be positive, got {self.omega_m}")
        if self.J < 0:
            raise ValueError(f"J must be non-negative, got {self.J}")
        if self.K < 0:
            raise ValueError(f"K must be non-negative, got {self.K}")
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


def _check_kd(kd: float) -> float:
    kd = float(kd)
    if not math.isfinite(kd):
        raise ValueError(f"kd must be finite, got {kd!r}")
    return kd


def coeff_arrays(p: LatticeParams, kd: np.ndarray) -> tuple[np.ndarray, ...]:
    """Omega, xi and delta elementwise over an array of quasimomenta ``kd``."""
    kd = np.asarray(kd, dtype=float)
    Omega = p.omega_m - 2.0 * p.K * np.cos(kd)
    xi = p.Delta + 2.0 * p.J * np.cos(kd + p.theta)
    return Omega, xi, 0.5 * (Omega + xi)


def reduced_coeffs(p: LatticeParams, kd: float) -> ReducedCoeffs:
    """Evaluate Omega, xi and their half-sum delta at quasimomentum ``kd``."""
    Omega, xi, delta = coeff_arrays(p, _check_kd(kd))
    return ReducedCoeffs(Omega=float(Omega), xi=float(xi), delta=float(delta))


def bloch_hamiltonian(p: LatticeParams, kd: float) -> np.ndarray:
    """Real symmetric 2x2 Bloch block at ``kd`` in the (photon, phonon) basis."""
    rc = reduced_coeffs(p, kd)
    return np.array([[-rc.xi, -p.g], [-p.g, rc.Omega]], dtype=float)
