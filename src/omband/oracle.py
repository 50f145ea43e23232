"""Brute-force cross-checks for the closed-form results.

Two deliberately independent routes are kept here:

* a classic fixed-step RK4 integration of the interaction-picture
  Schrodinger equation ``i dU/dt = V_I(t) U`` with
  ``V_I = [[0, -g(t) e^{-2 i delta t}], [-g(t) e^{+2 i delta t}, 0]]``,
  used to validate the Magnus propagator;

* the full ``2N x 2N`` real-space ring Hamiltonian at a commensurate
  drive phase ``theta = 2 pi m / N``, diagonalized whole by LAPACK's
  Hermitian eigensolver (``numpy.linalg.eigvalsh``), whose spectrum must
  reproduce the two Bloch bands sampled on ``kd_j = 2 pi j / N``.

Neither route shares code with the closed forms they check, and both
stay that way on purpose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bands import band_scan
from .bands import band_energies  # noqa: F401 -- rebound by perfbench/tracer.py
from .model import LatticeParams, check, reduced_coeffs
from .quench import QuenchSchedule, magnus_propagator

__all__ = [
    "IntegrationReport",
    "LatticeSpectrum",
    "CommensurabilityError",
    "integrate_interaction_picture",
    "finite_lattice_spectrum",
    "bloch_grid_energies",
]


@dataclass(frozen=True)
class IntegrationReport:
    """RK4 result for one full ramp, with its own error diagnostics.

    ``error_estimate`` is the Richardson estimate ``|U_n - U_{n/2}| / 15``
    of the remaining truncation error; ``warning`` is set when that
    estimate exceeds the requested target, i.e. the step count was too
    small.  ``magnus_deviation`` is the max-norm distance to the
    closed-form propagator at ``t = t_q`` (NaN when the coupling was
    overridden, since the closed form assumes the linear ramp).
    """

    U: np.ndarray
    n_steps: int
    error_estimate: float
    unitarity_defect: float
    magnus_deviation: float
    warning: bool


# RK4 steps whose coupling coefficients are computed together, out of the
# step loop; a block holds at most 3 * _RK4_BLOCK coefficients per trajectory.
_RK4_BLOCK = 16


def _rk4_ramp(
    deltas: np.ndarray,
    t_finals: np.ndarray,
    g_of_frac: Callable[[float], float],
    n_steps: int,
) -> np.ndarray:
    """Batched RK4 for dU/dt = -i V_I(t) U over t in [0, t_final].

    Integrates in the scaled variable ``frac = t / t_final`` so a whole
    batch of trajectories with different durations shares one step loop.
    ``g_of_frac`` gives the coupling as a function of the fractional
    ramp position (the linear ramp is duration-independent in ``frac``).
    Returns the propagators with shape ``(len(deltas), 2, 2)``.
    """
    d = np.asarray(deltas, dtype=float)
    T = np.asarray(t_finals, dtype=float)
    m = d.shape[0]
    # U[row, col, trajectory]: the batch axis is last and contiguous, so
    # each step operation is one ufunc call over it, into fixed buffers
    U = np.zeros((2, 2, m), dtype=complex)
    U[0, 0] = U[1, 1] = 1.0
    k1, k2, k3, k4, y = np.empty((5, 2, 2, m), dtype=complex)
    h = 1.0 / n_steps
    # the step's scalar factors, as the complex128 values numpy would make of them
    half_h, full_h, two, sixth_h = np.array([0.5 * h, h, 2.0, h / 6.0], dtype=complex)
    iT = 1j * T

    for first in range(0, n_steps, _RK4_BLOCK):
        # stage fractions f0, f0 + h/2, f0 + h of each step in the block; a
        # step's end is often the same float as the next step's start, so
        # each distinct fraction gets its coefficient once
        stages = [
            (s * h, s * h + 0.5 * h, s * h + h)
            for s in range(first, min(first + _RK4_BLOCK, n_steps))
        ]
        fracs = list(dict.fromkeys(f for stage in stages for f in stage))
        slot = {f: i for i, f in enumerate(fracs)}
        g = np.array([g_of_frac(f) for f in fracs])
        ph = np.exp(-2j * d * (np.array(fracs)[:, None] * T))  # e^{-2 i delta t}
        # -i T * (V U): V has -g*ph on (0,1) and -g*conj(ph) on (1,0), so
        # row 0 of the derivative comes from row 1 of U and row 1 from row 0
        iTg = iT * g[:, None]
        coef = np.empty((len(fracs), 2, 1, m), dtype=complex)
        np.multiply(iTg, ph, out=coef[:, 0, 0])
        np.multiply(iTg, np.conj(ph), out=coef[:, 1, 0])
        for f0, f_half, f1 in stages:
            c_half = coef[slot[f_half]]
            np.multiply(coef[slot[f0]], U[::-1], out=k1)
            np.multiply(half_h, k1, out=y)
            np.multiply(c_half, np.add(U, y, out=y)[::-1], out=k2)
            np.multiply(half_h, k2, out=y)
            np.multiply(c_half, np.add(U, y, out=y)[::-1], out=k3)
            np.multiply(full_h, k3, out=y)
            np.multiply(coef[slot[f1]], np.add(U, y, out=y)[::-1], out=k4)
            # U + (h/6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.add(k1, np.multiply(two, k2, out=y), out=y)
            np.add(y, np.multiply(two, k3, out=k2), out=y)
            np.add(y, k4, out=y)
            np.add(U, np.multiply(sixth_h, y, out=y), out=U)
    return np.ascontiguousarray(U.transpose(2, 0, 1))


def integrate_interaction_picture(
    p: LatticeParams,
    kd: float,
    s: QuenchSchedule,
    n_steps: int = 1024,
    *,
    g_const: float | None = None,
    error_target: float = 1e-8,
) -> IntegrationReport:
    """Integrate the full ramp at one ``kd`` and compare against Magnus.

    ``g_const`` replaces the ramp with a constant coupling (handy for
    analytic Rabi checks); the Magnus comparison is skipped then and
    ``magnus_deviation`` comes back NaN.
    """
    check("n_steps", n_steps, (16, math.inf))
    rc = reduced_coeffs(p, kd)

    def g_of_frac(frac: float) -> float:
        return s.g0 * (1.0 - 2.0 * frac) if g_const is None else g_const

    batch_d = np.array([rc.delta])
    batch_T = np.array([s.t_q])
    U = _rk4_ramp(batch_d, batch_T, g_of_frac, n_steps)[0]
    U_half = _rk4_ramp(batch_d, batch_T, g_of_frac, n_steps // 2)[0]
    if g_const is None:
        S = magnus_propagator(s.g0, rc.delta, s.t_q, s.t_q)
        magnus_dev = float(np.max(np.abs(U - S)))
    else:
        magnus_dev = math.nan
    err = float(np.max(np.abs(U - U_half))) / 15.0
    return IntegrationReport(
        U=U,
        n_steps=n_steps,
        error_estimate=err,
        unitarity_defect=float(np.max(np.abs(U @ U.conj().T - np.eye(2)))),
        magnus_deviation=magnus_dev,
        warning=err > error_target,
    )


class CommensurabilityError(ValueError):
    """p.theta does not match 2 pi m / N, so the ring has no single cell."""


@dataclass(frozen=True)
class LatticeSpectrum:
    """Sorted eigenvalue multiset of the 2N x 2N real-space Hamiltonian."""

    N_sites: int
    theta: float
    eigenvalues: np.ndarray


def _lattice_hamiltonian(p: LatticeParams, N: int) -> np.ndarray:
    """Ring Hamiltonian in the gauge where the coupling column is real.

    Site ordering is (a_0 .. a_{N-1}, b_0 .. b_{N-1}).  Rotating the
    optical modes by e^{-i n theta} moves the drive phase entirely into
    the optical hopping, which becomes -J e^{-i theta} per bond; the
    on-site coupling is then -g on every site.  Periodic wrap included
    (for N = 2 both bonds connect the same pair, hence the +=).
    """
    H = np.zeros((2 * N, 2 * N), dtype=complex)
    hop_a = -p.J * cmath.exp(-1j * p.theta)
    for n in range(N):
        nn = (n + 1) % N
        H[n, n] += -p.Delta
        H[N + n, N + n] += p.omega_m
        H[n, nn] += hop_a
        H[nn, n] += hop_a.conjugate()
        H[N + n, N + nn] += -p.K
        H[N + nn, N + n] += -p.K
        H[n, N + n] += -p.g
        H[N + n, n] += -p.g
    return H


def finite_lattice_spectrum(p: LatticeParams, N_sites: int, m: int) -> LatticeSpectrum:
    """Spectrum of the N-cell ring at commensurate phase theta = 2 pi m / N.

    Raises :class:`CommensurabilityError` unless ``p.theta`` equals
    ``2 pi m / N_sites`` modulo ``2 pi`` (to 1e-9, leaving room for
    config round-trips); an incommensurate phase cannot close the ring.
    """
    check("N_sites", N_sites, (2, math.inf))
    target = 2.0 * math.pi * m / N_sites
    if abs(math.remainder(p.theta - target, 2.0 * math.pi)) > 1e-9:
        raise CommensurabilityError(
            f"theta={p.theta!r} is not 2*pi*{m}/{N_sites} (mod 2*pi)"
        )
    evals = np.linalg.eigvalsh(_lattice_hamiltonian(p, N_sites))  # ascending
    return LatticeSpectrum(N_sites=N_sites, theta=p.theta, eigenvalues=evals)


def bloch_grid_energies(p: LatticeParams, N: int) -> np.ndarray:
    """Sorted multiset of both Bloch bands on the commensurate grid."""
    return np.sort(band_scan(p, kd=2.0 * math.pi * np.arange(N) / N)[:, 1:3], axis=None)
