"""Brute-force cross-checks for the closed-form results.

Two deliberately independent routes are kept here:

* a classic fixed-step RK4 integration of the interaction-picture
  Schrodinger equation ``i dU/dt = V_I(t) U`` with
  ``V_I = [[0, -g(t) e^{-2 i delta t}], [-g(t) e^{+2 i delta t}, 0]]``,
  used to validate the Magnus propagator;

* the full ``2N x 2N`` real-space ring Hamiltonian at a commensurate
  drive phase ``theta = 2 pi m / N``, diagonalized by a hand-rolled
  cyclic Jacobi sweep, whose spectrum must reproduce the two Bloch
  bands sampled on ``kd_j = 2 pi j / N``.

Neither route shares code with the closed forms they check, and both
stay that way on purpose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bands import band_energies
from .model import LatticeParams, reduced_coeffs
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
# step loop; a block holds 3 * _RK4_BLOCK coefficients per trajectory.
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
    """
    d = np.asarray(deltas, dtype=float)
    T = np.asarray(t_finals, dtype=float)
    m = d.shape[0]
    U = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    h = 1.0 / n_steps

    for first in range(0, n_steps, _RK4_BLOCK):
        # stage fractions f0, f0 + h/2, f0 + h of each step in the block
        steps = range(first, min(first + _RK4_BLOCK, n_steps))
        fracs = [f for s in steps for f in (s * h, s * h + 0.5 * h, s * h + h)]
        g = np.array([g_of_frac(f) for f in fracs])[:, None, None]
        ph = np.exp(-2j * d * (np.array(fracs)[:, None] * T))  # e^{-2 i delta t}
        # -i T * (V U): V has -g*ph on (0,1) and -g*conj(ph) on (1,0), so
        # row 0 of the derivative comes from row 1 of U and row 1 from row 0
        coef = 1j * T[:, None] * g * np.stack((ph, np.conj(ph)), axis=-1)
        for c0, c_half, c1 in coef.reshape(len(fracs) // 3, 3, m, 2, 1):
            k1 = c0 * U[:, ::-1]
            k2 = c_half * (U + 0.5 * h * k1)[:, ::-1]
            k3 = c_half * (U + 0.5 * h * k2)[:, ::-1]
            k4 = c1 * (U + h * k3)[:, ::-1]
            U = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return U


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
    if n_steps < 16:
        raise ValueError(f"n_steps must be at least 16, got {n_steps}")
    rc = reduced_coeffs(p, kd)

    if g_const is None:
        def g_of_frac(frac: float) -> float:
            return s.g0 * (1.0 - 2.0 * frac)
    else:
        def g_of_frac(frac: float) -> float:
            return g_const

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


def _jacobi_eigvalsh(
    H: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi sweeps.

    Each pivot strips the phase off A[i,j], applies the classic
    symmetric rotation, and forces the annihilated pair to exact zero.
    Stops when the off-diagonal Frobenius mass drops below ``tol``
    relative to the matrix norm.
    """
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if np.max(np.abs(A - A.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(A))):
        raise ValueError("matrix must be Hermitian")
    norm = max(float(np.linalg.norm(A)), np.finfo(float).tiny)

    for _ in range(max_sweeps):
        off = math.sqrt(
            max(float(np.sum(np.abs(A) ** 2) - np.sum(np.abs(np.diag(A)) ** 2)), 0.0)
        )
        if off <= tol * norm:
            return np.sort(np.real(np.diag(A)))
        for i in range(n - 1):
            for j in range(i + 1, n):
                b = A[i, j]
                ab = abs(b)
                if ab == 0.0:
                    continue
                phase = b / ab  # e^{i phi}
                tau = (A[j, j].real - A[i, i].real) / (2.0 * ab)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- V^dag A V with V = diag(1, e^{-i phi}) . rotation(c, s)
                col_i = A[:, i].copy()
                col_j = A[:, j].copy()
                A[:, i] = c * col_i - s * np.conj(phase) * col_j
                A[:, j] = s * col_i + c * np.conj(phase) * col_j
                row_i = A[i, :].copy()
                row_j = A[j, :].copy()
                A[i, :] = c * row_i - s * phase * row_j
                A[j, :] = s * row_i + c * phase * row_j
                A[i, j] = 0.0
                A[j, i] = 0.0
                A[i, i] = A[i, i].real
                A[j, j] = A[j, j].real
    raise RuntimeError(f"Jacobi sweep did not converge in {max_sweeps} sweeps")


def finite_lattice_spectrum(p: LatticeParams, N_sites: int, m: int) -> LatticeSpectrum:
    """Spectrum of the N-cell ring at commensurate phase theta = 2 pi m / N.

    Raises :class:`CommensurabilityError` unless ``p.theta`` equals
    ``2 pi m / N_sites`` modulo ``2 pi`` (to 1e-9, leaving room for
    config round-trips); an incommensurate phase cannot close the ring.
    """
    if N_sites < 2:
        raise ValueError(f"N_sites must be at least 2, got {N_sites}")
    target = 2.0 * math.pi * m / N_sites
    if abs(math.remainder(p.theta - target, 2.0 * math.pi)) > 1e-9:
        raise CommensurabilityError(
            f"theta={p.theta!r} is not 2*pi*{m}/{N_sites} (mod 2*pi)"
        )
    evals = _jacobi_eigvalsh(_lattice_hamiltonian(p, N_sites))
    return LatticeSpectrum(N_sites=N_sites, theta=p.theta, eigenvalues=evals)


def bloch_grid_energies(p: LatticeParams, N: int) -> np.ndarray:
    """Sorted multiset of both Bloch bands on the commensurate grid."""
    vals: list[float] = []
    for j in range(N):
        wp, wm = band_energies(p, 2.0 * math.pi * j / N)
        vals.extend((wp, wm))
    return np.sort(np.array(vals))
