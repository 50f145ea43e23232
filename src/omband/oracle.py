"""Brute-force cross-checks for the closed-form results.

Two deliberately independent routes are kept here:

* a classic fixed-step RK4 integration of the interaction-picture
  Schrodinger equation ``i dU/dt = V_I(t) U`` with
  ``V_I = [[0, -g(t) e^{-2 i delta t}], [-g(t) e^{+2 i delta t}, 0]]``,
  used to validate the Magnus propagator;

* the full ``2N x 2N`` real-space ring Hamiltonian at a commensurate
  drive phase ``theta = 2 pi m / N``, diagonalized by a hand-rolled
  cyclic Jacobi sweep that visits its pivots in round-robin order,
  whose spectrum must reproduce the two Bloch bands sampled on
  ``kd_j = 2 pi j / N``.

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


def _round_robin(n: int) -> np.ndarray:
    """Index orders of the rounds of one cyclic Jacobi sweep of size n.

    Row r orders ``n + n % 2`` indices so that round r pivots on the
    adjacent pairs ``(order[2p], order[2p + 1])``; for odd n, index n
    stands in for the missing partner.  This is the circle method of a
    round-robin tournament: index 0 stays put and the others rotate one
    place per round, so the pairs of a round are disjoint and the rounds
    of a sweep meet every pair once.
    """
    size = n + n % 2
    ring = np.arange(size)
    orders = np.empty((size - 1, size), dtype=int)
    for order in orders:
        order[0::2], order[1::2] = ring[: size // 2], ring[: size // 2 - 1 : -1]
        ring[1:] = np.roll(ring[1:], 1)
    return orders


def _jacobi_eigvalsh(
    H: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi sweeps.

    Each pivot strips the phase off A[i,j], applies the classic
    symmetric rotation, and forces the annihilated pair to exact zero;
    an exact-zero pivot gets the identity instead.  The pivots are
    visited in round-robin order (Brent & Luk, SIAM J. Sci. Stat.
    Comput. 6, 69 (1985)): a round's pairs are disjoint, so their
    rotations commute and are applied together, with A held in the
    round's order so each pair is adjacent.  Stops when the off-diagonal
    Frobenius mass drops below ``tol`` relative to the matrix norm.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("matrix must be square")
    if np.max(np.abs(H - H.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise ValueError("matrix must be Hermitian")
    norm = max(float(np.linalg.norm(H)), np.finfo(float).tiny)

    # odd n: a zero row and column pad the matrix; it pairs with no one
    orders = _round_robin(n)
    size = orders.shape[1]
    A = np.zeros((size, size), dtype=complex)
    A[:n, :n] = H
    A = A[np.ix_(orders[0], orders[0])]
    swap = np.empty_like(A)
    # A in round r's order -> A in the next round's (the last wraps to the first)
    steps = [np.argsort(o)[q] for o, q in zip(orders, np.roll(orders, -1, axis=0))]
    flat = A.reshape(-1)
    stride = 2 * size + 2
    a_ii, a_ij = flat[::stride], flat[1::stride]
    a_ji, a_jj = flat[size::stride], flat[size + 1 :: stride]

    for _ in range(max_sweeps):
        off = math.sqrt(
            max(float(np.sum(np.abs(A) ** 2) - np.sum(np.abs(np.diag(A)) ** 2)), 0.0)
        )
        if off <= tol * norm:
            return np.sort(np.real(np.diag(A))[orders[0] < n])
        for step in steps:
            ab = np.abs(a_ij)
            dead = ab == 0.0  # exact-zero pivots: t = 0 and phase = 1 below
            ab[dead] = 1.0
            phase = a_ij / ab  # e^{i phi}
            # t = sign(tau) / (|tau| + sqrt(1 + tau^2)) with tau = diff / (2|b|),
            # multiplied through by 2|b| so that nothing can overflow
            diff = a_jj.real - a_ii.real
            two_b = 2.0 * ab
            t = np.where(diff >= 0.0, two_b, -two_b)
            t /= np.abs(diff) + np.hypot(diff, two_b)
            t[dead] = 0.0
            phase[dead] = 1.0
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            # A <- V^dag A V with V = diag(1, e^{-i phi}) . rotation(c, s)
            col_i = A[:, 0::2].copy()
            col_j = A[:, 1::2]
            cq, sq = c * np.conj(phase), s * np.conj(phase)
            np.subtract(c * col_i, sq * col_j, out=A[:, 0::2])
            np.add(s * col_i, cq * col_j, out=col_j)
            row_i = A[0::2].copy()
            row_j = A[1::2]
            cp, sp = (c * phase)[:, None], (s * phase)[:, None]
            np.subtract(c[:, None] * row_i, sp * row_j, out=A[0::2])
            np.add(s[:, None] * row_i, cp * row_j, out=row_j)
            a_ij[:] = a_ji[:] = 0.0
            a_ii.imag = a_jj.imag = 0.0
            np.take(A, step, axis=0, out=swap)
            np.take(swap, step, axis=1, out=A)
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
