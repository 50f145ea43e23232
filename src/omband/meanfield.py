"""Classical steady state of the driven ring and the enhanced coupling.

For a translationally invariant drive the coherent amplitudes are the
same on every site up to the imprinted phase, so the mean-field
equations close on a single (alpha, beta) pair:

    alpha = Omega_d / [(Delta + i kappa/2) + 2 J cos(theta) + G (beta + beta*)]
    beta  = G |alpha|^2 / [(omega_m - i gamma_m/2) - 2 K]

The drive-enhanced beam-splitter coupling is g = G |alpha| (taken real;
the phase of alpha is a gauge on the mechanical modes).  The pair is
solved by damped fixed-point iteration; for the weak bare couplings of
interest the map is a strong contraction and converges in a handful of
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import NONNEGATIVE, LatticeParams, check

__all__ = [
    "DriveParams",
    "MeanFieldSolution",
    "MeanFieldConvergenceError",
    "SingularParameterError",
    "solve_meanfield",
]


class MeanFieldConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within max_iter.

    Carries the last iterate so callers can inspect how bad it was.
    """

    def __init__(self, message: str, alpha: complex, beta: complex, residual: float):
        super().__init__(message)
        self.alpha = alpha
        self.beta = beta
        self.residual = residual


class SingularParameterError(ValueError):
    """The mean-field equations have no finite solution to iterate on.

    Either a denominator vanished (only possible for lossless modes), or
    the drive ``Omega_d`` is so strong that |alpha|^2 overflows.
    """


@dataclass(frozen=True)
class DriveParams:
    """Drive amplitude, bare coupling, decay rates, and the ring they act on.

    Rates are rad/ns.  Zero decay rates are admitted (the algebra is
    well defined for a lossless mode as long as no denominator
    vanishes); the thermal-population formulas elsewhere are stricter.
    ``gamma_m`` is the same physical mechanical linewidth that the bath
    parameters call ``Gamma``.
    """

    lattice: LatticeParams = field(default_factory=LatticeParams)
    Omega_d: float = 1.0
    G: float = 0.001
    kappa: float = 0.1
    gamma_m: float = 0.001

    def __post_init__(self) -> None:
        for name in ("Omega_d", "G", "kappa", "gamma_m"):
            check(name, getattr(self, name), NONNEGATIVE)


@dataclass(frozen=True)
class MeanFieldSolution:
    alpha: complex
    beta: complex
    g_enhanced: float
    iterations: int
    residual: float


def solve_meanfield(
    drive: DriveParams,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 0.5,
) -> MeanFieldSolution:
    """Solve the coupled amplitude equations by damped fixed-point iteration.

    Starting from the decoupled solution (beta = 0), each step moves a
    fraction ``damping`` of the way to the re-evaluated right-hand side
    and stops once ``|d alpha| + |d beta| <= tol``.  With ``G = 0`` the
    start is already exact and the loop exits after one iteration.  The
    reported ``residual`` re-substitutes the final pair into both
    defining equations, independently of the iteration path.
    """
    check("tol", tol, (5e-324, math.inf))
    check("damping", damping, (5e-324, 1.0))
    p = drive.lattice
    den_a0 = complex(p.Delta + 0.5j * drive.kappa + 2.0 * p.J * math.cos(p.theta))
    den_b = complex(p.omega_m - 0.5j * drive.gamma_m - 2.0 * p.K)
    if den_a0 == 0:
        raise SingularParameterError("optical denominator vanishes at beta = 0")
    if den_b == 0:
        raise SingularParameterError("mechanical denominator vanishes")

    def intensity(a: complex) -> float:
        try:
            return abs(a) ** 2
        except OverflowError:
            msg = f"Omega_d: |alpha|^2 overflows at Omega_d = {drive.Omega_d!r}"
            raise SingularParameterError(msg) from None

    def rhs(alpha: complex, beta: complex) -> tuple[complex, complex]:
        den_a = den_a0 + drive.G * (beta + beta.conjugate())
        if den_a == 0:
            raise SingularParameterError("optical denominator vanished mid-iteration")
        a = drive.Omega_d / den_a
        b = drive.G * intensity(a) / den_b
        return a, b

    def residual(alpha: complex, beta: complex) -> float:
        a, b = rhs(alpha, beta)
        return abs(alpha - a) + abs(beta - b)

    alpha = drive.Omega_d / den_a0
    beta = drive.G * intensity(alpha) / den_b
    step = math.inf
    for it in range(1, max_iter + 1):
        a_new, b_new = rhs(alpha, beta)
        a_next = alpha + damping * (a_new - alpha)
        b_next = beta + damping * (b_new - beta)
        step = abs(a_next - alpha) + abs(b_next - beta)
        alpha, beta = a_next, b_next
        if step <= tol:
            return MeanFieldSolution(
                alpha=alpha,
                beta=beta,
                g_enhanced=drive.G * abs(alpha),
                iterations=it,
                residual=residual(alpha, beta),
            )
    raise MeanFieldConvergenceError(
        f"no fixed point within {max_iter} iterations (last step {step:.3e})",
        alpha=alpha,
        beta=beta,
        residual=residual(alpha, beta),
    )
