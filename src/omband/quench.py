"""Nonadiabatic response to a linear coupling ramp, in closed form.

The drive amplitude is swept so that the beam-splitter coupling crosses
zero linearly, ``g(t) = g0 (1 - 2 t / t_q)`` for ``t in [0, t_q]``.  In
the interaction picture of the decoupled bands the two-mode problem at
fixed ``kd`` has the off-diagonal generator ``-g(t) e^{2 i delta t}``,
and a second-order Magnus expansion gives the propagator

    S(t) = cos(eta) I + i sinc(eta) [[-phi, theta], [theta*, phi]]

with ``eta = sqrt(|theta|^2 + phi^2)`` and

    theta(t) = -Int_0^t g(t') e^{2 i delta t'} dt'
    phi(t)   = Int_0^t dt1 Int_0^{t1} dt2 g(t1) g(t2) sin(2 delta (t1 - t2)).

Both read the ramp only through ``a = g0 t_q``, ``x = delta t_q`` and
``tau = t / t_q``: ``theta = -a Int_0^tau (1 - 2u) e^{2 i x u} du`` and
``phi = a^2 h(x, tau)``.  Both are elementary; the closed forms carry
inverse powers of ``x`` up to ``x^-3`` and lose precision when the
phase ``2 x tau`` that a sample has accumulated is small, so a Taylor
branch in ``2 x tau`` takes over below ``|2 x tau| = 0.5``, sample by
sample (both branches agree to ~1e-12 there).  Each branch is one
function of ``(a, x, tau)`` that returns both integrals; the closed form
takes ``phi``'s cosine and sine from the ``e^{2 i x tau}`` of ``theta``.
No power of ``t_q`` is formed, so what can overflow is ``a * a``, past
``|a|`` of about 1.34e154, and the phase ``2 x`` itself.  One function,
``_magnus_arrays``, evaluates both integrals for every caller, scalar or
array, and where a term passes the float range it returns a non-finite
value without a RuntimeWarning; the callers decide whether to refuse it.

Mapping back out of the interaction picture and into the instantaneous
hybrid basis, ``M = R(g(t)) S(t) R(g0)^T`` propagates mode amplitudes.
Thermally occupied, mutually incoherent initial populations read only
the transfer probability ``P = |M_AB|^2``, which is exact for a unitary
2x2: ``|M|^2`` is then doubly stochastic, so in units of the bath
occupation ``n_th``, with the thermal shares ``s = N_th / n_th``, the net
excitations are ``Nq_A = P (s_B - s_A)`` and ``Nq_B = -Nq_A``, and an
adiabatic sweep yields zero.

Every formula is evaluated elementwise over arrays of ``kd`` (a scan) or
``t`` (a trace); the scalar functions are thin wrappers over the same
array code.  A scan or a trace is one 2-D array with columns
:data:`QUENCH_COLUMNS`; :func:`quench_scan` and :func:`quench_trace` wrap
its rows as :class:`QuenchRecord` lists.  :func:`ramp_times` is the one
rule that turns a :class:`QuenchTimeRule` into ramp durations for both.
Given a slice of its grid, a scan or a trace computes those rows alone,
so a table can be computed a block at a time; ``_scan_may_refuse`` and
``_trace_may_refuse`` tell cheaply whether some row may be refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bands import DegeneratePointError, _zone_bound, basis_arrays, gap_array, gap_extrema
from .bands import gap, hybrid_basis  # noqa: F401 -- rebound by perfbench/tracer.py
from .model import FINITE, NONNEGATIVE, POSITIVE, LatticeParams, check
from .model import coeff_arrays, reduced_coeffs

__all__ = [
    "QuenchSchedule",
    "BathParams",
    "SingularBathError",
    "ThermalPopulations",
    "MagnusTerms",
    "QuenchRecord",
    "QuenchTimeRule",
    "MAGNUS_SERIES_CROSSOVER",
    "QUENCH_COLUMNS",
    "DEFAULT_BATH",
    "coupling_schedule",
    "thermal_populations",
    "thermal_arrays",
    "magnus_theta",
    "magnus_phi",
    "magnus_terms",
    "magnus_propagator",
    "propagator_array",
    "quench_scan_array",
    "quench_trace_array",
    "quench_map",
    "mode_populations",
    "net_excitations",
    "quench_trace",
    "ramp_times",
    "quench_scan",
]

# Propagators are plain complex 2x2 ndarrays (stacked as (..., 2, 2) arrays).

#: Branch point on |2 delta t|: Taylor series below, closed form above.
MAGNUS_SERIES_CROSSOVER = 0.5

_SERIES_TERMS = 26  # |2 delta t| <= 0.5 -> last term < 1e-30 relative

#: Columns of :func:`quench_scan_array` and :func:`quench_trace_array`.
QUENCH_COLUMNS = ("kd", "t", "N_A", "N_B", "Nq_A", "Nq_B")


@dataclass(frozen=True)
class QuenchSchedule:
    """Linear ramp ``g(t) = g0 (1 - 2 t / t_q)`` on ``t in [0, t_q]``."""

    g0: float
    t_q: float

    def __post_init__(self) -> None:
        check("g0", self.g0, FINITE)
        check("t_q", self.t_q, POSITIVE)

    def g(self, t: float) -> float:
        return coupling_schedule(self, t)


def coupling_schedule(s: QuenchSchedule, t: float) -> float:
    """Instantaneous coupling at time ``t`` of the ramp (0 <= t <= t_q)."""
    check("t", t, (0.0, s.t_q))
    return s.g0 * (1.0 - 2.0 * (t / s.t_q))  # 2t overflows at t_q ~ 1e308


class SingularBathError(ValueError):
    """Every decay channel of some hybrid mode has zero rate."""


@dataclass(frozen=True)
class BathParams:
    """Mode linewidths and the mechanical bath occupation (rates in rad/ns).

    Either rate may be zero, but not both: the steady state balances
    heating through the phonon channel against total decay, and a mode
    with no decay channel at all has no steady state.
    """

    kappa: float = 0.1
    Gamma: float = 0.001
    n_th: float = 100.0

    def __post_init__(self) -> None:
        for name in ("kappa", "Gamma", "n_th"):
            check(name, getattr(self, name), NONNEGATIVE)
        if self.kappa + self.Gamma <= 0:
            raise ValueError("kappa: kappa + Gamma must be positive")


#: Documented defaults used for all population figures; fully configurable.
DEFAULT_BATH = BathParams(kappa=0.1, Gamma=0.001, n_th=100.0)


@dataclass(frozen=True)
class ThermalPopulations:
    """Steady-state occupations of the hybrid modes at one ``kd``.

    Each hybrid mode decays through its photon weight (rate ``kappa``)
    and its phonon weight (rate ``Gamma``) but is heated only through
    the phonon channel, so

        N_th_A = beta_A Gamma n_th / (alpha_A kappa + beta_A Gamma)

    and likewise for B with the weights swapped.
    """

    N_th_A: float
    N_th_B: float


def thermal_populations(alpha_A: float, bath: BathParams) -> ThermalPopulations:
    """Occupations of both hybrid modes given the photon weight of mode A.

    Raises :class:`SingularBathError` when a mode's total decay rate
    vanishes (e.g. kappa = 0 for a purely photonic mode), since that
    mode then has no steady state.
    """
    check("alpha_A", alpha_A, (0.0, 1.0))
    return ThermalPopulations(*(float(x) for x in thermal_arrays(alpha_A, bath)))


def thermal_arrays(alpha_A: np.ndarray, bath: BathParams) -> tuple[np.ndarray, ...]:
    """Elementwise :func:`thermal_populations`; a NaN weight gives NaN occupations."""
    alpha_A = np.asarray(alpha_A, dtype=float)
    beta_A = 1.0 - alpha_A
    # mode B has the complementary weights: alpha_B = beta_A
    den_A = alpha_A * bath.kappa + beta_A * bath.Gamma
    den_B = beta_A * bath.kappa + alpha_A * bath.Gamma
    singular = (den_A == 0.0) | (den_B == 0.0)
    if singular.any():
        raise SingularBathError(
            f"total decay rate vanishes (alpha_A={float(alpha_A[singular].flat[0])}, "
            f"kappa={bath.kappa}, Gamma={bath.Gamma})"
        )
    modes = ((beta_A, den_A), (alpha_A, den_B))  # phonon weight and decay rate
    # n_th times the heating share of the decay rate: a ratio of at most 1, so
    # no occupation exceeds n_th, and Gamma * n_th is never formed
    return tuple(bath.n_th * (w * bath.Gamma / den) for w, den in modes)


def _may_be_singular(bath: BathParams) -> bool:
    """Whether some mode may have no steady state: each decays at
    min(kappa, Gamma) / 2 or faster."""
    return 0.5 * min(bath.kappa, bath.Gamma) == 0.0


@dataclass(frozen=True)
class MagnusTerms:
    """First- and second-order Magnus integrals for the ramp.

    ``theta_M`` is the first-order (off-diagonal) term, ``phi_M`` the
    second-order commutator (diagonal) term, ``eta`` the rotation angle
    ``sqrt(|theta_M|^2 + phi_M^2)``.  ``zeta_M`` is the polynomial
    grouping ``t^2/2 - 2 t^3 / (3 t_q)``, that is ``t_q^2`` times the
    ``tau^2/2 - 2 tau^3 / 3`` that enters ``phi_M`` on the closed-form
    branch.
    """

    theta_M: complex
    phi_M: float
    eta: float
    zeta_M: float


def _check_ramp_args(g0: float, delta_half: float, t_q: float, t: float) -> None:
    check("t_q", t_q, POSITIVE)
    check("t", t, (0.0, t_q))
    check("g0", g0, FINITE)
    check("delta_half", delta_half, FINITE)


# Series coefficients in ramp units, each correctly rounded.  With z = 2 i x tau,
# theta_M = -a tau sum_n z^n (1/(n+1)! - 2 tau / (n! (n+2))); with y = 2 x tau
# and w = -y^2, phi_M = a^2 y tau^2 sum_m w^m (1 - 2 tau + 4 tau^2 / (2m+5)) / (2m+3)!.
# Both lists run from the highest power down, for Horner's rule.
_THETA_COEFFS = [
    (1 / math.factorial(n + 1), 1 / (math.factorial(n) * (n + 2))) for n in range(_SERIES_TERMS)
][::-1]
_PHI_COEFFS = [  # j = 2m + 1, the odd powers of sin's series
    (1 / math.factorial(j + 2), -2 / math.factorial(j + 2), 4 / (math.factorial(j + 2) * (j + 4)))
    for j in range(1, _SERIES_TERMS, 2)
][::-1]


# The two branch formulas below take floats or equal-shape arrays of the ramp
# units a = g0 t_q, x = d t_q and tau = t / t_q alike, and return (theta_M, phi_M).
def _closed(a, x, tau):
    e = np.exp(2j * x * tau)
    theta = (a / (2.0 * x)) * (1j * (e - 1.0) - 2j * tau * e + (e - 1.0) / x)
    c, s = e.real, e.imag  # cos and sin of the phase 2 x tau
    xi = 1.0 - c + 2.0 * tau * c - s / x
    zeta = 0.5 * tau * tau - 2.0 * tau**3 / 3.0
    chi = tau - tau * tau - s / (2.0 * x) + tau * s / x + (c - 1.0) / (2.0 * x * x)
    return theta, (a * a) * (xi / (4.0 * x**3) - zeta / x + chi / (2.0 * x))


def _series(a, x, tau):
    z = 2j * x * tau
    y = 2.0 * x * tau
    w = -(y * y)
    theta = phi = 0.0
    for c1, c2 in _THETA_COEFFS:  # the n = 0 term, 1 - 2 tau / 2, is exactly 0 at tau = 1
        theta = theta * z + (c1 - 2.0 * tau * c2)
    for p0, p1, p2 in _PHI_COEFFS:
        phi = phi * w + (p0 + tau * (p1 + tau * p2))
    return -a * tau * theta, (a * a) * (y * tau * tau) * phi


def _magnus_arrays(g0, delta_half, t_q, t) -> tuple[np.ndarray, np.ndarray]:
    """``(theta_M, phi_M)`` elementwise: series where the phase ``|2 delta t|``
    the sample has reached is below the crossover, closed form above.
    Where a term passes the float range the result is non-finite, without
    a RuntimeWarning.

    The closed form's three term signs were calibrated once against the
    double-integral quadrature oracle and are frozen by regression test.
    """
    g0, d, t_q, t = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (g0, delta_half, t_q, t))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        series = np.abs(2.0 * d * t) < MAGNUS_SERIES_CROSSOVER
        ramp = (g0 * t_q, d * t_q, t / t_q)
        theta = np.empty(series.shape, dtype=complex)
        phi = np.empty(series.shape)
        for mask, branch in ((series, _series), (~series, _closed)):
            theta[mask], phi[mask] = branch(*(v[mask] for v in ramp))
    return theta, phi


def propagator_array(g0, delta_half, t_q, t) -> np.ndarray:
    """Interaction-picture propagators ``S(t)``, shape ``(..., 2, 2)``.

    Where ``phi_M``'s factor ``(g0 t_q)^2`` overflows (``|g0 t_q|`` past
    about 1.34e154), or the phase ``2 delta t_q`` does, those entries are
    non-finite, without a RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta, phi = _magnus_arrays(g0, delta_half, t_q, t)
        eta = np.hypot(np.abs(theta), phi)
        c = np.cos(eta)
        sinc = np.sinc(eta / math.pi)  # sin(eta)/eta, 1 at eta = 0
        S = np.empty((*theta.shape, 2, 2), dtype=complex)
        S[..., 0, 0] = c - 1j * sinc * phi
        S[..., 0, 1] = 1j * sinc * theta
        S[..., 1, 0] = 1j * sinc * np.conj(theta)
        S[..., 1, 1] = c + 1j * sinc * phi
    return S


def magnus_theta(g0: float, delta_half: float, t_q: float, t: float) -> complex:
    """First-order Magnus integral ``-Int_0^t g(t') e^{2 i delta t'} dt'``."""
    return magnus_terms(g0, delta_half, t_q, t).theta_M


def magnus_phi(g0: float, delta_half: float, t_q: float, t: float) -> float:
    """Second-order Magnus integral (the ordered double integral above)."""
    return magnus_terms(g0, delta_half, t_q, t).phi_M


def magnus_terms(g0: float, delta_half: float, t_q: float, t: float) -> MagnusTerms:
    """Evaluate theta, phi, eta and the polynomial phi grouping in one call."""
    _check_ramp_args(g0, delta_half, t_q, t)
    theta, phi = (x.item() for x in _magnus_arrays(g0, delta_half, t_q, t))
    t, tau = float(t), float(t) / float(t_q)
    zeta = t * t * (0.5 - 2.0 * tau / 3.0)  # t_q^2 (tau^2/2 - 2 tau^3/3), 0 at t = 0
    eta = math.hypot(abs(theta), phi)
    return MagnusTerms(theta_M=theta, phi_M=phi, eta=eta, zeta_M=zeta)


def magnus_propagator(
    g0: float, delta_half: float, t_q: float, t: float
) -> np.ndarray:
    """Interaction-picture propagator ``S(t)`` (exactly unitary 2x2)."""
    _check_ramp_args(g0, delta_half, t_q, t)
    return propagator_array(g0, delta_half, t_q, t)


def _ramp_map(delta: np.ndarray, g0: float, t_q: np.ndarray, t: np.ndarray) -> tuple:
    """``M = R(g(t)) S(t) R(g0)^T`` and alpha_A at ``g0``; NaN where degenerate.

    R has rows (u_A, v_A) and sign(g) (-v_A, u_A), sign +1 at g = 0: exactly
    orthogonal, so M_AB is exactly 0 where S = I.  Raises OverflowError
    where ``S`` is non-finite: past ``|g0 t_q|`` of about 1.34e154, or
    where the phase ``2 delta t_q`` overflows.
    """
    S = propagator_array(g0, delta, t_q, t)
    if not np.isfinite(S).all():
        raise OverflowError(f"the ramp's closed forms overflow (t_q up to {float(np.max(t_q))!r})")
    rows = []  # R(g0), then R(g(t))
    for g in (g0, g0 * (1.0 - 2.0 * (np.asarray(t) / t_q))):  # 2t overflows at t_q ~ 1e308
        _, u, v, _, _ = basis_arrays(g, delta)
        sign = np.where(g < 0.0, -1.0, 1.0)
        rows.append(((u, v), (-sign * v, sign * u)))
    R0, Rt = rows
    # SR[k][j] = (S R0^T)_kj, then M_ij = sum_k Rt_ik SR_kj
    SR = [[S[..., k, 0] * R0[j][0] + S[..., k, 1] * R0[j][1] for j in (0, 1)] for k in (0, 1)]
    M = np.empty(S.shape, dtype=complex)
    for i, j in np.ndindex(2, 2):
        M[..., i, j] = Rt[i][0] * SR[0][j] + Rt[i][1] * SR[1][j]
    return M, R0[0][0] ** 2


def quench_map(p: LatticeParams, kd: float, s: QuenchSchedule, t: float) -> np.ndarray:
    """Hybrid-basis amplitude map at time ``t`` of the ramp.

    Rotates the interaction-picture propagator into the instantaneous
    hybrid basis: ``M = R(g(t)) S(t) R(g0)^T``.  The coupling at both
    endpoints comes from the schedule (``p.g`` is ignored here); the
    band coefficients Omega, xi, delta come from ``p`` and ``kd``.
    """
    delta = reduced_coeffs(p, kd).delta
    _check_ramp_args(s.g0, delta, s.t_q, t)
    M = _ramp_map(delta, s.g0, s.t_q, t)[0]
    if np.isnan(M).any():
        raise DegeneratePointError.at(kd)
    return M


def _populations(M: np.ndarray, N_th_A, N_th_B, n_th: float) -> tuple[np.ndarray, ...]:
    """``(N_A, N_B, Nq_A, Nq_B)`` in units of n_th from ``P = |M_AB|^2``, elementwise."""
    P = np.abs(M[..., 0, 1]) ** 2
    if n_th == 0.0:  # zero-temperature bath: nothing to propagate
        zero = 0.0 * P  # NaN where M is
        return zero, zero, zero, zero
    s_A, s_B = N_th_A / n_th, N_th_B / n_th
    Nq_A = P * (s_B - s_A) + 0.0  # -0.0 -> 0.0
    return s_A + Nq_A, s_B - Nq_A, Nq_A, 0.0 - Nq_A


def mode_populations(M: np.ndarray, th: ThermalPopulations, n_th: float) -> tuple[float, float]:
    """Propagate incoherent thermal occupations through ``M``, in units of n_th.

    Assumes the initial state is diagonal in the hybrid basis with
    occupations ``th``; returns (0, 0) for a zero-temperature bath.  Reads
    only |M_AB|^2, which fixes every |M_ij|^2 exactly for a unitary 2x2.
    """
    N_A, N_B, _, _ = _populations(np.asarray(M), th.N_th_A, th.N_th_B, n_th)
    return float(N_A), float(N_B)


def net_excitations(
    N_A: float, N_B: float, th: ThermalPopulations, n_th: float
) -> tuple[float, float]:
    """Populations minus the initial-basis thermal reference (units of n_th)."""
    if n_th == 0.0:
        return 0.0, 0.0
    return N_A - th.N_th_A / n_th, N_B - th.N_th_B / n_th


@dataclass(frozen=True)
class QuenchRecord:
    """One (kd, t) sample of populations and net excitations."""

    kd: float
    t: float
    N_A: float
    N_B: float
    Nq_A: float
    Nq_B: float


def quench_trace_array(
    p: LatticeParams,
    kd: float,
    s: QuenchSchedule,
    n_t: int = 512,
    bath: BathParams = DEFAULT_BATH,
    *,
    t: np.ndarray | None = None,
) -> np.ndarray:
    """Populations along the ramp at fixed ``kd``, on ``n_t`` times in [0, t_q].

    Returns an ``(n_t, 6)`` array with columns :data:`QUENCH_COLUMNS`.
    The initial state is thermal and diagonal in the hybrid basis of the
    pre-ramp coupling ``s.g0``; that same reference is subtracted at all
    later times.  Given ``t``, the rows are those times instead of the
    grid (``n_t`` is then unused): each row depends on its own ``t`` only,
    so a slice of the grid gives the same bytes as the grid's rows.
    Raises :class:`DegeneratePointError` if the hybrid basis is degenerate
    at any sample, and OverflowError if ``|s.g0 * s.t_q|`` passes about
    1.34e154.
    """
    if t is None:
        check("n_t", n_t, (2, math.inf))
        t = np.linspace(0.0, s.t_q, n_t)
    t = np.asarray(t, dtype=float)
    M, alpha_A = _ramp_map(reduced_coeffs(p, kd).delta, s.g0, s.t_q, t)
    pops = _populations(M, *thermal_arrays(alpha_A, bath), bath.n_th)
    if np.isnan(pops[0]).any():
        raise DegeneratePointError.at(kd)
    return np.column_stack((np.full(len(t), kd), t, *pops))


def quench_trace(
    p: LatticeParams, kd: float, s: QuenchSchedule, n_t: int = 512, bath: BathParams = DEFAULT_BATH
) -> list[QuenchRecord]:
    """:func:`quench_trace_array` as one record per row."""
    return [QuenchRecord(*row) for row in quench_trace_array(p, kd, s, n_t, bath).tolist()]


@dataclass(frozen=True)
class QuenchTimeRule:
    """How the ramp duration is chosen; :func:`ramp_times` applies it.

    mode "per-k":       t_q = scale / gap(kd)          (locally scaled)
    mode "global-min":  t_q = scale / min_k gap        (one duration for all k)
    mode "fixed":       t_q = t_q                      (explicit value)
    """

    mode: str = "per-k"
    scale: float = 1e-4
    t_q: float | None = None

    def __post_init__(self) -> None:
        check("mode", self.mode, ("per-k", "global-min", "fixed"))
        if self.mode == "fixed":
            check("t_q", self.t_q, POSITIVE)
        else:
            check("scale", self.scale, POSITIVE)


def ramp_times(p: LatticeParams, rule: QuenchTimeRule, kd: np.ndarray) -> np.ndarray:
    """Ramp duration ``t_q`` at each ``kd`` under ``rule``.

    NaN where the reference gap -- the local gap for "per-k", the
    minimum from :func:`gap_extrema` for "global-min" -- is zero, since
    no finite ramp time exists there.  Raises OverflowError where a
    nonzero gap gets an infinite ``scale / gap``, or a zero one (the gap
    itself overflows to inf, or ``scale / gap`` underflows).
    """
    kd = np.asarray(kd, dtype=float)
    if rule.mode == "fixed":
        return np.full(kd.shape, float(rule.t_q))  # type: ignore[arg-type]
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        if rule.mode == "per-k":
            ref = gap_array(p, kd)
        else:
            least = min(e.value for e in gap_extrema(p) if e.kind != "maximum")
            ref = np.full(kd.shape, least)
        t_q = np.where(ref > 0.0, rule.scale / ref, math.nan)
    if np.isinf(t_q).any():
        raise OverflowError(f"scale / gap overflows to inf (scale={rule.scale!r})")
    if (t_q == 0.0).any():
        gap = float(np.max(ref))
        raise OverflowError(f"scale / gap is 0 (scale={rule.scale!r}, gap up to {gap!r})")
    return t_q


def quench_scan_array(
    p: LatticeParams,
    rule: QuenchTimeRule,
    theta: float | None = None,
    n_k: int = 512,
    *,
    bath: BathParams = DEFAULT_BATH,
    kd: np.ndarray | None = None,
) -> np.ndarray:
    """End-of-ramp excitations across the zone, ``g0 = p.g``.

    Returns an ``(n_k, 6)`` array with columns :data:`QUENCH_COLUMNS`.
    ``theta`` overrides ``p.theta`` when given (convenient for phase
    sweeps).  Rows are in ascending ``kd`` on an inclusive [-pi, pi]
    grid, with ``t`` the ramp time from :func:`ramp_times`.  Given ``kd``,
    the rows are those quasimomenta instead of the grid (``n_k`` is then
    unused), as in :func:`~omband.bands.band_scan`.  A row with
    no finite ramp time (zero gap) or a degenerate hybrid basis --
    possible only when ``p.g = 0`` -- is NaN-filled rather than
    aborting the scan.  A ramp whose ``|p.g * t_q|`` passes about 1.34e154
    raises OverflowError, as :func:`ramp_times` does for an infinite
    ``t_q``; under the per-k and global-min rules ``|p.g * t_q|`` is at
    most ``rule.scale / 2``.
    """
    if kd is None:
        check("n_k", n_k, (2, math.inf))
        kd = np.linspace(-math.pi, math.pi, n_k)
    kd = np.asarray(kd, dtype=float)
    if theta is not None:
        p = replace(p, theta=theta)
    t_q = ramp_times(p, rule, kd)
    ok = np.isfinite(t_q)
    out = np.column_stack((kd, t_q, np.full((len(kd), len(QUENCH_COLUMNS) - 2), math.nan)))
    M, alpha_A = _ramp_map(coeff_arrays(p, kd[ok])[2], p.g, t_q[ok], t_q[ok])
    out[ok, 2:] = np.column_stack(_populations(M, *thermal_arrays(alpha_A, bath), bath.n_th))
    return out


def _ramp_may_refuse(bath: BathParams, g0: float, delta: float, t_lo: float, t_hi: float) -> bool:
    """A cheap, conservative test that ramps with |g0| and |delta| up to these
    and ramp times in [t_lo, t_hi] may be refused: a ramp time of 0 or inf,
    a mode with no steady state, or a = g0 t_q (which the Magnus integrals
    square) or the phase 2 delta t_q near the float range."""
    fits = t_lo > 0.0 and abs(g0) * t_hi < 2.0**500 and delta * t_hi < 2.0**1000
    return _may_be_singular(bath) or not fits


def _trace_may_refuse(p: LatticeParams, kd: float, s: QuenchSchedule, bath: BathParams) -> bool:
    """:func:`_ramp_may_refuse` for :func:`quench_trace_array`, or delta = 0
    at ``kd``, without which no sample's basis is degenerate."""
    delta = reduced_coeffs(p, kd).delta
    return delta == 0.0 or _ramp_may_refuse(bath, s.g0, abs(delta), s.t_q, s.t_q)


def _scan_may_refuse(p: LatticeParams, rule: QuenchTimeRule, bath: BathParams) -> bool:
    """:func:`_ramp_may_refuse` for :func:`quench_scan_array` over the zone."""
    bound = _zone_bound(p)  # more than any |delta| or gap
    if rule.mode == "fixed":
        return _ramp_may_refuse(bath, p.g, bound, rule.t_q, rule.t_q)  # type: ignore[arg-type]
    if p.g == 0.0:  # gaps down to 0: t_q has no bound
        return True
    # t_q = scale / gap, with 2|g| <= gap <= bound / 2
    return _ramp_may_refuse(bath, p.g, bound, rule.scale / bound, rule.scale / abs(p.g))


def quench_scan(
    p: LatticeParams, rule: QuenchTimeRule, theta: float | None = None, n_k: int = 512,
    *, bath: BathParams = DEFAULT_BATH,
) -> list[QuenchRecord]:
    """:func:`quench_scan_array` as one record per row."""
    return [QuenchRecord(*r) for r in quench_scan_array(p, rule, theta, n_k, bath=bath).tolist()]
