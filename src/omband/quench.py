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

Both integrals are elementary; the closed forms below carry inverse
powers of ``delta`` up to ``delta^-3`` and lose precision when the
accumulated phase ``2 delta t_q`` is small, so a Taylor branch in
``2 delta t`` takes over below ``|2 delta t_q| = 0.5`` (both branches
agree to ~1e-12 there).

Mapping back out of the interaction picture and into the instantaneous
hybrid basis, ``M = R(g(t)) S(t) R(g0)^T`` propagates mode amplitudes,
and ``|M_ij|^2`` propagates thermally occupied, mutually incoherent
initial populations.  Populations are tracked in units of the bath
occupation ``n_th``; ``net_excitations`` subtracts the (initial-basis)
thermal reference so that an adiabatic sweep yields zero.

Every formula is evaluated elementwise over arrays of ``kd`` (a scan) or
``t`` (a trace); the scalar functions are thin wrappers over the same
array code.  A scan or a trace is one 2-D array with columns
:data:`QUENCH_COLUMNS`; :func:`quench_scan` and :func:`quench_trace` wrap
its rows as :class:`QuenchRecord` lists.  :func:`ramp_times` is the one
rule that turns a :class:`QuenchTimeRule` into ramp durations for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bands import DegeneratePointError, basis_arrays, gap_array, gap_extrema
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

#: Branch point on |2 delta t_q|: Taylor series below, closed form above.
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
    # where Gamma * n_th overflows, take n_th times the heating share of the
    # decay rate: a ratio of at most 1, so the occupation is at most n_th
    if math.isinf(bath.Gamma * bath.n_th):
        return tuple(bath.n_th * (w * bath.Gamma / den) for w, den in modes)
    return tuple(w * bath.Gamma * bath.n_th / den for w, den in modes)


@dataclass(frozen=True)
class MagnusTerms:
    """First- and second-order Magnus integrals for the ramp.

    ``theta_M`` is the first-order (off-diagonal) term, ``phi_M`` the
    second-order commutator (diagonal) term, ``eta`` the rotation angle
    ``sqrt(|theta_M|^2 + phi_M^2)``.  ``zeta_M`` is the polynomial
    grouping ``t^2/2 - 2 t^3 / (3 t_q)`` that enters ``phi_M`` on the
    closed-form branch.
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


def _ramp_moment(n: int, t_q: float, t: float) -> float:
    """Int_0^t (1 - 2u/t_q) u^n du."""
    return t ** (n + 1) / (n + 1) - 2.0 * t ** (n + 2) / ((n + 2) * t_q)


# The four branch formulas below take floats or equal-shape arrays alike.
def _theta_closed(g0: float, d: float, t_q: float, t: float) -> complex:
    e = np.exp(2j * d * t)
    return (g0 / (2.0 * d)) * (
        1j * (e - 1.0) - 2j * t * e / t_q + (e - 1.0) / (d * t_q)
    )


def _theta_series(g0: float, d: float, t_q: float, t: float) -> complex:
    acc = 0.0 + 0.0j
    coeff = 1.0 + 0.0j  # (2 i d)^n / n!
    for n in range(_SERIES_TERMS):
        acc += coeff * _ramp_moment(n, t_q, t)
        coeff *= 2j * d / (n + 1)
    return -g0 * acc


def _phi_groupings(d: float, t_q: float, t: float) -> tuple[float, float, float]:
    zeta = 0.5 * t * t - 2.0 * t**3 / (3.0 * t_q)
    s = np.sin(2.0 * d * t)
    c = np.cos(2.0 * d * t)
    # magnus_terms reads only zeta, also at d = 0, where xi and chi divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = 1.0 - c + (2.0 * t / t_q) * c - s / (t_q * d)
        chi = (
            t
            - t * t / t_q
            - s / (2.0 * d)
            + t * s / (t_q * d)
            + (c - 1.0) / (2.0 * t_q * d * d)
        )
    return xi, zeta, chi


def _phi_closed(g0: float, d: float, t_q: float, t: float) -> float:
    xi, zeta, chi = _phi_groupings(d, t_q, t)
    g2 = g0 * g0
    return (
        g2 / (4.0 * t_q * d**3) * xi
        - g2 / (t_q * d) * zeta
        + g2 / (2.0 * d) * chi
    )


def _phi_series(g0: float, d: float, t_q: float, t: float) -> float:
    acc = 0.0
    sign = 1.0
    coeff = 2.0 * d  # (2 d)^j / j! for odd j
    for j in range(1, _SERIES_TERMS, 2):
        w = (
            _ramp_moment(j + 1, t_q, t) / (j + 1)
            - 2.0 * _ramp_moment(j + 2, t_q, t) / ((j + 1) * (j + 2) * t_q)
        )
        acc += sign * coeff * w
        sign = -sign
        coeff *= (2.0 * d) ** 2 / ((j + 1) * (j + 2))
    return g0 * g0 * acc


def _magnus_arrays(g0, delta_half, t_q, t) -> tuple[np.ndarray, np.ndarray]:
    """``(theta_M, phi_M)`` elementwise: series below the crossover, closed form above.

    The closed form's three term signs were calibrated once against the
    double-integral quadrature oracle and are frozen by regression test.
    """
    args = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (g0, delta_half, t_q, t))
    )
    series = np.abs(2.0 * args[1] * args[2]) < MAGNUS_SERIES_CROSSOVER
    theta = np.empty(series.shape, dtype=complex)
    phi = np.empty(series.shape)
    for mask, theta_f, phi_f in (
        (series, _theta_series, _phi_series),
        (~series, _theta_closed, _phi_closed),
    ):
        part = [a[mask] for a in args]
        theta[mask] = theta_f(*part)
        phi[mask] = phi_f(*part)
    return theta, phi


def propagator_array(g0, delta_half, t_q, t) -> np.ndarray:
    """Interaction-picture propagators ``S(t)``, shape ``(..., 2, 2)``.

    Where a ramp time or coupling is so large that the Magnus integrals
    overflow, those entries are non-finite, without a RuntimeWarning.
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
    _check_ramp_args(g0, delta_half, t_q, t)
    return complex(_magnus_arrays(g0, delta_half, t_q, t)[0])


def magnus_phi(g0: float, delta_half: float, t_q: float, t: float) -> float:
    """Second-order Magnus integral (the ordered double integral above)."""
    _check_ramp_args(g0, delta_half, t_q, t)
    return float(_magnus_arrays(g0, delta_half, t_q, t)[1])


def magnus_terms(g0: float, delta_half: float, t_q: float, t: float) -> MagnusTerms:
    """Evaluate theta, phi, eta and the polynomial phi grouping in one call."""
    _check_ramp_args(g0, delta_half, t_q, t)
    theta, phi = (x.item() for x in _magnus_arrays(g0, delta_half, t_q, t))
    zeta = float(_phi_groupings(delta_half, t_q, t)[1])
    eta = math.hypot(abs(theta), phi)
    return MagnusTerms(theta_M=theta, phi_M=phi, eta=eta, zeta_M=zeta)


def magnus_propagator(
    g0: float, delta_half: float, t_q: float, t: float
) -> np.ndarray:
    """Interaction-picture propagator ``S(t)`` (exactly unitary 2x2)."""
    _check_ramp_args(g0, delta_half, t_q, t)
    return propagator_array(g0, delta_half, t_q, t)


def _rotation(g: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Hybrid-basis rotations, rows (u_A, v_A), (u_B, v_B); NaN if degenerate."""
    _, u_A, v_A, u_B, v_B = basis_arrays(g, delta)
    return np.stack([u_A, v_A, u_B, v_B], axis=-1).reshape(*u_A.shape, 2, 2)


def _ramp_map(delta: np.ndarray, g0: float, t_q: np.ndarray, t: np.ndarray) -> tuple:
    """``M = R(g(t)) S(t) R(g0)^T`` and alpha_A at ``g0``; NaN where degenerate.

    Raises OverflowError where a ramp time so long that the Magnus closed
    forms overflow (powers of ``t`` past the float range) gives a
    non-finite ``S``; finite inputs give a finite ``S`` otherwise.
    """
    R0 = _rotation(g0, delta)
    Rt = _rotation(g0 * (1.0 - 2.0 * (np.asarray(t) / t_q)), delta)  # 2t overflows at t_q ~ 1e308
    S = propagator_array(g0, delta, t_q, t)
    if not np.isfinite(S).all():
        t_max = float(np.max(t_q))
        raise OverflowError(f"the ramp's closed forms overflow (t_q up to {t_max!r})")
    return Rt @ S @ np.swapaxes(R0, -1, -2), R0[..., 0, 0] ** 2


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
    """``(N_A, N_B, Nq_A, Nq_B)`` in units of n_th, elementwise over ``M``."""
    P = np.abs(M) ** 2
    if n_th == 0.0:  # zero-temperature bath: nothing to propagate
        zero = 0.0 * P[..., 0, 0]  # NaN where M is
        return zero, zero, zero, zero
    with np.errstate(over="ignore"):
        N_A, N_B = ((P[..., i, 0] * N_th_A + P[..., i, 1] * N_th_B) / n_th for i in (0, 1))
    if np.isinf(N_A).any() or np.isinf(N_B).any():  # the sum overflows: divide by n_th first
        a, b = N_th_A / n_th, N_th_B / n_th
        N_A, N_B = (np.where(np.isinf(N), P[..., i, 0] * a + P[..., i, 1] * b, N)
                    for i, N in enumerate((N_A, N_B)))
    return N_A, N_B, N_A - N_th_A / n_th, N_B - N_th_B / n_th


def mode_populations(
    M: np.ndarray, th: ThermalPopulations, n_th: float
) -> tuple[float, float]:
    """Propagate incoherent thermal occupations through ``M``, in units of n_th.

    Assumes the initial state is diagonal in the hybrid basis with
    occupations ``th``; returns (0, 0) for a zero-temperature bath.
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
) -> np.ndarray:
    """Populations along the ramp at fixed ``kd``, on ``n_t`` times in [0, t_q].

    Returns an ``(n_t, 6)`` array with columns :data:`QUENCH_COLUMNS`.
    The initial state is thermal and diagonal in the hybrid basis of the
    pre-ramp coupling ``s.g0``; that same reference is subtracted at all
    later times.  Raises :class:`DegeneratePointError` if the hybrid
    basis is degenerate at any sample, and OverflowError if ``s.t_q`` is
    so long that the closed forms overflow.
    """
    check("n_t", n_t, (2, math.inf))
    t = np.linspace(0.0, s.t_q, n_t)
    M, alpha_A = _ramp_map(reduced_coeffs(p, kd).delta, s.g0, s.t_q, t)
    pops = _populations(M, *thermal_arrays(alpha_A, bath), bath.n_th)
    if np.isnan(pops[0]).any():
        raise DegeneratePointError.at(kd)
    return np.column_stack((np.full(n_t, kd), t, *pops))


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
) -> np.ndarray:
    """End-of-ramp excitations across the zone, ``g0 = p.g``.

    Returns an ``(n_k, 6)`` array with columns :data:`QUENCH_COLUMNS`.
    ``theta`` overrides ``p.theta`` when given (convenient for phase
    sweeps).  Rows are in ascending ``kd`` on an inclusive [-pi, pi]
    grid, with ``t`` the ramp time from :func:`ramp_times`.  A row with
    no finite ramp time (zero gap) or a degenerate hybrid basis --
    possible only when ``p.g = 0`` -- is NaN-filled rather than
    aborting the scan.  A finite ramp time so long that the closed forms
    overflow raises OverflowError, as :func:`ramp_times` does for an
    infinite one.
    """
    check("n_k", n_k, (2, math.inf))
    if theta is not None:
        p = replace(p, theta=theta)
    kd = np.linspace(-math.pi, math.pi, n_k)
    t_q = ramp_times(p, rule, kd)
    ok = np.isfinite(t_q)
    out = np.column_stack((kd, t_q, np.full((n_k, len(QUENCH_COLUMNS) - 2), math.nan)))
    M, alpha_A = _ramp_map(coeff_arrays(p, kd[ok])[2], p.g, t_q[ok], t_q[ok])
    out[ok, 2:] = np.column_stack(_populations(M, *thermal_arrays(alpha_A, bath), bath.n_th))
    return out


def quench_scan(
    p: LatticeParams, rule: QuenchTimeRule, theta: float | None = None, n_k: int = 512,
    *, bath: BathParams = DEFAULT_BATH,
) -> list[QuenchRecord]:
    """:func:`quench_scan_array` as one record per row."""
    return [QuenchRecord(*r) for r in quench_scan_array(p, rule, theta, n_k, bath=bath).tolist()]
