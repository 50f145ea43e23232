"""Closed-form bands and weights against dense diagonalization."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omband import (
    BAND_SCAN_COLUMNS,
    DegeneratePointError,
    LatticeParams,
    band_energies,
    band_scan,
    bloch_hamiltonian,
    gap,
    gap_extrema,
    hybrid_basis,
)
from omband.bands import gap_array
from omband.quench import QuenchTimeRule, ramp_times

# photon weight of the upper mode at the zone center, frozen once from
# the closed form (g=0.1 against delta = +0.3 / -0.7)
ALPHA_A_ZONE_CENTER_THETA0 = 0.025658350974743095
ALPHA_A_ZONE_CENTER_THETAPI = 0.9949747468305835

params_st = st.builds(
    LatticeParams,
    omega_m=st.floats(0.5, 10.0),
    Delta=st.floats(-10.0, 10.0),
    J=st.floats(0.0, 2.0),
    K=st.floats(0.0, 2.0),
    g=st.floats(-1.0, 1.0),
    theta=st.floats(-math.pi, math.pi),
)


def test_frozen_zone_center_weights():
    hb = hybrid_basis(LatticeParams(), 0.0)
    assert hb.alpha_A == pytest.approx(ALPHA_A_ZONE_CENTER_THETA0, rel=1e-13)
    hb = hybrid_basis(LatticeParams(theta=math.pi), 0.0)
    assert hb.alpha_A == pytest.approx(ALPHA_A_ZONE_CENTER_THETAPI, rel=1e-13)


def test_band_energies_closed_form_point():
    # kd=0, theta=0: mid = (3.9+3.3)/2 = 3.6, r = hypot(0.1, 0.3)
    wp, wm = band_energies(LatticeParams(), 0.0)
    r = math.hypot(0.1, 0.3)
    assert wp == pytest.approx(3.6 + r, abs=1e-14)
    assert wm == pytest.approx(3.6 - r, abs=1e-14)
    assert gap(LatticeParams(), 0.0) == pytest.approx(2.0 * r, abs=1e-14)


def test_closed_form_matches_dense_eigensolve_on_grid(
    hopping_dominated, coupling_dominated
):
    """omega_pm, gap and weights against numpy.linalg.eigh, 1001 points."""
    for base in (hopping_dominated, coupling_dominated):
        for theta in (0.0, 0.25 * math.pi, 0.8 * math.pi, math.pi):
            p = LatticeParams(
                omega_m=base.omega_m,
                Delta=base.Delta,
                J=base.J,
                K=base.K,
                g=base.g,
                theta=theta,
            )
            for kd in np.linspace(-math.pi, math.pi, 1001):
                H = bloch_hamiltonian(p, float(kd))
                evals, evecs = np.linalg.eigh(H)
                hb = hybrid_basis(p, float(kd))
                assert hb.omega_minus == pytest.approx(evals[0], abs=1e-12)
                assert hb.omega_plus == pytest.approx(evals[1], abs=1e-12)
                # photon weight = squared (photon) component of each eigenvector
                assert hb.alpha_A == pytest.approx(evecs[0, 1] ** 2, abs=1e-12)
                assert hb.alpha_B == pytest.approx(evecs[0, 0] ** 2, abs=1e-12)


@given(p=params_st, kd=st.floats(-math.pi, math.pi))
@settings(max_examples=300)
def test_basis_invariants(p, kd):
    assume(gap(p, kd) > 1e-8)
    hb = hybrid_basis(p, kd)
    assert hb.alpha_A + hb.beta_A == pytest.approx(1.0, abs=1e-12)
    assert hb.alpha_B + hb.beta_B == pytest.approx(1.0, abs=1e-12)
    assert hb.alpha_B == pytest.approx(hb.beta_A, abs=1e-12)
    R = hb.R
    assert np.max(np.abs(R @ R.T - np.eye(2))) < 1e-12
    D = R @ bloch_hamiltonian(p, kd) @ R.T
    assert D[0, 0] == pytest.approx(hb.omega_plus, abs=1e-10)
    assert D[1, 1] == pytest.approx(hb.omega_minus, abs=1e-10)
    assert abs(D[0, 1]) < 1e-10 and abs(D[1, 0]) < 1e-10


@given(p=params_st, kd=st.floats(-math.pi, math.pi))
@settings(max_examples=200)
def test_gap_symmetry_under_simultaneous_reflection(p, kd):
    q = LatticeParams(
        omega_m=p.omega_m, Delta=p.Delta, J=p.J, K=p.K, g=p.g, theta=-p.theta
    )
    assert gap(p, kd) == pytest.approx(gap(q, -kd), abs=1e-12)


def test_weights_stay_clean_for_tiny_coupling():
    # far detuned on both sides of the crossing: no cancellation losses
    for kd in (0.0, 1.0, math.pi):
        for gval in (1e-8, -1e-8, 1e-12):
            hb = hybrid_basis(LatticeParams(g=gval), kd)
            for w in (hb.alpha_A, hb.beta_A, hb.alpha_B, hb.beta_B):
                assert 0.0 <= w <= 1.0
            assert hb.alpha_A + hb.beta_A == pytest.approx(1.0, abs=1e-14)
            assert abs(hb.u_A * hb.u_B + hb.v_A * hb.v_B) < 1e-15


@pytest.mark.parametrize("gval", [1e200, 1e300])
def test_weights_stay_finite_for_huge_coupling(gval):
    # g * g overflows once |g| > ~1.3e154; the weights must not
    weights = band_scan(LatticeParams(g=gval), n_k=65)[:, 4:]  # kd = -pi ... pi
    assert np.isfinite(weights).all()
    alpha_A, beta_A, alpha_B, beta_B = weights.T
    assert np.max(np.abs(alpha_A + beta_A - 1.0)) <= 1e-15
    assert np.max(np.abs(alpha_B + beta_B - 1.0)) <= 1e-15
    np.testing.assert_allclose(weights, 0.5, atol=1e-15)  # g swamps every detuning


def test_decoupled_limit_exact_branch():
    # g = 0: weights must be exactly 0/1, picked by the sign of delta
    p = LatticeParams(g=0.0)
    hb = hybrid_basis(p, 0.0)  # delta = +0.3
    assert (hb.alpha_A, hb.beta_A) == (0.0, 1.0)
    assert (hb.alpha_B, hb.beta_B) == (1.0, 0.0)
    hb = hybrid_basis(p, math.pi)  # delta = -0.3
    assert (hb.alpha_A, hb.beta_A) == (1.0, 0.0)
    np.testing.assert_allclose(hb.R @ hb.R.T, np.eye(2), atol=0)


def test_degenerate_point_raises():
    # delta(kd=pi/2) = 0 for theta=0 and omega_m = -Delta
    with pytest.raises(DegeneratePointError):
        hybrid_basis(LatticeParams(g=0.0), 0.5 * math.pi)


def test_band_scan_shape_and_degenerate_rows():
    p = LatticeParams(g=0.0)
    scan = band_scan(p, n_k=5)  # grid hits +-pi/2 exactly
    assert scan.shape == (5, 8)
    assert len(BAND_SCAN_COLUMNS) == 8
    assert scan[0, 0] == -math.pi and scan[-1, 0] == math.pi
    crossing = scan[np.isclose(scan[:, 0], 0.5 * math.pi)][0]
    assert np.all(np.isnan(crossing[4:]))
    assert crossing[3] == pytest.approx(0.0, abs=1e-15)  # gap still recorded
    regular = scan[np.isclose(scan[:, 0], 0.0)][0]
    assert not np.any(np.isnan(regular))


def test_band_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        band_scan(LatticeParams(), n_k=1)


def _expected_minima(p):
    """Zeros of delta(kd) = Re[(J e^{i theta} - K) e^{i kd}] ... via its phase."""
    z = p.J * complex(math.cos(p.theta), math.sin(p.theta)) - p.K
    phi0 = math.atan2(z.imag, z.real)
    return sorted(
        math.remainder(s * 0.5 * math.pi - phi0, 2.0 * math.pi) for s in (+1, -1)
    )


@pytest.mark.parametrize("theta", [0.0, 0.25 * math.pi, 0.5 * math.pi, 0.8 * math.pi])
def test_gap_extrema_locations_and_values(theta):
    p = LatticeParams(theta=theta)
    ext = gap_extrema(p)
    minima = [e for e in ext if e.kind == "minimum"]
    maxima = [e for e in ext if e.kind == "maximum"]
    assert len(minima) == 2 and len(maxima) == 2
    got = sorted(e.kd for e in minima)
    for kd_got, kd_want in zip(got, _expected_minima(p)):
        assert kd_got == pytest.approx(kd_want, abs=1e-6)
    for e in minima:
        assert e.value == pytest.approx(2.0 * abs(p.g), abs=1e-10)
    # list comes back sorted by kd and folded
    kds = [e.kd for e in ext]
    assert kds == sorted(kds)
    assert all(-math.pi <= kd < math.pi for kd in kds)


def test_gap_extrema_flat_profile():
    ext = gap_extrema(LatticeParams(J=0.0, K=0.0, g=0.25))
    assert len(ext) == 1
    assert ext[0].kind is None
    assert math.isnan(ext[0].kd)
    assert ext[0].value == pytest.approx(0.5, abs=1e-14)


def _circ_dist(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _grid_extrema(p, n=2**16):
    """Local extrema of gap_array on an n-point periodic grid, as (kd, kind)."""
    kd = -math.pi + (2.0 * math.pi / n) * np.arange(n)
    v = gap_array(p, kd)
    left, right = np.roll(v, 1), np.roll(v, -1)
    found = [(x, "minimum") for x in kd[(v < left) & (v <= right)]]
    return found + [(x, "maximum") for x in kd[(v > left) & (v >= right)]]


# c0 = (omega_m + Delta)/2 against A = |J e^{i theta} - K|: (params, minima, |c0| <= A)
GAP_REGIMES = {
    "inside": (LatticeParams(theta=0.3), 2, True),
    "above": (LatticeParams(Delta=-3.0, theta=0.2 * math.pi), 1, False),
    "below": (LatticeParams(omega_m=3.0, theta=-2.0), 1, False),
    "at_plus_A": (LatticeParams(omega_m=1.5, Delta=-0.5, J=0.75, K=0.25), 1, True),
    "at_minus_A": (LatticeParams(omega_m=0.5, Delta=-1.5, J=0.75, K=0.25), 1, True),
    "g_zero": (LatticeParams(g=0.0, theta=0.8 * math.pi), 2, True),
    "g_zero_above": (LatticeParams(Delta=-3.0, g=0.0), 1, False),
}


@pytest.mark.parametrize("regime", GAP_REGIMES)
def test_gap_extrema_closed_form_matches_a_dense_periodic_scan(regime):
    p, n_minima, touches_zero = GAP_REGIMES[regime]
    ext = gap_extrema(p)
    grid = _grid_extrema(p)
    assert sorted(e.kind for e in ext) == sorted(kind for _, kind in grid)
    assert sum(e.kind == "minimum" for e in ext) == n_minima
    step = 2.0 * math.pi / 2**16
    for e in ext:
        assert any(k == e.kind and _circ_dist(kd, e.kd) <= step for kd, k in grid), e
        assert e.value == pytest.approx(gap(p, e.kd), rel=1e-14, abs=1e-15)
        if touches_zero and e.kind == "minimum":
            assert e.value == 2.0 * abs(p.g)
    kds = [e.kd for e in ext]
    assert kds == sorted(kds) and all(-math.pi <= kd < math.pi for kd in kds)


def test_gap_extrema_flat_when_the_hoppings_cancel():
    # J e^{i theta} = K: A = 0, so delta is c0 at every kd
    p = LatticeParams(J=0.3, K=0.3, g=0.2)
    v = gap_array(p, np.linspace(-math.pi, math.pi, 2**16))
    (e,) = gap_extrema(p)
    assert e.kind is None and math.isnan(e.kd)
    assert np.ptp(v) <= 1e-15 and e.value == pytest.approx(v[0], abs=1e-15)


def test_gap_extrema_fold_zero_to_plus_zero():
    # theta = 0: phi = 0, so one maximum sits at kd = -phi = -0.0
    (at_zero,) = [e for e in gap_extrema(LatticeParams()) if e.kd == 0.0]
    assert at_zero.kind == "maximum" and math.copysign(1.0, at_zero.kd) == 1.0


@pytest.mark.parametrize("regime", [r for r, (_, _, zero) in GAP_REGIMES.items() if zero])
def test_global_min_ramp_time_is_exactly_scale_over_2g(regime):
    p = GAP_REGIMES[regime][0]
    kd = np.linspace(-math.pi, math.pi, 9)
    t_q = ramp_times(p, QuenchTimeRule(mode="global-min", scale=1e-4), kd)
    if p.g == 0.0:
        assert np.all(np.isnan(t_q))
    else:
        assert np.all(t_q == 1e-4 / (2.0 * abs(p.g)))
