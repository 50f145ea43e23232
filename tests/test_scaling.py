"""Exact power-of-two scaling in the closed-form kernels.

``basis_arrays`` scales ``(g, delta)`` by a power of two only where
``g * g`` could overflow, ``thermal_arrays`` divides before it multiplies
only where ``Gamma * n_th`` overflows, and ``coeff_arrays`` halves before
it adds.  Ordinary inputs keep the bits of the formulas the kernels used
before: ``_reference_basis`` and ``_reference_thermal`` are those formulas,
kept here as the reference.
"""

import math
import sys

import numpy as np
import pytest

from omband import LatticeParams
from omband.bands import basis_arrays
from omband.model import coeff_arrays
from omband.quench import BathParams, SingularBathError, thermal_arrays

pytestmark = pytest.mark.filterwarnings("error")

BIG = sys.float_info.max


def _reference_basis(g, delta):
    shape = np.broadcast_shapes(np.shape(g), np.shape(delta))
    g, d = np.broadcast_arrays(np.atleast_1d(g), np.atleast_1d(delta))
    r = np.hypot(g, d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dp = np.where(d >= 0.0, d + r, (g * g) / (r - d))
        dm = np.where(d <= 0.0, d - r, -(g * g) / (r + d))
        big = np.isinf(g * g)
        if big.any():
            g_, d_, r_ = g[big], d[big], r[big]
            dp[big] = np.where(d_ >= 0.0, d_ + r_, g_ * (g_ / (r_ - d_)))
            dm[big] = np.where(d_ <= 0.0, d_ - r_, -g_ * (g_ / (r_ + d_)))
        n_plus = np.hypot(g, dp)
        n_minus = np.hypot(g, dm)
        amps = [-g / n_plus, dp / n_plus, -g / n_minus, dm / n_minus]
    decoupled = g == 0.0
    if decoupled.any():
        up = d[decoupled] > 0.0
        for a, hi, lo in zip(amps, (0.0, 1.0, -1.0, 0.0), (-1.0, 0.0, 0.0, -1.0)):
            a[decoupled] = np.where(up, hi, lo)
            a[r == 0.0] = math.nan
    return tuple(x.reshape(shape) for x in (r, *amps))


def _reference_thermal(alpha_A, kappa, Gamma, n_th):
    """The occupations by the unscaled formula; None where a decay rate is 0."""
    alpha_A = np.asarray(alpha_A, dtype=float)
    beta_A = 1.0 - alpha_A
    with np.errstate(all="ignore"):
        den_A = alpha_A * kappa + beta_A * Gamma
        den_B = beta_A * kappa + alpha_A * Gamma
        if ((den_A == 0.0) | (den_B == 0.0)).any():
            return None
        return beta_A * Gamma * n_th / den_A, alpha_A * Gamma * n_th / den_B


def _signed_log_grid(least, most, n):
    mags = np.logspace(math.log10(least), math.log10(min(most, 1e308)), n)
    if most > 1e308:
        mags = np.append(mags, most)
    return np.concatenate([-mags[::-1], [0.0], mags])


def test_basis_keeps_the_two_branch_bits_below_1e150():
    axis = _signed_log_grid(1e-150, 1e150, 61)
    g, d = np.meshgrid(axis, axis)
    for got, want in zip(basis_arrays(g, d), _reference_basis(g, d)):
        assert np.array_equal(got, want, equal_nan=True)


def test_basis_agrees_with_the_large_coupling_branch():
    # above 1.3e154 the reference used g * (g / x); the scaled (g * g) / x
    # rounds differently only in the last place.  The grid stops at 1e307,
    # because from about 9e307 on the reference's delta + r overflows.
    mags = np.array([1.4e154, 1e200, 1e300, 1e307])
    g = np.concatenate([mags, -mags])[:, None]
    d = _signed_log_grid(1e-10, 1e307, 41)[None, :]
    got, want = basis_arrays(g, d), _reference_basis(g, d)
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_allclose(a, b, rtol=4e-16, atol=1e-300)


@pytest.mark.parametrize("gval", [1.4e154, 1e300, BIG, -BIG])
def test_weights_stay_finite_up_to_the_largest_coupling(gval):
    d = _signed_log_grid(5e-324, BIG, 81)
    _, u_A, v_A, u_B, v_B = basis_arrays(gval, d)
    weights = np.stack([u_A * u_A, v_A * v_A, u_B * u_B, v_B * v_B])
    assert np.isfinite(weights).all()
    assert ((weights >= 0.0) & (weights <= 1.0)).all()
    assert np.max(np.abs(weights[0] + weights[1] - 1.0)) <= 1e-15
    assert np.max(np.abs(weights[2] + weights[3] - 1.0)) <= 1e-15
    assert np.max(np.abs(u_A * u_B + v_A * v_B)) <= 1e-15


def test_half_sum_stays_finite_where_the_sum_overflows():
    kd = np.linspace(-math.pi, math.pi, 33)
    Omega, xi, delta = coeff_arrays(LatticeParams(omega_m=1e308, Delta=1e308), kd)
    assert np.isfinite(delta).all()
    assert np.array_equal(delta, 0.5 * Omega + 0.5 * xi)
    np.testing.assert_allclose(delta, 1e308, rtol=1e-15)


ALPHAS = np.array([0.0, 5e-324, 1e-300, 1e-16, 0.25, 0.5, 0.75, 1.0 - 2**-53, 1.0])


@pytest.mark.parametrize("n_th", [0.0, 1e-100, 1.0, 100.0, 1e100])
def test_thermal_keeps_the_unscaled_bits_up_to_1e100(n_th):
    rates = np.logspace(-100, 100, 21)
    for kappa in rates:
        for Gamma in rates:
            got = thermal_arrays(ALPHAS, BathParams(kappa, Gamma, n_th))
            want = _reference_thermal(ALPHAS, kappa, Gamma, n_th)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


RATES = [0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, BIG]


@pytest.mark.parametrize("n_th", [0.0, 1.0, 100.0, 1e300, BIG])
def test_thermal_is_finite_and_singular_exactly_where_the_unscaled_formula_is(n_th):
    for kappa in RATES:
        for Gamma in RATES:
            if kappa + Gamma == 0.0:
                continue  # BathParams refuses it
            want = _reference_thermal(ALPHAS, kappa, Gamma, n_th)
            bath = BathParams(kappa, Gamma, n_th)
            if want is None:
                with pytest.raises(SingularBathError):
                    thermal_arrays(ALPHAS, bath)
                continue
            got = thermal_arrays(ALPHAS, bath)
            if all(np.isfinite(w).all() for w in want):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            else:  # Gamma * n_th overflows in the unscaled formula
                for occupation in got:
                    assert np.isfinite(occupation).all()
                    assert ((occupation >= 0.0) & (occupation <= n_th)).all()


def test_thermal_at_the_largest_rate_matches_the_scaled_rates():
    # the occupations depend on kappa and Gamma only through their ratio
    got = thermal_arrays(ALPHAS, BathParams(0.1, BIG, 100.0))
    want = _reference_thermal(ALPHAS, 0.1 / 256, BIG / 256, 100.0)
    for a, b in zip(got, want):
        assert (a <= 100.0).all()
        np.testing.assert_allclose(a, b, rtol=4.5e-16, atol=0)
