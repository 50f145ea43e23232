"""Fixed-point solver against closed forms and an independent root-finder."""

import cmath
import math

import numpy as np
import pytest
from scipy import optimize

from omband import (
    DriveParams,
    LatticeParams,
    MeanFieldConvergenceError,
    SingularParameterError,
    solve_meanfield,
)

# frozen from the first converged run of the default instance
FROZEN_ALPHA = -0.30296075713131 - 0.004590314567470246j
FROZEN_BETA = 2.3540074318057894e-05 + 3.017958245904858e-09j
FROZEN_G = 0.00030299553024657795


def _root_oracle(drive):
    """Solve the same pair of equations with scipy's generic root finder."""
    p = drive.lattice
    den_b = p.omega_m - 0.5j * drive.gamma_m - 2.0 * p.K

    def eqs(x):
        a = x[0] + 1j * x[1]
        b = x[2] + 1j * x[3]
        den_a = p.Delta + 0.5j * drive.kappa + 2.0 * p.J * math.cos(p.theta)
        fa = a * (den_a + drive.G * (b + b.conjugate())) - drive.Omega_d
        fb = b * den_b - drive.G * abs(a) ** 2
        return [fa.real, fa.imag, fb.real, fb.imag]

    sol = optimize.root(eqs, [0.1, 0.0, 0.0, 0.0], tol=1e-14)
    assert sol.success, sol.message
    return sol.x[0] + 1j * sol.x[1], sol.x[2] + 1j * sol.x[3]


def test_drive_free_limit_is_exact():
    sol = solve_meanfield(DriveParams(Omega_d=0.0))
    assert sol.alpha == 0.0 and sol.beta == 0.0
    assert sol.g_enhanced == 0.0
    assert sol.iterations == 1


def test_uncoupled_limit_is_exact():
    # G = 0 decouples the pair; the start value is already the answer
    d = DriveParams(G=0.0, Omega_d=2.0, kappa=0.3)
    p = d.lattice
    sol = solve_meanfield(d)
    expected = 2.0 / (p.Delta + 0.15j + 2.0 * p.J)
    assert sol.alpha == expected
    assert sol.beta == 0.0
    assert sol.g_enhanced == 0.0
    assert sol.iterations == 1
    assert sol.residual == 0.0


def test_default_instance_frozen_regression():
    sol = solve_meanfield(DriveParams())
    assert sol.alpha == pytest.approx(FROZEN_ALPHA, rel=1e-10)
    assert sol.beta == pytest.approx(FROZEN_BETA, rel=1e-10)
    assert sol.g_enhanced == pytest.approx(FROZEN_G, rel=1e-10)
    assert sol.residual <= 1e-9


@pytest.mark.parametrize(
    "drive",
    [
        DriveParams(),
        DriveParams(Omega_d=3.0, G=0.01, kappa=0.4, gamma_m=0.02),
        DriveParams(
            lattice=LatticeParams(theta=0.8 * math.pi), Omega_d=0.7, G=0.005
        ),
        DriveParams(Omega_d=1.5, G=0.0008, kappa=1e-3, gamma_m=1e-5),
    ],
)
def test_matches_independent_root_finder(drive):
    sol = solve_meanfield(drive)
    a_ref, b_ref = _root_oracle(drive)
    assert abs(sol.alpha - a_ref) < 1e-9
    assert abs(sol.beta - b_ref) < 1e-9
    assert sol.g_enhanced == pytest.approx(drive.G * abs(a_ref), abs=1e-9)


def test_damping_does_not_change_the_fixed_point():
    a = solve_meanfield(DriveParams(), damping=0.5)
    b = solve_meanfield(DriveParams(), damping=0.25)
    c = solve_meanfield(DriveParams(), damping=1.0)
    assert abs(a.alpha - b.alpha) < 1e-10
    assert abs(a.alpha - c.alpha) < 1e-10
    assert abs(a.beta - b.beta) < 1e-12


def test_residual_is_one_substitution_of_the_reported_pair():
    sol = solve_meanfield(DriveParams(Omega_d=2.5, G=0.02))
    p = DriveParams().lattice
    den_a = p.Delta + 0.05j + 2.0 * p.J + 0.02 * (sol.beta + sol.beta.conjugate())
    a_back = 2.5 / den_a
    b_back = 0.02 * abs(a_back) ** 2 / (p.omega_m - 0.0005j - 2.0 * p.K)
    mine = abs(sol.alpha - a_back) + abs(sol.beta - b_back)
    assert sol.residual == pytest.approx(mine, rel=1e-12, abs=1e-18)
    assert sol.residual <= 1e-9


def test_non_convergence_raises_and_carries_last_iterate():
    with pytest.raises(MeanFieldConvergenceError) as err:
        solve_meanfield(DriveParams(), max_iter=1)
    assert isinstance(err.value.alpha, complex)
    assert isinstance(err.value.residual, float)
    assert err.value.residual > 0


def test_singular_optical_denominator():
    # kappa = 0 and Delta = -2 J cos(theta) kills the optical denominator
    lat = LatticeParams(Delta=-1.0, J=0.5, theta=0.0)
    with pytest.raises(SingularParameterError):
        solve_meanfield(DriveParams(lattice=lat, kappa=0.0))


def test_singular_mechanical_denominator():
    lat = LatticeParams(omega_m=0.4, K=0.2)
    with pytest.raises(SingularParameterError):
        solve_meanfield(DriveParams(lattice=lat, gamma_m=0.0))


@pytest.mark.parametrize(
    "kwargs", [{"Omega_d": -1.0}, {"G": -0.1}, {"kappa": -0.2}, {"gamma_m": math.nan}]
)
def test_drive_validation(kwargs):
    with pytest.raises(ValueError):
        DriveParams(**kwargs)


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_meanfield(DriveParams(), tol=0.0)
    with pytest.raises(ValueError):
        solve_meanfield(DriveParams(), damping=0.0)
    with pytest.raises(ValueError):
        solve_meanfield(DriveParams(), damping=1.5)


def test_enhanced_coupling_scales_with_drive():
    # in the weak-G regime g is essentially linear in Omega_d
    g1 = solve_meanfield(DriveParams(Omega_d=1.0)).g_enhanced
    g2 = solve_meanfield(DriveParams(Omega_d=2.0)).g_enhanced
    assert g2 / g1 == pytest.approx(2.0, rel=1e-3)


def test_amplitude_whose_square_overflows_is_singular():
    # at the defaults |alpha| ~ Omega_d / 3.3: 1e150 squares, 1e160 does not
    assert solve_meanfield(DriveParams(Omega_d=1e150)).g_enhanced > 0
    with pytest.raises(SingularParameterError, match="Omega_d"):
        solve_meanfield(DriveParams(Omega_d=1e160))
