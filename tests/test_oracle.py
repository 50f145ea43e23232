"""The validators validated: RK4 and the finite-ring spectrum against
independent routes."""

import itertools
import math

import numpy as np
import pytest

from omband import (
    CommensurabilityError,
    LatticeParams,
    QuenchSchedule,
    bloch_grid_energies,
    finite_lattice_spectrum,
    gap,
    integrate_interaction_picture,
    magnus_propagator,
    reduced_coeffs,
)
from omband.oracle import _lattice_hamiltonian


def test_zero_coupling_integrates_to_identity(hopping_dominated):
    s = QuenchSchedule(g0=0.0, t_q=1.0)
    rep = integrate_interaction_picture(hopping_dominated, 0.3, s, 64)
    assert np.array_equal(rep.U, np.eye(2))
    assert rep.error_estimate == 0.0
    assert rep.unitarity_defect == 0.0
    assert not rep.warning


def test_constant_coupling_rabi_rotation(hopping_dominated):
    # delta vanishes at kd = pi/2 for the default set, so a constant g
    # rotates at exactly the Rabi rate
    p = hopping_dominated
    assert reduced_coeffs(p, 0.5 * math.pi).delta == 0.0
    tau, gc = 3.7, 0.25
    rep = integrate_interaction_picture(
        p, 0.5 * math.pi, QuenchSchedule(g0=0.1, t_q=tau), 512, g_const=gc
    )
    expect = np.array(
        [
            [math.cos(gc * tau), 1j * math.sin(gc * tau)],
            [1j * math.sin(gc * tau), math.cos(gc * tau)],
        ]
    )
    assert np.max(np.abs(rep.U - expect)) < 1e-10
    assert math.isnan(rep.magnus_deviation)


def test_matches_magnus_on_sudden_ramp(hopping_dominated):
    p = hopping_dominated
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=1e-4 / gap(p, kd))
    rep = integrate_interaction_picture(p, kd, s, 1024)
    assert rep.magnus_deviation <= 1e-6
    assert rep.unitarity_defect <= 1e-9
    assert not rep.warning


def test_step_halving_shows_fourth_order(hopping_dominated):
    """Error must drop ~16x per halving on a resolvable instance."""
    p = hopping_dominated
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=2.0 / gap(p, kd))
    d = reduced_coeffs(p, kd).delta
    S = None  # direct three-resolution comparison, no Magnus involved
    U = {}
    for n in (64, 128, 256):
        U[n] = integrate_interaction_picture(p, kd, s, n).U
    ratio = np.max(np.abs(U[64] - U[128])) / np.max(np.abs(U[128] - U[256]))
    assert 12.0 <= ratio <= 20.0
    # and at high resolution the result agrees with the closed form up to
    # its own truncation error (a few percent at g*t_q ~ 1)
    rep = integrate_interaction_picture(p, kd, s, 4096)
    S = magnus_propagator(p.g, d, s.t_q, s.t_q)
    assert np.max(np.abs(rep.U - S)) < 0.05


def test_warning_flag_for_underresolved_run(hopping_dominated):
    p = hopping_dominated
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=20.0 / gap(p, kd))
    rep = integrate_interaction_picture(p, kd, s, 16)
    assert rep.warning
    assert rep.error_estimate > 1e-8
    fine = integrate_interaction_picture(p, kd, s, 16, error_target=1e-2)
    assert not fine.warning  # same run, laxer target


def test_step_count_floor(hopping_dominated):
    with pytest.raises(ValueError):
        integrate_interaction_picture(
            hopping_dominated, 0.3, QuenchSchedule(g0=0.1, t_q=1.0), 8
        )


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_lattice_spectrum_matches_bands(N, hopping_dominated):
    base = hopping_dominated
    for m in {0, 1, N // 2}:
        theta = 2.0 * math.pi * m / N
        p = LatticeParams(
            omega_m=base.omega_m,
            Delta=base.Delta,
            J=base.J,
            K=base.K,
            g=base.g,
            theta=theta,
        )
        spec = finite_lattice_spectrum(p, N, m)
        assert spec.N_sites == N
        assert spec.theta == p.theta
        assert spec.eigenvalues.shape == (2 * N,)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        ref = bloch_grid_energies(p, N)
        assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-10


def test_lattice_decoupled_rings():
    p = LatticeParams(g=0.0)
    N = 8
    spec = finite_lattice_spectrum(p, N, 0)
    grid = 2.0 * math.pi * np.arange(N) / N
    expect = np.sort(
        np.concatenate(
            [-p.Delta - 2.0 * p.J * np.cos(grid), p.omega_m - 2.0 * p.K * np.cos(grid)]
        )
    )
    np.testing.assert_allclose(spec.eigenvalues, expect, atol=1e-10)


def test_two_cell_ring_by_hand():
    # N=2 allows kd in {0, pi} only; four eigenvalues total
    p = LatticeParams(theta=math.pi)
    spec = finite_lattice_spectrum(p, 2, 1)
    vals = []
    for kd in (0.0, math.pi):
        rc = reduced_coeffs(p, kd)
        mid = 0.5 * (rc.Omega - rc.xi)
        r = math.hypot(p.g, rc.delta)
        vals += [mid - r, mid + r]
    np.testing.assert_allclose(spec.eigenvalues, np.sort(vals), atol=1e-10)


def test_incommensurate_phase_rejected():
    with pytest.raises(CommensurabilityError):
        finite_lattice_spectrum(LatticeParams(theta=0.3), 8, 1)
    with pytest.raises(ValueError):
        finite_lattice_spectrum(LatticeParams(), 1, 0)


def test_lattice_hamiltonian_is_hermitian():
    H = _lattice_hamiltonian(LatticeParams(theta=2.0 * math.pi / 8), 8)
    assert H.shape == (16, 16)
    assert np.max(np.abs(H - H.conj().T)) == 0.0


def test_small_rings_match_the_bloch_bands_across_a_parameter_grid():
    # two- to four-cell rings over six decades of every rate
    worst = 0.0
    for omega_m, Delta, J, K, g, (N, m) in itertools.product(
        (0.001, 1.0, 4.3, 1000.0),
        (-4.3, 0.1, 60.0, -10000.0),
        (0.5, 30.0, 1000.0),
        (0.2, 0.6, 16.0),
        (0.1, -0.001, 1e-6),
        ((2, 0), (2, 1), (3, 1), (4, 1)),
    ):
        p = LatticeParams(
            omega_m=omega_m, Delta=Delta, J=J, K=K, g=g, theta=2.0 * math.pi * m / N
        )
        evals = finite_lattice_spectrum(p, N, m).eigenvalues
        worst = max(worst, np.max(np.abs(evals - bloch_grid_energies(p, N))))
    assert worst <= 1e-10
