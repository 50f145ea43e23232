import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from omband import (
    DEFAULT_BATH,
    BathParams,
    DriveParams,
    LatticeParams,
    QuenchSchedule,
    QuenchTimeRule,
    band_scan,
    bloch_hamiltonian,
    coupling_schedule,
    finite_lattice_spectrum,
    integrate_interaction_picture,
    magnus_theta,
    reduced_coeffs,
    solve_meanfield,
    thermal_populations,
)
from omband.quench import quench_scan_array, quench_trace_array


def test_defaults():
    p = LatticeParams()
    assert (p.omega_m, p.Delta, p.J, p.K, p.g, p.theta) == (
        4.3,
        -4.3,
        0.5,
        0.2,
        0.1,
        0.0,
    )


def test_theta_is_folded_to_half_open_interval():
    assert LatticeParams(theta=3.0 * math.pi).theta == pytest.approx(math.pi)
    assert LatticeParams(theta=-math.pi).theta == pytest.approx(math.pi)
    assert LatticeParams(theta=math.pi).theta == math.pi
    assert LatticeParams(theta=-0.5 * math.pi).theta == -0.5 * math.pi


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega_m": 0.0},
        {"omega_m": -1.0},
        {"J": -0.1},
        {"K": -1e-9},
        {"Delta": math.nan},
        {"g": math.inf},
        {"theta": math.nan},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        LatticeParams(**kwargs)


def test_ints_are_normalized_to_floats():
    p = LatticeParams(omega_m=4, Delta=-4, J=1, K=0, g=0, theta=0)
    for name in ("omega_m", "Delta", "J", "K", "g", "theta"):
        assert isinstance(getattr(p, name), float)


def test_reduced_coeffs_hand_value():
    # Omega = 4.3 - 0.4 cos(kd), xi = -4.3 + cos(kd + theta)
    p = LatticeParams()
    rc = reduced_coeffs(p, 0.0)
    assert rc.Omega == pytest.approx(3.9, abs=1e-15)
    assert rc.xi == pytest.approx(-3.3, abs=1e-15)
    assert rc.delta == pytest.approx(0.3, abs=1e-15)
    rc = reduced_coeffs(LatticeParams(theta=math.pi), 0.0)
    assert rc.xi == pytest.approx(-5.3, abs=1e-15)
    assert rc.delta == pytest.approx(-0.7, abs=1e-15)


def test_bloch_hamiltonian_layout():
    p = LatticeParams(g=0.17)
    H = bloch_hamiltonian(p, 0.31)
    rc = reduced_coeffs(p, 0.31)
    assert H.shape == (2, 2) and H.dtype == float
    assert H[0, 0] == -rc.xi
    assert H[1, 1] == rc.Omega
    assert H[0, 1] == H[1, 0] == -0.17


def test_kd_must_be_finite():
    with pytest.raises(ValueError):
        reduced_coeffs(LatticeParams(), math.nan)


@given(
    kd=st.floats(-10.0, 10.0),
    theta=st.floats(-3.0, 3.0),
    J=st.floats(0.0, 2.0),
    K=st.floats(0.0, 2.0),
)
def test_periodicity_in_kd(kd, theta, J, K):
    p = LatticeParams(J=J, K=K, theta=theta)
    a = reduced_coeffs(p, kd)
    b = reduced_coeffs(p, kd + 2.0 * math.pi)
    assert a.Omega == pytest.approx(b.Omega, abs=1e-12)
    assert a.xi == pytest.approx(b.xi, abs=1e-12)


@given(kd=st.floats(-math.pi, math.pi), g=st.floats(-1.0, 1.0))
def test_hamiltonian_matches_coefficients(kd, g):
    p = LatticeParams(g=g)
    H = bloch_hamiltonian(p, kd)
    rc = reduced_coeffs(p, kd)
    assert np.allclose(H, [[-rc.xi, -g], [-g, rc.Omega]], atol=0, rtol=0)


_P = LatticeParams()
_RAMP = QuenchSchedule(0.1, 1.0)

# every range-checked parameter of the library: its name, a call that passes
# a value to it, and one value outside its accepted values
RANGE_SITES = {
    "LatticeParams.omega_m": ("omega_m", lambda v: LatticeParams(omega_m=v), 0.0),
    "LatticeParams.Delta": ("Delta", lambda v: LatticeParams(Delta=v), math.inf),
    "LatticeParams.J": ("J", lambda v: LatticeParams(J=v), -1.0),
    "LatticeParams.K": ("K", lambda v: LatticeParams(K=v), -5e-324),
    "LatticeParams.g": ("g", lambda v: LatticeParams(g=v), math.nan),
    "LatticeParams.theta": ("theta", lambda v: LatticeParams(theta=v), -math.inf),
    "DriveParams.Omega_d": ("Omega_d", lambda v: DriveParams(Omega_d=v), -1.0),
    "DriveParams.G": ("G", lambda v: DriveParams(G=v), math.inf),
    "DriveParams.kappa": ("kappa", lambda v: DriveParams(kappa=v), -1.0),
    "DriveParams.gamma_m": ("gamma_m", lambda v: DriveParams(gamma_m=v), math.nan),
    "BathParams.kappa": ("kappa", lambda v: BathParams(kappa=v), -1.0),
    "BathParams.Gamma": ("Gamma", lambda v: BathParams(Gamma=v), math.inf),
    "BathParams.n_th": ("n_th", lambda v: BathParams(n_th=v), -5e-324),
    "QuenchSchedule.g0": ("g0", lambda v: QuenchSchedule(v, 1.0), math.nan),
    "QuenchSchedule.t_q": ("t_q", lambda v: QuenchSchedule(0.1, v), 0.0),
    "QuenchTimeRule.mode": ("mode", lambda v: QuenchTimeRule(mode=v), "linear"),
    "QuenchTimeRule.scale": ("scale", lambda v: QuenchTimeRule(scale=v), 0.0),
    "QuenchTimeRule.t_q": ("t_q", lambda v: QuenchTimeRule("fixed", t_q=v), math.inf),
    "magnus_theta.g0": ("g0", lambda v: magnus_theta(v, 0.1, 1.0, 0.5), math.inf),
    "magnus_theta.delta_half": ("delta_half", lambda v: magnus_theta(0.1, v, 1.0, 0.5), math.nan),
    "magnus_theta.t_q": ("t_q", lambda v: magnus_theta(0.1, 0.1, v, 0.0), -1.0),
    "magnus_theta.t": ("t", lambda v: magnus_theta(0.1, 0.1, 1.0, v), math.nextafter(1.0, 2.0)),
    "coupling_schedule.t": ("t", lambda v: coupling_schedule(_RAMP, v), -5e-324),
    "thermal_populations.alpha_A": (
        "alpha_A", lambda v: thermal_populations(v, DEFAULT_BATH), 1.5,
    ),
    "reduced_coeffs.kd": ("kd", lambda v: reduced_coeffs(_P, v), math.inf),
    "solve_meanfield.tol": ("tol", lambda v: solve_meanfield(DriveParams(), tol=v), 0.0),
    "solve_meanfield.damping": (
        "damping", lambda v: solve_meanfield(DriveParams(), damping=v), 2.0,
    ),
    "band_scan.n_k": ("n_k", lambda v: band_scan(_P, v), 1),
    "quench_scan_array.n_k": (
        "n_k", lambda v: quench_scan_array(_P, QuenchTimeRule(), n_k=v), 1,
    ),
    "quench_trace_array.n_t": ("n_t", lambda v: quench_trace_array(_P, 0.3, _RAMP, n_t=v), 1),
    "finite_lattice_spectrum.N_sites": (
        "N_sites", lambda v: finite_lattice_spectrum(_P, v, 0), 1,
    ),
    "integrate_interaction_picture.n_steps": (
        "n_steps", lambda v: integrate_interaction_picture(_P, 0.3, _RAMP, v), 15,
    ),
}


@pytest.mark.parametrize("kind", ["out of range", "str", "None"])
@pytest.mark.parametrize("site", list(RANGE_SITES))
def test_every_range_check_refuses_in_one_form(site, kind):
    # a non-number is a ValueError too, never a TypeError
    name, call, bad = RANGE_SITES[site]
    value = {"out of range": bad, "str": "x", "None": None}[kind]
    with pytest.raises(ValueError) as refused:
        call(value)
    assert re.fullmatch(
        rf"{name}: must (lie in \[\S+, \S+\]|be one of [\w, -]+) \(got .+\)", str(refused.value)
    )
