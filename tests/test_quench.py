"""Ramp propagator against direct quadrature, plus population bookkeeping.

The first- and second-order ramp integrals have independent quadrature
oracles here (scipy.integrate); everything else leans on exact algebraic
invariants (unitarity, conservation, n_th scaling).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from omband import (
    DEFAULT_BATH,
    MAGNUS_SERIES_CROSSOVER,
    BathParams,
    LatticeParams,
    QuenchSchedule,
    QuenchTimeRule,
    SingularBathError,
    coupling_schedule,
    gap,
    hybrid_basis,
    magnus_phi,
    magnus_propagator,
    magnus_terms,
    magnus_theta,
    mode_populations,
    net_excitations,
    quench_map,
    quench_scan,
    quench_trace,
    thermal_populations,
)
from omband.quench import _phi_closed, _phi_series, _theta_closed, _theta_series

# one sudden-ramp instance, frozen when the closed forms were first
# validated against quadrature (g0=0.1, kd=0.48pi of the default set)
FROZEN_DELTA = 0.018837155858793864
FROZEN_TQ = 0.0004913583499594351
FROZEN_THETA_M = -1.4031510630633573e-15 + 1.5159705263576322e-10j
FROZEN_PHI_M = -1.489769552858325e-15
# and one resolvable instance on the closed-form branch
FROZEN_THETA_M_CLOSED = -0.058086076039439626 - 0.03760055140734811j
FROZEN_PHI_M_CLOSED = 0.000833628592292986


def _ramp(g0, t_q):
    return lambda t: g0 * (1.0 - 2.0 * t / t_q)


def quad_theta(g0, d, t_q, t):
    """-Int_0^t g(t') e^{2 i d t'} dt' by adaptive quadrature."""
    g = _ramp(g0, t_q)
    re = integrate.quad(
        lambda u: g(u) * math.cos(2.0 * d * u), 0.0, t, epsabs=1e-14, epsrel=1e-12
    )[0]
    im = integrate.quad(
        lambda u: g(u) * math.sin(2.0 * d * u), 0.0, t, epsabs=1e-14, epsrel=1e-12
    )[0]
    return -(re + 1j * im)


def quad_phi(g0, d, t_q, t):
    """Ordered double integral of g(t1) g(t2) sin(2 d (t1 - t2))."""
    g = _ramp(g0, t_q)
    val = integrate.dblquad(
        lambda t2, t1: g(t1) * g(t2) * math.sin(2.0 * d * (t1 - t2)),
        0.0,
        t,
        0.0,
        lambda t1: t1,
        epsabs=1e-13,
        epsrel=1e-11,
    )[0]
    return val


def test_schedule_endpoints():
    s = QuenchSchedule(g0=0.1, t_q=2.0)
    assert s.g(0.0) == 0.1
    assert s.g(1.0) == 0.0
    assert s.g(2.0) == -0.1
    assert coupling_schedule(s, 0.5) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        s.g(-0.1)
    with pytest.raises(ValueError):
        s.g(2.1)
    with pytest.raises(ValueError):
        QuenchSchedule(g0=0.1, t_q=0.0)


def test_frozen_magnus_instance():
    th = magnus_theta(0.1, FROZEN_DELTA, FROZEN_TQ, FROZEN_TQ)
    ph = magnus_phi(0.1, FROZEN_DELTA, FROZEN_TQ, FROZEN_TQ)
    assert th == pytest.approx(FROZEN_THETA_M, rel=1e-12)
    assert ph == pytest.approx(FROZEN_PHI_M, rel=1e-12)
    th = magnus_theta(0.1, 0.7, 3.0, 2.0)
    ph = magnus_phi(0.1, 0.7, 3.0, 2.0)
    assert th == pytest.approx(FROZEN_THETA_M_CLOSED, rel=1e-12)
    assert ph == pytest.approx(FROZEN_PHI_M_CLOSED, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_magnus_integrals_match_quadrature(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        g0 = float(rng.uniform(0.05, 0.3)) * float(rng.choice([-1.0, 1.0]))
        d = float(rng.uniform(0.05, 1.5)) * float(rng.choice([-1.0, 1.0]))
        t_q = float(rng.uniform(0.05, 4.0))
        t = float(rng.uniform(0.1, 1.0)) * t_q
        th = magnus_theta(g0, d, t_q, t)
        ph = magnus_phi(g0, d, t_q, t)
        assert abs(th - quad_theta(g0, d, t_q, t)) < 1e-9
        assert abs(ph - quad_phi(g0, d, t_q, t)) < 1e-9


def test_small_phase_branch_matches_quadrature():
    # |2 d t_q| below the series crossover on purpose
    for d in (0.004, -0.011, 0.03):
        t_q = 1.7
        assert abs(2.0 * d * t_q) < MAGNUS_SERIES_CROSSOVER
        t = 0.6 * t_q
        assert abs(magnus_theta(0.1, d, t_q, t) - quad_theta(0.1, d, t_q, t)) < 1e-12
        assert abs(magnus_phi(0.1, d, t_q, t) - quad_phi(0.1, d, t_q, t)) < 1e-12


def test_branches_agree_at_the_crossover():
    """Series and closed form evaluated at the same inputs, both sides."""
    for u in (0.3, 0.45, 0.499, 0.5, 0.6, 0.8):
        for t_q in (0.3, 2.0, 17.0):
            d = u / (2.0 * t_q)
            t = 0.775 * t_q
            ts = _theta_series(0.1, d, t_q, t)
            tc = _theta_closed(0.1, d, t_q, t)
            assert abs(ts - tc) <= 1e-11 * max(abs(ts), 1e-300)
            ps = _phi_series(0.1, d, t_q, t)
            pc = _phi_closed(0.1, d, t_q, t)
            assert abs(ps - pc) <= 1e-10 * max(abs(ps), 1e-300)


def test_zero_detuning_integrals_are_polynomial():
    # d = 0: theta = -g0 (t - t^2/t_q) exactly, phi = 0
    g0, t_q = 0.2, 3.0
    for t in (0.0, 0.7, 1.5, 3.0):
        expect = -g0 * (t - t * t / t_q)
        assert magnus_theta(g0, 0.0, t_q, t) == pytest.approx(expect, abs=1e-15)
        assert magnus_phi(g0, 0.0, t_q, t) == 0.0
    # and the full ramp integrates to exactly zero by symmetry
    assert magnus_theta(g0, 0.0, t_q, t_q) == pytest.approx(0.0, abs=1e-16)


def test_magnus_terms_bundle():
    mt = magnus_terms(0.1, 0.7, 3.0, 2.0)
    assert mt.theta_M == magnus_theta(0.1, 0.7, 3.0, 2.0)
    assert mt.phi_M == magnus_phi(0.1, 0.7, 3.0, 2.0)
    assert mt.eta == pytest.approx(math.hypot(abs(mt.theta_M), mt.phi_M), rel=1e-15)
    assert mt.zeta_M == pytest.approx(2.0 - 16.0 / 9.0, rel=1e-14)


@given(
    g0=st.floats(-0.5, 0.5),
    d=st.floats(-2.0, 2.0),
    t_q=st.floats(1e-4, 10.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_propagator_is_unitary(g0, d, t_q, frac):
    S = magnus_propagator(g0, d, t_q, frac * t_q)
    assert np.max(np.abs(S @ S.conj().T - np.eye(2))) < 1e-12


def test_propagator_rabi_form_at_zero_detuning():
    g0, t_q = 0.2, 3.0
    t = 0.9
    th = -g0 * (t - t * t / t_q)  # real
    S = magnus_propagator(g0, 0.0, t_q, t)
    expect = np.array(
        [
            [math.cos(th), 1j * math.sin(th)],
            [1j * math.sin(th), math.cos(th)],
        ]
    )
    np.testing.assert_allclose(S, expect, atol=1e-14)


def test_quench_map_identity_at_start(hopping_dominated):
    s = QuenchSchedule(g0=0.1, t_q=0.01)
    M = quench_map(hopping_dominated, 0.3, s, 0.0)
    np.testing.assert_allclose(M, np.eye(2), atol=1e-12)


def test_quench_map_sudden_limit(hopping_dominated):
    p = hopping_dominated
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=1e-8)
    M = quench_map(p, kd, s, s.t_q)
    R0 = hybrid_basis(p, kd).R
    R1 = hybrid_basis(replace(p, g=-p.g), kd).R
    np.testing.assert_allclose(M, R1 @ R0.T, atol=1e-4)


def test_bath_validation():
    BathParams(kappa=0.0, Gamma=0.001)  # one zero rate is fine
    BathParams(kappa=0.1, Gamma=0.0)
    with pytest.raises(ValueError):
        BathParams(kappa=0.0, Gamma=0.0)
    with pytest.raises(ValueError):
        BathParams(kappa=-0.1)
    with pytest.raises(ValueError):
        BathParams(n_th=-1.0)
    assert DEFAULT_BATH == BathParams(kappa=0.1, Gamma=0.001, n_th=100.0)


def test_thermal_population_limits():
    bath = BathParams(kappa=0.1, Gamma=0.001, n_th=50.0)
    th = thermal_populations(1.0, bath)  # fully photonic A
    assert th.N_th_A == 0.0
    assert th.N_th_B == pytest.approx(50.0, rel=1e-14)
    th = thermal_populations(0.0, bath)
    assert th.N_th_A == pytest.approx(50.0, rel=1e-14)
    assert th.N_th_B == 0.0
    # equal rates: occupations are just the phonon weights times n_th
    bath = BathParams(kappa=0.02, Gamma=0.02, n_th=10.0)
    th = thermal_populations(0.3, bath)
    assert th.N_th_A == pytest.approx(7.0, rel=1e-14)
    assert th.N_th_B == pytest.approx(3.0, rel=1e-14)


def test_thermal_population_singular_bath():
    with pytest.raises(SingularBathError):
        thermal_populations(1.0, BathParams(kappa=0.0, Gamma=0.001))
    with pytest.raises(SingularBathError):
        thermal_populations(0.0, BathParams(kappa=0.1, Gamma=0.0))
    with pytest.raises(ValueError):
        thermal_populations(1.2, DEFAULT_BATH)


def test_mode_population_bookkeeping():
    th = thermal_populations(0.3, BathParams(kappa=0.02, Gamma=0.02, n_th=10.0))
    N_A, N_B = mode_populations(np.eye(2), th, 10.0)
    assert N_A == pytest.approx(0.7, rel=1e-14)
    assert N_B == pytest.approx(0.3, rel=1e-14)
    q_A, q_B = net_excitations(N_A, N_B, th, 10.0)
    assert abs(q_A) < 1e-15 and abs(q_B) < 1e-15
    # a swap matrix exchanges the two reservoirs
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    N_A, N_B = mode_populations(swap, th, 10.0)
    assert N_A == pytest.approx(0.3, rel=1e-14)
    assert N_B == pytest.approx(0.7, rel=1e-14)
    # zero-temperature bath: nothing to propagate
    th0 = thermal_populations(0.3, BathParams(kappa=0.02, Gamma=0.02, n_th=0.0))
    assert mode_populations(swap, th0, 0.0) == (0.0, 0.0)
    assert net_excitations(0.0, 0.0, th0, 0.0) == (0.0, 0.0)


def test_trace_starts_at_thermal_baseline(hopping_dominated):
    p = hopping_dominated
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=1e-3)
    recs = quench_trace(p, kd, s, n_t=16)
    assert len(recs) == 16
    th = thermal_populations(hybrid_basis(p, kd).alpha_A, DEFAULT_BATH)
    assert recs[0].t == 0.0
    assert recs[0].N_A == pytest.approx(th.N_th_A / DEFAULT_BATH.n_th, rel=1e-12)
    assert recs[0].N_B == pytest.approx(th.N_th_B / DEFAULT_BATH.n_th, rel=1e-12)
    assert recs[0].Nq_A == 0.0 and recs[0].Nq_B == 0.0
    assert recs[-1].t == pytest.approx(s.t_q)


@pytest.mark.parametrize("theta", [0.0, 0.8 * math.pi, math.pi])
@pytest.mark.parametrize("kd_over_pi", [0.48, -0.7, 0.2])
def test_trace_conserves_total_population(theta, kd_over_pi):
    p = LatticeParams(theta=theta)
    kd = kd_over_pi * math.pi
    s = QuenchSchedule(g0=p.g, t_q=1e-4 / gap(p, kd))
    recs = quench_trace(p, kd, s, n_t=64)
    totals = [r.N_A + r.N_B for r in recs]
    assert max(totals) - min(totals) < 1e-10


def test_populations_invariant_under_nth_scaling(hopping_dominated):
    p = hopping_dominated
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=1e-4 / gap(p, kd))
    a = quench_trace(p, kd, s, n_t=32, bath=BathParams(n_th=100.0))
    b = quench_trace(p, kd, s, n_t=32, bath=BathParams(n_th=1000.0))
    for ra, rb in zip(a, b):
        assert ra.N_A == pytest.approx(rb.N_A, rel=1e-12)
        assert ra.N_B == pytest.approx(rb.N_B, rel=1e-12)
        assert ra.Nq_A == pytest.approx(rb.Nq_A, rel=1e-12, abs=1e-15)
        assert ra.Nq_B == pytest.approx(rb.Nq_B, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("params", ["hopping_dominated", "coupling_dominated"])
def test_trace_through_the_zero_coupling_sample(params, request):
    # odd n_t puts a sample at t_q / 2, where g(t) = 0 exactly
    p = request.getfixturevalue(params)
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=1.0 / gap(p, kd))
    recs = quench_trace(p, kd, s, n_t=5)
    assert recs[2].t == 0.5 * s.t_q and coupling_schedule(s, recs[2].t) == 0.0
    th = thermal_populations(hybrid_basis(p, kd).alpha_A, DEFAULT_BATH)
    for r in recs:
        values = (r.N_A, r.N_B, r.Nq_A, r.Nq_B)
        assert all(math.isfinite(v) for v in values)
        assert abs(r.Nq_A + r.Nq_B) <= 1e-13
        N_A, N_B = mode_populations(quench_map(p, kd, s, r.t), th, DEFAULT_BATH.n_th)
        Nq_A, Nq_B = net_excitations(N_A, N_B, th, DEFAULT_BATH.n_th)
        assert values == pytest.approx((N_A, N_B, Nq_A, Nq_B), rel=0, abs=1e-13)


def test_scan_grid_and_ordering(hopping_dominated):
    recs = quench_scan(hopping_dominated, QuenchTimeRule(), n_k=33)
    assert len(recs) == 33
    kds = [r.kd for r in recs]
    assert kds == sorted(kds)
    assert kds[0] == pytest.approx(-math.pi) and kds[-1] == pytest.approx(math.pi)
    # per-k rule: t column is the local ramp time 1e-4 / gap
    for r in recs[:: (len(recs) // 8)]:
        assert r.t == pytest.approx(1e-4 / gap(hopping_dominated, r.kd), rel=1e-12)


def test_scan_theta_override(hopping_dominated):
    a = quench_scan(hopping_dominated, QuenchTimeRule(), theta=math.pi, n_k=33)
    b = quench_scan(replace(hopping_dominated, theta=math.pi), QuenchTimeRule(), n_k=33)
    assert a == b


def test_scan_without_coupling_produces_no_excitation():
    p = LatticeParams(g=0.0)
    recs = quench_scan(p, QuenchTimeRule(mode="fixed", t_q=0.5), n_k=33)
    finite = [r for r in recs if not math.isnan(r.Nq_A)]
    degenerate = [r for r in recs if math.isnan(r.Nq_A)]
    assert len(finite) > 25
    assert len(degenerate) > 0  # band crossings have no preferred basis
    for r in finite:
        assert abs(r.Nq_A) < 1e-12 and abs(r.Nq_B) < 1e-12


def test_scan_global_min_rule(hopping_dominated):
    recs = quench_scan(
        hopping_dominated, QuenchTimeRule(mode="global-min", scale=1e-3), n_k=17
    )
    t_qs = {r.t for r in recs}
    assert len(t_qs) == 1
    assert t_qs.pop() == pytest.approx(1e-3 / (2.0 * hopping_dominated.g), rel=1e-9)


def test_time_rule_validation():
    with pytest.raises(ValueError):
        QuenchTimeRule(mode="bogus")
    with pytest.raises(ValueError):
        QuenchTimeRule(mode="fixed")  # needs t_q
    with pytest.raises(ValueError):
        QuenchTimeRule(scale=0.0)
    with pytest.raises(ValueError):
        quench_scan(LatticeParams(), QuenchTimeRule(), n_k=1)
