"""Ramp propagator against direct quadrature, plus population bookkeeping.

The first- and second-order ramp integrals have independent quadrature
oracles here (scipy.integrate); everything else leans on exact algebraic
invariants (unitarity, conservation, n_th scaling).
"""

import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from omband import (
    DEFAULT_BATH,
    MAGNUS_SERIES_CROSSOVER,
    BathParams,
    DegeneratePointError,
    LatticeParams,
    QuenchRecord,
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
from omband.bands import basis_arrays
from omband.model import coeff_arrays
from omband.quench import (
    _SERIES_TERMS,
    QUENCH_COLUMNS,
    _closed,
    _series,
    propagator_array,
    quench_scan_array,
    quench_trace_array,
    ramp_times,
    thermal_arrays,
)

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


def quad_phi(g0, d, t_q, t, epsabs=1e-13, epsrel=1e-11):
    """Ordered double integral of g(t1) g(t2) sin(2 d (t1 - t2))."""
    g = _ramp(g0, t_q)
    val = integrate.dblquad(
        lambda t2, t1: g(t1) * g(t2) * math.sin(2.0 * d * (t1 - t2)),
        0.0,
        t,
        0.0,
        lambda t1: t1,
        epsabs=epsabs,
        epsrel=epsrel,
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


def test_schedule_at_the_largest_ramp_time():
    # 2 t overflows here, but the fraction t / t_q of the ramp does not
    big = 1.7976931348623157e308
    s = QuenchSchedule(g0=0.1, t_q=big)
    assert (s.g(big), s.g(big / 2)) == (-0.1, 0.0)


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


@pytest.mark.parametrize("t", [0.001, 0.01, 0.1])
def test_each_sample_takes_the_branch_of_its_own_phase(t):
    # |2 d t_q| = 0.5 is at the crossover, but the phase |2 d t| reached by
    # these samples is far below it, where the closed form loses digits
    want = quad_phi(0.1, 0.25, 1.0, t, epsabs=0.0, epsrel=1.2e-14)
    assert magnus_phi(0.1, 0.25, 1.0, t) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_branches_agree_at_the_crossover():
    """Series and closed form evaluated at the same inputs, both sides."""
    for u in (0.3, 0.45, 0.499, 0.5, 0.6, 0.8):
        for t_q in (0.3, 2.0, 17.0):
            d = u / (2.0 * t_q)
            t = 0.775 * t_q
            ts, ps = _series(0.1 * t_q, d * t_q, t / t_q)
            tc, pc = _closed(0.1 * t_q, d * t_q, t / t_q)
            assert abs(ts - tc) <= 1e-11 * max(abs(ts), 1e-300)
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


@pytest.mark.parametrize("args", [
    (1e-300, 0.1, 1e200, 1e200),  # x = delta t_q: x**3, and zeta's t * t
    (0.1, 0.1, 1e200, 1e200),  # and a = g0 t_q squared
    (0.1, 1e300, 1.0, 1.0),  # x**3
    (1e160, 0.1, 1.0, 1.0),  # a * a
    (0.1, 0.1, 1e103, 1e103),  # t**3, once formed for zeta
])
def test_scalar_magnus_functions_share_the_arrays_policy(args):
    # non-finite terms come back as values, as from propagator_array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = magnus_terms(*args)
        assert (magnus_theta(*args), magnus_phi(*args)) == (terms.theta_M, terms.phi_M)
        assert np.isfinite(magnus_propagator(*args)).all() == math.isfinite(terms.eta)


def test_magnus_terms_bundle():
    mt = magnus_terms(0.1, 0.7, 3.0, 2.0)
    assert mt.theta_M == magnus_theta(0.1, 0.7, 3.0, 2.0)
    assert mt.phi_M == magnus_phi(0.1, 0.7, 3.0, 2.0)
    assert mt.eta == pytest.approx(math.hypot(abs(mt.theta_M), mt.phi_M), rel=1e-15)
    assert mt.zeta_M == pytest.approx(2.0 - 16.0 / 9.0, rel=1e-14)
    assert magnus_terms(0.1, 0.1, 1e200, 0.0).zeta_M == 0.0  # though t_q^2 overflows


def exact_end_theta(g0, d, t_q):
    """theta_M at t = t_q from the same truncated series, in exact rationals.

    At tau = 1 the n-th coefficient 1/(n+1)! - 2/(n! (n+2)) is -n/(n+2)!.
    """
    a, y = Fraction(g0) * Fraction(t_q), 2 * Fraction(d) * Fraction(t_q)
    parts = [Fraction(0), Fraction(0)]  # real (even n) and imaginary (odd n) parts
    for n in range(_SERIES_TERMS):  # i^n = (-1)^(n // 2) i^(n % 2)
        parts[n % 2] += Fraction(n * (-1) ** (n // 2), math.factorial(n + 2)) * y**n
    return a * parts[0], a * parts[1]


@pytest.mark.parametrize("params", ["hopping_dominated", "coupling_dominated"])
def test_end_of_ramp_theta_matches_exact_series(params, request):
    # the per-k rule puts every row on the series branch; at tau = 1 its
    # constant term vanishes exactly, so the float sum keeps full precision
    p = request.getfixturevalue(params)
    kd = np.linspace(-math.pi, math.pi, 257)
    t_q = ramp_times(p, QuenchTimeRule(), kd)
    d = coeff_arrays(p, kd)[2]
    assert np.all(np.abs(2.0 * d * t_q) < MAGNUS_SERIES_CROSSOVER)
    worst = 0.0
    for d_k, t_k in zip(d.tolist(), t_q.tolist()):
        th = magnus_theta(p.g, d_k, t_k, t_k)
        re, im = exact_end_theta(p.g, d_k, t_k)
        if d_k == 0.0:
            assert th == 0.0
            continue
        err = (Fraction(th.real) - re) ** 2 + (Fraction(th.imag) - im) ** 2
        worst = max(worst, math.sqrt(err / (re * re + im * im)))
    assert worst <= 2e-15


@pytest.mark.parametrize("k", [60, -60, 300, -300, 600, -600, 900, -900])
def test_propagator_reads_the_ramp_in_its_own_units(k):
    # scaling g0 and d by 2^-k and t_q and t by 2^k leaves a = g0 t_q,
    # x = d t_q and tau = t / t_q, so S, bit for bit
    g0, d, t_q, frac = np.meshgrid(
        [0.1, -0.25], [0.0, 0.004, -0.03, 0.7, -2.5], [0.3, 3.0], [0.0, 0.3, 1.0]
    )
    t = frac * t_q
    series = np.abs(2.0 * d * t_q) < MAGNUS_SERIES_CROSSOVER
    assert series.any() and not series.all()
    S = propagator_array(g0, d, t_q, t)
    scaled = propagator_array(np.ldexp(g0, -k), np.ldexp(d, -k), np.ldexp(t_q, k), np.ldexp(t, k))
    np.testing.assert_array_equal(scaled, S)


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


def test_quench_map_refuses_a_degenerate_sample():
    # delta = 0 at every kd for J = K on the default set, and g(t_q / 2) = 0
    with pytest.raises(DegeneratePointError, match=r"kd=0\.3 "):
        quench_map(LatticeParams(J=0.2, K=0.2), 0.3, QuenchSchedule(0.1, 1.0), 0.5)


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


TIME_RULES = [
    QuenchTimeRule(),
    QuenchTimeRule(mode="global-min", scale=1e-3),
    QuenchTimeRule(mode="fixed", t_q=0.5),
]


def record_table(records):
    """The records as rows of their fields, in QUENCH_COLUMNS order."""
    return [[getattr(r, name) for name in QUENCH_COLUMNS] for r in records]


def test_quench_columns_are_the_record_fields():
    assert QUENCH_COLUMNS == tuple(f.name for f in fields(QuenchRecord))


@pytest.mark.parametrize("rule", TIME_RULES, ids=lambda r: r.mode)
@pytest.mark.parametrize("g", [0.1, 0.0], ids=["wide", "g0"])
def test_scan_array_matches_records(g, rule):
    p = LatticeParams(g=g)
    scan = quench_scan_array(p, rule, n_k=33)
    assert scan.shape == (33, len(QUENCH_COLUMNS)) and scan.dtype == np.float64
    kd = np.linspace(-math.pi, math.pi, 33)
    np.testing.assert_array_equal(scan[:, :2], np.column_stack((kd, ramp_times(p, rule, kd))))
    # the g = 0 lattice has zero-gap or degenerate rows, NaN-filled
    assert np.isnan(scan).any() == (g == 0.0)
    np.testing.assert_array_equal(scan, record_table(quench_scan(p, rule, n_k=33)))


@pytest.mark.parametrize("rule", TIME_RULES, ids=lambda r: r.mode)
@pytest.mark.parametrize("params", ["hopping_dominated", "coupling_dominated"])
def test_trace_array_matches_records(params, rule, request):
    p = request.getfixturevalue(params)
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=float(ramp_times(p, rule, kd)))
    trace = quench_trace_array(p, kd, s, n_t=33)
    assert trace.shape == (33, len(QUENCH_COLUMNS))
    assert np.all(trace[:, 0] == kd) and trace[-1, 1] == s.t_q
    np.testing.assert_array_equal(trace, record_table(quench_trace(p, kd, s, n_t=33)))


@pytest.mark.parametrize(
    "delta_half, finite_at, overflows_at", [(0.0, 1.3e155, 1.4e155), (1e-3, 1.3e155, 1.4e155)],
    ids=["series", "closed"],
)
def test_ramp_overflow_thresholds(delta_half, finite_at, overflows_at):
    # the README's threshold on both branches: a * a overflows past |a| = |g0 t_q| ~ 1.34e154
    for t_q, finite in ((finite_at, True), (overflows_at, False)):
        assert np.isfinite(propagator_array(0.1, delta_half, t_q, t_q)).all() == finite


@pytest.mark.parametrize("g", [0.1, 0.0], ids=["wide", "g0"])
def test_overflowing_fixed_ramp_time_raises(g):
    # a = g0 t_q squared passes the float range; with
    # RuntimeWarnings as errors, no overflow warning may escape either
    p = LatticeParams(g=g)
    if g == 0.0:  # a = 0 at any t_q: the ramp does nothing
        trace = quench_trace_array(p, 0.48 * math.pi, QuenchSchedule(g0=p.g, t_q=1e300), n_t=33)
        assert np.all(trace[:, 4:] == 0.0)
        scan = quench_scan_array(p, QuenchTimeRule(mode="fixed", t_q=1e300), n_k=33)
        unit = quench_scan_array(p, QuenchTimeRule(mode="fixed", t_q=1.0), n_k=33)
        nan_rows = np.isnan(unit[:, 4])  # the two delta = 0 rows, degenerate at g = 0
        assert nan_rows.sum() == 2
        np.testing.assert_array_equal(np.isnan(scan[:, 4:]).any(axis=1), nan_rows)
        assert np.all(scan[~nan_rows, 4:] == 0.0)
        return
    with pytest.raises(OverflowError, match="closed forms overflow"):
        quench_scan_array(p, QuenchTimeRule(mode="fixed", t_q=1e300), n_k=33)
    with pytest.raises(OverflowError, match="closed forms overflow"):
        quench_trace_array(p, 0.48 * math.pi, QuenchSchedule(g0=p.g, t_q=1e300), n_t=33)


@pytest.mark.parametrize("g", [1e-5, 1e-3])
def test_scan_excitations_match_extended_precision_transfer(g):
    # Nq_A = P (s_B - s_A) with P = |M_AB|^2, evaluated in np.longdouble from
    # the same float propagators, basis amplitudes and occupations as the scan
    p = LatticeParams(g=g)
    scan = quench_scan_array(p, QuenchTimeRule(), n_k=4096)
    kd, t_q = scan[:, 0], scan[:, 1]
    delta = coeff_arrays(p, kd)[2]
    S = propagator_array(g, delta, t_q, t_q).astype(np.clongdouble)
    _, u0_A, v0_A, u0_B, v0_B = basis_arrays(g, delta)
    _, ut_A, vt_A, _, _ = basis_arrays(-g, delta)  # g(t_q) = -g0
    row_A = [x.astype(np.longdouble) for x in (ut_A, vt_A)]
    col_B = [x.astype(np.longdouble) for x in (u0_B, v0_B)]
    M_AB = sum(row_A[k] * S[:, k, l] * col_B[l] for k in (0, 1) for l in (0, 1))
    P = M_AB.real**2 + M_AB.imag**2
    n_th = np.longdouble(DEFAULT_BATH.n_th)
    N_th_A, N_th_B = (x.astype(np.longdouble) for x in thermal_arrays(u0_A**2, DEFAULT_BATH))
    expect = P * (N_th_B / n_th - N_th_A / n_th)
    assert np.all(expect != 0.0)
    assert float(np.max(np.abs(scan[:, 4] - expect) / np.abs(expect))) <= 2e-15


@pytest.mark.parametrize("rule", TIME_RULES, ids=lambda r: r.mode)
@pytest.mark.parametrize("params", ["hopping_dominated", "coupling_dominated"])
def test_net_excitations_are_exact_opposites(params, rule, request):
    p = request.getfixturevalue(params)
    kd = 0.48 * math.pi
    s = QuenchSchedule(g0=p.g, t_q=float(ramp_times(p, rule, kd)))
    for table in (quench_scan_array(p, rule, n_k=257), quench_trace_array(p, kd, s, n_t=257)):
        assert np.all(table[:, 5] == -table[:, 4])


@pytest.mark.parametrize("params", ["hopping_dominated", "coupling_dominated"])
def test_quench_map_transfers_nothing_at_start(params, request):
    p = request.getfixturevalue(params)
    s = QuenchSchedule(g0=p.g, t_q=0.01)
    for kd in np.linspace(-math.pi, math.pi, 33):
        assert quench_map(p, kd, s, 0.0)[0, 1] == 0.0
