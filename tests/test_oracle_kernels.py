"""The array kernels of the two oracles against the loops they replaced.

``_reference_rk4_ramp`` is the RK4 step loop that ``oracle._rk4_ramp``
ran over ``(batch, 2, 2)`` propagators before it held the batch axis
last; the kernel must stay bit-for-bit equal to it, because verify's
``rk4_order_ratio`` is a ratio of two differences of about 1e-11 and any
reassociation moves it.  The finite-ring spectrum is checked against the
Bloch bands at couplings that are exactly zero or subnormal.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from omband import LatticeParams
from omband.bands import gap_array
from omband.cli import main, parse_config, run_command
from omband.model import coeff_arrays
from omband.oracle import _rk4_ramp, bloch_grid_energies, finite_lattice_spectrum

_BLOCK = 16


def _reference_rk4_ramp(deltas, t_finals, g_of_frac, n_steps):
    d = np.asarray(deltas, dtype=float)
    T = np.asarray(t_finals, dtype=float)
    m = d.shape[0]
    U = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    h = 1.0 / n_steps
    for first in range(0, n_steps, _BLOCK):
        steps = range(first, min(first + _BLOCK, n_steps))
        fracs = [f for s in steps for f in (s * h, s * h + 0.5 * h, s * h + h)]
        g = np.array([g_of_frac(f) for f in fracs])[:, None, None]
        ph = np.exp(-2j * d * (np.array(fracs)[:, None] * T))
        coef = 1j * T[:, None] * g * np.stack((ph, np.conj(ph)), axis=-1)
        for c0, c_half, c1 in coef.reshape(len(fracs) // 3, 3, m, 2, 1):
            k1 = c0 * U[:, ::-1]
            k2 = c_half * (U + 0.5 * h * k1)[:, ::-1]
            k3 = c_half * (U + 0.5 * h * k2)[:, ::-1]
            k4 = c1 * (U + h * k3)[:, ::-1]
            U = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return U


P = LatticeParams()
RAMPS = {
    "linear": lambda frac: P.g * (1.0 - 2.0 * frac),
    "constant": lambda frac: 0.3,
}


def _verify_batch():
    """Detunings and ramp times of verify's Magnus check at the defaults."""
    kds = np.linspace(-math.pi, math.pi, 64)
    thetas = (0.0, 0.25 * math.pi, math.pi, 0.8 * math.pi)
    phases = [replace(P, theta=th) for th in thetas]
    delta = np.concatenate([coeff_arrays(p, kds)[2] for p in phases])
    gaps = np.concatenate([gap_array(p, kds) for p in phases])
    keep = gaps > 0
    return delta[keep], 1e-4 / gaps[keep]


def _batch(size):
    if size == "verify":
        return _verify_batch()
    rng = np.random.default_rng(size)
    return rng.uniform(-5.0, 5.0, size), rng.uniform(0.1, 50.0, size)


@pytest.mark.parametrize("ramp", sorted(RAMPS))
@pytest.mark.parametrize("n_steps", [16, 17, 64, 1000, 1024])
@pytest.mark.parametrize("size", [0, 1, 2, 3, "verify"])
def test_rk4_ramp_is_bit_identical_to_the_step_loop(size, n_steps, ramp):
    d, T = _batch(size)
    U = _rk4_ramp(d, T, RAMPS[ramp], n_steps)
    assert U.shape == (len(d), 2, 2)
    assert np.array_equal(U, _reference_rk4_ramp(d, T, RAMPS[ramp], n_steps))


def test_jacobi_skips_the_exact_zero_pivots_of_an_uncoupled_ring():
    p = replace(P, g=0.0, theta=2.0 * math.pi * 5 / 24)
    evals = finite_lattice_spectrum(p, 24, 5).eigenvalues
    assert not np.isnan(evals).any()
    assert np.max(np.abs(evals - bloch_grid_energies(p, 24))) <= 1e-12


@pytest.mark.parametrize("key", ["g", "J"])
def test_jacobi_zeroes_subnormal_pivots(key):
    # a subnormal entry overflows a solver that divides it by its modulus
    p = replace(P, theta=2.0 * math.pi / 8, **{key: 1e-320})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evals = finite_lattice_spectrum(p, 8, 1).eigenvalues
    assert np.max(np.abs(evals - bloch_grid_energies(p, 8))) <= 1e-12


@pytest.mark.parametrize("key", ["g", "J"])
def test_verify_at_a_subnormal_coupling_writes_its_table(key, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", f"--{key}", "1e-320"])
    out, err = capsys.readouterr()
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 5 and err == ""
    assert code == (0 if all(r[3] == "1" for r in rows) else 1)


FLAT_SET = {
    "omega_m": "4.3", "Delta": "-4.3", "J": "0.043", "K": "0.0013", "g": "0.086"
}


@pytest.mark.parametrize("params", [{}, FLAT_SET], ids=["wide", "flat"])
def test_lattice_vs_bloch_at_24_cells(params):
    cfg = parse_config(None, {**params, "lattice_N": "24", "lattice_m": "5"})
    rows = {row[0]: row[1] for row in run_command(cfg, "verify").rows}
    assert rows["lattice_vs_bloch"] <= 1e-12


def test_two_cell_flat_ring_at_pi_writes_no_warning(capsys):
    argv = ["verify", "--J", "0.043", "--K", "0.0013", "--g", "0.086",
            "--lattice_N", "2", "--lattice_m", "1", "--theta", "pi"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
