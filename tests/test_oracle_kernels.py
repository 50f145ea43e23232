"""The array kernels of the two oracles against the loops they replaced.

``_reference_rk4_ramp`` is the RK4 step loop that ``oracle._rk4_ramp``
ran over ``(batch, 2, 2)`` propagators before it held the batch axis
last; the kernel must stay bit-for-bit equal to it, because verify's
``rk4_order_ratio`` is a ratio of two differences of about 1e-11 and any
reassociation moves it.  The round-robin Jacobi is checked for its pivot
schedule and against ``numpy.linalg.eigvalsh`` and the Bloch bands.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from omband import LatticeParams
from omband.bands import gap_array
from omband.cli import main, parse_config, run_command
from omband.model import coeff_arrays
from omband.oracle import (
    _jacobi_eigvalsh,
    _lattice_hamiltonian,
    _rk4_ramp,
    _round_robin,
    bloch_grid_energies,
)

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


@pytest.mark.parametrize("n", range(1, 14))
def test_round_robin_meets_every_pair_once_in_disjoint_rounds(n):
    met = []
    for order in _round_robin(n):
        pairs = [(min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2])]
        pairs = [pair for pair in pairs if pair[1] < n]
        indices = [i for pair in pairs for i in pair]
        assert len(indices) == len(set(indices))
        met.extend(pairs)
    assert sorted(met) == list(itertools.combinations(range(n), 2))


@pytest.mark.parametrize("n", [16, 47, 48])
def test_jacobi_matches_numpy_on_random_hermitian(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = X + X.conj().T
    ref = np.linalg.eigvalsh(H)
    assert np.max(np.abs(_jacobi_eigvalsh(H) - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_jacobi_skips_the_exact_zero_pivots_of_an_uncoupled_ring():
    p = replace(P, g=0.0, theta=2.0 * math.pi * 5 / 24)
    evals = _jacobi_eigvalsh(_lattice_hamiltonian(p, 24))
    assert not np.isnan(evals).any()
    assert np.max(np.abs(evals - bloch_grid_energies(p, 24))) <= 1e-12


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
