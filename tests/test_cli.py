"""End-to-end exercises of the omband command line."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import omband
from omband import DriveParams, LatticeParams, hybrid_basis, solve_meanfield
from omband.bands import BAND_SCAN_COLUMNS, band_scan
from omband.cli import _RUNNERS, ConfigError, main, parse_config
from omband.quench import BathParams, thermal_populations

# the narrow-band parameter set, spelled as flags
FLAT_FLAGS = [
    "--omega_m", "4.3", "--Delta", "-4.3",
    "--J", "0.043", "--K", "0.0013", "--g", "0.086",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def data_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def rows_of(text):
    header, *body = data_lines(text)
    cols = header.split(",")
    return cols, [ln.split(",") for ln in body]


# ------------------------------------------------------------ config layer


def test_builtin_defaults():
    cfg = parse_config()
    assert (cfg.omega_m, cfg.Delta, cfg.J, cfg.K, cfg.g) == (4.3, -4.3, 0.5, 0.2, 0.1)
    assert cfg.theta == 0.0
    assert (cfg.kappa, cfg.Gamma, cfg.n_th) == (0.1, 0.001, 100.0)
    assert (cfg.n_k, cfg.n_t, cfg.rk4_steps) == (512, 512, 1024)
    assert cfg.tq_mode == "per-k" and cfg.tq_scale == 1e-4
    assert cfg.format == "csv" and cfg.out == "-"


def test_file_overrides_defaults_flags_override_file():
    text = "g = 0.086\ntheta = 0.25pi\n"
    cfg = parse_config(text, {"theta": "pi"})
    assert cfg.g == 0.086
    assert cfg.theta == math.pi


def test_pi_tokens_and_folding():
    assert parse_config(flags={"theta": "0.8pi"}).theta == pytest.approx(0.8 * math.pi)
    assert parse_config(flags={"theta": "-pi"}).theta == math.pi  # folded
    cfg = parse_config(flags={"theta_list": "0,0.25pi,pi"})
    assert cfg.theta_list == (0.0, 0.25 * math.pi, math.pi)


def test_gamma_m_alias():
    assert parse_config(flags={"gamma_m": "0.25"}).Gamma == 0.25
    with pytest.raises(ConfigError):
        parse_config(flags={"gamma_m": "0.2", "Gamma": "0.3"})
    # agreeing duplicates are fine
    assert parse_config(flags={"gamma_m": "0.2", "Gamma": "0.2"}).Gamma == 0.2


@pytest.mark.parametrize(
    "flags",
    [
        {"bogus": "1"},
        {"n_th": "-5"},
        {"kappa": "0", "Gamma": "0"},
        {"n_k": "1"},
        {"tq_mode": "sideways"},
        {"damping": "0"},
        {"theta": "0.3qi"},
    ],
)
def test_bad_values_raise_config_error(flags):
    with pytest.raises(ConfigError):
        parse_config(flags=flags)


def test_unknown_key_in_file_exits_2(tmp_path, capsys):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "bands", "--config", str(cfile))
    assert code == 2
    assert "bogus" in err


def test_negative_value_via_equals_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "thermal", "--n_th=-5")
    assert code == 2
    assert "n_th" in err


@pytest.mark.parametrize(
    "key, flags",
    [
        ("omega_m", {"omega_m": "0"}),
        ("Delta", {"Delta": "nan"}),
        ("J", {"J": "-0.1"}),
        ("K", {"K": "-1"}),
        ("g", {"g": "inf"}),
        ("theta", {"theta": "nan"}),
        ("kappa", {"kappa": "-1"}),
        ("Gamma", {"Gamma": "-1"}),
        ("Gamma", {"gamma_m": "-1"}),
        ("kappa", {"kappa": "0", "Gamma": "0"}),
        ("n_th", {"n_th": "nan"}),
        ("Omega_d", {"Omega_d": "-1"}),
        ("G", {"G": "inf"}),
        ("tol", {"tol": "0"}),
        ("max_iter", {"max_iter": "0"}),
        ("damping", {"damping": "1.5"}),
        ("n_k", {"n_k": "1"}),
        ("n_t", {"n_t": "1"}),
        ("kd_over_pi", {"kd_over_pi": "nan"}),
        ("tq_mode", {"tq_mode": "sideways"}),
        ("tq_scale", {"tq_scale": "0"}),
        ("tq_scale", {"tq_mode": "global-min", "tq_scale": "-1"}),
        ("tq_value", {"tq_value": "-2"}),
        ("tq_value", {"tq_mode": "fixed", "tq_value": "0"}),
        ("theta_list", {"theta_list": "0,nan"}),
        ("rk4_steps", {"rk4_steps": "15"}),
        ("lattice_N", {"lattice_N": "1"}),
        ("format", {"format": "xml"}),
    ],
)
def test_rejected_key_is_named_in_the_error(key, flags):
    with pytest.raises(ConfigError, match=key):
        parse_config(flags=flags)


@pytest.mark.parametrize("command", ["bands", "gap"])
def test_non_finite_theta_list_exits_2(command, capsys):
    code, out, err = run_cli(capsys, command, "--n_k", "5", "--theta_list", "0,nan")
    assert code == 2 and out == ""
    assert "theta_list" in err


def test_replace_checks_and_folds_like_parse_config():
    cfg = parse_config()
    assert replace(cfg, theta=-math.pi).theta == math.pi
    assert replace(cfg, theta=-math.pi).lattice.theta == math.pi
    assert replace(cfg, Gamma=0.25).bath.Gamma == 0.25
    with pytest.raises(ConfigError, match="n_th"):
        replace(cfg, n_th=-1.0)
    with pytest.raises(ConfigError, match="theta_list"):
        replace(cfg, theta_list=())


# ------------------------------------------------------------- csv output


def test_bands_table_shape(capsys):
    code, out, _ = run_cli(capsys, "bands", "--n_k", "5")
    assert code == 0
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert meta[0] == "# version = 0.1.0"
    cols, body = rows_of(out)
    assert cols == [
        "kd_over_pi", "omega_plus", "omega_minus",
        "gap", "alpha_A", "beta_A", "alpha_B", "beta_B",
    ]
    assert len(body) == 5
    assert [r[0] for r in body] == ["-1", "-0.5", "0", "0.5", "1"]


def test_quench_trace_table_shape(capsys):
    code, out, _ = run_cli(capsys, "quench-trace", "--n_t", "4")
    assert code == 0
    cols, body = rows_of(out)
    assert cols == ["t_over_tq", "N_A", "N_B", "Nq_A", "Nq_B"]
    assert len(body) == 4
    assert body[0][0] == "0" and body[-1][0] == "1"
    assert body[0][3] == "0" and body[0][4] == "0"  # thermal start


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bands", "--n_k", "17", "--theta", "0.8pi")
    _, second, _ = run_cli(capsys, "bands", "--n_k", "17", "--theta", "0.8pi")
    assert first == second


# written by the release that still had the workers, n_k_coarse and
# refine_tol keys: `omband quench-scan --n_k 9 --theta 0.8pi --tq_mode global-min`
OLD_SCAN_OUTPUT = """\
# version = 0.1.0
# omega_m = 4.2999999999999998
# Delta = -4.2999999999999998
# J = 0.5
# K = 0.20000000000000001
# g = 0.10000000000000001
# theta = 2.5132741228718345
# kappa = 0.10000000000000001
# Gamma = 0.001
# n_th = 100
# Omega_d = 1
# G = 0.001
# tol = 9.9999999999999998e-13
# max_iter = 10000
# damping = 0.5
# n_k = 9
# n_t = 512
# kd_over_pi = 0.47999999999999998
# tq_mode = global-min
# tq_scale = 0.0001
# tq_value = 1
# theta_list = 0,0.78539816339744828,1.5707963267948966,3.1415926535897931
# n_k_coarse = 1024
# refine_tol = 9.9999999999999995e-07
# rk4_steps = 1024
# lattice_N = 8
# lattice_m = 1
# workers = 0
# format = csv
# out = -
# verify = false
kd_over_pi,Nq_A,Nq_B
-1,-0.01590109352817215,0.015901093528172212
-0.75,-0.014999317831886461,0.01499931783188603
-0.5,-0.027730038484794634,0.027730038484794536
-0.25,0.03001027308716854,-0.030010273087168554
0,0.015901093528172316,-0.015901093528172261
0.25,0.014999317831885978,-0.014999317831886239
0.5,0.02773003848479462,-0.027730038484794745
0.75,-0.030010273087168554,0.030010273087168596
1,-0.01590109352817215,0.015901093528172212
"""


@pytest.mark.parametrize(
    "flag", [("--workers", "1"), ("--n_k_coarse", "2048"), ("--refine_tol", "1e-9")]
)
def test_removed_keys_exit_2_as_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quench-scan", "--n_k", "9", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_old_metadata_with_removed_keys_still_replays(tmp_path, capsys):
    cfile = tmp_path / "old.cfg"
    cfile.write_text(
        "".join(ln + "\n" for ln in OLD_SCAN_OUTPUT.splitlines() if ln.startswith("#"))
    )
    code, replay, _ = run_cli(capsys, "quench-scan", "--config", str(cfile))
    assert code == 0
    assert not any(k in replay for k in ("workers", "n_k_coarse", "refine_tol"))
    _, direct, _ = run_cli(
        capsys, "quench-scan", "--n_k", "9", "--theta", "0.8pi", "--tq_mode", "global-min"
    )
    assert data_lines(replay) == data_lines(direct)
    cols, old_rows = rows_of(OLD_SCAN_OUTPUT)
    assert rows_of(replay)[0] == cols
    for old, new in zip(old_rows, rows_of(replay)[1]):
        assert [float(x) for x in new] == pytest.approx(
            [float(x) for x in old], rel=0, abs=1e-13
        )
    # an uncommented assignment to a removed key is an unknown key
    cfile.write_text("workers = 0\n")
    code, _, err = run_cli(capsys, "quench-scan", "--config", str(cfile))
    assert code == 2 and "workers" in err


def test_metadata_block_roundtrips(tmp_path, capsys):
    argv = ["bands", "--n_k", "5", "--theta", "0.8pi", "--g", "0.086"]
    _, out, _ = run_cli(capsys, *argv)
    cfile = tmp_path / "replay.cfg"
    cfile.write_text(
        "".join(ln + "\n" for ln in out.splitlines() if ln.startswith("#"))
    )
    code, replay, _ = run_cli(capsys, "bands", "--config", str(cfile))
    assert code == 0
    assert replay == out


def test_json_output_and_null_for_nan(capsys):
    # g = 0 makes the weights undefined where the bands cross (kd = +-pi/2)
    code, out, _ = run_cli(
        capsys, "bands", "--g", "0", "--n_k", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"metadata", "columns", "rows"}
    assert doc["metadata"]["version"] == "0.1.0"
    assert doc["columns"][0] == "kd_over_pi"
    assert len(doc["rows"]) == 5
    crossing = doc["rows"][1]  # kd = -pi/2
    assert crossing[0] == -0.5
    assert crossing[4:] == [None, None, None, None]
    interior = doc["rows"][2]
    assert all(v is not None for v in interior)


# ------------------------------------------------------ numbers on the wire


def test_gap_minimum_for_flat_set(capsys):
    code, out, _ = run_cli(
        capsys, "gap", *FLAT_FLAGS, "--theta_list", "pi", "--n_k", "513"
    )
    assert code == 0
    cols, body = rows_of(out)
    assert cols == ["theta", "kd_over_pi", "gap"]
    gaps = [float(r[2]) for r in body]
    assert min(gaps) == pytest.approx(0.172, abs=1e-3)


def test_meanfield_row_matches_library(capsys):
    code, out, _ = run_cli(capsys, "meanfield")
    assert code == 0
    cols, body = rows_of(out)
    sol = solve_meanfield(DriveParams())
    row = body[0]
    assert float(row[cols.index("alpha_re")]) == pytest.approx(sol.alpha.real, rel=1e-12)
    assert float(row[cols.index("alpha_im")]) == pytest.approx(sol.alpha.imag, rel=1e-12)
    assert float(row[cols.index("g_enhanced")]) == pytest.approx(
        sol.g_enhanced, rel=1e-12
    )
    assert int(row[cols.index("iterations")]) == sol.iterations


def test_thermal_rows_match_library(capsys):
    code, out, _ = run_cli(capsys, "thermal", "--n_k", "5")
    assert code == 0
    cols, body = rows_of(out)
    assert cols == ["kd_over_pi", "alpha_A", "N_th_A", "N_th_B"]
    hb = hybrid_basis(LatticeParams(), 0.0)
    th = thermal_populations(hb.alpha_A, BathParams())
    centre = body[2]
    assert float(centre[1]) == pytest.approx(hb.alpha_A, rel=1e-12)
    assert float(centre[2]) == pytest.approx(th.N_th_A, rel=1e-12)
    assert float(centre[3]) == pytest.approx(th.N_th_B, rel=1e-12)


def test_zero_coupling_scan_is_flat(capsys):
    code, out, _ = run_cli(capsys, "quench-scan", "--g", "0", "--n_k", "33")
    assert code == 0
    _, body = rows_of(out)
    finite = [r for r in body if r[1] != "nan"]
    assert finite, "every row degenerate?"
    assert all(abs(float(r[1])) < 1e-12 and abs(float(r[2])) < 1e-12 for r in finite)
    degenerate = [r for r in body if r[1] == "nan"]
    assert {r[0] for r in degenerate} == {"-0.5", "0.5"}


# -------------------------------------------------------- verify and exits


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rk4_steps", "256")
    assert code == 0
    cols, body = rows_of(out)
    assert cols == ["check", "value", "threshold", "passed"]
    assert [r[0] for r in body] == [
        "magnus_vs_rk4",
        "propagator_unitarity",
        "rk4_order_ratio",
        "lattice_vs_bloch",
        "meanfield_residual",
    ]
    assert all(r[3] == "1" for r in body)


def test_out_writes_file_and_bad_paths_exit_5(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    code, out, _ = run_cli(capsys, "bands", "--n_k", "5", "--out", str(target))
    assert code == 0 and out == ""
    _, direct, _ = run_cli(capsys, "bands", "--n_k", "5")
    # metadata records the destination, so only the "out" line may differ
    written = [ln for ln in target.read_text().splitlines() if not ln.startswith("# out")]
    stdout = [ln for ln in direct.splitlines() if not ln.startswith("# out")]
    assert written == stdout

    code, _, err = run_cli(
        capsys, "bands", "--n_k", "5", "--out", str(tmp_path / "no" / "dir.csv")
    )
    assert code == 5 and "cannot write" in err

    code, _, err = run_cli(capsys, "bands", "--config", str(tmp_path / "missing.cfg"))
    assert code == 5 and "cannot read" in err


def test_nonconvergence_exits_3(capsys):
    code, _, err = run_cli(capsys, "meanfield", "--max_iter", "1")
    assert code == 3
    assert "converge" in err


def test_degenerate_ramp_time_exits_4(capsys):
    code, _, err = run_cli(capsys, "quench-trace", "--g", "0", "--kd_over_pi", "0.5")
    assert code == 4
    assert "degenerate" in err.lower()


@pytest.mark.parametrize("command", ["quench-scan", "quench-trace"])
def test_overflowing_ramp_time_exits_2(command, capsys):
    # tq_scale / gap overflows to inf at a nonzero gap: a bad tq_scale, not g = 0
    code, out, err = run_cli(capsys, command, "--tq_scale", "1e308", "--n_k", "33")
    assert code == 2 and out == ""
    assert "config error" in err and "tq_scale" in err


@pytest.mark.parametrize("command", ["quench-scan", "quench-trace"])
def test_overflowing_fixed_ramp_time_exits_2(command, capsys):
    # a finite t_q whose closed forms overflow: a bad tq_value, not a g = 0 point
    argv = (command, "--tq_mode", "fixed", "--tq_value", "1e300", "--n_k", "4")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("omband: config error: tq_value: ")
    assert "degenerate" not in err


@pytest.mark.parametrize("command", ["quench-scan", "quench-trace"])
def test_overflowing_coupling_exits_2_naming_g(command, capsys):
    # g * g overflows: the closed forms fail because of g, not tq_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--g", "1e300", "--n_k", "33")
    assert code == 2 and out == ""
    assert err.startswith("omband: config error: g: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, key",
    [
        (("quench-trace", "--n_t", "5", "--K", "1e308"), "K"),
        (("quench-trace", "--n_t", "5", "--J", "1.7976931348623157e308"), "J"),
        (("quench-trace", "--n_t", "5", "--g", "1.7976931348623157e308"), "g"),
        (("quench-scan", "--n_k", "5", "--J", "1.7976931348623157e308"), "J"),
        (("quench-scan", "--n_k", "5", "--omega_m", "1e308", "--Delta", "1e308"), "omega_m"),
        # the gap is finite, but tq_scale / gap underflows to 0
        (("quench-trace", "--n_t", "5", "--g", "10", "--tq_scale", "5e-324"), "tq_scale"),
    ],
)
def test_zero_ramp_time_exits_2_naming_the_key(argv, key, capsys):
    # a gap that overflows to inf gives tq_scale / gap = 0, no ramp at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"omband: config error: {key}: ") and err.count("\n") == 1


GAMMA_MAX = ("--Gamma", "1.7976931348623157e308")


@pytest.mark.parametrize(
    "argv, n_th_units",
    [
        (("thermal", "--n_k", "33", *GAMMA_MAX), False),
        (("thermal", "--n_k", "33", "--kappa", "1e308", "--Gamma", "1e308"), False),
        (("quench-scan", "--n_k", "33", *GAMMA_MAX), True),
        (("quench-trace", "--n_t", "33", *GAMMA_MAX), True),
        (("quench-trace", "--n_t", "3", "--n_th", "1.7976931348623157e308", "--Gamma", "1e308"),
         True),
    ],
)
def test_extreme_rates_give_finite_occupations(argv, n_th_units, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    cols, body = rows_of(out)
    values = {c: [float(r[i]) for r in body] for i, c in enumerate(cols)}
    occupations = [v for c in ("N_th_A", "N_th_B", "N_A", "N_B") for v in values.get(c, [])]
    net = [v for c in ("Nq_A", "Nq_B") for v in values.get(c, [])]
    assert occupations or net
    top = 1.0 if n_th_units else 100.0  # quench populations are in units of n_th
    assert all(0.0 <= v <= top * (1.0 + 1e-15) for v in occupations)
    assert all(abs(v) <= 1.0 for v in net)


@pytest.mark.parametrize("g", ["0.3", "1.7976931348623157e308"])
@pytest.mark.parametrize("command", ["weights", "thermal"])
def test_weight_tables_keep_band_scans_bits_without_a_warning(command, g, capsys):
    # band_scan's energy and gap columns overflow at the largest g; the
    # weights, which are all these tables print, do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--n_k", "33", "--g", g)
    assert code == 0 and err == ""
    cols, body = rows_of(out)
    with np.errstate(over="ignore", invalid="ignore"):
        scan = band_scan(parse_config(flags={"g": g}).lattice, 33)
    weights = set(cols) & set(BAND_SCAN_COLUMNS)
    assert weights
    for c in weights:
        got = [float(r[cols.index(c)]) for r in body]
        assert got == scan[:, BAND_SCAN_COLUMNS.index(c)].tolist()


def test_tiny_kappa_against_huge_gamma_keeps_its_table(capsys):
    # the rates' ratio is 1e-600, below the float range: the table must not
    # turn singular; frozen from the kernels before exact scaling
    argv = ("thermal", "--g", "0", "--kappa", "1e-300", "--Gamma", "1e300", "--n_k", "4")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert data_lines(out)[1:] == [
        "-1,1,0,100",
        "-0.33333333333333337,0,100,0",
        "0.33333333333333326,0,100,0",
        "1,1,0,100",
    ]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("quench-scan", "--g", "1e-16", "--n_k", "9"), 2),  # a delta = 0 row at t_q = 5e11
        (("quench-scan", "--g", "1e-16", "--n_k", "8"), 0),  # no such row on the grid
        (("quench-trace", "--g", "1e-20", "--kd_over_pi", "0.5"), 2),  # t_q = 5e15
    ],
)
def test_series_branch_ramp_overflows_exit_2(argv, code, capsys):
    # the series branch raises t_q up to the 29th power, so it overflows from
    # about t_q = 4e10, where the closed form lasts to about 4e102 (README)
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("omband: config error: ")


def test_zero_coupling_global_min_scan_writes_nan_rows(capsys):
    # at g = 0 the zone's minimum gap is exactly 0: no finite global ramp time
    argv = ("quench-scan", "--g", "0", "--tq_mode", "global-min", "--n_k", "33")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, body = rows_of(out)
    assert len(body) == 33 and all(r[1:] == ["nan", "nan"] for r in body)


def test_zero_coupling_global_min_trace_exits_4(capsys):
    code, out, err = run_cli(capsys, "quench-trace", "--g", "0", "--tq_mode", "global-min")
    assert code == 4 and out == ""
    assert err == (
        "omband: degenerate point: the zone's minimum gap is zero; "
        "no finite ramp time under tq_mode=global-min\n"
    )


def console_command():
    """The command, and its environment, that runs the `omband` entry point.

    An installed console script is used as it is.  From a checkout with no
    install, the target declared under `[project.scripts]` in pyproject.toml
    runs in a fresh interpreter the way the generated script would run it,
    with the package imported from where this test imported it.
    """
    exe = shutil.which("omband")
    if exe is not None:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["omband"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = str(Path(omband.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], dict(os.environ, PYTHONPATH=pythonpath)


def test_console_script():
    cmd, env = console_command()
    ok = subprocess.run(
        [*cmd, "bands", "--n_k", "2"], capture_output=True, text=True, env=env
    )
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[0] == "# version = 0.1.0"
    bad = subprocess.run(
        [*cmd, "bands", "--not-a-flag", "1"], capture_output=True, text=True, env=env
    )
    assert bad.returncode == 2


@pytest.mark.parametrize(
    "argv, keep",
    [(["bands", "--n_k", "200000"], 100), (["meanfield"], 0)],
    ids=["mid-table", "before-output"],
)
def test_closed_pipe_exits_5_with_one_line(argv, keep):
    # block-buffered stdout, as in a shell pipeline: the exit-time flush must
    # not fail a second time
    cmd, env = console_command()
    env = {k: v for k, v in (env or os.environ).items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [*cmd, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 5
    assert err == "omband: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["meanfield"],
        ["verify", "--rk4_steps", "16"],
        ["bands", "--n_k", "3", "--verify", "true", "--rk4_steps", "16"],
    ],
    ids=["meanfield", "verify", "bands-verify"],
)
def test_meanfield_overflow_exits_2_naming_omega_d(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--Omega_d", "1e160")
    assert code == 2 and out == ""
    assert err.startswith("omband: config error: Omega_d: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["omega_m", "Delta", "J"])
def test_verify_at_extreme_scales_writes_no_warning(key, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", "--rk4_steps", "16", f"--{key}", "1e300")
    assert code == 1 and err == ""
    _, body = rows_of(out)
    assert body[0][:2] == ["magnus_vs_rk4", "nan"] and body[0][3] == "0"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["bands", "--theta", "-pi"], "# theta = 3.1415926535897931"),
        (["gap", "--theta_list", "-pi,0"], "# theta_list = -3.1415926535897931,0"),
        (["bands", "--Delta", "-1e-3"], "# Delta = -0.001"),
    ],
    ids=["theta", "theta_list", "Delta"],
)
def test_flag_values_may_start_with_a_minus(argv, line, capsys):
    code, out, _ = run_cli(capsys, *argv, "--n_k", "2")
    assert code == 0
    assert line in out.splitlines()


def test_kd_over_pi_whose_kd_overflows_exits_2(capsys):
    # 1e308 is finite, but kd = 1e308 * pi is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "quench-trace", "--kd_over_pi", "1e308")
    assert code == 2 and out == ""
    assert err.startswith("omband: config error: kd_over_pi: ") and err.count("\n") == 1


# ------------------------------------------------------------ argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["bands", "--n_k"],
        ["bands", "--n_k", "3", "stray"],
        ["bands", "--n_k", "3", "--tq_v", "2"],
        ["bands", "--n_k", "3", "--kd", "0.3"],
        ["bands", "--config"],
        ["bands", "-x"],
    ],
    ids=["no-command", "bogus", "no-value", "stray", "tq_v", "kd", "config", "short"],
)
def test_usage_error_is_one_line_and_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("omband: usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["bands", "--n_k", "3", "-h"]])
def test_help_prints_the_usage_and_the_commands(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    usage, commands = out.splitlines()
    assert usage.startswith("usage: omband <command> ")
    assert commands == "commands: " + ", ".join(_RUNNERS)


def test_help_into_a_closed_pipe_exits_5_with_one_line():
    cmd, env = console_command()
    env = {k: v for k, v in (env or os.environ).items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([*cmd, "-h"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 5
    assert err == "omband: cannot write output: [Errno 32] Broken pipe\n"


def test_importing_the_cli_loads_no_argparse():
    src = str(Path(omband.__file__).resolve().parents[1])
    code = "import sys, omband.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    ran = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert ran.stdout == "[]\n"


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, key",
    [
        (["verify", "--lattice_m", BIG], "lattice_m"),
        (["verify", "--rk4_steps", BIG], "rk4_steps"),
        (["bands", "--lattice_m", str(-(2**63))], "lattice_m"),
        (["bands", "--n_k", str(10**30)], "n_k"),
        (["quench-trace", "--n_t", BIG], "n_t"),
        # below 2**63, but 8 bytes a point is past numpy's size limit
        (["bands", "--n_k", str(2**62)], "n_k"),
        (["quench-trace", "--n_t", str(2**60)], "n_t"),
    ],
    ids=["lattice_m", "rk4_steps", "lattice_m-min", "n_k-1e30", "n_t", "n_k-2**62", "n_t-2**60"],
)
def test_huge_integer_exits_2_naming_the_key(argv, key, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"omband: config error: {key}: ") and err.count("\n") == 1


def test_verify_true_names_every_failed_check_in_one_line(capsys):
    code, out, err = run_cli(
        capsys, "bands", "--n_k", "2", "--verify", "true", "--rk4_steps", "16", "--J", "1e300"
    )
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("omband: verify failed: ")
    failed = err[len("omband: verify failed: "):].rstrip("\n").split("; ")
    assert [why.split(" = ")[0] for why in failed] == [
        "magnus_vs_rk4", "propagator_unitarity", "lattice_vs_bloch"
    ]
    assert all(why.endswith(")") and " (threshold " in why for why in failed)
