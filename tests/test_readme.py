"""The README's command-line reference, checked against the code.

The key table's defaults, its keys, the command list, the exit-code table
and the ``sh`` examples (the byte-identical replay included) must say what
the program does, and any command line must end in a documented exit.
"""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from omband.cli import (
    _ALIASES, _KINDS, _RANGES, _RUNNERS, ConfigError, RunConfig, main, parse_config,
)
from omband.model import FINITE, NONNEGATIVE, POSITIVE

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text under a ``#``-heading, up to the next heading of any level."""
    return re.search(rf"^#+ {title}\n(.*?)(?=^#+ )", README, re.M | re.S).group(1)


KEY_ROWS = re.findall(r"^\| `(\w+)` \| ([^|]+?) \| (.+) \|$", section("Configuration"), re.M)
ACCEPTED = dict(
    re.findall(r"^\| `(\w+)` \| [^|]+? \| ([^|]+?) \| .+ \|$", section("Configuration"), re.M)
)
EXIT_ROWS = re.findall(r"^\| (\d+) \| (.+) \|$", section("Exit codes"), re.M)


def test_key_table_lists_every_key_and_names_the_aliases():
    assert [key for key, _, _ in KEY_ROWS] == list(_KINDS)
    meaning = {key: text for key, _, text in KEY_ROWS}
    for alias, key in _ALIASES.items():
        assert f"`{alias}`" in meaning[key]


@pytest.mark.parametrize("key, default", [(k, d) for k, d, _ in KEY_ROWS])
def test_key_table_default_is_the_default(key, default):
    assert getattr(parse_config(None, {key: default}), key) == getattr(RunConfig(), key)


# the words the key table uses for the keys that the library types check
# (the values each accepts, and some it refuses)
WORDS = {
    "finite": (["0", "-1e300", "1e300"], ["inf", "-inf", "nan"]),
    "finite, >= 0": (["0", "1e300"], ["-5e-324", "inf", "nan"]),
    "finite, > 0": (["5e-324", "1e300"], ["0", "inf", "nan"]),
}


def test_key_table_states_the_accepted_values():
    assert list(ACCEPTED) == list(_KINDS)
    assert {key for key, kind in _KINDS.items() if kind == "int"} <= set(_RANGES)
    for key, text in ACCEPTED.items():
        accepted = _RANGES.get(key)
        if accepted is None:
            assert "[" not in text and "`" not in text, key
            ok, bad = WORDS.get(text, ([], []))
            for value in ok:
                parse_config(None, {key: value})
            for value in bad:
                with pytest.raises(ConfigError, match=f"^{key}"):
                    parse_config(None, {key: value})
        elif isinstance(accepted[0], str):
            assert re.fullmatch(r"`[\w-]+`(, `[\w-]+`)*", text), key
            assert tuple(re.findall(r"`([\w-]+)`", text)) == accepted
        else:
            stated = json.loads(re.fullmatch(r"`(\[.+\])`", text).group(1))
            assert stated == list(accepted), key
            assert list(map(type, stated)) == list(map(type, accepted)), key


def test_legend_states_the_library_ranges():
    legend = re.findall(r"`(finite[^`]*)` is `(\[.+?\])`", section("Configuration"))
    stated = {words: json.loads(text) for words, text in legend}
    ranges = {"finite": FINITE, "finite, >= 0": NONNEGATIVE, "finite, > 0": POSITIVE}
    assert stated == {words: list(accepted) for words, accepted in ranges.items()}
    assert set(stated) == set(WORDS)
    for words, accepted in ranges.items():
        assert list(map(type, stated[words])) == list(map(type, accepted)), words


# one value outside each key's accepted values, in key-table order
BAD_VALUES = {
    "omega_m": "0", "Delta": "inf", "J": "-1", "K": "-5e-324", "g": "nan", "theta": "-inf",
    "kappa": "-1", "Gamma": "inf", "n_th": "-1", "Omega_d": "nan", "G": "-1", "tol": "0",
    "max_iter": "0", "damping": "1.5", "n_k": "1", "n_t": "1", "kd_over_pi": "6e307",
    "tq_mode": "linear", "tq_scale": "0", "tq_value": "inf", "theta_list": "0,nan",
    "rk4_steps": "15", "lattice_N": "129", "lattice_m": "9223372036854775808",
    "format": "xml", "verify": "maybe",
}
REFUSALS = [(key, ["--" + key, BAD_VALUES[key]]) for key, _, _ in KEY_ROWS if key != "out"]
REFUSALS.append(("kappa", ["--kappa", "0", "--Gamma", "0"]))  # kappa + Gamma must be positive


@pytest.mark.parametrize("key, flags", REFUSALS, ids=[" ".join(f) for _, f in REFUSALS])
def test_every_key_refuses_a_bad_value_in_one_form(key, flags, capsys):
    assert main(["bands", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"omband: config error: {key}: ")


def test_command_list_is_the_commands():
    listed = re.search(r"^Commands: (.*?)\.$", README, re.M | re.S).group(1)
    assert re.findall(r"`([\w-]+)`", listed) == list(_RUNNERS)


# one invocation per documented exit code
EXITS = {
    0: ["bands", "--n_k", "2"],
    1: ["bands", "--n_k", "2", "--verify", "true", "--tol", "1e-3", "--rk4_steps", "16"],
    2: ["bands", "--n_k", "1"],
    3: ["meanfield", "--max_iter", "1"],
    4: ["quench-trace", "--g", "0", "--kd_over_pi", "0.5"],
    5: ["bands", "--config", "missing.cfg"],
}


def test_exit_code_table_lists_the_codes():
    assert [int(code) for code, _ in EXIT_ROWS] == sorted(EXITS)


@pytest.mark.parametrize("code", sorted(EXITS))
def test_exit_code_is_produced(code, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(EXITS[code]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err.startswith("omband: ") and err.count("\n") == 1


SH_LINES = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith(("omband ", "grep "))
]


def sh(line, capsys):
    """Run one README shell line: ``omband ...`` or ``grep '^#' FILE``, with
    an optional ``> FILE``.  Returns the exit code and what went to stdout."""
    words = shlex.split(line, comments=True)
    target = None
    if ">" in words:
        words, (_, target) = words[:-2], words[-2:]
    if words[0] == "omband":
        code = main(words[1:])
        out = capsys.readouterr().out
    else:
        assert words[:2] == ["grep", "^#"]
        text = Path(words[2]).read_text(encoding="utf-8")
        code, out = 0, "".join(ln for ln in text.splitlines(True) if ln.startswith("#"))
    if target is not None:
        Path(target).write_text(out, encoding="utf-8")
    return code, out


def test_sh_examples_exit_0_and_replay_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    replays = 0
    for line in SH_LINES:
        code, out = sh(line, capsys)
        assert code == 0, line
        same = re.search(r"# byte-identical to (\S+)", line)
        if same:
            assert out == Path(same.group(1)).read_text(encoding="utf-8")
            replays += 1
    assert replays == 1


# argv for the fuzz test below: flags spelt in full, abbreviated, with
# ``=``, with no value, ``--config`` and ``-h``, values from a fixed list
VALUES = st.sampled_from(
    ["0", "1", "2", "-1", "-pi", "0.5pi", "1e-320", "1e300", "nan", "inf",
     "csv", "json", "true", "fixed", "x", ""]
)
KEYS = st.sampled_from(sorted({*_KINDS, *_ALIASES}))
TOKENS = st.one_of(
    st.tuples(KEYS.map("--{}".format), VALUES),
    st.tuples(st.builds(lambda k, n: f"--{k[: n % len(k)]}", KEYS, st.integers(0, 9)), VALUES),
    st.builds("--{}={}".format, KEYS, VALUES).map(lambda t: (t,)),
    KEYS.map(lambda k: (f"--{k}",)),
    VALUES.map(lambda v: ("--config", v)),
    VALUES.map(lambda v: (v,)),
    st.just(("-h",)),
)


@settings(
    max_examples=250, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from([*_RUNNERS, "bogus"]),
    tokens=st.lists(TOKENS, max_size=3).map(lambda ts: [t for tt in ts for t in tt]),
)
@example(command="bands", tokens=["--verify", "true", "--J", "1e300"])
@example(command="verify", tokens=["--J", "1e300"])
def test_any_command_line_ends_in_a_documented_exit(command, tokens, tmp_path, monkeypatch):
    # --rk4_steps 16 first, and every other int at most 2, so no run is long;
    # --out and --config name files in the test's own directory
    monkeypatch.chdir(tmp_path)
    argv = ["--rk4_steps", "16", command, *tokens]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and err.getvalue().startswith("omband: usage error: ")
            code = exc.code
    assert code in {int(c) for c, _ in EXIT_ROWS}
    lines = err.getvalue().splitlines()
    assert all(line.startswith("omband: ") for line in lines)
    if code == 1:  # verify's own table, or one line naming every check --verify true failed
        if command == "verify":  # its table went to stdout or to the --out file
            written = out.getvalue() or "".join(
                f.read_text(encoding="utf-8") for f in tmp_path.iterdir() if f.is_file()
            )
            assert lines == [] and "magnus_vs_rk4" in written
        else:
            assert out.getvalue() == "" and len(lines) == 1
            assert lines[0].startswith("omband: verify failed: ")
    elif code:
        assert out.getvalue() == "" and len(lines) == 1


def value_draws(key):
    """(text, accepted) for each value the fuzz test below draws for a key of
    ``_RANGES``: both ends, one step past each, and 0, +-5e-324, 1e300, inf
    and nan; for a key of words, each word and two that are not."""
    accepted = _RANGES[key]
    if isinstance(accepted[0], str):
        return [(word, word in accepted) for word in (*accepted, "x", "nan")]
    least, most = accepted
    if isinstance(least, int):
        past = [least - 1, most + 1]
    else:
        past = [math.nextafter(least, -math.inf), math.nextafter(most, math.inf)]
    return [
        (repr(v), isinstance(v, type(least)) and least <= v <= most)
        for v in (least, most, *past, type(least)(0), 5e-324, -5e-324, 1e300, math.inf, math.nan)
    ]


# each key goes to a command that reads it; a size larger than 16 goes only
# to meanfield, which reads none, so no draw makes a long or large run.
# lattice_N is not such a size: verify diagonalizes its top, 128 cells, in
# a fraction of a second
READER = {
    "tol": "meanfield", "max_iter": "meanfield", "damping": "meanfield",
    "n_k": "bands", "n_t": "quench-trace", "kd_over_pi": "quench-trace",
    "tq_mode": "quench-scan", "tq_scale": "quench-trace", "tq_value": "quench-trace",
    "rk4_steps": "verify", "lattice_N": "verify", "lattice_m": "verify", "format": "bands",
}
SIZES = ("n_k", "n_t", "rk4_steps")


@settings(
    max_examples=200, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(draw=st.sampled_from([(key, *d) for key in _RANGES for d in value_draws(key)]))
def test_any_value_of_a_ranged_key_ends_in_a_documented_exit(draw, tmp_path, monkeypatch):
    key, text, inside = draw
    monkeypatch.chdir(tmp_path)
    small = key not in SIZES or not text.isdigit() or int(text) <= 16
    argv = [READER[key] if small else "meanfield", "--n_k", "9", "--n_t", "9",
            "--rk4_steps", "16", "--tq_mode", "fixed" if key == "tq_value" else "per-k",
            f"--{key}", text]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if not inside:
        assert code == 2 and out.getvalue() == "" and len(lines) == 1
        assert lines[0].startswith(f"omband: config error: {key}: ")
    else:
        assert code in {int(c) for c, _ in EXIT_ROWS}
        assert all(line.startswith("omband: ") for line in lines)
