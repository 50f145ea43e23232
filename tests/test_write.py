"""``write_table`` and ``main``'s output: the bytes of ``emit``, one block at a time.

Every command, in CSV and JSON, written by ``main`` to stdout and to
``--out`` must come out byte-identical to ``emit`` of the same table.
``write_table`` must hand its file one block at a time, so that its
memory peak stays a fraction of the output instead of a few copies of it.
"""

import os
import tracemalloc

import pytest

from omband import cli
from omband.cli import ConfigError, emit, main, parse_config, run_command, write_table
from omband.fmt17 import pass_rows

# n_k = 8197 (n_t for the trace) spans several full row blocks and a partial one
CASES = [
    ("bands", {"n_k": "8197"}),
    ("weights", {"n_k": "8197", "g": "0"}),  # NaN cells at the crossings
    ("gap", {"n_k": "8197", "theta_list": "0,0.8pi"}),
    ("meanfield", {}),
    ("thermal", {"n_k": "8197"}),
    ("quench-trace", {"n_t": "8197", "kd_over_pi": "0.1"}),
    ("quench-scan", {"n_k": "8197"}),
    ("verify", {}),  # the string table
]


def _argv(command, flags):
    return [command, *(x for k, v in flags.items() for x in (f"--{k}", v))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(("command", "flags"), CASES, ids=[c for c, _ in CASES])
def test_main_writes_the_bytes_of_emit(command, flags, fmt, tmp_path, capsysbinary):
    flags = {**flags, "format": fmt}
    want = emit(run_command(parse_config(None, flags), command), fmt).encode("utf-8")
    assert main(_argv(command, flags)) == 0
    assert capsysbinary.readouterr().out == want

    target = tmp_path / f"table.{fmt}"
    flags["out"] = str(target)  # the metadata records the destination
    want = emit(run_command(parse_config(None, flags), command), fmt).encode("utf-8")
    assert main(_argv(command, flags)) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == want


def _blocks(table):
    """The row count of each block: one formatter pass of the table's columns."""
    step = pass_rows(len(table.columns))
    return [min(step, len(table.rows) - first) for first in range(0, len(table.rows), step)]


class _Recorder:
    """A text sink that keeps the length of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_writes_a_block_at_a_time(fmt):
    table = run_command(parse_config(None, {"n_k": "8197"}), "bands")
    sink = _Recorder()
    n = write_table(table, fmt, sink)
    text = emit(table, fmt)
    assert n == len(text) and "".join(sink.writes) == text
    # the header, several blocks of one formatter pass each, and JSON's "]}"
    blocks = _blocks(table)
    assert len(blocks) > 2 and len(sink.writes) == 1 + len(blocks) + (fmt == "json")
    body = sink.writes[1 : 1 + len(blocks)]
    rows = [b.count("\n") if fmt == "csv" else b.count("[") for b in body]
    assert rows == blocks


def test_bad_format_raises_before_anything_is_written():
    table = run_command(parse_config(None, {"n_k": "5"}), "bands")
    sink = _Recorder()
    with pytest.raises(ConfigError, match="format"):
        write_table(table, "xml", sink)
    assert sink.writes == []
    with pytest.raises(ConfigError, match="format"):
        emit(table, "xml")


FIVE_PHASES = "0,0.25pi,0.5pi,0.8pi,pi"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    ("command", "flags"),
    [("gap", {"n_k": "32768", "theta_list": FIVE_PHASES}), ("bands", {"n_k": "32768"})],
    ids=["gap", "bands"],
)
def test_write_table_peak_is_a_fraction_of_the_output(command, flags, fmt, tmp_path):
    # the whole-string path holds the text, its blocks and its encoded
    # bytes at once: about 2.4 times the output
    table = run_command(parse_config(None, flags), command)
    with open(tmp_path / "table", "w", encoding="utf-8", newline="\n") as fh:
        tracemalloc.start()
        try:
            n = write_table(table, fmt, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert n == (tmp_path / "table").stat().st_size  # ASCII: one byte a character
    assert peak < 0.5 * n, f"peak {peak} B for {n} B of output"


@pytest.mark.parametrize(
    ("command", "flags", "fmt"),
    [
        ("bands", {}, "csv"),
        ("bands", {}, "json"),
        ("weights", {}, "csv"),
        ("thermal", {}, "csv"),
        ("gap", {"theta_list": FIVE_PHASES}, "csv"),
        # whole, these took 52.7 MB and 37.9 MB at this size
        ("quench-scan", {}, "csv"),
        ("quench-trace", {"n_t": "131072"}, "csv"),
    ],
    ids=["bands-csv", "bands-json", "weights", "thermal", "gap", "quench-scan", "quench-trace"],
)
def test_zone_table_memory_does_not_grow_with_n_k(command, flags, fmt):
    # a zone table is computed a block at a time as it is written: the
    # peak is one block and the 1 MB kd grid, where the whole table and
    # its temporaries would take tens of MB at this size; so is a quench
    # table, over its kd (or t) grid
    cfg = parse_config(None, {**flags, "n_k": "131072"})
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write_table(run_command(cfg, command), fmt, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6e6, f"peak {peak} B"


@pytest.mark.parametrize("rate", ["kappa", "Gamma"])
def test_a_failure_leaves_no_output(rate, tmp_path, capsysbinary):
    # at g = 0 a mode is purely photonic or phononic, so a zero rate leaves
    # it no decay channel; every block holds such a point, the first included
    argv = ["thermal", "--g", "0", f"--{rate}", "0", "--n_k", "8197"]
    assert main(argv) == 2
    out, err = capsysbinary.readouterr()
    assert out == b"" and b"config error" in err
    target = tmp_path / "table.csv"
    assert main([*argv, "--out", str(target)]) == 2
    assert not target.exists()


@pytest.mark.parametrize("command", ["bands"])
def test_band_rows_go_through_the_traced_band_scan(command, monkeypatch):
    # the benchmark's tracer counts the rows cli.band_scan returns
    band_scan, calls = cli.band_scan, []

    def counted(*args, **kwargs):
        rows = band_scan(*args, **kwargs)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(cli, "band_scan", counted)
    table = run_command(parse_config(None, {"n_k": "8197"}), command)
    write_table(table, "csv", _Recorder())
    assert len(calls) > 2 and calls == _blocks(table)


@pytest.mark.parametrize("command", ["weights", "thermal"])
def test_weight_rows_go_through_weight_arrays_a_block_at_a_time(command, monkeypatch):
    # these tables print no energies, so they skip band_scan, whose energy
    # and gap columns overflow at couplings where the weights do not
    weight_arrays, calls = cli.weight_arrays, []

    def counted(p, kd):
        calls.append(len(kd))
        return weight_arrays(p, kd)

    monkeypatch.setattr(cli, "weight_arrays", counted)
    table = run_command(parse_config(None, {"n_k": "8197"}), command)
    write_table(table, "csv", _Recorder())
    assert len(calls) > 2 and calls == _blocks(table)


# Refusals of tables that span many blocks: one found after the first block
# is written would leave output behind.  (argv, exit code)
REFUSALS = [
    # delta = 0 at J = K, so the middle sample, where g(t) = 0, is degenerate
    (("quench-trace", "--J", "0.2", "--K", "0.2", "--n_t", "8197", "--tq_mode", "fixed"), 4),
    # (g0 t_q)^2 overflows only next to the gap minima, past the first block
    (("quench-scan", "--tq_scale", "2.9e154", "--n_k", "8197"), 2),
    (("quench-trace", "--tq_mode", "fixed", "--tq_value", "1e300", "--n_t", "8197"), 2),
    # at g = 0 a mode is purely photonic or phononic: kappa = 0 leaves it no decay
    (("quench-scan", "--g", "0", "--kappa", "0", "--n_k", "8197"), 2),
    (("quench-trace", "--g", "0", "--kappa", "0", "--n_t", "8197"), 2),
]


@pytest.mark.parametrize(("argv", "code"), REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_a_quench_refusal_leaves_no_output(argv, code, tmp_path, capsysbinary):
    assert main(list(argv)) == code
    out, err = capsysbinary.readouterr()
    assert out == b"" and err.startswith(b"omband: ") and err.count(b"\n") == 1
    target = tmp_path / "table.csv"
    assert main([*argv, "--out", str(target)]) == code
    assert not target.exists()
