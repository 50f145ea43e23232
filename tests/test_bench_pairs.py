"""The pure parts of ``bench/pairs.py``: statistics, verdicts and arguments.

No program is run: ``compare`` gets made-up runs, and ``parse_args`` reads
this checkout's ``BENCHMARK.json``.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BOUNDED = {"unit": "s", "better": "lower", "bound": 0.25}
UNBOUNDED = {"unit": "s", "better": "lower"}
CLEAN = {side: {"attempted": 100, "failed": 0} for side in ("parent", "change")}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_stats_are_the_inclusive_quartiles():
    got = pairs.stats(PARENT)
    q1, median, q3 = statistics.quantiles(PARENT, n=4, method="inclusive")
    assert got["median"] == pytest.approx(median, rel=1e-15)
    assert (got["q1"], got["q3"]) == pytest.approx((q1, q3), rel=1e-15)
    assert got["rounds"] == 10 and got["runs"] == PARENT


def test_ten_better_pairs_are_a_gain():
    row = pairs.compare(BOUNDED, PARENT, [0.8 * v for v in PARENT], CLEAN)
    assert row["verdict"] == "gain" and row["wins"] == 10 and row["pairs"] == 10
    assert row["ratio"] == pytest.approx(0.8)
    assert row["bound"] == 0.25 and not row["worse_than_bound"]


def test_a_gain_in_fewer_than_ten_pairs_is_too_few_pairs():
    row = pairs.compare(BOUNDED, PARENT[:4], [0.8 * v for v in PARENT[:4]], CLEAN)
    assert row["verdict"] == "too few pairs"


def test_a_gain_with_a_larger_failed_share_is_withheld():
    worse = {"parent": {"attempted": 100, "failed": 0}, "change": {"attempted": 100, "failed": 1}}
    row = pairs.compare(BOUNDED, PARENT, [0.8 * v for v in PARENT], worse)
    assert row["verdict"] == "more failures"
    # a share, not a count: one failure in 200 is fewer than one in 100
    more_tests = {"parent": {"attempted": 100, "failed": 1},
                  "change": {"attempted": 200, "failed": 1}}
    row = pairs.compare(BOUNDED, PARENT, [0.8 * v for v in PARENT], more_tests)
    assert row["verdict"] == "gain"


def test_a_wide_parent_spread_is_unresolved():
    parent = [1.0, 2.0] * 5  # quartile spread 1.0, above 0.25 of the median 1.5
    row = pairs.compare(BOUNDED, parent, [1.1, 1.9] * 5, CLEAN)
    assert row["verdict"] == "unresolved" and not row["worse_than_bound"]


def test_every_change_run_better_overrides_unresolved():
    parent = [10.0, 10.0, 20.0, 20.0]  # spread 10 > 0.25 * 15
    row = pairs.compare(BOUNDED, parent, [9.0] * 4, CLEAN)  # gain 6 < spread 10
    assert row["wins"] == 4 and row["verdict"] == "none"


def test_a_narrow_spread_without_a_gain_is_none():
    row = pairs.compare(BOUNDED, PARENT, list(reversed(PARENT)), CLEAN)
    assert row["verdict"] == "none" and not row["worse_than_bound"]


def test_worse_than_the_bound_is_flagged():
    row = pairs.compare(BOUNDED, PARENT, [1.3 * v for v in PARENT], CLEAN)
    assert row["verdict"] == "none" and row["worse_than_bound"]
    higher = dict(BOUNDED, better="higher", bound=0.1)
    row = pairs.compare(higher, PARENT, [0.85 * v for v in PARENT], CLEAN)
    assert row["worse_than_bound"] and row["wins"] == 0


def test_a_metric_without_a_bound_has_the_same_verdicts_and_no_flag():
    row = pairs.compare(UNBOUNDED, PARENT, [0.8 * v for v in PARENT], CLEAN)
    assert row["verdict"] == "gain"
    row = pairs.compare(UNBOUNDED, [1.0, 2.0] * 5, [3.0] * 10, CLEAN)
    assert row["verdict"] == "none"
    assert "bound" not in row and "worse_than_bound" not in row


def test_one_pair_gives_a_record():
    row = pairs.compare(BOUNDED, [1.0], [0.5], CLEAN)
    assert row["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "rounds": 1, "runs": [1.0]}
    assert row["verdict"] == "too few pairs" and row["wins"] == 1
    json.dumps(row, allow_nan=False)


def test_layer_metrics_keep_medians_peaks_and_import_self_times():
    data = {"benchmarks": [
        {"name": "test_zone_table[bands-512]", "stats": {"median": 0.5},
         "extra_info": {"cpu_count": 2, "python": "3", "numpy": "2", "peak_bytes": 4096}},
        {"name": "test_import", "stats": {"median": 0.25},
         "extra_info": {"cpu_count": 2, "importtime_self_us": {"omband.cli": 900}}},
    ]}
    assert pairs.layer_metrics(data) == {
        "test_zone_table[bands-512]": {"value": 0.5, "unit": "s"},
        "test_zone_table[bands-512]/peak_bytes": {"value": 4096, "unit": "B"},
        "test_import": {"value": 0.25, "unit": "s"},
        "test_import/omband.cli": {"value": 900, "unit": "us"},
    }


def parse(*argv):
    return pairs.parse_args(["parent", str(ROOT), *argv])


def test_workload_takes_a_list_of_programs():
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    args, programs, _ = parse("--workload", f"{names[0]},tier1,layers")
    assert programs == [names[0], "tier1", "layers"] and args.pairs == 4
    _, programs, _ = parse("--workload", f"tier1,all,{names[0]}", "--pairs", "1")
    assert programs == ["tier1", *names]


@pytest.mark.parametrize("argv, message", [
    (("--workload", "tier1,nope"), "--workload takes a comma-separated list of "),
    (("--workload", ""), "--workload takes a comma-separated list of "),
    (("--workload", "tier1", "--pairs", "0"), "--pairs must be at least 1 (got 0)"),
])
def test_bad_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(*argv)
    assert exc.value.code == 2
    assert f" error: {message}" in capsys.readouterr().err.splitlines()[-1]
