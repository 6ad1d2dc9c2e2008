"""The decision functions of the scripts in tools/, on made-up inputs.

Neither the benchmark nor a traced test run is started here.
"""

import json
import sys
from pathlib import Path

import pytest

# The tools import each other as scripts in one directory do.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import line_coverage  # noqa: E402
import pair_bench  # noqa: E402


@pytest.mark.parametrize("better, parent, change, gain, wins, worse", [
    # Times: lower is better; +20% on a 25% bound passes, +30% does not.
    ("lower", [1.0, 1.1, 0.9, 1.0], [1.2, 1.3, 1.1, 1.2], -0.2, 0, False),
    ("lower", [1.0, 1.1, 0.9, 1.0], [1.3, 1.4, 1.2, 1.3], -0.3, 0, True),
    ("lower", [1.0, 1.1, 0.9, 1.0], [0.5, 1.1, 1.0, 0.5], 0.25, 2, False),
    # Rates: higher is better; a 30% drop is worse than the bound.
    ("higher", [100, 110, 90, 100], [70, 77, 63, 70], -0.3, 0, True),
    ("higher", [100, 110, 90, 100], [120, 110, 95, 150], 0.15, 3, False),
])
def test_pair_bench_verdict_compares_medians_against_the_bound(better, parent, change, gain,
                                                                wins, worse):
    v = pair_bench.verdict(parent, change, better, 0.25)
    assert v["gain"] == pytest.approx(gain)
    # The parent's quartiles lie 5% apart, within the bound.
    assert (v["wins"], v["worse"], v["unresolved"]) == (wins, worse, False)
    assert v["parent"] == pytest.approx((1.0, 0.975, 1.025) if better == "lower"
                                        else (100.0, 97.5, 102.5))


@pytest.mark.parametrize("better, change, worse, unresolved", [
    # The parent's quartiles, 0.875 and 1.25, lie 37.5% of its median apart.
    ("lower", [1.0, 2.0, 0.5, 1.0], False, True),
    ("lower", [1.1, 1.9, 0.6, 1.2], False, True),
    ("lower", [1.4, 2.6, 1.3, 1.4], True, True),
    # Unless every change run beats every parent run, no verdict is shown.
    ("lower", [0.45, 0.3, 0.4, 0.2], False, False),
    ("lower", [0.45, 0.3, 0.5, 0.2], False, True),
    ("higher", [2.1, 2.5, 3.0, 2.2], False, False),
    ("higher", [1.0, 2.5, 3.0, 2.2], False, True),
])
def test_pair_bench_verdict_leaves_a_spread_wider_than_the_bound_unresolved(better, change,
                                                                           worse, unresolved):
    v = pair_bench.verdict([1.0, 2.0, 0.5, 1.0], change, better, 0.25)
    assert v["parent"] == pytest.approx((1.0, 0.875, 1.25))
    assert (v["worse"], v["unresolved"]) == (worse, unresolved)


def test_pair_bench_ties_count_for_neither_side():
    v = pair_bench.verdict([2.0, 2.0, 3.0], [2.0, 2.0, 3.0], "lower", 0.1)
    assert (v["gain"], v["wins"], v["worse"]) == (0.0, 0, False)


def test_pair_bench_reads_each_run_record_and_prints_the_setup_medians(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    # Stub records: only the fields the line reads, in run.py's file names.
    for seed, probes, factor in ((1, [0.2, 0.3, 0.25], 1.0), (2, [0.21, 0.22, 0.4], 1.5)):
        (out / f"record-reference-suite-seed{seed}-trace0.json").write_text(
            json.dumps({"setup_s": probes, "speed_factor": factor, "failed": 0}))
    parent = [pair_bench.run_record(tmp_path, "reference-suite", seed) for seed in (1, 2)]
    assert [r["speed_factor"] for r in parent] == [1.0, 1.5]
    change = [{"setup_s": [0.2, 0.2, 0.2], "speed_factor": 1.3}]
    line = pair_bench.setup_line("reference-suite", parent, change)
    # The parent's six probes have median 0.235; its two factors, 1.25.
    assert line.split() == ["reference-suite", "raw", "probes", "0.235", "->", "0.2", "s,",
                            "speed", "factor", "1.25", "->", "1.3"]
    with pytest.raises(FileNotFoundError):
        pair_bench.run_record(tmp_path, "reference-suite", 3)


SOURCE = '''"""Module docstring."""
import os


@staticmethod
def f(x):
    """Docstring."""
    if x:
        return (1,
                2)
    try:
        pass
    except ValueError:
        raise
    return 3


if __name__ == "__main__":
    f(0)
'''


def test_line_coverage_statements_skip_docstrings_and_the_main_guard():
    assert line_coverage.statements(SOURCE) == [
        (2, 2), (5, 15), (8, 10), (9, 10), (11, 14), (12, 12), (14, 14), (15, 15)]
    # Import runs lines 2 and 5; a call f(0) then runs 8, 11, 12 and 15.
    assert line_coverage.unreached(SOURCE, {2, 5, 8, 11, 12, 15}) == [9, 14]
    # Any line of a statement reaches it, and a compound one's body its header.
    assert line_coverage.unreached(SOURCE, {2, 5, 10, 14}) == [12, 15]
