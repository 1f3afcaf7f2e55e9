"""``scripts/compare.py``'s paired-run recorder and claim rule, on
synthetic runs in this process: no checkout and no worker is run."""

import argparse
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import compare  # noqa: E402

SIDES = {"parent": "P", "change": "C"}
# ten parent runs: median 10.45, quartiles 10.225 and 10.675, IQR 0.45
PARENT = [10.0 + 0.1 * i for i in range(10)]


def _record(parent, change, metric="wall_s", **fields):
    """``_paired`` over runs that read ``parent[i]`` and ``change[i]`` as
    ``metric``, with ``fields`` added to every run; and the order in which
    the sides ran."""
    values = {"P": iter(parent), "C": iter(change)}
    order = []

    def measure_one(root):
        order.append(root)
        return {metric: next(values[root]), **fields}
    return compare._paired(len(parent), SIDES, measure_one), order


def test_recorder_alternates_keeps_every_field_and_summarises_numbers():
    cell, order = _record([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 3.0, 2.0, 5.0, 4.0],
                          correct=True, sha="ab", workers=4)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P", "P", "C"]
    assert (cell["pairs"], cell["parent_first_in"]) == (5, "odd-numbered pairs")
    assert cell["runs"] == {
        "parent": {"wall_s": [1.0, 2.0, 3.0, 4.0, 5.0], "correct": [True] * 5,
                   "sha": ["ab"] * 5, "workers": [4] * 5},
        "change": {"wall_s": [0.5, 3.0, 2.0, 5.0, 4.0], "correct": [True] * 5,
                   "sha": ["ab"] * 5, "workers": [4] * 5}}
    # bools and strings are kept in the runs but not summarised
    assert set(cell["metrics"]) == {"wall_s", "workers"}
    s = cell["metrics"]["wall_s"]
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert s["change"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert (s["change_lower_in"], s["change_higher_in"]) == ("3/5", "2/5")
    assert s["median_change"] == "+0.0%"
    assert cell["metrics"]["workers"]["median_change"] == "+0.0%"


def test_recorder_summarises_only_fields_that_are_numbers_in_every_run():
    # the change's runs report a field that the parent's do not, as a
    # perfbench with one more metric would, and one run's value is None
    values = iter([{"wall_s": 1.0}, {"wall_s": 1.1, "thread_s": 0.9},
                   {"wall_s": 1.2, "thread_s": None}, {"wall_s": 1.0}])
    cell = compare._paired(2, SIDES, lambda root: next(values))
    assert set(cell["metrics"]) == {"wall_s"}
    assert cell["runs"] == {
        "parent": {"wall_s": [1.0, 1.0], "thread_s": [None, None]},
        "change": {"wall_s": [1.1, 1.2], "thread_s": [0.9, None]}}


def _judged(parent, change):
    cell, _ = _record(parent, change)
    return compare._claimed(("full_scale_time", "wall_s"),
                            {"full_scale_time": cell})


def test_claim_met_lower_in_10_of_10_with_a_gap_above_the_parents_iqr():
    claimed = _judged(PARENT, [v - 1.0 for v in PARENT])
    assert claimed["claim"] == "full_scale_time:wall_s"
    judged = claimed["cells"]["full_scale_time"]
    assert judged["change_lower_in"] == "10/10"
    assert judged["parent_iqr"] == 0.45
    assert judged["median_difference"] == 1.0
    assert judged["met"] is True


def test_claim_not_met_lower_in_8_of_10():
    change = [v - 1.0 for v in PARENT[:8]] + [v + 0.05 for v in PARENT[8:]]
    judged = _judged(PARENT, change)["cells"]["full_scale_time"]
    assert judged["change_lower_in"] == "8/10"
    # the gap alone would meet the rule: the count fails it
    assert judged["median_difference"] > judged["parent_iqr"]
    assert judged["met"] is False


def test_claim_not_met_with_the_gap_inside_the_parents_iqr():
    judged = _judged(PARENT, [v - 0.2 for v in PARENT])["cells"][
        "full_scale_time"]
    assert judged["change_lower_in"] == "10/10"
    assert judged["median_difference"] == 0.2
    assert judged["met"] is False


def test_workload_claim_is_judged_in_each_seed_cell():
    lower, _ = _record(PARENT, [v - 1.0 for v in PARENT], "recon_s")
    level, _ = _record(PARENT, PARENT, "recon_s")
    record = {"pairs": {"desk40_s1": lower, "desk40_s7": level,
                        "desk0_s1": lower, "long_series_s1": lower},
              "full_scale_time": lower}
    claimed = compare._claimed(compare._claim("desk40:recon_s"), record)
    assert claimed["claim"] == "desk40:recon_s"
    assert {name: c["met"] for name, c in claimed["cells"].items()} == {
        "desk40_s1": True, "desk40_s7": False}


def test_full_scale_time_claim_is_read_from_that_section():
    faster, _ = _record(PARENT, [v - 1.0 for v in PARENT])
    level, _ = _record(PARENT, PARENT)
    claim = compare._claim("full_scale_time:wall_s")
    assert claim == ("full_scale_time", "wall_s")
    claimed = compare._claimed(claim, {"pairs": {"desk40_s1": level},
                                       "full_scale_time": faster})
    assert list(claimed["cells"]) == ["full_scale_time"]
    assert claimed["cells"]["full_scale_time"]["met"] is True


@pytest.mark.parametrize("text", [
    "desk40:wall_s", "full_scale_time:recon_s", "full_scale_memory:seconds",
    "minor_faults:wall_s", "traced:recon_s", "desk1:recon_s", "desk40",
    "full_scale_time"])
def test_claim_rejects_an_unknown_section_or_metric(text):
    with pytest.raises(argparse.ArgumentTypeError, match="SECTION:METRIC"):
        compare._claim(text)


def test_claim_accepts_each_sections_own_metric():
    for text in ("desk0:peak_rss_mb", "long_series:setup_s",
                 "full_scale_time:thread_s", "full_scale_memory:ru_maxrss_mb",
                 "full_scale_memory:traced_peak_mib", "criterion7_pool:seconds"):
        assert compare._claim(text) == tuple(text.split(":"))


@pytest.mark.parametrize("argv", [
    ["--aa", "--claim", "criterion7_pool:seconds"],
    ["--aa", "--pairs", "1"],
    ["--change", ".", "--pool-runs", "1"]])
def test_main_refuses_a_run_it_could_not_record(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["compare.py", "--parent", ".",
                                      "--out", "unused.json", *argv])
    with pytest.raises(SystemExit) as exc:
        compare.main()
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err
