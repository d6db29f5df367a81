"""The pair runner's summary of parent/change runs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "wall", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.25},
]


def run(workload, side, pair, wall, rate):
    return {"workload": workload, "side": side, "pair": pair, "metrics": {"wall": wall, "rate": rate}}


def synthetic_runs():
    parent = [4.0, 2.0, 3.0, 5.0, 1.0]
    change = [2.0, 2.0, 1.0, 6.0, 0.5]  # pair 2 ties, pair 4 loses
    runs = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        runs.append(run("w", "parent", i, p, 10 * p))
        runs.append(run("w", "change", i, c, 10 * c))
    runs.append(run("w", "parent", 6, 100.0, 0.0))  # a pair without its change run is left out
    return runs


def test_medians_quartiles_and_pairs_won():
    summary = pairs.summarize(synthetic_runs(), METRICS)
    wall = summary["w"]["wall"]
    # sorted parent 1 2 3 4 5; change 0.5 1 2 2 6: exclusive quartiles at ranks 1.5 and 4.5
    assert wall["parent_median"] == 3.0
    assert wall["parent_quartiles"] == [1.5, 4.5]
    assert wall["change_median"] == 2.0
    assert wall["change_quartiles"] == [0.75, 4.0]
    assert wall["change_over_parent"] == pytest.approx(2 / 3, abs=1e-3)
    assert wall["pairs_change_better"] == 3  # a tie is not a win
    # for a higher-is-better metric, the same values win the other pairs
    rate = summary["w"]["rate"]
    assert rate["parent_median"] == 30.0 and rate["change_median"] == 20.0
    assert rate["pairs_change_better"] == 1


def test_gain_rule_and_bound():
    summary = pairs.summarize(synthetic_runs(), METRICS)["w"]
    # 3 of 5 pairs won is short of 9 in 10; the median 2.0 is well inside 3.0's bound
    assert summary["wall"]["gain_rule_met"] is False
    assert summary["wall"]["within_bound"] is True
    # the rate median fell from 30 to 20, a third of the parent's: beyond the 0.25 bound
    assert summary["rate"]["gain_rule_met"] is False
    assert summary["rate"]["within_bound"] is False


def paired_runs(parent, change):
    runs = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        runs += [run("w", "parent", i, p, p), run("w", "change", i, c, c)]
    return runs


@pytest.mark.parametrize(
    "change, gain_met",
    [
        ([x - 2.0 for x in range(10, 20)], False),  # won 10/10, but by 2 against an IQR of 5.5
        ([x - 6.0 for x in range(10, 20)], True),  # won 10/10 by 6
        ([x - 6.0 for x in range(10, 19)] + [20.0], True),  # 9/10 is enough; median 8.5
        ([x - 6.0 for x in range(10, 18)] + [20.0, 20.0], False),  # 8/10 is not; median 8.5
    ],
)
def test_gain_rule_needs_nine_in_ten_pairs_and_a_gap_beyond_the_iqr(change, gain_met):
    parent = [float(x) for x in range(10, 20)]
    wall = pairs.summarize(paired_runs(parent, change), METRICS)["w"]["wall"]
    # parent quartiles 11.75 and 17.25 around 14.5: the medians must differ by more than 5.5
    assert wall["parent_quartiles"] == [11.75, 17.25]
    assert wall["gain_rule_met"] is gain_met


def test_within_bound_is_relative_to_the_parent_median():
    parent = [10.0] * 4
    for worse, within in ((12.5, True), (12.6, False), (8.0, True)):
        summary = pairs.summarize(paired_runs(parent, [worse] * 4), METRICS)["w"]
        assert summary["wall"]["within_bound"] is within
        # for a higher-is-better metric the bound counts the other way
        assert summary["rate"]["within_bound"] is (worse >= 7.5)


def test_workloads_summarised_separately_and_in_order():
    runs = [run("b", side, 1, 1.0, 1.0) for side in ("parent", "change")]
    runs += [run("a", "parent", 1, 2.0, 1.0), run("a", "change", 1, 1.0, 1.0)]
    summary = pairs.summarize(runs, METRICS)
    assert list(summary) == ["b", "a"]
    # one pair: the quartiles collapse onto the single value
    assert summary["a"]["wall"]["parent_quartiles"] == [2.0, 2.0]
    assert summary["a"]["wall"]["pairs_change_better"] == 1
    assert summary["b"]["wall"]["pairs_change_better"] == 0


def test_pairs_alternate_which_side_runs_first():
    assert [pairs.first_side(i) for i in range(1, 5)] == ["parent", "change", "parent", "change"]


def test_failed_runs_are_named():
    runs = [{**r, "correct": True, "failed": 0} for r in synthetic_runs()]
    assert pairs.failed_runs(runs) == []
    runs[3] = {**runs[3], "failed": 2}
    runs[6] = {**runs[6], "correct": False}
    assert pairs.failed_runs(runs) == [runs[3], runs[6]]


def perfbench_output(provenance_extra):
    return {
        "provenance": {"workload": "w", "source_sha256": "abc", **provenance_extra},
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"norm_wall_s": {"value": 1.23456789, "unit": "s"}},
    }


def test_run_record_keeps_verify_sweeps_per_lemma_seconds():
    lemmas = {"shield": 0.1234567, "lift": 0.2}
    record = pairs.run_record("verify-sweep", "change", 2, 7, perfbench_output({"lemma_norm_s": lemmas}))
    assert record == {
        "workload": "verify-sweep", "side": "change", "pair": 2, "seed": 7,
        "source_sha256": "abc", "correct": True, "failed": 0,
        "metrics": {"norm_wall_s": 1.234568},
        "lemma_norm_s": {"shield": 0.123457, "lift": 0.2},
    }
    # workloads without per-lemma seconds get no such key
    assert "lemma_norm_s" not in pairs.run_record("names-wide", "parent", 1, 1, perfbench_output({}))


def test_verify_sweep_summary_gives_each_lemmas_medians_and_ratio():
    runs = []
    for i, (p, c) in enumerate([(1.0, 0.5), (3.0, 1.0), (2.0, 2.0)], start=1):
        for side, shield in (("parent", p), ("change", c)):
            record = run("verify-sweep", side, i, shield + 1.0, 1.0)
            # "new" is timed only on the change side, so it has no parent median
            record["lemma_norm_s"] = {"shield": shield, "lift": 1.0}
            if side == "change":
                record["lemma_norm_s"]["new"] = 0.1
            runs.append(record)
    summary = pairs.summarize(runs, METRICS)
    assert list(summary["verify-sweep"]) == ["wall", "rate", "lemma_norm_s"]
    assert summary["verify-sweep"]["lemma_norm_s"] == {
        "shield": {"parent_median": 2.0, "change_median": 1.0, "change_over_parent": 0.5},
        "lift": {"parent_median": 1.0, "change_median": 1.0, "change_over_parent": 1.0},
    }
    # runs without per-lemma seconds get no such key
    assert "lemma_norm_s" not in pairs.summarize(synthetic_runs(), METRICS)["w"]


def test_src_lines_counts_every_library_module_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "cascadekit"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "sub" / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("outside\nthe\nlibrary\n")
    assert pairs.src_lines(tmp_path) == 2


def test_src_code_lines_counts_the_non_blank_lines_of_every_library_module(tmp_path):
    pkg = tmp_path / "src" / "cascadekit"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\n   \n\ty = 2\n\n")  # blank and whitespace-only lines are not code
    (pkg / "sub" / "b.py").write_text("\nz = 3")  # a last line without its newline still counts
    (pkg / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("outside\nthe\nlibrary\n")
    assert pairs.src_code_lines(tmp_path) == 3
    assert pairs.src_lines(tmp_path) == 6
