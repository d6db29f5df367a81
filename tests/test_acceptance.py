"""Acceptance suite: every criterion at its stated scale, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import re
import time
from pathlib import Path

from conftest import all_closed_subsets, all_forests, unit_upper_triangular, verify_all_run
from cascadekit.f2linalg import star_matrix
from cascadekit.forest import Window
from cascadekit.verify import (
    REGISTRY,
    verify_code,
    verify_decision,
    verify_normalize,
    verify_selector,
    verify_shield,
    verify_starspan,
    verify_swap,
    verify_transport,
)

GOLDEN = Path(__file__).parent / "golden"


def _criterion(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    tag = f"{number:2d}" if isinstance(number, int) else f" {number}"
    print(f"criterion {tag} [{label}]: {status}{' ' + detail if detail else ''}")
    assert passed, f"criterion {number} ({label}) failed {detail}"


def test_criterion_1_star_span_solver():
    report = verify_starspan(trials=200, seed=11)
    _criterion(
        1,
        "star-span basis and solver",
        report.failure_count() == 0
        and report.notes.endswith("up to 10 nodes")
        and report.elapsed < 10.0,
        f"failures={report.failure_count()} elapsed={report.elapsed:.2f}s (budget 10s); {report.notes}",
    )


def test_criterion_2_triangularity():
    bad = 0
    checked = 0
    for size in range(1, 7):
        for forest in all_forests(size):
            for closed in all_closed_subsets(forest):
                if not closed:
                    continue
                checked += 1
                if not unit_upper_triangular(star_matrix(Window(forest, closed))):
                    bad += 1
    _criterion(
        2,
        "unit upper triangular star matrices",
        bad == 0,
        f"{checked} windows checked exhaustively, {bad} non-triangular",
    )


def test_criterion_3_shielding():
    report = verify_shield(trials=1000, seed=12)
    _criterion(
        3,
        "shielded toggles fix conditions",
        report.failure_count() == 0 and report.trials == 132_868,
        f"trials={report.trials} (includes the exhaustive 8-coordinate sweep)",
    )


def test_criterion_4_fresh_separation(exhaustive_reports):
    report = exhaustive_reports["fresh"]
    _criterion(
        4,
        "fresh separation clauses",
        report.failure_count() == 0 and report.exhaustive and report.trials == 2_261,
        f"instances={report.trials}",
    )


def test_criterion_5_transport_and_decision():
    started = time.perf_counter()
    transport_report = verify_transport(trials=500, seed=13)
    decision_report = verify_decision(trials=100, seed=13)
    elapsed = time.perf_counter() - started
    _criterion(
        5,
        "transport and decision invariance",
        transport_report.failure_count() == 0
        and decision_report.failure_count() == 0
        and elapsed < 30.0,
        f"transport={transport_report.trials} decision={decision_report.trials} "
        f"elapsed={elapsed:.2f}s (budget 30s)",
    )


def test_criterion_6_normalization():
    report = verify_normalize(trials=100, seed=14)
    _criterion(
        6,
        "packet normalization preserves evaluation",
        report.failure_count() == 0,
        f"names={report.trials}, all assignments swept per box",
    )


def test_criterion_7_two_layer_coding():
    # seed 14 replays the same generation stream as criterion 6: same schemes
    report = verify_code(trials=100, seed=14)
    _criterion(
        7,
        "two-layer coding round trip",
        report.failure_count() == 0,
        f"schemes={report.trials}",
    )


def test_criterion_8_odd_fixed_points(exhaustive_reports):
    report = exhaustive_reports["odd-fixed"]
    _criterion(
        8,
        "odd fixed points and dyadic orbits",
        report.failure_count() == 0 and report.exhaustive and report.trials == 7_467,
        f"group instances={report.trials}",
    )


def test_criterion_9_dyadic_quotients(exhaustive_reports):
    report = exhaustive_reports["dyadic"]
    _criterion(
        9,
        "dyadic quotients and 3-class rejection",
        report.failure_count() == 0 and report.exhaustive and report.trials == 60,
        report.notes,
    )


def test_criterion_10_swap_mechanism():
    report = verify_swap(trials=60, seed=15)
    _criterion(
        10,
        "swap witness certificates",
        report.failure_count() == 0 and report.trials == 795,
        f"witnesses={report.trials}, certificates replayed from the parent map",
    )


def test_criterion_11_divisibility_lift(exhaustive_reports):
    report = exhaustive_reports["lift"]
    _criterion(
        11,
        "product choice projection",
        report.failure_count() == 0 and report.exhaustive and report.trials == 135_324,
        f"choice maps={report.trials}",
    )


def test_criterion_selector_mechanics():
    # not numbered in the acceptance list but part of the verify surface
    report = verify_selector(trials=100, seed=16)
    _criterion(
        "+",
        "canonical selector invariance (supplementary)",
        report.failure_count() == 0 and report.trials == 156,
        f"triples={report.trials}",
    )


def test_criterion_12_verify_all_end_to_end():
    # the seed-0 run test_golden.py also reads, so tier-1 runs verify --all --seed 0 once
    returncode, stdout, elapsed = verify_all_run(0)
    failures = dict(re.findall(r"^lemma=(\S+) .* failures=(\d+) ", stdout, re.M))
    passed = [lemma for lemma in REGISTRY if failures.get(lemma) == "0"]
    transcript = re.sub(r" elapsed=[0-9.]*s", "", stdout)
    golden = transcript == (GOLDEN / "verify_all_seed0.txt").read_text()
    _criterion(
        12,
        "verify --all end to end",
        returncode == 0 and len(REGISTRY) == 13 and len(passed) == 13 and elapsed < 60.0 and golden,
        f"exit={returncode} lemmas with failures=0: {len(passed)}/13 "
        f"elapsed={elapsed:.2f}s (budget 60s) golden transcript {'matches' if golden else 'DIFFERS'}",
    )
