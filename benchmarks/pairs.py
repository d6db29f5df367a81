#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as one BENCH file.

Usage, from the root of a source checkout:

    python3 benchmarks/pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --seed 161 --seconds 30 --out BENCH_N.json

Both revisions are cloned from the repository holding this script into a
temporary directory, so each side runs the committed files of its own
commit.  For each workload, pair ``i`` (from 1) runs
``perfbench/run.py --workload W --seed SEED+i-1 --seconds T --trace 0``
once in each clone: the parent first when ``i`` is odd, the change first
when ``i`` is even, so a slow stretch of a shared machine falls on both
sides alike.  The end-to-end metrics and which way each is better come from
the change's ``BENCHMARK.json``.

The output holds ``command``, ``machine``, ``parent``, ``change``,
``src_lines``, ``src_code_lines``, ``pairing``, ``claim``, ``summary`` and
``runs``.  ``src_lines`` gives each side's total line count of
``src/cascadekit/**/*.py``, as ``wc -l`` counts it, and ``src_code_lines``
the non-blank lines among them.  ``summary`` gives, per
workload and metric, each side's median and quartiles (the exclusive
method of ``statistics.quantiles``), the ratio of the medians,
``pairs_change_better``, the number of pairs in which the change beat the
parent, ``gain_rule_met``, whether the change won at least 9 in 10 pairs
and its median beat the parent's by more than the parent's interquartile
range, and ``within_bound``, whether the change's median is worse than the
parent's by no more than the metric's ``bound`` (a fraction of the
parent's median).  Each record in ``runs`` holds the run's end-to-end metrics and, for
verify-sweep, ``lemma_norm_s``: the normalised seconds of each lemma, whose
sum is ``norm_wall_s``.  The verify-sweep summary adds ``lemma_norm_s`` too:
per lemma, each side's median and their ratio, so a gain can be traced to
the lemmas it came from.
A run whose verdicts were not all correct, or that failed any
operation, still goes into the file, but the script then names it on
stderr and exits with status 1, so no claim rests on failing runs.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def first_side(pair: int) -> str:
    """The side that runs first in pair ``pair`` (counted from 1)."""
    return "parent" if pair % 2 else "change"


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def lemma_medians(pairs: list[dict]) -> dict:
    """Each side's median ``lemma_norm_s`` and their ratio, per lemma that every run timed."""
    tables = [sides[side].get("lemma_norm_s", {}) for sides in pairs for side in SIDES]
    lemmas = [k for k in tables[0] if all(k in t for t in tables)] if tables else []
    out = {}
    for lemma in lemmas:
        p_med = statistics.median(sides["parent"]["lemma_norm_s"][lemma] for sides in pairs)
        c_med = statistics.median(sides["change"]["lemma_norm_s"][lemma] for sides in pairs)
        out[lemma] = {
            "parent_median": round(p_med, 6),
            "change_median": round(c_med, 6),
            "change_over_parent": round(c_med / p_med, 3) if p_med else None,
        }
    return out


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: medians, quartiles, their ratio and the pairs the change won.

    ``runs`` are records with ``workload``, ``side``, ``pair``, a
    ``metrics`` dict of values and, for verify-sweep, ``lemma_norm_s``;
    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries, each with a
    ``name``, ``better`` (``lower`` or ``higher``) and ``bound``.  A tie
    counts as a pair the change did not win.  Where the runs time lemmas, the
    workload's summary also holds ``lemma_norm_s`` from :func:`lemma_medians`.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run
        pairs = [sides for _, sides in sorted(by_pair.items()) if set(sides) == set(SIDES)]
        out = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [sides["parent"]["metrics"][name] for sides in pairs]
            change = [sides["change"]["metrics"][name] for sides in pairs]
            if not parent:
                continue
            p_med, c_med = statistics.median(parent), statistics.median(change)
            won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            gain = p_med - c_med if lower else c_med - p_med
            q1, q3 = quartiles(parent)
            out[name] = {
                "parent_median": round(p_med, 6),
                "parent_quartiles": [round(q1, 6), round(q3, 6)],
                "change_median": round(c_med, 6),
                "change_quartiles": [round(q, 6) for q in quartiles(change)],
                "change_over_parent": round(c_med / p_med, 3) if p_med else None,
                "pairs_change_better": won,
                "gain_rule_met": 10 * won >= 9 * len(pairs) and gain > q3 - q1,
                "within_bound": -gain <= metric["bound"] * p_med,
            }
        lemmas = lemma_medians(pairs)
        if lemmas:
            out["lemma_norm_s"] = lemmas
        summary[workload] = out
    return summary


def failed_runs(runs: list[dict]) -> list[dict]:
    """The runs that read ``correct: false`` or ``failed > 0``."""
    return [run for run in runs if run["correct"] is not True or run["failed"] > 0]


def run_record(workload: str, side: str, pair: int, seed: int, out: dict) -> dict:
    """One run of the output's ``runs``, from ``perfbench/run.py``'s merged provenance and verdict."""
    record = {
        "workload": workload,
        "side": side,
        "pair": pair,
        "seed": seed,
        "source_sha256": out["provenance"]["source_sha256"],
        "correct": out["correct"],
        "failed": out["failed"],
        "metrics": {k: round(v["value"], 6) for k, v in out["metrics"].items()},
    }
    if "lemma_norm_s" in out["provenance"]:
        record["lemma_norm_s"] = {k: round(v, 6) for k, v in out["provenance"]["lemma_norm_s"].items()}
    return record


def _library(tree: Path):
    return (tree / "src" / "cascadekit").rglob("*.py")


def src_lines(tree: Path) -> int:
    """Newlines in every ``src/cascadekit/**/*.py`` of ``tree``: the library's line count."""
    return sum(path.read_bytes().count(b"\n") for path in _library(tree))


def src_code_lines(tree: Path) -> int:
    """Lines holding more than whitespace in every ``src/cascadekit/**/*.py`` of ``tree``."""
    return sum(sum(1 for line in path.read_bytes().splitlines() if line.strip()) for path in _library(tree))


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(revision: str, dest: Path) -> None:
    """A local clone of this repository at ``revision``, detached."""
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest), cwd=ROOT)
    git("checkout", "--quiet", "--detach", revision, cwd=dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``: its provenance and verdict lines."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode} in {tree}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", required=True, help="revision of the change side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 1; pair i uses seed + i - 1")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", help="repeat for several; default: all of BENCHMARK.json")
    parser.add_argument("--claim", default=None, help="the claim the runs test, recorded as given")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revisions = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=ROOT)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            checkout(revisions[side], trees[side])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        code_lines = {side: src_code_lines(trees[side]) for side in SIDES}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                seed = args.seed + pair - 1
                first = first_side(pair)
                for side in (first, *(s for s in SIDES if s != first)):
                    out = run_once(trees[side], workload, seed, args.seconds)
                    runs.append(run_record(workload, side, pair, seed, out))
                    print(f"{workload} pair {pair} {side}: norm_wall_s="
                          f"{runs[-1]['metrics'].get('norm_wall_s')}", file=sys.stderr)

    last = args.seed + args.pairs - 1
    result = {
        "command": (f"python3 perfbench/run.py --workload <w> --seed <{args.seed}..{last}> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "note": "both sides ran in one sitting, each from its own git clone of its commit",
        },
        "parent": revisions["parent"],
        "change": revisions["change"],
        "src_lines": lines,
        "src_code_lines": code_lines,
        "pairing": (f"{args.pairs} pairs per workload; pair i runs seed {args.seed} + i - 1, "
                    "the parent first when i is odd and the change first when i is even"),
        "claim": args.claim,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    bad = failed_runs(runs)
    for run in bad:
        print(f"{run['workload']} pair {run['pair']} {run['side']}: correct={run['correct']} "
              f"failed={run['failed']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
