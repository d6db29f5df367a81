"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from probes import Probes  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_subtract_child_time():
    clock = FakeClock()
    p = Probes(trace=True, clock=clock)

    def inner():
        clock.now += 3.0

    wrapped_inner = p._wrap(inner, "names.inner", "names", "inner", False)

    def outer():
        clock.now += 2.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 1.0

    wrapped_outer = p._wrap(outer, "cascade.outer", "cascade", "outer", False)
    wrapped_outer()
    assert p.stats["cascade.outer"].calls == 1
    assert p.stats["cascade.outer"].self_s == pytest.approx(3.0)
    assert p.stats["names.inner"].calls == 2
    assert p.stats["names.inner"].self_s == pytest.approx(6.0)
    layer = p.layer_metrics()
    assert layer["cascade.self_s"] == pytest.approx(3.0)
    assert layer["names.self_s"] == pytest.approx(6.0)
    assert p.spans_self_s() == pytest.approx(9.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    p = Probes(trace=True, clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    wrapped = p._wrap(boom, "orbits.boom", "orbits", "boom", False)
    with pytest.raises(ValueError):
        wrapped()
    assert p.stats["orbits.boom"].self_s == pytest.approx(1.0)
    assert p._stack == []


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (11, (9, 1)), (20, (50, 10)), (30, (66, 20)), (40, (75, 30)), (100, (90, 90)), (1000, (99, 990))],
)
def test_tail_rank_follows_case_count(n, expected):
    assert run.tail_rank(n) == expected


def test_tail_rank_is_the_highest_percentile_with_ten_beyond():
    for n in range(11, 400):
        p, rank = run.tail_rank(n)
        assert n - rank >= 10
        if p < 99:
            assert n - -(-(p + 1) * n // 100) < 10


def test_case_summary_falls_back_to_the_median_below_eleven_cases():
    summary = run.case_summary([3.0, 1.0, 2.0])
    assert summary == {"p50": 2.0, "tail": 2.0, "tail_percentile": 50, "cases": 3}
    summary = run.case_summary([float(v) for v in range(40)])
    assert summary["tail"] == 29.0 and summary["tail_percentile"] == 75


def test_case_latencies_take_the_fastest_pass_per_case():
    assert run.case_latencies([[1.0, 10.0], [3.0, 30.0], [2.0, 9.0]]) == [1.0, 9.0]


def test_scaled_case_times_divide_by_the_speed_samples_near_each_case():
    samples = [(0.0, 0.001), (0.5, 0.004), (10.0, 0.003)]
    scaled = run.scaled_case_times([0.3, 1.0], [(0.1, 0.4), (9.9, 11.0)], samples)
    assert scaled == pytest.approx([0.3 / 0.0025 * run.REFERENCE_S, 1.0 / 0.003 * run.REFERENCE_S])
    steeper = run.scaled_case_times([0.3], [(0.1, 0.4)], samples, exponent=1.5)
    assert steeper == pytest.approx([0.3 * (run.REFERENCE_S / 0.0025) ** 1.5])
    assert run.at_reference_speed(0.5, run.REFERENCE_S, 1.5) == 0.5
    with pytest.raises(ValueError):
        run.scaled_case_times([0.3], [(3.0, 4.0)], samples)


def test_net_time_takes_out_the_samples_inside_a_span():
    samples = [(0.5, 0.1), (1.0, 0.2), (2.0, 0.4)]
    assert workloads.net_time((0.5, 2.0), samples) == pytest.approx(1.5 - 0.3)


def test_speed_sampler_samples_on_a_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with workloads.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 3.5 * workloads.SAMPLE_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 4
    assert all(d > 0 for _, d in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_verify_sweep_passes_sweep_their_own_seeds():
    assert [run.pass_seed("verify-sweep", 7, j) for j in range(4)] == [700, 701, 700, 701]
    assert [run.pass_seed("names-wide", 7, j) for j in range(3)] == [7, 7, 7]


def test_counts_must_repeat_within_each_seed():
    a, b = {"verify.instances": 5}, {"verify.instances": 6}
    assert run.counts_repeat([{"seed": 1, "work_counts": a}, {"seed": 2, "work_counts": b}, {"seed": 1, "work_counts": a}])
    assert not run.counts_repeat([{"seed": 1, "work_counts": a}, {"seed": 1, "work_counts": b}])


def test_time_cases_records_a_span_per_case():
    out = workloads.time_cases([1, 2, 3], lambda x: x * x)
    assert out["results"] == [1, 4, 9]
    spans = out["case_spans"]
    assert len(spans) == 3 and all(t0 <= t1 for t0, t1 in spans)
    assert out["span"][0] <= spans[0][0] and spans[-1][1] <= out["span"][1]


def test_sweep_pass_times_each_lemma_and_restores_the_registry():
    calls = []

    def lemma_a(seed=0):
        calls.append("a")

    def lemma_b(seed=0):
        calls.append("b")

    registry = {"a": (lemma_a, "A"), "b": (lemma_b, "B")}

    class FakeCli:
        @staticmethod
        def main(argv):
            for fn, _ in registry.values():
                assert fn.__wrapped__ in (lemma_a, lemma_b)
                fn(seed=1)
            print("lemma=a trials=1 exhaustive=true failures=0 seed=1 elapsed=0.00s")
            return 0

    inputs = {"argv": [], "cli": FakeCli, "registry": registry, "lemmas": ("a", "b")}
    out = workloads.sweep_pass(inputs)
    assert calls == ["a", "b"]
    assert len(out["case_spans"]) == 2
    assert out["exit_code"] == 0 and out["stdout"].startswith("lemma=a")
    assert registry == {"a": (lemma_a, "A"), "b": (lemma_b, "B")}


def _layer_modules():
    import importlib

    return {name: importlib.import_module(name) for name in ["cascadekit", *probes.LAYERS]}


def test_probes_rebind_every_alias_and_registry_entry_then_restore():
    mods = _layer_modules()
    cascade, verify, selectors, pkg = (
        mods["cascadekit.cascade"], mods["cascadekit.verify"], mods["cascadekit.selectors"], mods["cascadekit"],
    )
    original_apply = cascade.apply
    holders = [cascade, verify, selectors, pkg]
    assert all(m.apply is original_apply for m in holders)
    registry_before = dict(verify.REGISTRY)

    with Probes(trace=True) as p:
        wrapper = cascade.apply
        assert wrapper is not original_apply
        assert wrapper.__wrapped__ is original_apply
        assert all(m.apply is wrapper for m in holders)
        for lemma, (fn, text) in verify.REGISTRY.items():
            assert fn is not registry_before[lemma][0]
            assert fn.__wrapped__ is registry_before[lemma][0]
            assert text == registry_before[lemma][1]
        assert verify.verify_dyadic is verify.REGISTRY["dyadic"][0]
        report = verify.run("dyadic")
    assert p.stats["verify.dyadic"].calls == 1
    assert p.stats["verify.run"].calls == 1
    assert p.stats["orbits.quotient_analysis"].calls > 0
    assert p.work_counts()["verify.instances"] == report.trials

    assert all(m.apply is original_apply for m in holders)
    assert verify.REGISTRY == registry_before


def test_counting_probes_wrap_only_the_counted_functions():
    mods = _layer_modules()
    kernels, cascade = mods["cascadekit._kernels"], mods["cascadekit.cascade"]
    original_apply, original_build = cascade.apply, kernels.build_table
    with Probes(trace=False) as p:
        assert cascade.apply is original_apply
        assert kernels.build_table is not original_build
        table = kernels.build_table(3, [(1, 1, 1)])
        kernels.flip_violation(table, 2)
        kernels.solve_unit_triangular_all([1, 3], 2)
    assert p.assignments_swept == 8 + 8 + 4
    assert p.stats == {}
    assert kernels.build_table is original_build


def test_sweep_oracle_flags_failures_exit_codes_and_missing_lemmas():
    inputs = {"lemmas": ("shield", "swap")}
    ok = "lemma=shield trials=5 exhaustive=true failures=0 seed=1 elapsed=0.10s\n"
    ok += "lemma=swap trials=7 exhaustive=true failures=0 seed=1 elapsed=0.20s\n"
    assert workloads.sweep_check(inputs, {"exit_code": 0, "stdout": ok}) == (2, 0)
    bad = ok.replace("lemma=swap trials=7 exhaustive=true failures=0", "lemma=swap trials=7 exhaustive=true failures=3")
    assert workloads.sweep_check(inputs, {"exit_code": 0, "stdout": bad}) == (2, 1)
    assert workloads.sweep_check(inputs, {"exit_code": 1, "stdout": ok}) == (2, 2)
    assert workloads.sweep_check(inputs, {"exit_code": 0, "stdout": ok.splitlines()[0]}) == (2, 1)


@pytest.fixture(scope="module")
def names_case():
    inputs = workloads.names_inputs(seed=5, cases=1)
    results = workloads.names_pass(inputs)
    return inputs[0], results["results"][0]


def test_names_oracle_accepts_the_library_answer(names_case):
    case, (supported, decoded, decisions) = names_case
    verdicts = workloads.names_case_verdicts(case, supported, decoded, decisions)
    assert verdicts and all(verdicts)
    assert len(verdicts) == 2 + len(case["pairs"])


def test_names_oracle_flags_wrong_answers(names_case):
    from cascadekit import PacketScheme

    case, (supported, decoded, decisions) = names_case
    assert not workloads.names_case_verdicts(case, False, decoded, decisions)[0]
    emptied = PacketScheme.of(decoded.support, {m: () for m, _ in decoded.families})
    assert not workloads.names_case_verdicts(case, supported, emptied, decisions)[1]
    flipped = [not decisions[0], *decisions[1:]]
    assert not workloads.names_case_verdicts(case, supported, decoded, flipped)[2]


def test_names_oracle_does_not_call_the_kernels(names_case):
    case, (supported, decoded, decisions) = names_case
    with Probes(trace=True) as p:
        workloads.names_case_verdicts(case, supported, decoded, decisions)
    assert all(stats.calls == 0 for span, stats in p.stats.items() if span.startswith("kernels."))


def test_window_oracle_flags_wrong_answers():
    inputs = workloads.windows_inputs(seed=5, cases=1)
    results = workloads.windows_pass(inputs)
    assert workloads.windows_check(inputs, results) == (workloads.WINDOW_TARGETS, 0)
    K = inputs[0]["K"]
    t = inputs[0]["targets"][0]
    batch_nodes, nodes, combined = results["results"][0][0]
    assert workloads.window_target_verdict(K, t, batch_nodes, nodes, combined)
    other = frozenset(nodes ^ {K.ordered[-1]})
    assert not workloads.window_target_verdict(K, t, other, nodes, combined)
    assert not workloads.window_target_verdict(K, t, batch_nodes, nodes, combined ^ 1)
    assert not workloads.window_target_verdict(K, t, other, other, t)


def test_declared_spans_name_public_functions_and_lemmas():
    mods = _layer_modules()
    module_of = {layer: name for name, layer in probes.LAYERS.items()}
    for layer, fns in run.TRACED_FUNCTIONS.items():
        for fn in fns:
            assert callable(getattr(mods[module_of[layer]], fn)), (layer, fn)
    assert run.LEMMAS == tuple(mods["cascadekit.verify"].REGISTRY)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == run.per_layer_metrics()
    assert len(spec["per_layer"]) <= 128


def test_runner_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window-solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
