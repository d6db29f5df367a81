"""Sweep sizes of the verification routines, independent of the seed."""

import ast
import dataclasses
import functools
import inspect
import itertools
import random
import re

import pytest

from conftest import record_calls
import cascadekit
from cascadekit import cascade, cli, f2linalg, orbits, selectors, verify
from cascadekit.cascade import CascadeAutomorphism, Coordinate
from cascadekit.errors import CapacityError, DomainError
from cascadekit.f2linalg import StarBasis
from cascadekit.forest import random_forest
from cascadekit.names import _name_pairs
from cascadekit.orbits import _perm_order
from cascadekit.verify import (
    REGISTRY,
    _cycle_lcm,
    _echelon_bases,
    _subspace_span,
    lemma_parameters,
    verify_decision,
    verify_dyadic,
    verify_lift,
    verify_normalize,
    verify_odd_fixed,
    verify_selector,
    verify_shield,
    verify_starspan,
    verify_swap,
)

SHIELD_SWEEP = 131_868  # every condition on the 2x2x2 box, row pair and legal toggle


@pytest.mark.parametrize("seed", [0, 7, 300])
def test_shield_exhaustive_count_is_seed_independent(seed):
    report = verify_shield(trials=2, seed=seed)
    assert report.failure_count() == 0
    assert report.trials == 2 + SHIELD_SWEEP
    assert report.notes.startswith(f"{SHIELD_SWEEP} exhaustive instances")
    assert "plus 2 sampled trials" in report.notes


def test_every_counted_shield_trial_applies_a_toggle(monkeypatch):
    # an empty finite pick toggles nothing, so a trial that drew one would be counted unchecked
    calls = record_calls(monkeypatch, verify, "apply")
    report = verify_shield(trials=1000, seed=0)
    assert report.failure_count() == 0
    assert len(calls) == report.trials == 1000 + SHIELD_SWEEP


def test_every_counted_swap_trial_builds_a_witness(monkeypatch):
    # a sampled trial whose witness raised would be counted unchecked, so each raise is its trial's failure
    real = verify.swap_witness

    def full_on_sampled_boxes(q, A, row, box):
        if box.n_coords > 6:  # the sampled boxes; the enumerated one has 6 coordinates
            raise CapacityError("no two fresh nodes")
        return real(q, A, row, box)

    monkeypatch.setattr(verify, "swap_witness", full_on_sampled_boxes)
    report = verify_swap()
    assert (report.trials, report.failure_count()) == (795, 60)
    assert report.failures[0] == "trial 0: raised CapacityError: no two fresh nodes"
    assert all("raised CapacityError" in failure for failure in report.failures)


# the order `verify --all` runs and prints the lemmas in
LEMMA_ORDER = (
    "starspan", "shield", "fresh", "abelian", "transport", "decision", "normalize",
    "code", "odd-fixed", "dyadic", "selector", "lift", "swap",
)

# (enumerated, sampled) of each lemma at its default keywords, whatever the seed
DEFAULT_COUNTS = {
    "starspan": (0, 200),
    "shield": (SHIELD_SWEEP, 1000),
    "fresh": (2261, 0),
    "abelian": (0, 300),
    "transport": (0, 500),
    "decision": (0, 100),
    "normalize": (0, 100),
    "code": (0, 100),
    "odd-fixed": (7467, 0),
    "dyadic": (24 + 36, 0),
    "selector": (56, 200),
    "lift": (135_324, 0),
    "swap": (729 + 6, 60),
}

# each count a note prints, as a pattern whose groups sum to (enumerated, sampled)
NOTE_COUNTS = {
    "shield": (r"(\d+) exhaustive instances on the 8-coordinate box, plus (\d+) sampled trials", (1,), (2,)),
    "selector": (r"(\d+) enumerated triples in every order, plus (\d+) sampled triples", (1,), (2,)),
    "swap": (
        r"(\d+) enumerated conditions and (\d+) both-toggled generators "
        r"\(6 distinct row width and toggle set pairs, widths 2 and 3\), plus (\d+) sampled conditions",
        (1, 2),
        (3,),
    ),
    "dyadic": (r"(\d+) coset partitions, (\d+) three-class labelings", (1, 2), ()),
    "odd-fixed": (r"\d+ involution pairs on 1, 3, 5 and 7 points, (\d+) with a 2-power product", (1,), ()),
}


def test_registry_holds_each_routine_under_its_id_in_sweep_order():
    assert tuple(REGISTRY) == LEMMA_ORDER
    for lemma, (routine, _) in REGISTRY.items():
        assert getattr(verify, "verify_" + lemma.replace("-", "_")) is routine


@pytest.mark.parametrize("seed", [0, 300])
def test_counts_labels_and_notes_agree(seed, exhaustive_reports):
    for lemma, (routine, _) in REGISTRY.items():
        samples = lemma in SAMPLING_TRIALS
        report = routine(seed=seed) if samples else exhaustive_reports[lemma]
        assert report.failure_count() == 0, lemma
        assert (report.enumerated, report.sampled) == DEFAULT_COUNTS[lemma]
        assert report.trials == report.enumerated + report.sampled
        assert report.exhaustive == (report.enumerated > 0)
        flag = "true" if report.exhaustive else "false"
        # the line states a seed only where one was applied
        applied = f"seed={seed} " if samples else ""
        assert report.seed == (seed if samples else None)
        assert report.summary_line().startswith(
            f"lemma={lemma} trials={report.trials} exhaustive={flag} failures=0 {applied}elapsed="
        )
        if lemma in NOTE_COUNTS:
            pattern, enumerated, sampled = NOTE_COUNTS[lemma]
            match = re.match(pattern, report.notes)
            assert match, lemma
            assert sum(int(match[g]) for g in enumerated) == report.enumerated, lemma
            assert sum(int(match[g]) for g in sampled) == report.sampled, lemma


def test_notes_split_enumerated_from_sampled_counts(exhaustive_reports):
    selector = verify_selector(trials=5, seed=0)
    assert selector.trials == 56 + 5
    assert selector.notes == "56 enumerated triples in every order, plus 5 sampled triples"
    swap = verify_swap(trials=3, seed=0)
    assert swap.trials == 729 + 6 + 3
    assert swap.notes.startswith(
        "729 enumerated conditions and 6 both-toggled generators "
        "(6 distinct row width and toggle set pairs, widths 2 and 3), plus 3 sampled conditions"
    )
    odd = exhaustive_reports["odd-fixed"]
    assert odd.trials == 7467
    # involutions on 1, 3, 5, 7 points: 1, 4, 26, 232, so 1 + 10 + 351 + 27028 unordered pairs;
    # the products cover S_1, S_3, S_5 and S_7: 1 + 6 + 120 + 5040
    assert odd.notes == (
        "27390 involution pairs on 1, 3, 5 and 7 points, 7467 with a 2-power product "
        "closed and checked, 5167 distinct products"
    )
    lift = exhaustive_reports["lift"]
    assert lift.trials == 135_324
    assert lift.notes == (
        "120 families (1 to 4 sets of sizes 1 to 3) x 3 arities (1 to 3); "
        "every choice map compared with its exact projection"
    )


def test_decision_note_counts_probes_by_kind():
    # every trial's name passes its own support check, so each draws 6 random conditions
    report = verify_decision(trials=10, seed=0)
    assert report.failure_count() == 0
    match = re.fullmatch(
        r"probes: (\d+) pair conditions, 40 total-assignment conditions, "
        r"(\d+) of 60 random conditions kept as deciding",
        report.notes,
    )
    assert match and int(match[1]) >= 10 and 0 < int(match[2]) <= 60


def test_normalize_builds_each_oracle_table_once_per_trial(monkeypatch):
    built = record_calls(monkeypatch, verify, "_member_table")
    report = verify_normalize(trials=10, seed=0)
    assert report.failure_count() == 0
    assert len(built) == 20  # per trial: the name's table, shared by both checks, and the scheme's


@pytest.mark.parametrize("lemma", list(REGISTRY))
def test_lemma_takes_only_the_seed_and_cli_flags(lemma):
    assert lemma_parameters(lemma) <= {"seed", "trials"}


def test_lemma_parameters_are_seed_and_trials_alone():
    # the nine lemmas that sample take trials and seed; the four that only enumerate take nothing
    assert sum(len(lemma_parameters(lemma)) for lemma in REGISTRY) == 18
    assert set(REGISTRY) - set(SAMPLING_TRIALS) == {"fresh", "odd-fixed", "dyadic", "lift"}


def test_starspan_note_states_the_window_bound_applied():
    report = verify_starspan(trials=20, seed=0)
    assert report.failure_count() == 0
    # the windows are drawn at random, so sweeping every target leaves the run sampled
    assert report.exhaustive is False
    # replay the trials' draws: each window of up to the bound is swept, every one of its targets solved
    rng = random.Random(0)
    sizes = []
    for _ in range(20):
        forest = random_forest(rng.randint(1, 2 * verify.MAX_STARSPAN_WINDOW), rng.getrandbits(32))
        sizes.append(len(verify._random_window(forest, rng)))
    swept = [n for n in sizes if n <= verify.STARSPAN_SWEEP_WINDOW]
    assert 0 < len(swept) < len(sizes)
    assert report.notes == (
        f"{sum(1 << n for n in swept)} targets solved on {len(swept)} windows: "
        f"all targets swept on windows up to {verify.STARSPAN_SWEEP_WINDOW} nodes"
    )


@pytest.mark.parametrize("lemma", [lemma for lemma in REGISTRY if "trials" in lemma_parameters(lemma)])
@pytest.mark.parametrize("trials", [0, -3])
def test_run_rejects_trials_below_one(lemma, trials):
    # zero trials would report a vacuous pass, and a negative count would be printed as run
    with pytest.raises(DomainError, match="trials must be positive"):
        verify.run(lemma, trials=trials)


@pytest.mark.parametrize(
    "routine",
    ["verify_starspan", "verify_normalize", "verify_decision", "verify_code", "verify_abelian", "verify_transport"],
)
def test_direct_call_with_no_trial_raises(routine):
    # every trial-taking routine that sweeps nothing beyond its trials would pass vacuously
    with pytest.raises(DomainError, match="trials must be positive"):
        getattr(verify, routine)(trials=0)


@pytest.mark.parametrize("routine", [verify_shield, verify_selector, verify_swap])
def test_direct_call_with_negative_trials_raises(routine):
    # each also sweeps a fixed part, so a negative count would be subtracted from a passing total
    with pytest.raises(DomainError, match="trials must be positive, got -3"):
        routine(trials=-3)


@pytest.mark.parametrize("trials", [1.5, "3"])
def test_run_rejects_trials_that_are_not_ints(trials):
    # checked before range() would raise TypeError inside the body
    with pytest.raises(DomainError, match="must be an int"):
        verify.run("abelian", trials=trials)


@pytest.mark.parametrize("lemma, flag", [("abelian", "trails"), ("dyadic", "seed")])
def test_run_refuses_a_flag_its_lemma_does_not_take(monkeypatch, lemma, flag):
    # a misspelt flag and one the lemma does not read are refused alike, before the routine runs
    routine, description = REGISTRY[lemma]
    calls = []

    @functools.wraps(routine)  # so lemma_parameters still reads the routine's own signature
    def spy(**flags):
        calls.append(flags)

    monkeypatch.setitem(REGISTRY, lemma, (spy, description))
    with pytest.raises(DomainError, match=f"^verify {lemma} does not accept --{flag}$"):
        verify.run(lemma, **{flag: 5})
    assert calls == []
    verify.run(lemma, seed=None, trials=None)  # a None flag counts as unset
    assert calls == [{}]


def test_bool_trials_are_counted_as_their_int():
    report = verify_shield(trials=True)
    assert report.sampled == 1 and type(report.sampled) is int
    with pytest.raises(DomainError, match="trials must be positive, got 0"):
        verify_shield(trials=False)


def test_report_that_counts_no_instance_raises(monkeypatch):
    monkeypatch.setattr(verify, "REGISTRY", {})

    @verify._lemma("empty", "checks nothing")
    def verify_empty(report):
        pass

    assert list(verify.REGISTRY) == ["empty"]
    with pytest.raises(DomainError, match="empty checked no instance"):
        verify_empty()

    @verify._lemma("broken", "raises before its first check")
    def verify_broken(report):
        raise DomainError("injected library defect")

    # a failure makes the report no vacuous pass, so the harness returns it
    report = verify_broken()
    assert (report.trials, report.failures) == (0, ["raised DomainError: injected library defect"])
    assert report.summary_line().startswith("lemma=broken trials=0 exhaustive=false failures=1 elapsed=")


def test_sampling_body_receives_the_seeds_generator_and_counts_its_trials(monkeypatch):
    monkeypatch.setattr(verify, "REGISTRY", {})
    received, numbers = [], []

    @verify._lemma("draw", "draws once, and hands the report one check per trial", trials=3)
    def verify_draw(report, rng):
        received.append(rng.random())

        def check():
            numbers.append(report.sampled - 1)  # the number the report has just given this trial
            yield from ()

        report.sample(check)

    report = verify_draw(seed=5)
    assert received == [random.Random(5).random()]
    # the report runs the body's check factory once per trial of the routine
    assert (report.seed, report.enumerated, report.sampled) == (5, 0, 3)
    assert numbers == [0, 1, 2]
    assert verify_draw(2, 7).sampled == 2  # positional, in the signature's order
    with pytest.raises(DomainError, match="trials must be positive, got 0"):
        verify_draw(trials=0)
    assert len(received) == 2  # the rejected call reached no body

    @verify._lemma("idle", "samples nothing", trials=3)
    def verify_idle(report, rng):
        pass

    with pytest.raises(DomainError, match="idle checked no instance"):
        verify_idle()


def test_report_counts_labels_and_records_each_checks_faults():
    report = verify.VerificationReport("demo", 0, _to_sample=2)

    def faults(*messages, error=None):
        yield from messages
        if error:
            raise error

    checks = [faults("a", "b"), faults(error=CapacityError("full"))]
    report.sample(lambda: checks.pop(0))
    assert checks == []  # one call of the factory per trial
    report.sweep(faults(), 3)
    report.sweep(faults("c", error=DomainError("broken")), 2)
    assert (report.enumerated, report.sampled) == (5, 2)
    # sampled trials are numbered from 0 by the report; a raise after a fault is one more
    # failure of the same check, and the next check still runs
    assert report.failures == [
        "trial 0: a", "trial 0: b", "trial 1: raised CapacityError: full", "c", "raised DomainError: broken"
    ]


# the nine sampling lemmas' default trial counts; the other four take no keyword
SAMPLING_TRIALS = {
    "starspan": 200,
    "shield": 1000,
    "abelian": 300,
    "transport": 500,
    "decision": 100,
    "normalize": 100,
    "code": 100,
    "selector": 200,
    "swap": 60,
}


@pytest.mark.parametrize("lemma", list(REGISTRY))
def test_routine_signature_is_trials_and_seed_or_seed_alone(lemma):
    routine, _ = REGISTRY[lemma]
    # a lemma that only enumerates reads no seed, so its routine takes no keyword at all
    expected = {"trials": SAMPLING_TRIALS[lemma], "seed": 0} if lemma in SAMPLING_TRIALS else {}
    params = inspect.signature(routine).parameters
    assert {name: p.default for name, p in params.items()} == expected
    assert list(params) == list(expected)
    # a __wrapped__ body would make perfbench's functools.wraps wrappers report the body's parameters
    assert not hasattr(routine, "__wrapped__")


def test_lemma_bodies_take_only_what_the_harness_passes():
    tree = ast.parse(inspect.getsource(verify))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    bodies = 0
    for fn in functions:
        harness = [
            d for d in fn.decorator_list if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_lemma"
        ]
        if not harness:
            continue
        bodies += 1
        samples = any(keyword.arg == "trials" for keyword in harness[0].keywords)
        args = fn.args
        assert [a.arg for a in args.args] == (["report", "rng"] if samples else ["report"]), fn.name
        assert not (args.posonlyargs or args.kwonlyargs or args.defaults or args.vararg or args.kwarg), fn.name
        # the report runs the trials: a sampling body hands it its sampled family in one call
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and ast.unparse(n.func) == "report.sample"]
        assert len(calls) == samples, fn.name
    assert bodies == len(REGISTRY)

    def builds_generator(fn):
        return any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == "random.Random" for n in ast.walk(fn)
        )

    # the harness builds each seed's generator; verify_code also grows each trial's box from its own
    assert {fn.name for fn in functions if builds_generator(fn)} == {"_lemma", "verify_code"}

    owners = {}  # each top-level function or class, by the nodes it holds
    for top in tree.body:
        for node in ast.walk(top):
            owners[node] = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
    records = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "record"]
    counts = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("enumerated", "sampled") and isinstance(n.ctx, ast.Store)
    ]
    assert records and counts
    # no lemma body or check records a failure or writes a count; the report does both
    assert {owners[n] for n in records + counts} == {"VerificationReport"}
    handlers = [(owners[n], ast.unparse(n.type)) for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    # one handler turns a library error into a failure; the other two are the checks of their lemmas
    assert sorted(handlers) == [
        ("VerificationReport", "CascadekitError"),
        ("verify_fresh", "CapacityError"),
        ("verify_selector", "PreconditionError"),
    ]


def test_swap_replay_reads_only_the_parent_map_and_toggle_fields():
    tree = ast.parse(inspect.getsource(verify))
    (replay,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_replayed_flips"]
    attributes = {ast.unparse(n) for n in ast.walk(replay) if isinstance(n, ast.Attribute)}
    assert attributes == {"forest.parents", "s.cofinite", "s.exceptions"}
    # every name verify.py imports from the package, as it is bound in the module
    imported = {
        alias.asname or alias.name for n in tree.body if isinstance(n, ast.ImportFrom) and n.level for alias in n.names
    }
    assert {"generator", "ToggleSet", "pattern_shift", "kernels"} <= imported
    called = {ast.unparse(n.func) for n in ast.walk(replay) if isinstance(n, ast.Call)}
    assert called and not called & imported


def test_all_conditions_enumerates_every_partial_function_once():
    coords = [Coordinate(0, 0, b) for b in range(3)]
    conditions = list(verify._all_conditions(coords))
    assert len(conditions) == len(set(conditions)) == 27
    # the first coordinate varies slowest, as in the sweeps' fixed counts
    assert conditions[0].entries == ()
    assert conditions[1].entries == ((coords[2], 0),)
    assert conditions[-1].entries == tuple((c, 1) for c in coords)


def test_echelon_bases_give_every_subspace_once():
    # Gaussian binomial sums: the number of subspaces of F2^d
    for d, expected in enumerate([1, 2, 5, 16, 67, 374, 2825]):
        spans = [frozenset(_subspace_span(basis)) for basis in _echelon_bases(d)]
        assert len(spans) == len(set(spans)) == expected
        if d <= 4:
            swept = {
                frozenset(_subspace_span(combo))
                for k in range(d + 1)
                for combo in itertools.combinations(range(1, 1 << d), k)
            }
            assert set(spans) == swept


def test_dyadic_sweeps_every_subspace_up_to_dimension_six(monkeypatch):
    monkeypatch.setattr(verify, "DYADIC_DIM", 6)
    report = verify_dyadic()
    assert report.failure_count() == 0
    assert report.notes.startswith("3290 coset partitions")


def test_lift_rejects_a_member_that_is_not_the_projection(monkeypatch):
    # a member of every set, so a membership check alone would pass it
    def least_member(family, k, f):
        return {t: min(elems) for t, elems in family.sets}

    monkeypatch.setattr(verify, "lift_choice", least_member)
    report = verify_lift()
    assert report.failure_count() > 0
    assert report.trials == 135_324


_real_generate = orbits._generate


@pytest.mark.parametrize(
    "closure, failures",
    [
        (lambda generators, ident: {ident}, 7463),
        (lambda generators, ident: _real_generate(generators[:1], ident), 7204),
        (lambda generators, ident: _real_generate(generators[1:], ident), 6945),
    ],
    ids=["identity-only", "first-only", "second-only"],
)
def test_odd_fixed_rejects_a_closure_that_is_not_the_generated_group(
    monkeypatch, closure, failures
):
    # each mutant still yields a 2-group with a least fixed point, so only the order check sees it
    monkeypatch.setattr(orbits, "_generate", closure)
    report = verify_odd_fixed()
    assert report.failure_count() == failures
    assert report.trials == 7467


_real_support_report = verify.support_report


def always_supported(name, A, box):
    return dataclasses.replace(_real_support_report(name, A, box), supported=True, witness=None)


def unmentioned_witness(name, A, box):
    """The support report with its witness moved to a coordinate off ``A`` the name never reads."""
    report = _real_support_report(name, A, box)
    mentioned = {c for _, cond in _name_pairs(name) for c, _ in cond.entries}
    spare = [c for c in box.coords() if c.node not in A.nodes and c not in mentioned]
    if report.supported or not spare:
        return report
    return dataclasses.replace(report, witness=(*spare[0], report.witness[3]))


def raising_decode(code, box):
    raise DomainError("no packet has this code")


@pytest.mark.parametrize(
    "attr, mutant, lemma, message",
    [
        ("support_report", always_supported, "normalize", "disagrees with the generator sweep"),
        ("support_report", unmentioned_witness, "normalize", "changes no member"),
        ("decision_invariant", lambda name, A, p, m, box: True, "decision", "the empty window's decision"),
        ("decode_two_layer", raising_decode, "code", "raised DomainError: no packet has this code"),
    ],
    ids=["support-always", "witness-unmentioned", "decision-always", "decode-raises"],
)
def test_name_layer_mutants_fail_by_counted_failures(monkeypatch, attr, mutant, lemma, message):
    # each oracle must count the mutant's wrong answers, not let an exception escape
    monkeypatch.setattr(verify, attr, mutant)
    report = verify.run(lemma, seed=0)
    assert report.trials == 100
    assert report.failure_count() > 0
    assert all(message in failure for failure in report.failures)


def childless_basis(K):
    """A basis whose stars drop the children; it certifies, since its units solve its own stars."""
    return StarBasis(K, {xi: 1 << j for j, xi in enumerate(K.ordered)})


def childless_masks(order, parents):
    """Stars that drop the children: each node's own bit only."""
    return {xi: 1 << j for j, xi in enumerate(order)}


def identity_star_matrix(K):
    """The identity in the window's matrix order: unit upper triangular, and no star matrix."""
    return f2linalg.F2Matrix(f2linalg.matrix_order(K), tuple(1 << j for j in range(len(K))))


@pytest.mark.parametrize(
    "mutants, message",
    [
        # both solvers read the mutant basis and agree with its combine_stars, so only
        # the stars rebuilt from the parent map can see it
        ([(f2linalg, "_star_basis", childless_basis)], "differs from its parent-map star"),
        # the star matrix becomes the identity, which is triangular, and the basis
        # certifies its own stars, so only the stars rebuilt from the parent map see it
        ([(f2linalg, "_star_masks", childless_masks)], "differs from its parent-map star"),
        # only the matrix becomes the identity: the basis stays right, so only the matrix's
        # columns against the stars rebuilt from the parent map see it
        ([(verify, "star_matrix", identity_star_matrix)], "star matrix column of node"),
        # parents before children put each child's row below the diagonal in its parent's column,
        # which the oracle's own read of the columns sees
        ([(f2linalg, "matrix_order", lambda K: K.ordered)], "star matrix not unit upper triangular"),
    ],
    ids=["basis-childless", "masks-childless", "matrix-identity", "order-ascending"],
)
def test_starspan_mutants_fail_by_counted_failures(monkeypatch, mutants, message):
    for target, attr, mutant in mutants:
        monkeypatch.setattr(target, attr, mutant)
    report = verify.run("starspan", seed=0)
    assert report.trials == 200
    assert report.failure_count() > 0
    assert all(message in failure for failure in report.failures)


def childless_generator(forest, xi, row, s):
    """A generator that toggles its own row and drops the children's."""
    return CascadeAutomorphism(forest, (((xi, row), s),))


def test_transport_counts_a_certificate_error_as_a_trial_failure(monkeypatch, capsys):
    # transport's own result check raises CertificateError; each raising trial is counted, and the sweep goes on
    monkeypatch.setattr(cascade, "generator", childless_generator)
    report = verify.run("transport", seed=0)
    assert report.trials == 500
    assert report.failure_count() > 0
    assert all("raised CertificateError" in failure for failure in report.failures)
    assert cli.main(["verify", "--all", "--seed", "0"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert sum(line.startswith("lemma=") for line in out.splitlines()) == len(REGISTRY) == 13


def test_apply_returning_its_condition_fails_transport_by_certificate_errors(monkeypatch):
    # the hand mutant acts as the identity wherever apply is bound; transport's own result check raises
    def acts_as_identity(tau, q):
        return q

    for module in (cascade, verify, selectors, cascadekit):
        monkeypatch.setattr(module, "apply", acts_as_identity)
    report = verify.run("transport", seed=0)
    assert report.trials == 500
    assert report.failure_count() == 185
    assert report.failures and all(
        re.fullmatch(r"trial \d+: raised CertificateError: .+", failure) for failure in report.failures
    )


def injected_defect(*args, **kwargs):
    raise DomainError("injected library defect")


def test_a_library_error_fails_its_own_instances_and_every_lemma_reports(monkeypatch, capsys):
    # normalize and code call verify.normalize in each trial; no other lemma does
    monkeypatch.setattr(verify, "normalize", injected_defect)
    assert cli.main(["verify", "--all", "--seed", "0"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    failures = dict(re.findall(r"^lemma=(\S+) .* failures=(\d+) ", out, re.M))
    assert list(failures) == list(REGISTRY)
    assert {lemma: int(n) for lemma, n in failures.items() if n != "0"} == {"normalize": 100, "code": 100}
    assert out.splitlines()[-1] == "verification failed: 200 failures"


def test_an_error_outside_every_check_is_one_failure_of_its_lemma(monkeypatch, capsys):
    # shield's sampled trials call shield_set inside their checks, and its exhaustive sweep
    # calls it in the body to group the toggles: the body's raise is one more failure
    monkeypatch.setattr(verify, "shield_set", injected_defect)
    assert cli.main(["verify", "--all", "--seed", "0"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    failures = dict(re.findall(r"^lemma=(\S+) .* failures=(\d+) ", out, re.M))
    assert list(failures) == list(REGISTRY)
    assert {lemma: int(n) for lemma, n in failures.items() if n != "0"} == {"shield": 1001}
    assert "lemma=shield trials=1000 exhaustive=false failures=1001 seed=0 " in out
    report = verify_shield(trials=2)
    assert report.failures[-1] == "raised DomainError: injected library defect"
    # the two sampled trials stand, each failed inside its own check
    assert (report.sampled, report.enumerated, report.failure_count()) == (2, 0, 3)


def test_a_closure_that_raises_fails_each_closed_pair(monkeypatch):
    monkeypatch.setattr(verify, "close_group", injected_defect)
    report = verify_odd_fixed()
    assert (report.trials, report.failure_count()) == (7467, 7467)
    assert report.failures[0] == "raised DomainError: injected library defect"


def test_a_projection_that_raises_still_counts_every_choice_map(monkeypatch):
    # one check covers a family's choice maps at one arity, so each of the 120 x 3 raising checks is one failure
    monkeypatch.setattr(verify, "lift_choice", injected_defect)
    report = verify_lift()
    assert report.trials == 135_324
    assert report.failure_count() == 360


def test_normalize_note_counts_both_support_outcomes():
    report = verify_normalize(trials=20, seed=0)
    assert report.failure_count() == 0
    match = re.search(r"generator sweep: (\d+) supported, (\d+) unsupported", report.notes)
    assert match and int(match[1]) > 0 and int(match[2]) > 0


def test_lift_odometer_visits_every_choice_map_once(monkeypatch):
    seen = []
    real = verify.lift_choice

    def recording(family, k, f):
        seen.append((tuple(len(elems) for _, elems in family.sets), k, frozenset(f.items())))
        return real(family, k, f)

    monkeypatch.setattr(verify, "lift_choice", recording)
    report = verify_lift()
    assert report.failure_count() == 0
    assert len(seen) == len(set(seen)) == 135_324


def test_cycle_lcm_is_the_permutation_order():
    for n in range(7):
        for p in itertools.permutations(range(n)):
            assert _cycle_lcm(p) == _perm_order(p)
