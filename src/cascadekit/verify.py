"""Seeded verification routines, one per implemented statement.

Each routine replays an invariant suite and returns a report, whose
``trials`` counts the instances checked (enumerated by a fixed sweep plus
sampled from the seed) and which is ``exhaustive`` when it has an
enumerated part; :func:`run` maps lemma ids onto these and refuses a flag
the routine does not take.  A routine that samples takes ``trials`` and
``seed``; one that only enumerates takes nothing, and its report holds no
seed.  Every other scale is fixed here.  The harness checks the keywords
and builds the report, which holds the trial count; a sampling body gets
it with ``random.Random(seed)``, any other body alone.  A body hands the
report each enumerated instance's check and one factory of its sampled
checks, run once per trial; the report counts and numbers them and records
their faults and any :class:`CascadekitError` they raise; such an error
raised outside every check is one more failure of the lemma, and the
instances counted before it stand.  What each oracle recomputes, apart
from the code it checks:

- starspan: unit triangularity from the star matrix's columns, and each
  node's star rebuilt from the parent map, against both its matrix column
  and the star the library combines;
- decision, normalize and code: member tables over every assignment of the
  whole box, not only the coordinates a name mentions.  Normalize also
  sweeps support over every single-bit generator off each closed window of
  the box (:func:`_generator_sweep_supported`), the sweep that the library
  replaces by single-coordinate flips through the star-span lemma, and
  flips each unsupported witness in the whole-box table;
- odd-fixed: each closure's order from the product's cycle lengths;
  dyadic: each coset partition from its subspace's span; lift: each choice
  map's projection, known by construction; fresh: the separation clauses
  from the parents;
- swap: each witness's three certificates, by replaying its generator from
  the parent map and the toggle set's fields (:func:`_replayed_flips`).

Shield, abelian and transport still act through the library's ``apply``
and ``fixes_rows_over``: no pointwise replay of actions checks them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from . import _kernels as kernels
from .cascade import (
    Condition,
    Coordinate,
    ToggleSet,
    apply,
    compose,
    compose_all,
    fixes_rows_over,
    generator,
    pad_common_domain,
    shield_set,
    transport,
)
from .errors import CapacityError, CascadekitError, DomainError, PreconditionError
from .f2linalg import F2Vector, combine_stars, solve_star_span, star_matrix
from .forest import PredecessorForest, Window, fresh_separation, random_forest, rho_closure
from .names import (
    CoordinateBox,
    RawName,
    decision_invariant,
    decode_two_layer,
    normalize,
    support_report,
    two_layer_code,
    _name_pairs,
)
from .orbits import (
    TranslationPartition,
    _compose,
    close_group,
    odd_fixed_point,
    orbit_partition,
    quotient_analysis,
)
from .selectors import (
    IndexedFamily,
    SwapWitness,
    TraceProfile,
    canonical_selector,
    lift_choice,
    pattern_shift,
    swap_witness,
)

MAX_RECORDED_FAILURES = 25
# the dyadic sweep visits every subspace of F2^d for d <= DYADIC_DIM once, by
# its reduced echelon basis: 24 of them; the 3,290 up to d = 6 take 0.18 s on
# a 2-CPU machine, against 0.0007 s for these
DYADIC_DIM = 3
# starspan's closed windows have at most this many nodes
MAX_STARSPAN_WINDOW = 12
# starspan solves every target on its windows of at most this many nodes: they fill the solver's
# first two 4-bit lookup tables and reach entries 0-3 of the third (its 4-15 need 11-12 nodes)
STARSPAN_SWEEP_WINDOW = 10


@dataclass
class VerificationReport:
    """One lemma's run: its counts, recorded failures and notes.

    ``enumerated`` and ``sampled`` count the instances checked, by a fixed sweep and from the seed;
    ``seed`` is None for a lemma that samples nothing.  A check is a generator of fault strings
    that has not started: a body passes each enumerated instance's check to :meth:`sweep`, and
    one factory of its sampled checks to :meth:`sample`; each check runs at once and each fault
    it yields is recorded.  A :class:`CascadekitError` raised inside a check is recorded as one
    more failure, ``raised <type>: <message>``, and the body goes on with its next instance.
    A check that covers a group of instances counts as the group's size, and if it raises,
    that is one failure.
    """

    lemma: str
    seed: int | None
    enumerated: int = 0
    sampled: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    notes: str = ""
    _dropped: int = field(default=0, repr=False)
    _to_sample: int = field(default=0, repr=False)  # the routine's trial count, set by its harness

    @property
    def trials(self) -> int:
        return self.enumerated + self.sampled

    @property
    def exhaustive(self) -> bool:
        return self.enumerated > 0

    def record(self, message: str) -> None:
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(message)
        else:
            self._dropped += 1

    def sample(self, check) -> None:
        """Run ``check()`` once per trial of the routine, recording each fault as ``trial N: <fault>``.

        Trials are numbered from 0; ``sampled`` counts trial N before its check runs.
        """
        for _ in range(self._to_sample):
            label = f"trial {self.sampled}: "
            self.sampled += 1
            self._run(check(), label)

    def sweep(self, check, count: int = 1) -> None:
        """Run the check of ``count`` enumerated instances, recording each fault as it is yielded."""
        self.enumerated += count
        self._run(check, "")

    def run_body(self, body, *args) -> None:
        """Run a lemma body on this report; an error it raises outside its checks is one more failure."""
        def whole():  # the body as one check that yields no fault, so _run's handler covers it
            body(self, *args)
            yield from ()

        self._run(whole(), "")

    def _run(self, check, label: str) -> None:
        try:
            for fault in check:
                self.record(label + fault)
        except CascadekitError as exc:
            self.record(f"{label}raised {type(exc).__name__}: {exc}")

    def failure_count(self) -> int:
        return len(self.failures) + self._dropped

    def summary_line(self) -> str:
        flag = "true" if self.exhaustive else "false"
        seed = "" if self.seed is None else f" seed={self.seed}"
        return (
            f"lemma={self.lemma} trials={self.trials} exhaustive={flag} "
            f"failures={self.failure_count()}{seed} elapsed={self.elapsed:.2f}s"
        )


# lemma id -> (routine, description), in the order `verify --all` runs them
REGISTRY: dict[str, tuple] = {}


def _lemma(lemma: str, description: str, trials: int | None = None):
    """Register the decorated body, which fills the report passed first, as ``lemma``'s routine.

    A lemma that samples names its default ``trials``: its routine takes
    ``(trials, seed=0)``, rejects a ``trials`` that is not an int or is below 1, stores it in the
    report for :meth:`VerificationReport.sample` and calls ``body(report, rng)`` with ``rng =
    random.Random(seed)``.  Any other routine takes nothing, reads no seed and calls ``body(report)``.
    The body counts its instances through the report's checks; a :class:`CascadekitError` that escapes
    them is recorded by the report as one more failure.  Either routine rejects a report that holds
    neither an instance nor a failure.
    """

    def register(body):
        def check(seed, count):
            started = time.perf_counter()
            report = VerificationReport(lemma, seed)
            if count is None:
                report.run_body(body)
            elif not isinstance(count, int):  # a bool passes, and runs and is counted as its int
                raise DomainError(f"trials {count!r} must be an int")
            elif count < 1:  # no trial would run, and a negative count would be printed as run
                raise DomainError(f"trials must be positive, got {count:d}")
            else:
                report._to_sample = int(count)
                report.run_body(body, random.Random(seed))
            if report.trials < 1 and not report.failure_count():  # it would pass vacuously
                raise DomainError(f"{lemma} checked no instance (trials={report.trials})")
            report.elapsed = time.perf_counter() - started
            return report

        if trials is None:
            def routine():
                return check(None, None)
        else:
            def routine(trials: int = trials, seed: int = 0):
                return check(seed, trials)

        # not functools.wraps: inspect.signature would follow its __wrapped__ to the body's parameters
        routine.__name__, routine.__qualname__, routine.__doc__ = body.__name__, body.__qualname__, body.__doc__
        REGISTRY[lemma] = (routine, description)
        return routine

    return register


def _random_window(forest: PredecessorForest, rng: random.Random) -> Window:
    target = rng.randint(1, MAX_STARSPAN_WINDOW)
    chosen = {0}
    nodes = list(range(1, forest.size))
    rng.shuffle(nodes)
    for xi in nodes:
        chain = []
        cur = xi
        while cur not in chosen:
            chain.append(cur)
            cur = forest.parents[cur]
        if len(chosen) + len(chain) <= target:
            chosen.update(chain)
    return Window(forest, frozenset(chosen))


def _random_closed_subset(forest: PredecessorForest, rng: random.Random) -> Window:
    seed_nodes = set(rng.sample(range(forest.size), rng.randrange(forest.size + 1)))
    return rho_closure(forest, seed_nodes)


def _parent_star(order, parents, xi: int) -> int:
    """Bits of ``xi``'s star over the positions of ``order``, read from the parent map.

    The star holds xi and every node of ``order`` whose parent is xi.
    """
    bits = 0
    for j, eta in enumerate(order):
        if eta == xi or (eta and parents[eta] == xi):
            bits |= 1 << j
    return bits


@_lemma("starspan", "star basis spans every window target", trials=200)
def verify_starspan(report: VerificationReport, rng: random.Random):
    """Star matrices are unit triangular and hold the forest's stars; the solver hits every target.

    Each trial draws a closed window of up to ``MAX_STARSPAN_WINDOW`` nodes
    and compares each column of its star matrix, and the star the library
    combines for each node, with the star rebuilt from the parent map.
    Every target is solved, one at a time, on windows of up to
    ``STARSPAN_SWEEP_WINDOW`` nodes, and the note counts those windows and
    the targets solved.  The round trip checks the basis's units only
    against its own stars; the rebuilt stars check those against the forest.
    """
    swept = [0, 0]  # windows, targets solved

    def check():
        forest = random_forest(rng.randint(1, 2 * MAX_STARSPAN_WINDOW), rng.getrandbits(32))
        K = _random_window(forest, rng)
        matrix = star_matrix(K)
        order, parents = matrix.order, forest.parents
        if any(col >> j != 1 for j, col in enumerate(matrix.cols)):  # column j: bit j, none higher
            yield f"star matrix not unit upper triangular on {K.serialize()}"
            return
        wrong = [xi for xi, col in zip(order, matrix.cols) if col != _parent_star(order, parents, xi)]
        if wrong:
            yield f"star matrix column of node {wrong[0]} differs from its parent-map star"
            return
        wrong = [xi for xi in K.ordered if combine_stars(K, [xi]).bits != _parent_star(K.ordered, parents, xi)]
        if wrong:
            yield f"star of node {wrong[0]} differs from its parent-map star"
            return
        if len(K) <= STARSPAN_SWEEP_WINDOW:
            swept[0] += 1
            for bits in range(1 << len(K)):
                swept[1] += 1
                target = F2Vector(K, bits)
                if combine_stars(K, solve_star_span(K, target)) != target:
                    yield f"solve failed for target {bits:b}"
                    return

    report.sample(check)
    report.notes = (
        f"{swept[1]} targets solved on {swept[0]} windows: "
        f"all targets swept on windows up to {STARSPAN_SWEEP_WINDOW} nodes"
    )


def _legal_toggles(forest: PredecessorForest, beta: int, row: int, shield: frozenset[int]) -> list:
    """Every nonempty toggle set on bits 0..2 that avoids the shield, with its generator."""
    free = [n for n in range(3) if n not in shield]
    out = []
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            for cofinite in (False, True):
                if cofinite:
                    s = ToggleSet.cofinite_excluding(shield | (frozenset(free) - frozenset(combo)))
                else:
                    s = ToggleSet.finite(combo)
                if not s.is_empty():
                    out.append((s, generator(forest, beta, row, s)))
    return out


@_lemma("shield", "toggles off the shield fix conditions", trials=1000)
def verify_shield(report: VerificationReport, rng: random.Random):
    """Toggles avoiding the shield fix the condition; random plus a full tiny sweep."""
    def sampled():
        forest = random_forest(rng.randint(2, 9), rng.getrandbits(32))
        q = _random_condition(forest, rng)
        beta = rng.randrange(forest.size)
        row = rng.randrange(3)
        shield = shield_set(q, beta, row, forest)
        free = [n for n in range(7) if n not in shield]
        picked = frozenset(rng.sample(free, rng.randrange(len(free) + 1)))
        # an empty finite pick would toggle nothing, so it takes the cofinite toggle drawn for it
        if rng.random() < 0.5 or not picked:
            s = ToggleSet.cofinite_excluding(frozenset(shield) | (frozenset(free) - picked))
        else:
            s = ToggleSet.finite(picked)
        if apply(generator(forest, beta, row, s), q) != q:
            yield "shielded toggle moved the condition"

    def swept(q, groups):
        for beta, row, toggles in groups:
            for s, tau in toggles:
                moved = apply(tau, q)
                if moved is not q and moved != q:  # identity settles the common case cheaply
                    yield f"exhaustive: toggle {s.serialize()} moved {q.entries} at ({beta},{row})"

    report.sample(sampled)
    # exhaustive sweep: every condition on a 2x2x2 box, every row pair, every legal toggle; one
    # check per condition covers the legal toggles of its four row pairs
    forest = PredecessorForest.from_pred(2, {1: 0})
    coords = [Coordinate(n, r, b) for n in range(2) for r in range(2) for b in range(2)]
    legal: dict[tuple[int, int, frozenset[int]], list] = {}
    for q in _all_conditions(coords):
        groups = []
        for beta in range(2):
            for row in range(2):
                key = (beta, row, shield_set(q, beta, row, forest))
                toggles = legal.get(key)
                if toggles is None:
                    toggles = legal[key] = _legal_toggles(forest, *key)
                groups.append((beta, row, toggles))
        report.sweep(swept(q, groups), sum(len(toggles) for _, _, toggles in groups))
    report.notes = (
        f"{report.enumerated} exhaustive instances on the 8-coordinate box, plus {report.sampled} sampled trials"
    )


def _all_conditions(coords):
    """Every condition on ``coords``: each coordinate absent, 0 or 1, the first one slowest."""
    for values in itertools.product((None, 0, 1), repeat=len(coords)):
        yield Condition(tuple((c, v) for c, v in zip(coords, values) if v is not None))


def _all_forests(size: int):
    for parents in itertools.product(*(range(xi) for xi in range(1, size))):
        yield PredecessorForest(size, (-1,) + parents)


def _all_closed_subsets(forest: PredecessorForest):
    for r in range(forest.size + 1):
        for combo in itertools.combinations(range(forest.size), r):
            chosen = set(combo)
            if all(xi == 0 or forest.parents[xi] in chosen for xi in chosen):
                yield frozenset(chosen)


@_lemma("fresh", "fresh separation clauses hold exhaustively")
def verify_fresh(report: VerificationReport):
    """Exhaustive four-clause check of fresh separation on universes up to 6 nodes."""
    def check(forest, closed):
        size = forest.size
        blocked = set(closed) | {forest.parents[x] for x in closed if x >= 1}
        free = [x for x in range(size) if x not in blocked]
        try:
            beta, gamma = fresh_separation(forest, Window(forest, closed))
        except CapacityError:
            if len(free) >= 2:
                yield f"capacity error despite free nodes {free} (size {size})"
            return
        if len(free) < 2:
            yield f"separation returned {beta},{gamma} with <2 free nodes"
            return
        children = {e for e in range(size) if e >= 1 and forest.parents[e] == beta}
        clauses = (
            beta not in closed, gamma not in closed, beta != gamma, gamma not in children, not (children & closed)
        )
        if not all(clauses):
            yield f"clauses {clauses} failed for ({beta},{gamma}) on {sorted(closed)}"

    for size in range(1, 7):
        for forest in _all_forests(size):
            for closed in _all_closed_subsets(forest):
                report.sweep(check(forest, closed))


def _random_generator(forest: PredecessorForest, rng: random.Random):
    xi, row = rng.randrange(forest.size), rng.randrange(3)
    exceptions = frozenset(rng.sample(range(5), rng.randrange(1, 5)))
    return generator(forest, xi, row, ToggleSet(rng.random() < 0.4, exceptions))


def _random_condition(forest, rng, max_len=6, rows=3, bits=5) -> Condition:
    entries = {}
    for _ in range(rng.randrange(max_len + 1)):
        entries[(rng.randrange(forest.size), rng.randrange(rows), rng.randrange(bits))] = rng.randrange(2)
    return Condition.from_map(entries)


@_lemma("abelian", "the cascade group is abelian of exponent 2", trials=300)
def verify_abelian(report: VerificationReport, rng: random.Random):
    """Generators commute, every element squares to the identity, fixing is closed."""
    def check():
        forest = random_forest(rng.randint(2, 8), rng.getrandbits(32))
        g1, g2 = _random_generator(forest, rng), _random_generator(forest, rng)
        if compose(g1, g2) != compose(g2, g1):
            yield "generators do not commute"
        q = _random_condition(forest, rng)
        if apply(compose(g1, g2), q) != apply(g1, apply(g2, q)):
            yield "composition does not act as iterated action"
        product = compose_all(forest, [_random_generator(forest, rng) for _ in range(rng.randrange(1, 5))])
        if not compose(product, product).is_identity():
            yield "product is not self-inverse"
        A = _random_closed_subset(forest, rng)
        fixers = [t for t in (g1, g2, product) if fixes_rows_over(t, A)]
        for t1, t2 in itertools.combinations(fixers, 2):
            if not fixes_rows_over(compose(t1, t2), A):
                yield "fixing subgroup not closed under composition"

    report.sample(check)


@_lemma("transport", "transport carries p to q fixing the window", trials=500)
def verify_transport(report: VerificationReport, rng: random.Random):
    """Transport maps padded p to padded q and fixes all rows over the window."""
    def check():
        forest = random_forest(rng.randint(2, 8), rng.getrandbits(32))
        A = _random_closed_subset(forest, rng)
        off = set(range(forest.size)) - A.nodes

        def part(nodes):  # a drawn condition's entries on nodes
            return tuple((c, v) for c, v in _random_condition(forest, rng, max_len=4).entries if c.node in nodes)

        shared = part(A.nodes)
        p, q = Condition(shared + part(off)), Condition(shared + part(off))
        pi = transport(p, q, A)
        p_pad, q_pad = pad_common_domain(p, q)
        if apply(pi, p_pad) != q_pad:
            yield "transport missed the target condition"
        if not fixes_rows_over(pi, A):
            yield "transport toggles rows over the window"

    report.sample(check)


_BOX_SHAPES = ((2, 2, 2), (3, 2, 2), (3, 1, 4), (2, 1, 7), (4, 1, 3), (2, 3, 2))


def _random_box(rng: random.Random) -> CoordinateBox:
    n_nodes, rows, bits = rng.choice(_BOX_SHAPES)
    forest = random_forest(n_nodes, rng.getrandbits(32))
    return CoordinateBox(Window.whole(forest), rows, bits)


def _grown_box(rng: random.Random, box: CoordinateBox) -> CoordinateBox:
    """The box with 0-2 fresh nodes hung off its forest, 0-1 more rows and 0-1 more bits."""
    parents = list(box.forest.parents)
    for _ in range(rng.randint(0, 2)):
        parents.append(rng.randrange(len(parents)))
    forest = PredecessorForest(len(parents), tuple(parents))
    rows, bits = box.rows + rng.randint(0, 1), box.bits + rng.randint(0, 1)
    return CoordinateBox(Window.whole(forest), rows, bits)


def _random_supported_name(rng: random.Random, box: CoordinateBox):
    """A name supported by a random closed window, not always in packet shape.

    Besides plain conditions over the window, it mixes in complementary
    pairs: the same window part repeated with an off-window coordinate set
    both ways, which mentions fresh nodes yet changes no evaluation.
    """
    forest = box.forest
    A = _random_closed_subset(forest, rng)
    coords_over_A = [c for c in box.coords() if c.node in A.nodes]
    coords_off_A = [c for c in box.coords() if c.node not in A.nodes]
    pairs = []
    for _ in range(rng.randrange(1, 5)):
        base = ()
        if coords_over_A:
            k = rng.randint(1, min(4, len(coords_over_A)))
            base = tuple((c, rng.randrange(2)) for c in rng.sample(coords_over_A, k))
        m = rng.randrange(4)
        if coords_off_A and rng.random() < 0.4:
            free = rng.choice(coords_off_A)
            pairs.append((m, Condition(base + ((free, 0),))))
            pairs.append((m, Condition(base + ((free, 1),))))
        elif base:
            pairs.append((m, Condition(base)))
    return RawName.of(pairs), A


def _member_table(box: CoordinateBox, name):
    """Member table of the name over every assignment, keyed by member index."""
    entries = [(*box.condition_masks(cond), m) for m, cond in _name_pairs(name)]
    return kernels.build_table(box.n_coords, entries)


@_lemma("decision", "restrictions of deciding conditions decide alike", trials=100)
def verify_decision(report: VerificationReport, rng: random.Random):
    """Deciding conditions restricted to the support keep deciding the same way."""
    pair_probes = total_probes = drawn = kept = 0

    def check():
        nonlocal pair_probes, total_probes, drawn, kept
        box = _random_box(rng)
        name, A = _random_supported_name(rng, box)
        empty = Window(box.forest, frozenset())
        if not support_report(name, A, box).supported:
            yield "scheme-built name failed its own support check"
            return
        # a pair's condition decides its member true
        probes = [(cond, m) for m, cond in _name_pairs(name)]
        pair_probes += len(probes)
        g = rng.getrandbits(box.n_coords)
        total = Condition(tuple((c, g >> i & 1) for i, c in enumerate(box.coords())))
        probes += [(total, m) for m in range(4)]  # total conditions decide everything
        total_probes += 4
        coords = list(box.coords())
        table = _member_table(box, name)
        # each probe keeps m's verdict over the extensions of p: 0 none carry m, 1 all do, 2 mixed
        summary = kernels.subcube_member_summary
        probes = [(p, m, summary(table, m, *box.condition_masks(p))) for p, m in probes]
        for _ in range(6):  # random partial conditions, kept only when they decide
            picked = rng.sample(coords, rng.randint(1, min(6, len(coords))))
            p = Condition(tuple((c, rng.randrange(2)) for c in picked))
            m = rng.randrange(4)
            drawn += 1
            # kept when every total extension of p agrees on membership of m
            verdict = summary(table, m, *box.condition_masks(p))
            if verdict != 2:
                probes.append((p, m, verdict))
                kept += 1
        # each member's verdict over the whole box, which is all the empty window can read
        overall = [summary(table, m, 0, 0) for m in range(4)]
        for p, m, verdict in probes:
            if not decision_invariant(name, A, p, m, box):
                yield f"restriction of a deciding condition flipped m={m}"
            # the empty condition decides alike exactly when m's column is constant at p's verdict
            if decision_invariant(name, empty, p, m, box) != (overall[m] == verdict):
                yield f"the empty window's decision on m={m} disagrees with the table"

    report.sample(check)
    report.notes = (
        f"probes: {pair_probes} pair conditions, {total_probes} total-assignment conditions, "
        f"{kept} of {drawn} random conditions kept as deciding"
    )


def _cube_minterms(dmask: int, vmask: int, within: int) -> list[int]:
    """Every assignment of the bits ``within`` that a cube inside them covers."""
    free = within & ~dmask
    out = [vmask]
    sub = free
    while sub:
        out.append(vmask | sub)
        sub = (sub - 1) & free
    return out


def _family_fault(name, table, scheme, A: Window, box: CoordinateBox) -> str | None:
    """The first way a normalized family is not the Blake canonical form, or None.

    ``table`` is the name's whole-box member table (:func:`_member_table`).
    Per member, the packets' minterms over the coordinates the name
    mentions over ``A`` must be exactly ``kernels.project_member`` of that
    table; dropping any literal of a packet must leave that cover; and
    every consensus of two packets must be absorbed by a packet, which by
    Blake's theorem makes the family every prime implicant.
    """
    trim = 0  # the coordinates the name mentions over A
    for _, cond in _name_pairs(name):
        for c in cond.domain():
            if c.node in A.nodes:
                trim |= 1 << box.index(c)
    for m, packets in scheme.families:
        cubes = [box.condition_masks(pkt.condition) for pkt in packets]
        if any(d & ~trim for d, _ in cubes):
            return f"member {m}: a packet mentions a coordinate the name does not mention over A"
        cover = {g for d, v in cubes for g in _cube_minterms(d, v, trim)}
        if cover != set(kernels.project_member(table, m, trim)):
            return f"member {m}: packets do not cover exactly the projected assignments"
        for d, v in cubes:
            for b in (1 << i for i in range(d.bit_length()) if (d >> i) & 1):
                if all(g ^ b in cover for g in _cube_minterms(d, v, trim)):
                    return f"member {m}: a packet is not prime"
        for (d1, v1), (d2, v2) in itertools.combinations(cubes, 2):
            opposed = d1 & d2 & (v1 ^ v2)
            if bin(opposed).count("1") != 1:
                continue
            d, v = (d1 | d2) & ~opposed, (v1 | v2) & ~opposed
            if not any(pd & ~d == 0 and v & pd == pv for pd, pv in cubes):
                return f"member {m}: a consensus of two packets is not absorbed"
    return None


def _generator_sweep_supported(table, A: Window, box: CoordinateBox) -> bool:
    """Whether every single-bit generator at a node off ``A`` fixes a whole-box member table.

    ``table`` covers every assignment of the box (:func:`_member_table`).  A
    generator (xi, row, {bit}) flips that coordinate of xi and of each
    successor of xi in the box, read from ``forest.parents``.  The
    generators at nodes off a closed ``A`` generate the group that fixes the
    rows over ``A``, so this is the support sweep without the star-span
    lemma that reduces it to single coordinates.
    """
    parents = box.forest.parents
    for xi in box.window.ordered:
        if xi in A.nodes:
            continue
        # a node's coordinates follow its row-0, bit-0 one in (row, bit) order
        star = sum(
            1 << box.index(Coordinate(eta, 0, 0)) for eta in box.window.ordered if xi in (eta, parents[eta])
        )
        for shift in range(box.rows * box.bits):
            if kernels.flip_violation(table, star << shift) >= 0:
                return False
    return True


def _witness_flips(witness, table, A: Window, box: CoordinateBox) -> bool:
    """Whether a support witness's one coordinate, off ``A``, changes some member when flipped."""
    if witness is None:
        return False
    node, row, bit, g = witness
    coord = Coordinate(node, row, bit)
    if node in A.nodes or coord not in box.coords() or not 0 <= g < 1 << box.n_coords:
        return False
    flipped = g ^ 1 << box.index(coord)
    return any((col >> g ^ col >> flipped) & 1 for col in table.cols.values())


@_lemma("normalize", "packet schemes evaluate like their names", trials=100)
def verify_normalize(report: VerificationReport, rng: random.Random):
    """Normalized schemes evaluate exactly like the original name everywhere."""
    outcomes = [0, 0]  # unsupported, supported

    def check():
        box = _random_box(rng)
        name, A = _random_supported_name(rng, box)
        scheme = normalize(name, A, box)
        table = _member_table(box, name)
        for closed in _all_closed_subsets(box.forest):
            W = Window(box.forest, closed)
            supported = _generator_sweep_supported(table, W, box)
            outcomes[supported] += 1
            found = support_report(name, W, box)
            if found.supported != supported:
                yield f"support over {sorted(closed)} disagrees with the generator sweep"
            elif not supported and not _witness_flips(found.witness, table, W, box):
                yield f"the witness over {sorted(closed)} changes no member"
        if table != _member_table(box, scheme):
            yield "normalized scheme changed some evaluation"
        if not support_report(scheme, A, box).supported:
            yield "normalized scheme fails support on its own window"
        fault = _family_fault(name, table, scheme, A, box)
        if fault:
            yield fault

    report.sample(check)
    report.notes = (
        "evaluation equality checked on every assignment of each box; each family's minterms "
        "equal the whole-box projection, its packets are prime and it is closed under consensus; "
        f"support over every closed window against the generator sweep: {outcomes[1]} supported, "
        f"{outcomes[0]} unsupported with their witnesses flipped"
    )


@_lemma("code", "two-layer codes round-trip semantics", trials=100)
def verify_code(report: VerificationReport, rng: random.Random):
    """Two-layer encode/decode preserves evaluation on every assignment."""
    def check():
        box = _random_box(rng)
        name, A = _random_supported_name(rng, box)
        scheme = normalize(name, A, box)
        # its own generator, keyed on the number the report just gave this trial, leaves every other draw alone
        grown = _grown_box(random.Random(f"code/{report.seed}/{report.sampled - 1}"), box)
        code = two_layer_code(scheme, box)
        decoded = decode_two_layer(code, box)
        regrown = decode_two_layer(code, grown)
        if _member_table(box, scheme) != _member_table(box, decoded):
            yield "decoded scheme changed some evaluation"
        if regrown.families != decoded.families:
            yield "decoding over a grown box changed the families"

    report.sample(check)
    report.notes = (
        "evaluation equality checked on every assignment of each box; each code also decoded "
        "over its box grown by 0-2 nodes, 0-1 rows and 0-1 bits, to the same families"
    )


def _involutions(n: int):
    for p in itertools.permutations(range(n)):
        if all(p[p[i]] == i for i in range(n)):
            yield p


def _cycle_lcm(p) -> int:
    n = len(p)
    seen = [False] * n
    out = 1
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            out = out * length // math.gcd(out, length)
    return out


@_lemma("odd-fixed", "odd sets under 2-groups have fixed points")
def verify_odd_fixed(report: VerificationReport):
    """Every 2-group from at most two involutions fixes a point of any odd set up to 7 points."""
    def check(sigma, mu, product_order):
        # a 2-power product order makes the closure a 2-group, so a CertificateError is a failure
        action = close_group([sigma, mu])
        # two distinct involutions generate a dihedral group of order 2 ord(sigma mu)
        elements = action.elements
        ident = tuple(range(len(sigma)))
        dihedral = sigma != mu and ident not in (sigma, mu)
        order = 2 * product_order if dihedral else len({ident, sigma, mu})
        if sigma not in elements or mu not in elements or len(elements) != order:
            yield f"closure of {sigma},{mu} is not the group they generate"
            return
        orbits = orbit_partition(action)
        for orbit in orbits:
            if len(orbit) & (len(orbit) - 1):
                yield f"non-dyadic orbit {orbit} for {sigma},{mu} on {len(sigma)} points"
        fixed = odd_fixed_point(action)
        if any(p[fixed] != fixed for p in action.elements):
            yield f"reported fixed point {fixed} moves under {sigma},{mu}"
        # orbits are listed by least element, so the first singleton is the least fixed point
        least = next((orbit[0] for orbit in orbits if len(orbit) == 1), None)
        if fixed != least:
            yield f"fixed point {fixed} is not the least singleton orbit {least}"

    pairs = products = 0
    for n in range(1, 8, 2):
        invs = list(_involutions(n))
        # many pairs share a product (at n = 7 every permutation occurs), so order each once
        orders: dict[tuple[int, ...], int] = {}
        for a_idx in range(len(invs)):
            for b_idx in range(a_idx, len(invs)):
                pairs += 1
                sigma, mu = invs[a_idx], invs[b_idx]
                product = _compose(sigma, mu)
                product_order = orders.get(product)
                if product_order is None:
                    product_order = orders[product] = _cycle_lcm(product)
                if not product_order & (product_order - 1):  # else the closure has an odd-order element
                    report.sweep(check(sigma, mu, product_order))
        products += len(orders)
    report.notes = (
        f"{pairs} involution pairs on 1, 3, 5 and 7 points, {report.enumerated} with a 2-power product "
        f"closed and checked, {products} distinct products"
    )


def _subspace_span(basis) -> set[int]:
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    return span


def _echelon_bases(d: int):
    """Every subspace of F2^d exactly once, as its reduced echelon basis.

    A basis vector has a pivot bit that no other basis vector sets, and any
    free bits below its pivot outside the pivot columns.
    """
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            pivot_mask = sum(1 << p for p in pivots)
            rows = []
            for p in pivots:
                free = ((1 << p) - 1) & ~pivot_mask
                rows.append([(1 << p) | s for s in range(free + 1) if not s & ~free])
            yield from itertools.product(*rows)


@_lemma("dyadic", "translation quotients have dyadic size")
def verify_dyadic(report: VerificationReport):
    """Coset partitions pass with dyadic counts; 3-class labelings of F2^2 fail."""
    def cosets(d, basis):
        span = _subspace_span(basis)
        # each vector labelled by the least member of its coset
        labels = tuple(min(v ^ w for w in span) for v in range(1 << d))
        result = quotient_analysis(TranslationPartition(d, labels))
        if not result.invariant:
            yield f"coset partition of span {sorted(span)} judged non-invariant"
            return
        dim_w = len(result.subspace_basis)
        if (1 << dim_w) != len(span) or result.class_count != 1 << (d - dim_w):
            yield f"wrong quotient data for span {sorted(span)} in dim {d}"

    def three_classes(labels):
        result = quotient_analysis(TranslationPartition(2, labels))
        if result.invariant:
            yield f"3-class labelling {labels} wrongly accepted"
            return
        q, q2, v = result.witness
        if labels[q] != labels[q2] or labels[q ^ v] == labels[q2 ^ v]:
            yield f"witness {result.witness} does not split {labels}"

    for d in range(DYADIC_DIM + 1):
        for basis in _echelon_bases(d):
            report.sweep(cosets(d, basis))
    partitions = report.enumerated
    for labels in itertools.product(range(3), repeat=4):
        if len(set(labels)) == 3:
            report.sweep(three_classes(labels))
    report.notes = f"{partitions} coset partitions, {report.enumerated - partitions} three-class labelings"


@_lemma("selector", "trace-separated triples select canonically", trials=200)
def verify_selector(report: VerificationReport, rng: random.Random):
    """Canonical selection is permutation invariant; duplicates are rejected."""
    def enumerated(W, triple):
        profiles = [TraceProfile(W, s) for s in triple]
        chosen = profiles[canonical_selector(profiles)]
        for perm in itertools.permutations(profiles):
            perm = list(perm)
            if perm[canonical_selector(perm)] != chosen:
                yield f"permutation changed the selected profile for {triple}"
                break
        try:
            canonical_selector([profiles[0], profiles[0], profiles[1]])
        except PreconditionError:
            return
        yield f"duplicate profiles were not rejected for {triple}"

    def sampled():
        f = random_forest(rng.randint(2, 9), rng.getrandbits(32))
        Wr = Window.whole(f)
        picks = set()
        while len(picks) < 3:
            picks.add(frozenset(rng.sample(range(f.size), rng.randrange(f.size + 1))))
        profiles = [TraceProfile(Wr, s) for s in picks]
        chosen = profiles[canonical_selector(profiles)]
        shuffled = profiles[:]
        rng.shuffle(shuffled)
        if shuffled[canonical_selector(shuffled)] != chosen:
            yield "random window selection not permutation invariant"

    W = Window.whole(PredecessorForest.from_pred(3, {1: 0, 2: 0}))
    subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(range(3), r)]
    for triple in itertools.combinations(subsets, 3):
        report.sweep(enumerated(W, triple))
    report.sample(sampled)
    report.notes = f"{report.enumerated} enumerated triples in every order, plus {report.sampled} sampled triples"


@_lemma("lift", "product choices project to choices")
def verify_lift(report: VerificationReport):
    """Every product choice map projects to exactly its first coordinates; fully enumerated."""
    def choices(family, sizes, k, options):
        # an odometer over one choice map: the last index turns innermost and the other
        # entries are rewritten only when the prefix turns, so no map is built per choice
        f: dict[int, tuple[int, int]] = {}
        expected: dict[int, int] = {}
        last = len(sizes) - 1
        for prefix in itertools.product(*options[:last]):
            for t, (pair, a) in enumerate(prefix):
                f[t] = pair
                expected[t] = a
            for pair, a in options[last]:
                f[last] = pair
                expected[last] = a
                got = lift_choice(family, k, f)
                if got != expected:
                    yield f"sizes {sizes}, k={k}: {f} projects to {got}, not {expected}"

    families = 0
    arities = range(1, 4)
    for t_count in range(1, 5):
        for sizes in itertools.product(range(1, 4), repeat=t_count):
            family = IndexedFamily.of({t: frozenset(range(s)) for t, s in enumerate(sizes)})
            families += 1
            for k in arities:
                # each option of index t is a pair (a, j) with the projection a it must give
                options = [[((a, j), a) for a in range(s) for j in range(k)] for s in sizes]
                # one check covers the family's choice maps at this arity
                report.sweep(choices(family, sizes, k, options), math.prod(map(len, options)))
    report.notes = (
        f"{families} families (1 to 4 sets of sizes 1 to 3) x {len(arities)} arities (1 to 3); "
        "every choice map compared with its exact projection"
    )


def _replayed_flips(forest: PredecessorForest, word, node: int, row: int, B: int) -> int:
    """Bits below ``B`` that a word of generators ``(xi, row, S)`` flips on the row ``(node, row)``.

    The swap oracle: a generator toggles its row of ``xi`` and of each node
    whose parent is ``xi`` (``forest.parents``) along ``S`` (its ``cofinite``
    and ``exceptions`` fields), and flips add mod 2.  It calls no library code.
    """
    flips = 0
    for xi, r, s in word:
        if r == row and xi in (node, forest.parents[node]):
            mask = sum(1 << bit for bit in s.exceptions if bit < B)
            flips ^= mask ^ ((1 << B) - 1) if s.cofinite else mask
    return flips


def _witness_faults(w: SwapWitness, q: Condition, A: Window, box: CoordinateBox) -> list[str]:
    """The certificates of ``w`` that the replay of its generator refutes."""
    B = box.bits
    flips = functools.partial(_replayed_flips, box.forest, [(w.beta, w.row, w.toggle)])
    # past every exception, so a row the generator touches flips some bit below it
    past = max(w.toggle.exceptions, default=0) + 2
    toggle_bits = sum(1 << bit for bit in range(B) if (bit in w.toggle.exceptions) != w.toggle.cofinite)
    holds = {
        "condition-fixed": not any(flips(node, row, bit + 1) >> bit for (node, row, bit), _ in q.entries),
        "support-fixed": not any(flips(node, w.row, past) for node in A.nodes),
        "pattern-flip": flips(w.beta, w.row, B) ^ flips(w.gamma, w.row, B) == toggle_bits,
    }
    return [name for name, ok in holds.items() if not ok]


@_lemma("swap", "swap witnesses certify the complement flip", trials=60)
def verify_swap(report: VerificationReport, rng: random.Random):
    """Swap witnesses certify, and a replay of each witness's generator from the parent map agrees."""
    def witnessed(q, A, row, box):
        w = swap_witness(q, A, row, box)
        if not w.certificate.all_pass():
            yield f"certificate failed for condition {q.entries}"
        for fault in _witness_faults(w, q, A, box):
            yield f"replay refutes the {fault} certificate for {q.entries}"

    def sampled():
        n_nodes, rows, bits = rng.choice(((3, 2, 2), (4, 1, 3), (3, 1, 4)))
        f = random_forest(n_nodes, rng.getrandbits(32))
        b = CoordinateBox(Window.whole(f), rows, bits)
        q = _random_condition(f, rng, max_len=4, rows=rows, bits=bits)
        # the window {0} blocks node 0 alone, so nodes 1 and 2 are fresh and every sampled trial is checked
        yield from witnessed(q, rho_closure(f, {0}), rng.randrange(rows), b)

    def both_toggled(bits_count, exceptions):
        word = [(0, 0, ToggleSet.cofinite_excluding(exceptions))]
        b = CoordinateBox(Window.whole(forest), 1, bits_count)
        row_flips = functools.partial(_replayed_flips, forest, word, row=0, B=bits_count)
        if row_flips(1) ^ row_flips(2) or pattern_shift(generator(forest, *word[0]), 1, 2, 0, b):
            yield f"both-toggled generator moved the pattern (B={bits_count})"

    # full condition enumeration on a 6-coordinate box over the fork 1 -> 0 <- 2
    forest = PredecessorForest.from_pred(3, {1: 0, 2: 0})
    box = CoordinateBox(Window.whole(forest), 1, 2)
    A = rho_closure(forest, {0})
    for q in _all_conditions(list(box.coords())):
        report.sweep(witnessed(q, A, 0, box))
    conditions = report.enumerated
    # sampled conditions on boxes of up to 12 coordinates
    report.sample(sampled)
    # both-toggled case: a generator at the shared predecessor fixes the pattern
    for bits_count in (2, 3):
        for exceptions in ({0}, set(), {1}):
            report.sweep(both_toggled(bits_count, exceptions))
    report.notes = (
        f"{conditions} enumerated conditions and {report.enumerated - conditions} both-toggled generators, "
        f"plus {report.sampled} sampled conditions; each witness's three certificates replayed from the parent map"
    )


def lemma_parameters(lemma: str) -> set[str]:
    """Keyword parameters the lemma's verification routine accepts."""
    if lemma not in REGISTRY:
        raise DomainError(f"unknown lemma id {lemma!r}; valid ids: {', '.join(REGISTRY)}")
    return set(inspect.signature(REGISTRY[lemma][0]).parameters)


def run(lemma: str, **flags) -> VerificationReport:
    """Run one lemma with its flags, of which a ``None`` one counts as unset.

    Any other flag the lemma's routine does not take raises
    ``DomainError("verify <lemma> does not accept --<flag>")``, and a ``trials``
    that is not an int or is below 1 raises :class:`DomainError` from the
    lemma's harness, both before any instance runs.
    """
    accepted = lemma_parameters(lemma)
    flags = {flag: value for flag, value in flags.items() if value is not None}
    for flag in flags:
        if flag not in accepted:
            raise DomainError(f"verify {lemma} does not accept --{flag}")
    return REGISTRY[lemma][0](**flags)
