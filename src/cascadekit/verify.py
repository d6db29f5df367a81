"""Seeded verification routines, one per implemented statement.

Each routine replays an invariant suite at a configurable scale and
returns a report; the CLI maps lemma ids onto these.  Oracles here are
deliberately independent of the code paths they check: invertibility is
recomputed by Gaussian elimination, actions are replayed pointwise, and
certificates are recomputed from scratch.
"""

from __future__ import annotations

import inspect
import itertools
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
from .errors import CapacityError, CertificateError, DomainError, PreconditionError
from .f2linalg import F2Vector, combine_stars, solve_all_targets, solve_star_span, star_matrix
from .forest import PredecessorForest, Window, fresh_separation, random_forest, rho_closure
from .names import (
    Assignment,
    CoordinateBox,
    RawName,
    check_support,
    decision_invariant,
    decode_two_layer,
    normalize,
    two_layer_code,
)
from .orbits import TranslationPartition, close_group, odd_fixed_point, orbit_partition, quotient_analysis
from .selectors import (
    IndexedFamily,
    SwapWitness,
    TraceProfile,
    both_rows_toggled_invariance,
    canonical_selector,
    lift_choice,
    swap_witness,
)

MAX_RECORDED_FAILURES = 25


@dataclass
class VerificationReport:
    lemma: str
    trials: int
    exhaustive: bool
    failures: list[str]
    seed: int
    elapsed: float = 0.0
    notes: str = ""
    _dropped: int = field(default=0, repr=False)

    def ok(self) -> bool:
        return not self.failures and self._dropped == 0

    def record(self, message: str) -> None:
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(message)
        else:
            self._dropped += 1

    def failure_count(self) -> int:
        return len(self.failures) + self._dropped

    def summary_line(self) -> str:
        flag = "true" if self.exhaustive else "false"
        return (
            f"lemma={self.lemma} trials={self.trials} exhaustive={flag} "
            f"failures={self.failure_count()} seed={self.seed} elapsed={self.elapsed:.2f}s"
        )


def _finish(report: VerificationReport, started: float) -> VerificationReport:
    report.elapsed = time.perf_counter() - started
    return report


def _gf2_invertible(matrix) -> bool:
    """Gaussian elimination oracle; ignores the triangular structure."""
    n = len(matrix.row_order)
    rows = [sum(matrix.entry(i, j) << j for j in range(n)) for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if (rows[r] >> col) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(n):
            if r != rank and (rows[r] >> col) & 1:
                rows[r] ^= rows[rank]
        rank += 1
    return rank == n


def _random_window(forest: PredecessorForest, rng: random.Random, max_size: int) -> Window:
    target = rng.randint(1, max(1, max_size))
    chosen = {0}
    nodes = list(range(1, forest.size))
    rng.shuffle(nodes)
    for xi in nodes:
        chain = []
        cur = xi
        while cur not in chosen:
            chain.append(cur)
            cur = forest.parents[cur] if cur >= 1 else 0
        if len(chosen) + len(chain) <= target:
            chosen.update(chain)
    return Window(forest, frozenset(chosen))


def _random_closed_subset(forest: PredecessorForest, rng: random.Random) -> Window:
    seed_nodes = set(rng.sample(range(forest.size), rng.randrange(forest.size + 1)))
    return rho_closure(forest, seed_nodes)


def verify_starspan(
    trials: int = 200,
    seed: int = 0,
    max_window: int = 12,
    exhaustive_target_window: int = 10,
    exhaustive: bool = False,
) -> VerificationReport:
    """Star matrices are unit triangular and invertible; the solver hits every target."""
    started = time.perf_counter()
    if exhaustive:
        exhaustive_target_window = max_window
    report = VerificationReport("starspan", trials, False, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        forest = random_forest(rng.randint(1, 2 * max_window), rng.getrandbits(32))
        K = _random_window(forest, rng, max_window)
        matrix = star_matrix(K)
        if not matrix.is_upper_triangular_unit():
            report.record(f"trial {trial}: star matrix not unit upper triangular on {K.serialize()}")
            continue
        if not _gf2_invertible(matrix):
            report.record(f"trial {trial}: star matrix singular on {K.serialize()}")
            continue
        if len(K) <= exhaustive_target_window:
            batch = solve_all_targets(K)
            for bits in range(1 << len(K)):
                target = F2Vector(K, bits)
                solved = solve_star_span(K, target)
                if combine_stars(K, solved) != target:
                    report.record(f"trial {trial}: solve failed for target {bits:b}")
                    break
                if batch[bits] != solved:
                    report.record(f"trial {trial}: batch and per-target solutions differ")
                    break
    report.notes = f"all targets swept on windows up to {exhaustive_target_window} nodes"
    return _finish(report, started)


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


def verify_shield(trials: int = 1000, seed: int = 0) -> VerificationReport:
    """Toggles avoiding the shield fix the condition; random plus a full tiny sweep."""
    started = time.perf_counter()
    report = VerificationReport("shield", trials, True, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        forest = random_forest(rng.randint(2, 9), rng.getrandbits(32))
        entries = {}
        for _ in range(rng.randrange(7)):
            entries[(rng.randrange(forest.size), rng.randrange(3), rng.randrange(5))] = rng.randrange(2)
        q = Condition.from_map(entries)
        beta = rng.randrange(forest.size)
        row = rng.randrange(3)
        shield = shield_set(q, beta, row, forest)
        free = [n for n in range(7) if n not in shield]
        picked = frozenset(rng.sample(free, rng.randrange(len(free) + 1)))
        if rng.random() < 0.5:
            s = ToggleSet.cofinite_excluding(frozenset(shield) | (frozenset(free) - picked))
        else:
            s = ToggleSet.finite(picked)
        if s.is_empty():
            continue
        if apply(generator(forest, beta, row, s), q) != q:
            report.record(f"trial {trial}: shielded toggle moved the condition")
    # exhaustive sweep: every condition on a 2x2x2 box, every row pair, every legal toggle
    forest = PredecessorForest.from_pred(2, {1: 0})
    coords = [Coordinate(n, r, b) for n in range(2) for r in range(2) for b in range(2)]
    legal: dict[tuple[int, int, frozenset[int]], list] = {}
    swept = 0
    for values in itertools.product((None, 0, 1), repeat=len(coords)):
        q = Condition(tuple((c, v) for c, v in zip(coords, values) if v is not None))
        for beta in range(2):
            for row in range(2):
                key = (beta, row, shield_set(q, beta, row, forest))
                toggles = legal.get(key)
                if toggles is None:
                    toggles = legal[key] = _legal_toggles(forest, *key)
                swept += len(toggles)
                for s, tau in toggles:
                    if apply(tau, q) != q:
                        report.record(
                            f"exhaustive: toggle {s.serialize()} moved {q.entries} at ({beta},{row})"
                        )
    report.trials = trials + swept
    report.notes = f"{swept} exhaustive instances on the 8-coordinate box"
    return _finish(report, started)


def _all_forests(size: int):
    if size == 1:
        yield PredecessorForest(1, (-1,))
        return
    for parents in itertools.product(*(range(xi) for xi in range(1, size))):
        yield PredecessorForest(size, (-1,) + parents)


def _all_closed_subsets(forest: PredecessorForest):
    for r in range(forest.size + 1):
        for combo in itertools.combinations(range(forest.size), r):
            chosen = set(combo)
            if all(xi == 0 or forest.parents[xi] in chosen for xi in chosen):
                yield frozenset(chosen)


def verify_fresh(max_universe: int = 6, seed: int = 0) -> VerificationReport:
    """Exhaustive four-clause check of fresh separation on small universes."""
    started = time.perf_counter()
    report = VerificationReport("fresh", 0, True, [], seed)
    count = 0
    for size in range(1, max_universe + 1):
        for forest in _all_forests(size):
            for closed in _all_closed_subsets(forest):
                count += 1
                A = Window(forest, closed)
                blocked = set(closed) | {forest.parents[x] for x in closed if x >= 1}
                free = [x for x in range(size) if x not in blocked]
                try:
                    beta, gamma = fresh_separation(forest, A)
                except CapacityError:
                    if len(free) >= 2:
                        report.record(f"capacity error despite free nodes {free} (size {size})")
                    continue
                if len(free) < 2:
                    report.record(f"separation returned {beta},{gamma} with <2 free nodes")
                    continue
                succ_beta = {e for e in range(size) if e >= 1 and forest.parents[e] == beta}
                clauses = (
                    beta not in closed,
                    gamma not in closed,
                    beta != gamma,
                    gamma not in succ_beta,
                    not (succ_beta & closed),
                )
                if not all(clauses):
                    report.record(
                        f"clauses {clauses} failed for ({beta},{gamma}) on {sorted(closed)}"
                    )
    report.trials = count
    return _finish(report, started)


def _random_toggle(rng: random.Random, bits: int = 5) -> ToggleSet:
    exceptions = frozenset(rng.sample(range(bits), rng.randrange(1, bits)))
    return ToggleSet(rng.random() < 0.4, exceptions)


def _random_condition(forest, rng, rows=3, bits=5, max_len=6) -> Condition:
    entries = {}
    for _ in range(rng.randrange(max_len + 1)):
        entries[(rng.randrange(forest.size), rng.randrange(rows), rng.randrange(bits))] = rng.randrange(2)
    return Condition.from_map(entries)


def verify_abelian(trials: int = 300, seed: int = 0) -> VerificationReport:
    """Generators commute, every element squares to the identity, fixing is closed."""
    started = time.perf_counter()
    report = VerificationReport("abelian", trials, False, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        forest = random_forest(rng.randint(2, 8), rng.getrandbits(32))
        g1 = generator(forest, rng.randrange(forest.size), rng.randrange(3), _random_toggle(rng))
        g2 = generator(forest, rng.randrange(forest.size), rng.randrange(3), _random_toggle(rng))
        if compose(g1, g2) != compose(g2, g1):
            report.record(f"trial {trial}: generators do not commute")
        q = _random_condition(forest, rng)
        if apply(compose(g1, g2), q) != apply(g1, apply(g2, q)):
            report.record(f"trial {trial}: composition does not act as iterated action")
        word = [
            generator(forest, rng.randrange(forest.size), rng.randrange(3), _random_toggle(rng))
            for _ in range(rng.randrange(1, 5))
        ]
        product = compose_all(forest, word)
        if not compose(product, product).is_identity():
            report.record(f"trial {trial}: product is not self-inverse")
        A = _random_closed_subset(forest, rng)
        fixers = [t for t in (g1, g2, product) if fixes_rows_over(t, A)]
        for t1, t2 in itertools.combinations(fixers, 2):
            if not fixes_rows_over(compose(t1, t2), A):
                report.record(f"trial {trial}: fixing subgroup not closed under composition")
    return _finish(report, started)


def verify_transport(trials: int = 500, seed: int = 0, max_domain: int = 8) -> VerificationReport:
    """Transport maps padded p to padded q and fixes all rows over the window."""
    started = time.perf_counter()
    report = VerificationReport("transport", trials, False, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        forest = random_forest(rng.randint(2, 8), rng.getrandbits(32))
        A = _random_closed_subset(forest, rng)
        off = set(range(forest.size)) - A.nodes
        shared = _random_condition(forest, rng, max_len=max_domain // 2).restrict_to_nodes(A.nodes)
        p = shared.merge(_random_condition(forest, rng, max_len=max_domain // 2).restrict_to_nodes(off))
        q = shared.merge(_random_condition(forest, rng, max_len=max_domain // 2).restrict_to_nodes(off))
        pi = transport(p, q, A)
        p_pad, q_pad = pad_common_domain(p, q)
        if apply(pi, p_pad) != q_pad:
            report.record(f"trial {trial}: transport missed the target condition")
        if not fixes_rows_over(pi, A):
            report.record(f"trial {trial}: transport toggles rows over the window")
    return _finish(report, started)


_BOX_SHAPES = ((2, 2, 2), (3, 2, 2), (3, 1, 4), (2, 1, 7), (4, 1, 3), (2, 3, 2))


def _random_box(
    rng: random.Random, max_coords: int = 14, box_dims: tuple[int, int, int] | None = None
) -> CoordinateBox:
    if box_dims is not None:
        n_nodes, rows, bits = box_dims
    else:
        shapes = [s for s in _BOX_SHAPES if s[0] * s[1] * s[2] <= max_coords]
        n_nodes, rows, bits = rng.choice(shapes)
    forest = random_forest(n_nodes, rng.getrandbits(32))
    return CoordinateBox(Window.whole(forest), rows, bits)


def _random_supported_name(rng: random.Random, box: CoordinateBox, m_values: int = 4):
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
        m = rng.randrange(m_values)
        if coords_off_A and rng.random() < 0.4:
            free = rng.choice(coords_off_A)
            pairs.append((m, Condition(base + ((free, 0),))))
            pairs.append((m, Condition(base + ((free, 1),))))
        elif base:
            pairs.append((m, Condition(base)))
    return RawName.of(pairs), A


def _eval_tables_equal(name_a, name_b, box: CoordinateBox) -> bool:
    """Compare evaluation maps over every assignment via one shared member coding."""
    from .names import _name_pairs

    pairs_a, pairs_b = _name_pairs(name_a), _name_pairs(name_b)
    members = sorted({m for m, _ in pairs_a} | {m for m, _ in pairs_b})
    bits = {m: 1 << i for i, m in enumerate(members)}
    def table(pairs):
        entries = []
        for m, cond in pairs:
            dmask, vmask = box.condition_masks(cond)
            entries.append((dmask, vmask, bits[m]))
        return kernels.build_table(box.n_coords, entries)
    return kernels.tables_equal(table(pairs_a), table(pairs_b))


def _decides(name, p: Condition, m: int, box: CoordinateBox) -> bool:
    """Whether every total extension of p agrees on membership of m."""
    from .names import _build_table, _name_pairs

    pairs = _name_pairs(name)
    table, bits = _build_table(pairs, box)
    member_bit = bits.get(m, 0)
    if member_bit == 0:
        return True
    dmask, vmask = box.condition_masks(p)
    return kernels.subcube_member_summary(table, member_bit, dmask, vmask) != 2


def verify_decision(
    trials: int = 100,
    seed: int = 0,
    max_box_coords: int = 14,
    box_dims: tuple[int, int, int] | None = None,
) -> VerificationReport:
    """Deciding conditions restricted to the support keep deciding the same way."""
    started = time.perf_counter()
    report = VerificationReport("decision", trials, False, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        box = _random_box(rng, max_box_coords, box_dims)
        name, A = _random_supported_name(rng, box)
        if not check_support(name, A, box):
            report.record(f"trial {trial}: scheme-built name failed its own support check")
            continue
        probes: list[tuple[Condition, int]] = []
        for m, cond in sorted(name.pairs, key=lambda p: (p[0], p[1].entries)):
            probes.append((cond, m))  # extends a pair, so it decides that member true
        g = Assignment(box, rng.getrandbits(box.n_coords))
        total = g.restrict_to_nodes(box.window.nodes)
        for m in range(4):
            probes.append((total, m))  # total conditions decide everything
        coords = list(box.coords())
        for _ in range(6):  # random partial conditions, kept only when they decide
            picked = rng.sample(coords, rng.randint(1, min(6, len(coords))))
            p = Condition(tuple((c, rng.randrange(2)) for c in picked))
            m = rng.randrange(4)
            if _decides(name, p, m, box):
                probes.append((p, m))
        for p, m in probes:
            if not decision_invariant(name, A, p, m, box):
                report.record(f"trial {trial}: restriction of a deciding condition flipped m={m}")
    return _finish(report, started)


def verify_normalize(
    trials: int = 100,
    seed: int = 0,
    max_box_coords: int = 14,
    box_dims: tuple[int, int, int] | None = None,
) -> VerificationReport:
    """Normalized schemes evaluate exactly like the original name everywhere."""
    started = time.perf_counter()
    report = VerificationReport("normalize", trials, False, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        box = _random_box(rng, max_box_coords, box_dims)
        name, A = _random_supported_name(rng, box)
        scheme = normalize(name, A, box)
        if not _eval_tables_equal(name, scheme, box):
            report.record(f"trial {trial}: normalized scheme changed some evaluation")
        if not check_support(scheme, A, box):
            report.record(f"trial {trial}: normalized scheme fails support on its own window")
    report.notes = "evaluation equality checked on every assignment of each box"
    return _finish(report, started)


def verify_code(
    trials: int = 100,
    seed: int = 0,
    max_box_coords: int = 14,
    box_dims: tuple[int, int, int] | None = None,
) -> VerificationReport:
    """Two-layer encode/decode preserves evaluation on every assignment."""
    started = time.perf_counter()
    report = VerificationReport("code", trials, False, [], seed)
    rng = random.Random(seed)
    for trial in range(trials):
        box = _random_box(rng, max_box_coords, box_dims)
        name, A = _random_supported_name(rng, box)
        scheme = normalize(name, A, box)
        decoded = decode_two_layer(two_layer_code(scheme, box), box)
        if not _eval_tables_equal(scheme, decoded, box):
            report.record(f"trial {trial}: decoded scheme changed some evaluation")
    return _finish(report, started)


def _involutions(n: int):
    for p in itertools.permutations(range(n)):
        if all(p[p[i]] == i for i in range(n)):
            yield p


def _cycle_lcm(p) -> int:
    import math

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


def _compose_perm(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def verify_odd_fixed(max_points: int = 7, seed: int = 0) -> VerificationReport:
    """Every 2-group from at most two involutions fixes a point of any odd set."""
    started = time.perf_counter()
    report = VerificationReport("odd-fixed", 0, True, [], seed)
    count = 0
    for n in range(1, max_points + 1, 2):
        invs = list(_involutions(n))
        for a_idx in range(len(invs)):
            for b_idx in range(a_idx, len(invs)):
                sigma, mu = invs[a_idx], invs[b_idx]
                product_order = _cycle_lcm(_compose_perm(sigma, mu))
                if product_order & (product_order - 1):
                    continue  # the dihedral closure would contain an odd-order element
                count += 1
                try:
                    action = close_group([sigma, mu])
                except CertificateError:
                    report.record(f"2-power product order yet certificate failed: {sigma} {mu}")
                    continue
                orbits = orbit_partition(action)
                for orbit in orbits:
                    if len(orbit) & (len(orbit) - 1):
                        report.record(f"non-dyadic orbit {orbit} for {sigma},{mu} on {n} points")
                fixed = odd_fixed_point(action)
                if any(p[fixed] != fixed for p in action.elements):
                    report.record(f"reported fixed point {fixed} moves under {sigma},{mu}")
    report.trials = count
    return _finish(report, started)


def _subspace_span(basis) -> set[int]:
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    return span


def verify_dyadic(dim: int = 3, seed: int = 0) -> VerificationReport:
    """Coset partitions pass with dyadic counts; 3-class labelings of F2^2 fail."""
    started = time.perf_counter()
    report = VerificationReport("dyadic", 0, True, [], seed)
    count = 0
    for d in range(dim + 1):
        seen = set()
        for k in range(d + 1):
            for basis in itertools.combinations(range(1, 1 << d), k):
                span = frozenset(_subspace_span(basis))
                if span in seen:
                    continue
                seen.add(span)
                labels = [-1] * (1 << d)
                next_label = 0
                for v in range(1 << d):
                    if labels[v] < 0:
                        for w in span:
                            labels[v ^ w] = next_label
                        next_label += 1
                count += 1
                result = quotient_analysis(TranslationPartition(d, tuple(labels)))
                if not result.invariant:
                    report.record(f"coset partition of span {sorted(span)} judged non-invariant")
                    continue
                dim_w = len(result.subspace_basis)
                if (1 << dim_w) != len(span) or result.class_count != 1 << (d - dim_w):
                    report.record(f"wrong quotient data for span {sorted(span)} in dim {d}")
    three_class = 0
    for labels in itertools.product(range(3), repeat=4):
        if len(set(labels)) != 3:
            continue
        three_class += 1
        result = quotient_analysis(TranslationPartition(2, labels))
        if result.invariant:
            report.record(f"3-class labelling {labels} wrongly accepted")
            continue
        q, q2, v = result.witness
        if labels[q] != labels[q2] or labels[q ^ v] == labels[q2 ^ v]:
            report.record(f"witness {result.witness} does not split {labels}")
    report.trials = count + three_class
    report.notes = f"{count} coset partitions, {three_class} three-class labelings"
    return _finish(report, started)


def verify_selector(trials: int = 200, seed: int = 0) -> VerificationReport:
    """Canonical selection is permutation invariant; duplicates are rejected."""
    started = time.perf_counter()
    report = VerificationReport("selector", 0, True, [], seed)
    rng = random.Random(seed)
    forest = PredecessorForest.from_pred(3, {1: 0, 2: 0})
    W = Window.whole(forest)
    subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(range(3), r)]
    count = 0
    for triple in itertools.combinations(subsets, 3):
        count += 1
        profiles = [TraceProfile(W, s) for s in triple]
        chosen = profiles[canonical_selector(profiles)]
        for perm in itertools.permutations(profiles):
            perm = list(perm)
            if perm[canonical_selector(perm)] != chosen:
                report.record(f"permutation changed the selected profile for {triple}")
                break
        dup = [profiles[0], profiles[0], profiles[1]]
        try:
            canonical_selector(dup)
            report.record("duplicate profiles were not rejected")
        except PreconditionError:
            pass
    for _ in range(trials):
        f = random_forest(rng.randint(2, 9), rng.getrandbits(32))
        Wr = Window.whole(f)
        picks = set()
        while len(picks) < 3:
            picks.add(frozenset(rng.sample(range(f.size), rng.randrange(f.size + 1))))
        profiles = [TraceProfile(Wr, s) for s in picks]
        count += 1
        chosen = profiles[canonical_selector(profiles)]
        shuffled = profiles[:]
        rng.shuffle(shuffled)
        if shuffled[canonical_selector(shuffled)] != chosen:
            report.record("random window selection not permutation invariant")
    report.trials = count
    return _finish(report, started)


def verify_lift(max_indices: int = 4, max_set: int = 3, max_k: int = 3, seed: int = 0) -> VerificationReport:
    """Every product choice map projects to a valid choice map; fully enumerated."""
    started = time.perf_counter()
    report = VerificationReport("lift", 0, True, [], seed)
    count = 0
    for t_count in range(1, max_indices + 1):
        for sizes in itertools.product(range(1, max_set + 1), repeat=t_count):
            family = IndexedFamily.of({t: frozenset(range(s)) for t, s in enumerate(sizes)})
            allowed = [range(s) for s in sizes]
            for k in range(1, max_k + 1):
                option_lists = [
                    [(a, j) for a in range(sizes[t]) for j in range(k)]
                    for t in range(t_count)
                ]
                for combo in itertools.product(*option_lists):
                    count += 1
                    chosen = lift_choice(family, k, dict(enumerate(combo)))
                    for t, ids in enumerate(allowed):
                        if chosen[t] not in ids:
                            report.record(f"projection left the set at {t} for sizes {sizes}")
    report.trials = count
    return _finish(report, started)


def _pattern_flip_sweep(w: SwapWitness, box: CoordinateBox) -> bool:
    """Replay the pattern-flip certificate on every assignment of the box.

    The flip mask is rebuilt pointwise from the generator's toggle sets with
    this function's own coordinate packing (node-major, then row, then bit),
    and assignments are plain ints, so no library mask, index or pattern
    code is trusted.
    """
    rows, bits = box.rows, box.bits
    tau = generator(box.forest, w.beta, w.row, w.toggle)
    pos = {xi: k for k, xi in enumerate(box.window.ordered)}
    flip = 0
    for xi, k in pos.items():
        for row in range(rows):
            ts = tau.toggle_at(xi, row)
            for bit in range(bits):
                if bit in ts:
                    flip |= 1 << ((k * rows + row) * bits + bit)
    row_mask = (1 << bits) - 1
    at_beta = (pos[w.beta] * rows + w.row) * bits
    at_gamma = (pos[w.gamma] * rows + w.row) * bits
    expected = sum(1 << bit for bit in range(bits) if bit in w.toggle)
    for g in range(1 << box.n_coords):
        before = ~((g >> at_beta) ^ (g >> at_gamma)) & row_mask
        h = g ^ flip
        after = ~((h >> at_beta) ^ (h >> at_gamma)) & row_mask
        if before ^ after != expected:
            return False
    return True


def verify_swap(trials: int = 60, seed: int = 0, max_box_coords: int = 12) -> VerificationReport:
    """Swap witnesses certify, and an independent sweep of every assignment agrees."""
    started = time.perf_counter()
    report = VerificationReport("swap", 0, True, [], seed)
    rng = random.Random(seed)
    count = 0
    # full condition enumeration on a 6-coordinate box
    forest = PredecessorForest.from_pred(3, {1: 0, 2: 0})
    box = CoordinateBox(Window.whole(forest), 1, 2)
    A = rho_closure(forest, {0})
    coords = list(box.coords())
    for values in itertools.product((None, 0, 1), repeat=len(coords)):
        q = Condition(tuple((c, v) for c, v in zip(coords, values) if v is not None))
        count += 1
        w = swap_witness(q, A, 0, box)
        if not (w.certificate.all_pass() and w.certificate.exhaustive):
            report.record(f"certificate failed for exhaustive condition {q.entries}")
        if not _pattern_flip_sweep(w, box):
            report.record(f"assignment sweep refutes the pattern flip for {q.entries}")
    # sampled conditions on boxes up to the coordinate bound, sweeps stay exhaustive
    for trial in range(trials):
        shapes = [s for s in ((3, 2, 2), (4, 1, 3), (3, 1, 4)) if s[0] * s[1] * s[2] <= max_box_coords]
        n_nodes, rows, bits = rng.choice(shapes)
        f = random_forest(n_nodes, rng.getrandbits(32))
        b = CoordinateBox(Window.whole(f), rows, bits)
        A_r = rho_closure(f, {0})
        entries = {}
        for _ in range(rng.randrange(5)):
            entries[(rng.randrange(f.size), rng.randrange(rows), rng.randrange(bits))] = rng.randrange(2)
        q = Condition.from_map(entries)
        count += 1
        row = rng.randrange(rows)
        rng.getrandbits(16)  # unused draw; keeps each seed's trial sequence stable
        try:
            w = swap_witness(q, A_r, row, b)
        except CapacityError:
            continue
        if not (w.certificate.all_pass() and w.certificate.exhaustive):
            report.record(f"certificate failed on sampled condition trial {trial}")
        if not _pattern_flip_sweep(w, b):
            report.record(f"assignment sweep refutes the pattern flip on trial {trial}")
    # both-toggled case: a generator at the shared predecessor fixes the pattern
    fork = PredecessorForest.from_pred(3, {1: 0, 2: 0})
    for bits_count in (2, 3):
        b = CoordinateBox(Window.whole(fork), 1, bits_count)
        for exceptions in ({0}, set(), {1}):
            tau = generator(fork, 0, 0, ToggleSet.cofinite_excluding(exceptions))
            count += 1
            if not both_rows_toggled_invariance(tau, 1, 2, 0, b):
                report.record(f"both-toggled generator moved the pattern (B={bits_count})")
    report.trials = count
    report.notes = "pattern flip re-swept on every assignment of each witness's box"
    return _finish(report, started)


REGISTRY = {
    "starspan": (verify_starspan, "star basis spans every window target"),
    "shield": (verify_shield, "toggles off the shield fix conditions"),
    "fresh": (verify_fresh, "fresh separation clauses hold exhaustively"),
    "abelian": (verify_abelian, "the cascade group is abelian of exponent 2"),
    "transport": (verify_transport, "transport carries p to q fixing the window"),
    "decision": (verify_decision, "restrictions of deciding conditions decide alike"),
    "normalize": (verify_normalize, "packet schemes evaluate like their names"),
    "code": (verify_code, "two-layer codes round-trip semantics"),
    "odd-fixed": (verify_odd_fixed, "odd sets under 2-groups have fixed points"),
    "dyadic": (verify_dyadic, "translation quotients have dyadic size"),
    "selector": (verify_selector, "trace-separated triples select canonically"),
    "lift": (verify_lift, "product choices project to choices"),
    "swap": (verify_swap, "swap witnesses certify the complement flip"),
}


def lemma_parameters(lemma: str) -> set[str]:
    """Keyword parameters the lemma's verification routine accepts."""
    if lemma not in REGISTRY:
        raise DomainError(f"unknown lemma id {lemma!r}; valid ids: {', '.join(REGISTRY)}")
    return set(inspect.signature(REGISTRY[lemma][0]).parameters)


def run(lemma: str, **kwargs) -> VerificationReport:
    """Run one lemma, passing only the non-``None`` keywords it accepts."""
    accepted = lemma_parameters(lemma)
    fn, _ = REGISTRY[lemma]
    return fn(**{k: v for k, v in kwargs.items() if k in accepted and v is not None})


def run_all(seed: int = 0, **kwargs) -> list[VerificationReport]:
    return [run(lemma, seed=seed, **kwargs) for lemma in REGISTRY]
