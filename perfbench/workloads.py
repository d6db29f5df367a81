"""The three benchmark workloads: seeded inputs, the timed pass and the oracle.

Each workload has three parts.  ``make_inputs(seed)`` builds everything the
pass needs; it runs during set-up.  ``run_pass(inputs)`` makes the timed
library calls and returns the pass's ``span`` and each case's ``case_spans``
(``perf_counter`` readings) plus whatever the oracle needs.
``check(inputs, results)`` compares the library's verdicts against an oracle
of the benchmark's own and returns ``(attempted, failed)``.

``SpeedSampler`` runs around an untraced pass: it times a short fixed loop
every ``SAMPLE_PERIOD_S`` so that ``run.py`` can scale each case to the
machine's speed while it ran.  ``net_time`` takes the samples back out of a
span.

No oracle calls the kernels: names are evaluated by a per-assignment bitmask
evaluator written here, and star spans are recombined by XOR of star masks
read straight from the forest's parent map.

Inputs are seeded through string seeds, which ``random.Random`` hashes the
same way in every process.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import re
import signal
import time

clock = time.perf_counter

SAMPLE_PERIOD_S = 0.1
SAMPLE_LOOPS = 20_000


def reference_loop() -> float:
    """Seconds a fixed pure-Python integer loop takes now: the machine's momentary speed.

    It builds no containers, so neither the library's heap nor the garbage
    collector changes its cost; only the machine does.
    """
    start = clock()
    s = 0
    for i in range(SAMPLE_LOOPS):
        s += i * i & 7
    return clock() - start


class SpeedSampler:
    """Times ``reference_loop`` on entry, every ``SAMPLE_PERIOD_S`` from a ``SIGALRM`` handler, and on exit.

    ``samples`` holds ``(start, seconds)`` pairs.  The handler runs in the
    main thread between bytecodes, so a sample lies wholly inside or wholly
    outside any span the pass reads from ``clock``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, *_):
        start = clock()
        self.samples.append((start, reference_loop()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


def net_time(span, samples) -> float:
    """Length of ``span`` less the samples taken inside it."""
    t0, t1 = span
    return t1 - t0 - sum(d for t, d in samples if t0 <= t < t1)


def time_cases(items, run_case):
    """``run_case`` on each item, with the span of each call and of the whole pass."""
    case_spans, results = [], []
    start = clock()
    for item in items:
        t0 = clock()
        results.append(run_case(item))
        case_spans.append((t0, clock()))
    return {"span": (start, clock()), "case_spans": case_spans, "results": results}

# ---------------------------------------------------------------- verify-sweep

LEMMA_LINE = re.compile(r"^lemma=(\S+) trials=(\d+) exhaustive=\S+ failures=(\d+) .*elapsed=([\d.]+)s$")


def sweep_inputs(seed: int):
    from cascadekit import cli
    from cascadekit.verify import REGISTRY

    return {"argv": ["verify", "--all", "--seed", str(seed)], "cli": cli, "registry": REGISTRY, "lemmas": tuple(REGISTRY)}


def sweep_pass(inputs):
    """One ``verify --all`` through the CLI; each lemma is a case, timed around its ``REGISTRY`` entry."""
    registry = inputs["registry"]
    saved = dict(registry)
    case_spans = []

    def timed(fn):
        @functools.wraps(fn)
        def lemma(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                case_spans.append((t0, clock()))

        return lemma

    for name, (fn, text) in saved.items():
        registry[name] = (timed(fn), text)
    out = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out):
            code = inputs["cli"].main(inputs["argv"])
    finally:
        registry.clear()
        registry.update(saved)
    span = (start, clock())
    return {"span": span, "case_spans": case_spans, "exit_code": code, "stdout": out.getvalue()}


def parse_lemma_lines(stdout: str) -> dict[str, tuple[int, int, float]]:
    """``{lemma: (trials, failures, elapsed_s)}`` from the CLI's summary lines."""
    found = {}
    for line in stdout.splitlines():
        match = LEMMA_LINE.match(line)
        if match:
            lemma, trials, failures, elapsed = match.groups()
            found[lemma] = (int(trials), int(failures), float(elapsed))
    return found


def sweep_check(inputs, results):
    """One verdict per lemma: present with ``failures=0``; a nonzero exit fails them all."""
    lines = parse_lemma_lines(results["stdout"])
    attempted = len(inputs["lemmas"])
    if results["exit_code"] != 0:
        return attempted, attempted
    failed = sum(1 for lemma in inputs["lemmas"] if lines.get(lemma, (0, 1, 0.0))[1] != 0)
    return attempted, failed


# ------------------------------------------------------------------ names-wide

# nodes x rows x bits, all at 16 coordinates: the exhaustive sweep bound
NAME_SHAPES = ((4, 1, 4), (2, 2, 4), (4, 2, 2), (2, 1, 8))
NAME_CASES = 40
NAME_PROBES = 256


def coord_index(order, rows: int, bits: int, node: int, row: int, bit: int) -> int:
    """Bit position of a coordinate: node-major in ascending node order, then row, then bit."""
    return (order.index(node) * rows + row) * bits + bit


def masks_of(entries, order, rows: int, bits: int) -> tuple[int, int]:
    dmask = vmask = 0
    for (node, row, bit), value in entries:
        pos = coord_index(order, rows, bits, node, row, bit)
        dmask |= 1 << pos
        vmask |= value << pos
    return dmask, vmask


def evaluate_masks(pairs, g: int) -> frozenset[int]:
    """Members ``m`` of ``(m, dmask, vmask)`` pairs whose condition sits inside ``g``."""
    return frozenset(m for m, dmask, vmask in pairs if g & dmask == vmask)


def scheme_masks(scheme, order, rows: int, bits: int):
    return [
        (m, *masks_of(pkt.condition.entries, order, rows, bits))
        for m, packets in scheme.families
        for pkt in packets
    ]


# coordinates per condition over the support, by slot; odd slots are doubled
NAME_SLOTS = (3, 4, 3, 4)


def _supported_name(rng: random.Random, box, A):
    """One condition per member over ``A``, odd slots doubled across an off-``A`` coordinate.

    A doubled condition mentions a node outside the support yet changes no
    evaluation, so the name is supported by ``A`` but is not in packet shape.
    Each member's assignments form one subcube of fixed size, which keeps
    the cost of a case nearly independent of the seed.
    """
    from cascadekit import Condition, Coordinate, RawName

    _, rows, bits = box.dims()
    over_A = [Coordinate(xi, r, b) for xi in A.ordered for r in range(rows) for b in range(bits)]
    off_A = [
        Coordinate(xi, r, b)
        for xi in box.window.ordered
        if xi not in A
        for r in range(rows)
        for b in range(bits)
    ]
    pairs = []
    for m, k in enumerate(NAME_SLOTS):
        base = tuple((c, rng.randrange(2)) for c in rng.sample(over_A, k))
        if m % 2:
            free = rng.choice(off_A)
            pairs.append((m, Condition(base + ((free, 0),))))
            pairs.append((m, Condition(base + ((free, 1),))))
        else:
            pairs.append((m, Condition(base)))
    return RawName.of(pairs)


def names_inputs(seed: int, cases: int = NAME_CASES):
    from cascadekit import CoordinateBox, Window, random_forest, rho_closure, successors

    out = []
    for i in range(cases):
        rng = random.Random(f"names-wide/{seed}/{i}")
        n_nodes, rows, bits = NAME_SHAPES[i % len(NAME_SHAPES)]
        forest = random_forest(n_nodes, rng.getrandbits(32))
        box = CoordinateBox(Window.whole(forest), rows, bits)
        # the support holds half the nodes, so 8 coordinates lie on each side of it
        A = rho_closure(forest, {0})
        if n_nodes == 4:
            A = rho_closure(forest, {rng.choice(sorted(successors(forest, 0)))})
        name = _supported_name(rng, box, A)
        pairs = sorted(name.pairs, key=lambda p: (p[0], p[1].entries))
        probes = [rng.getrandbits(box.n_coords) for _ in range(NAME_PROBES)]
        out.append({"box": box, "A": A, "name": name, "pairs": pairs, "probes": probes})
    return out


def names_pass(inputs):
    from cascadekit import decision_invariant, decode_two_layer, normalize, two_layer_code
    from cascadekit.names import support_report

    def run_case(case):
        box, A, name = case["box"], case["A"], case["name"]
        report = support_report(name, A, box)
        scheme = normalize(name, A, box)
        decoded = decode_two_layer(two_layer_code(scheme, box), box)
        decisions = [decision_invariant(name, A, cond, m, box) for m, cond in case["pairs"]]
        return report.supported, decoded, decisions

    return time_cases(inputs, run_case)


def names_case_verdicts(case, supported: bool, decoded, decisions) -> list[bool]:
    """Support, decoded semantics on the probes, then one verdict per deciding pair."""
    box = case["box"]
    order = list(box.window.ordered)
    _, rows, bits = box.dims()
    raw = [(m, *masks_of(cond.entries, order, rows, bits)) for m, cond in case["pairs"]]
    coded = scheme_masks(decoded, order, rows, bits)
    same = all(evaluate_masks(raw, g) == evaluate_masks(coded, g) for g in case["probes"])
    support_mask = 0
    for xi in case["A"].ordered:
        for r in range(rows):
            for b in range(bits):
                support_mask |= 1 << coord_index(order, rows, bits, xi, r, b)
    verdicts = [supported is True, same]
    # each pair's condition forces its member, so by support its restriction to A must too
    for (m, dmask, vmask), decided in zip(raw, decisions):
        forces = _restriction_forces(raw, m, dmask & support_mask, vmask & support_mask, case["probes"])
        verdicts.append(decided is True and forces)
    return verdicts


def _restriction_forces(raw, m: int, dmask: int, vmask: int, probes) -> bool:
    """Every probe, overwritten on ``dmask`` by ``vmask``, evaluates to contain ``m``."""
    return all(m in evaluate_masks(raw, (g & ~dmask) | vmask) for g in probes)


def names_check(inputs, results):
    attempted = failed = 0
    for case, (supported, decoded, decisions) in zip(inputs, results["results"]):
        verdicts = names_case_verdicts(case, supported, decoded, decisions)
        attempted += len(verdicts)
        failed += verdicts.count(False)
    return attempted, failed


# ---------------------------------------------------------------- window-solve

WINDOW_SIZES = (12, 13, 14)
WINDOW_CASES = 42
WINDOW_TARGETS = 64


def _closed_window_nodes(rng: random.Random, parents, size: int) -> frozenset[int]:
    """Grow a closed node set from the root by adding random children of its members."""
    children = {}
    for xi in range(1, len(parents)):
        children.setdefault(parents[xi], []).append(xi)
    chosen = {0}
    frontier = list(children.get(0, ()))
    while len(chosen) < size:
        xi = frontier.pop(rng.randrange(len(frontier)))
        chosen.add(xi)
        frontier.extend(children.get(xi, ()))
    return frozenset(chosen)


def windows_inputs(seed: int, cases: int = WINDOW_CASES):
    from cascadekit import Window, random_forest

    out = []
    for i in range(cases):
        rng = random.Random(f"window-solve/{seed}/{i}")
        size = WINDOW_SIZES[i % len(WINDOW_SIZES)]
        forest = random_forest(size + rng.randrange(size), rng.getrandbits(32))
        K = Window(forest, _closed_window_nodes(rng, forest.parents, size))
        targets = [rng.getrandbits(size) for _ in range(WINDOW_TARGETS)]
        out.append({"K": K, "targets": targets})
    return out


def windows_pass(inputs):
    from cascadekit import F2Vector, combine_stars, solve_all_targets, solve_star_span, star_matrix

    def run_case(case):
        K = case["K"]
        star_matrix(K)
        batch = solve_all_targets(K)
        solved = []
        for t in case["targets"]:
            nodes = solve_star_span(K, F2Vector(K, t))
            solved.append((batch[t], nodes, combine_stars(K, nodes).bits))
        return solved

    return time_cases(inputs, run_case)


def star_xor(K, nodes) -> int:
    """Target bits of the stars of ``nodes``: each node and its children inside ``K``."""
    order = K.ordered
    parents = K.forest.parents
    bits = 0
    for xi in nodes:
        bits ^= 1 << order.index(xi)
    for eta in order:
        if eta and parents[eta] in nodes:
            bits ^= 1 << order.index(eta)
    return bits


def window_target_verdict(K, t: int, batch_nodes, nodes, combined: int) -> bool:
    return batch_nodes == nodes and combined == t and star_xor(K, nodes) == t


def windows_check(inputs, results):
    attempted = failed = 0
    for case, solved in zip(inputs, results["results"]):
        for t, (batch_nodes, nodes, combined) in zip(case["targets"], solved):
            attempted += 1
            failed += not window_target_verdict(case["K"], t, batch_nodes, nodes, combined)
    return attempted, failed


WORKLOADS = {
    "verify-sweep": (sweep_inputs, sweep_pass, sweep_check),
    "names-wide": (names_inputs, names_pass, names_check),
    "window-solve": (windows_inputs, windows_pass, windows_check),
}
