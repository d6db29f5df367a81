"""Command-line front end: forest tools, the span solver, verification, demos, and the text formats they read.

Every command prints what it makes to stdout. A bad combination of arguments
exits 2 through argparse, which prints the usage.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 capacity error (the finite universe ran out of room).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cascade import Condition, Coordinate
from .errors import (
    CapacityError,
    CertificateError,
    DomainError,
    ParseError,
    PreconditionError,
)
from .f2linalg import F2Vector, combine_stars, solve_star_span
from .forest import PredecessorForest, Window, random_forest, rho_closure
from .names import CoordinateBox
from .selectors import format_witness, swap_witness
from .verify import REGISTRY, lemma_parameters, run

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# the most nodes `forest gen` draws and the most coordinates N*R*B a `demo` box holds,
# checked before anything of that size is allocated
MAX_SIZE = 1 << 16


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _lines(text: str, kind: str) -> list[tuple[int, str]]:
    """Each nonblank line of a ``kind`` file with its 1-based number; none at all is an error."""
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ParseError(f"empty {kind} file", 1)
    return lines


def _int(field: str, message: str, line: int | None = None) -> int:
    try:
        return int(field.strip())
    except ValueError:
        raise ParseError(message, line) from None


def _ints(
    record: str, fields: list[str], count: int, expected: str, line: int | None = None, non_int="non-integer entry"
) -> tuple[int, ...]:
    """The ``count`` ints in ``fields``, split from ``record``; the error message names the record."""
    if len(fields) != count:
        raise ParseError(f"expected {expected}, got {record!r}", line)
    try:
        return tuple(map(int, map(str.strip, fields)))  # str.strip also drops "\x1c", which int() keeps
    except ValueError:
        raise ParseError(f"{non_int} in {record!r}", line) from None


def format_forest(forest: PredecessorForest) -> str:
    """Line-oriented text form: first line N, then one ``xi pred(xi)`` line each."""
    rows = (f"{xi} {forest.parents[xi]}\n" for xi in range(1, forest.size))
    return f"{forest.size}\n" + "".join(rows)


def parse_forest(text: str) -> PredecessorForest:
    """Inverse of :func:`format_forest`; raises :class:`ParseError` with a line number."""
    (head_no, head), *lines = _lines(text, "forest")
    size = _int(head, f"expected universe size, got {head!r}", head_no)
    pred: dict[int, int] = {}
    for lineno, line in lines:
        raw = line.strip()
        xi, p = _ints(raw, raw.split(), 2, "'node pred' pair", lineno)
        if xi in pred:
            raise ParseError(f"duplicate entry for node {xi}", lineno)
        pred[xi] = p
    if size > len(pred) + 1:  # checked before from_pred allocates `size` entries
        raise ParseError(f"universe of size {size} needs {size - 1} 'node pred' lines")
    try:
        return PredecessorForest.from_pred(size, pred)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_condition(text: str) -> tuple[tuple[int, int, int], Condition]:
    """Read a condition file; returns ((N, R, B), condition).

    The first nonblank line is the header ``box N R B``; each later
    nonblank line is one ``node row bit value`` entry inside that box.
    """
    (head_no, head), *lines = _lines(text, "condition")
    word, *dims = head.split()
    if word != "box":
        raise ParseError(f"expected 'box N R B' header, got {head!r}", head_no)
    size, rows, bits = _ints(head, dims, 3, "'box N R B' header", head_no, "non-integer box dimensions")
    entries = []
    for lineno, line in lines:
        raw = line.strip()
        node, row, bit, value = _ints(raw, raw.split(), 4, "'node row bit value'", lineno)
        if not (0 <= node < size and 0 <= row < rows and 0 <= bit < bits):
            raise ParseError(f"coordinate outside the declared box: {raw!r}", lineno)
        entries.append((Coordinate(node, row, bit), value))
    try:
        return (size, rows, bits), Condition(tuple(entries))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_node_set(text: str) -> set[int]:
    """Comma-separated node list, tolerant of blanks: ``"3,5"`` or ``""``."""
    chunks = (chunk.strip() for chunk in text.split(","))
    return {_int(chunk, f"bad node id {chunk!r}") for chunk in chunks if chunk}


def _parse_box_dims(text: str) -> tuple[int, int, int]:
    return _ints(text, text.split(","), 3, "--box N,R,B", non_int="non-integer box dimension")


def cmd_forest(args) -> int:
    if args.forest_cmd == "gen":
        if args.size > MAX_SIZE:
            raise ParseError(f"--size must be at most {MAX_SIZE}, got {args.size}")
        forest = random_forest(args.size, args.seed)
        sys.stdout.write(format_forest(forest))
        return EXIT_OK
    forest = parse_forest(_read_file(args.infile))
    nodes = parse_node_set(args.set)
    closure = rho_closure(forest, nodes)
    print(closure.serialize() if closure.nodes else "")
    return EXIT_OK


def cmd_starspan(args) -> int:
    forest = parse_forest(_read_file(args.infile))
    nodes = parse_node_set(args.window)
    K = Window(forest, frozenset(nodes))  # rejects windows that are not closed
    target_text = args.target.strip()
    if len(target_text) != len(K) or any(ch not in "01" for ch in target_text):
        raise ParseError(
            f"target must be a 0/1 string of length {len(K)} over the window ordering"
        )
    bits = sum(1 << j for j, ch in enumerate(target_text) if ch == "1")
    target = F2Vector(K, bits)
    coeffs = solve_star_span(K, target)
    reconstruction = combine_stars(K, coeffs)
    if reconstruction != target:
        raise CertificateError("star coefficients do not reconstruct the target")
    coeff_text = " ".join(str(x) for x in sorted(coeffs))
    lines = [
        "window: " + K.serialize(),
        "coefficients:" + (" " + coeff_text if coeff_text else ""),
        # bit j is the entry at K.ordered[j], printed j-th
        "reconstruction: " + f"{reconstruction.bits:0{len(K)}b}"[::-1],
        "verified: reconstruction equals target",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _print_report(report, description: str) -> None:
    print(f"[{report.lemma}] {description}")
    if report.notes:
        print(f"  note: {report.notes}")
    for message in report.failures:
        print(f"  FAIL {message}")
    print(report.summary_line())


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed, "trials": args.trials}
    lemmas = list(REGISTRY) if args.all else [args.lemma]
    failures = 0
    # each report prints as its lemma returns, so a lemma that raises keeps the earlier reports
    for lemma in lemmas:
        # --all passes each lemma only the flags it takes; run refuses the others a named lemma is given
        flags = {k: v for k, v in kwargs.items() if k in lemma_parameters(lemma)} if args.all else kwargs
        report = run(lemma, **flags)
        _print_report(report, REGISTRY[lemma][1])
        failures += report.failure_count()
    if failures:
        print(f"verification failed: {failures} failures")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.infile is not None:  # argparse lets exactly one of --in and --box through
        dims, condition = parse_condition(_read_file(args.infile))
    else:
        dims, condition = _parse_box_dims(args.box), Condition.empty()
    size, rows, bits = dims
    # a zero or negative product would let one huge dimension past the bound
    if not 0 < size * rows * bits <= MAX_SIZE:
        raise ParseError(f"box {size},{rows},{bits} must hold 1 to {MAX_SIZE} coordinates")
    if args.forest:
        forest = parse_forest(_read_file(args.forest))
        if forest.size != size:
            raise ParseError(
                f"forest universe {forest.size} disagrees with box size {size}"
            )
    else:
        forest = PredecessorForest.from_pred(size, {x: 0 for x in range(1, size)})
    box = CoordinateBox(Window.whole(forest), rows, bits)
    support = rho_closure(forest, parse_node_set(args.support))
    witness = swap_witness(condition, support, 0, box)
    sys.stdout.write(format_witness(witness))
    return EXIT_OK if witness.certificate.all_pass() else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadekit",
        description="solve, verify, and demonstrate the finite cascade-window machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forest = sub.add_parser("forest", help="generate forests and compute closures")
    p_forest.set_defaults(run=cmd_forest)
    forest_sub = p_forest.add_subparsers(dest="forest_cmd", required=True)
    p_gen = forest_sub.add_parser("gen", help="sample a random forest")
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_clo = forest_sub.add_parser("closure", help="closure of a node set")
    p_clo.add_argument("--in", dest="infile", required=True)
    p_clo.add_argument("--set", default="")

    p_span = sub.add_parser("starspan", help="solve a target against the star basis")
    p_span.set_defaults(run=cmd_starspan)
    p_span.add_argument("--in", dest="infile", required=True)
    p_span.add_argument("--window", required=True, help="comma-separated closed node set")
    p_span.add_argument(
        "--target", required=True, help="0/1 string over the window's ascending order"
    )

    p_verify = sub.add_parser("verify", help="run a lemma's verification suite")
    p_verify.set_defaults(run=cmd_verify)
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("lemma", nargs="?", default=None)
    which.add_argument("--all", action="store_true")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)

    p_demo = sub.add_parser("demo", help="demonstrations of the obstruction machinery")
    p_demo.set_defaults(run=cmd_demo)
    demo_sub = p_demo.add_subparsers(dest="demo_cmd", required=True)
    p_nosel = demo_sub.add_parser(
        "no-selector", help="certified swap witness beside a support window"
    )
    source = p_nosel.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", default=None)
    source.add_argument("--box", default=None, help="N,R,B when no condition file is given")
    p_nosel.add_argument("--forest", default=None)
    p_nosel.add_argument("--support", default="")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
