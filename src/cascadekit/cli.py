"""Command-line front end: forest tools, the span solver, verification, demos.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 capacity error (the finite universe ran out of room).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cascade import Condition, parse_condition
from .errors import (
    CapacityError,
    CertificateError,
    DomainError,
    ParseError,
    PreconditionError,
)
from .f2linalg import F2Vector, combine_stars, solve_star_span
from .forest import (
    PredecessorForest,
    Window,
    format_forest,
    parse_forest,
    parse_node_set,
    random_forest,
    rho_closure,
)
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


def _write_out(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from exc


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_box_dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"expected --box N,R,B, got {text!r}")
    try:
        n, r, b = (int(p.strip()) for p in parts)
    except ValueError:
        raise ParseError(f"non-integer box dimension in {text!r}") from None
    return n, r, b


def cmd_forest(args) -> int:
    if args.forest_cmd == "gen":
        if args.size > MAX_SIZE:
            raise ParseError(f"--size must be at most {MAX_SIZE}, got {args.size}")
        forest = random_forest(args.size, args.seed)
        _write_out(format_forest(forest), args.out)
        return EXIT_OK
    forest = parse_forest(_read_file(args.infile))
    nodes = parse_node_set(args.set)
    closure = rho_closure(forest, nodes)
    _write_out(closure.serialize() + "\n" if closure.nodes else "\n", args.out)
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
        "reconstruction: " + "".join(str(reconstruction.entry(x)) for x in K.ordered),
        "verified: reconstruction equals target",
    ]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _print_report(report, description: str) -> None:
    print(f"[{report.lemma}] {description}")
    if report.notes:
        print(f"  note: {report.notes}")
    for message in report.failures:
        print(f"  FAIL {message}")
    print(report.summary_line())


# verify flags that tune a lemma, by the keyword they pass to it
_VERIFY_FLAGS = {"trials": "--trials"}


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed, "trials": args.trials}
    if args.all:
        if args.lemma is not None:
            raise ParseError(f"verify takes a lemma id or --all, not both (got {args.lemma!r})")
        lemmas = list(REGISTRY)
    elif args.lemma is None:
        raise ParseError("verify needs a lemma id or --all")
    else:
        accepted = lemma_parameters(args.lemma)
        ignored = [
            flag for key, flag in _VERIFY_FLAGS.items()
            if kwargs[key] is not None and key not in accepted
        ]
        if ignored:
            raise ParseError(f"verify {args.lemma} does not accept {', '.join(ignored)}")
        lemmas = [args.lemma]
    failures = 0
    out_lines = []
    # each report prints as its lemma returns, so a lemma that raises keeps the earlier reports
    for lemma in lemmas:
        report = run(lemma, **kwargs)
        _print_report(report, REGISTRY[lemma][1])
        out_lines.append(report.summary_line())
        failures += report.failure_count()
    if args.out:
        _write_out("\n".join(out_lines) + "\n", args.out)
    if failures:
        print(f"verification failed: {failures} failing instances")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.infile:
        dims, condition = parse_condition(_read_file(args.infile))
        if args.box and _parse_box_dims(args.box) != dims:
            raise ParseError("--box disagrees with the condition file header")
    elif args.box:
        dims, condition = _parse_box_dims(args.box), Condition.empty()
    else:
        raise ParseError("demo no-selector needs --in or --box")
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
    witness = swap_witness(condition, support, args.row, box)
    text = format_witness(witness)
    _write_out(text, args.out)
    if args.out:
        print(text, end="")
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
    p_gen.add_argument("--out", default=None)
    p_clo = forest_sub.add_parser("closure", help="closure of a node set")
    p_clo.add_argument("--in", dest="infile", required=True)
    p_clo.add_argument("--set", default="")
    p_clo.add_argument("--out", default=None)

    p_span = sub.add_parser("starspan", help="solve a target against the star basis")
    p_span.set_defaults(run=cmd_starspan)
    p_span.add_argument("--in", dest="infile", required=True)
    p_span.add_argument("--window", required=True, help="comma-separated closed node set")
    p_span.add_argument(
        "--target", required=True, help="0/1 string over the window's ascending order"
    )
    p_span.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run a lemma's verification suite")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("lemma", nargs="?", default=None)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)

    p_demo = sub.add_parser("demo", help="demonstrations of the obstruction machinery")
    p_demo.set_defaults(run=cmd_demo)
    demo_sub = p_demo.add_subparsers(dest="demo_cmd", required=True)
    p_nosel = demo_sub.add_parser(
        "no-selector", help="certified swap witness beside a support window"
    )
    p_nosel.add_argument("--in", dest="infile", default=None)
    p_nosel.add_argument("--forest", default=None)
    p_nosel.add_argument("--support", default="")
    p_nosel.add_argument("--row", type=int, default=0)
    p_nosel.add_argument("--box", default=None, help="N,R,B when no condition file is given")
    p_nosel.add_argument("--out", default=None)
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
