"""Command-line front end.

Subcommands: verify, minimal-modulus, classify, solve, factor, reduce,
search, dump-set.  Every command prints a stable JSON document on stdout
(`--json PATH` additionally writes it to a file) and exits 0 on success,
1 when an explicitly expected verification outcome is contradicted or an
internal consistency check fails, 2 on usage errors, among them an output
path that cannot be written.  On exit 1 the document is printed as usual,
then the one-line problem goes to stderr; on exit 2 stderr has `error: ...`
and stdout stays empty.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .descent import (
    DescentKind,
    classify,
    descent_form,
    descent_form_preimage,
    galois_commutes,
    pi_divides_both_factors,
    reduce_by_pi,
)
from .eisenstein import factor, is_cube
from .parsing import _digit_limit_error, parse_element
from .reports import dumps_document, make_document
from .residues import ResidueRing, cube_values, descent_form_image, rhs_values
from .search import search
from .verify import minimal_modulus, verify_cube_closure, verify_no_solution

USAGE_ERROR = 2

_SET_BUILDERS = {
    "form-image": descent_form_image,
    "cubes": cube_values,
    "rhs": rhs_values,
}


# argparse reads an argument that starts with '-' as an option
_ELEMENT_HELP = "an element of Q(w); put a negative one after '--', as in '-- -1/2'"


def _integer(text: str) -> int:
    """int(text) for an integer argument.  A number past Python's digit limit
    gets `parse_element`'s message, naming the limit, in place of argparse's
    "invalid int value", which would echo every digit."""
    try:
        return int(text)
    except ValueError:
        message = _digit_limit_error(sum(ch.isdigit() for ch in text))
        raise argparse.ArgumentTypeError(message or f"invalid int value: {text!r}") from None


# Building the parser costs about 1 ms, several times a small command's own
# work, so it is built on the first call to `main` and reused by every later
# call in the process.  Parsing leaves it unchanged and argparse looks up
# sys.stdout/sys.stderr only when it prints.  Not built at import, which
# would add that 1 ms to every start-up.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisdescent",
        description="Exact descent computations for cube Kummer covers over Q(w).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run one exhaustive residue-ring check")
    p.add_argument("lemma", choices=["cube-closure", "no-solution"])
    p.add_argument("--k", type=_integer, required=True, help="modulus exponent (3^k)")
    p.add_argument("--expect-holds", choices=["true", "false"],
                   help="exit 1 if the outcome differs from this expectation")
    _common_flags(p)

    p = sub.add_parser("minimal-modulus",
                       help="smallest k for which the no-solution check holds")
    p.add_argument("--max-k", type=_integer, required=True)
    _common_flags(p)

    p = sub.add_parser("classify", help="classify a specialization point of t^3 = z")
    p.add_argument("element", help=_ELEMENT_HELP)
    _common_flags(p)

    p = sub.add_parser("solve", help="rational (x, y) with form(x, y) equal to the element")
    p.add_argument("element", help=_ELEMENT_HELP)
    _common_flags(p)

    p = sub.add_parser("factor", help="canonical prime factorization in Z[w]")
    p.add_argument("element", help=_ELEMENT_HELP)
    _common_flags(p)

    p = sub.add_parser("reduce", help="divide the form value at integer (x, y) by pi^3")
    p.add_argument("x", type=_integer)
    p.add_argument("y", type=_integer)
    _common_flags(p)

    p = sub.add_parser("search", help="classify all rational points up to a height")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated coefficients of f, constant term first; "
                        "a list that starts with '-' needs '=', as in --coeffs=-1,0,1")
    p.add_argument("--height", type=_integer, required=True)
    _common_flags(p)

    p = sub.add_parser("dump-set", help="CSV dump of an exhaustive image set")
    p.add_argument("set", choices=sorted(_SET_BUILDERS))
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--path", required=True)
    _common_flags(p)

    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="also write the report to a file")


# Each handler returns the parts of its document: the report section, the
# parameters its fingerprint hashes, its counters or None, and None or the
# one-line message of a failed --expect-holds or internal consistency check.
# `main` alone times the handler, makes and writes the document and picks
# the exit code.
_Parts = tuple[dict, dict, dict | None, str | None]


def _cmd_verify(args) -> _Parts:
    report = (verify_cube_closure if args.lemma == "cube-closure"
              else verify_no_solution)(args.k)
    problem = None
    if args.expect_holds is not None:
        expected = args.expect_holds == "true"
        if report.holds != expected:
            problem = f"expected holds={expected}, got holds={report.holds}"
    return report.to_report(), {"lemma": args.lemma, "k": args.k}, None, problem


def _cmd_minimal_modulus(args) -> _Parts:
    k = minimal_modulus(args.max_k)
    params = {"command": "minimal-modulus", "max_k": args.max_k}
    return {"max_k": args.max_k, "minimal_k": k}, params, None, None


def _cmd_classify(args) -> _Parts:
    a = parse_element(args.element)
    cls = classify(a)
    witness = None
    if cls.witness is not None:
        witness = {"x": str(cls.witness.x), "y": str(cls.witness.y)}
    params = {"command": "classify", "element": str(a)}
    report = {
        "element": str(a),
        "classification": cls.kind.value,
        "witness": witness,
    }
    # Internal consistency: a Descends verdict must satisfy the Galois
    # identity and be a non-cube; Disconnected must be a cube.
    if cls.kind is DescentKind.DESCENDS:
        consistent = not is_cube(a)[0] and galois_commutes(a, cls.witness)
    else:
        consistent = cls.kind is not DescentKind.DISCONNECTED or is_cube(a)[0]
    problem = None if consistent else "internal inconsistency in classification"
    return report, params, None, problem


def _cmd_solve(args) -> _Parts:
    a = parse_element(args.element)
    w = descent_form_preimage(a)
    problem = None
    if w is not None and descent_form(w.x, w.y) != a:
        problem = "internal inconsistency in preimage"
    params = {"command": "solve", "element": str(a)}
    report = {
        "element": str(a),
        "witness": None if w is None else {"x": str(w.x), "y": str(w.y)},
    }
    return report, params, None, problem


def _cmd_factor(args) -> _Parts:
    a = parse_element(args.element)
    if a.den != 1:
        raise ValueError("factor requires an integral element of Z[w]")
    f = factor(a.num)
    problem = None
    if f.value() != a.num:
        problem = "internal inconsistency in factorization"
    params = {"command": "factor", "element": str(a)}
    report = {
        "element": str(a),
        "unit": str(f.unit),
        "factors": [{"prime": str(p), "exponent": e} for p, e in f.factors],
    }
    return report, params, None, problem


def _cmd_reduce(args) -> _Parts:
    x2, y2 = reduce_by_pi(args.x, args.y)
    both = pi_divides_both_factors(args.x, args.y)
    g_in = descent_form(args.x, args.y)
    g_out = descent_form(x2, y2)
    params = {"command": "reduce", "x": args.x, "y": args.y}
    report = {
        "input": {"x": args.x, "y": args.y, "form": str(g_in)},
        "result": {"x": x2, "y": y2, "form": str(g_out)},
        "pi_divides_both_factors": both,
    }
    return report, params, None, None


def _cmd_search(args) -> _Parts:
    coeffs = [parse_element(part) for part in args.coeffs.split(",")]
    report = search(coeffs, args.height)
    params = {"coeffs": list(report.coefficients), "height": report.height}
    return report.to_report(), params, report.counters, None


def _cmd_dump_set(args) -> _Parts:
    ring = ResidueRing(args.k)
    open(args.path, "wb").close()  # an unwritable path fails before the scan
    image = _SET_BUILDERS[args.set](ring)
    image.write_csv(args.path)
    params = {"command": "dump-set", "set": args.set, "k": args.k}
    report = {"set": args.set, "k": args.k, "path": args.path, "size": len(image)}
    return report, params, None, None


_HANDLERS = {
    "verify": _cmd_verify,
    "minimal-modulus": _cmd_minimal_modulus,
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "factor": _cmd_factor,
    "reduce": _cmd_reduce,
    "search": _cmd_search,
    "dump-set": _cmd_dump_set,
}


def _write_text(stream, text: str) -> None:
    # a MiB at a time: a text stream encodes what it is given as one copy
    for lo in range(0, len(text), 1 << 20):
        stream.write(text[lo:lo + (1 << 20)])


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        start = time.perf_counter()
        report, params, counters, problem = _HANDLERS[args.command](args)
        document = make_document(report, params, time.perf_counter() - start, counters)
        text = dumps_document(document)
        # the file first, so an unwritable --json path leaves stdout empty
        if args.json:
            with open(args.json, "w", encoding="ascii") as fh:
                _write_text(fh, text)
        _write_text(sys.stdout, text)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        message = str(exc)
        if message.startswith("Exceeds the limit"):
            # Python's limit on int <-> str conversion.  `parse_element`
            # refuses an input number above it, so here a result passed it.
            limit = sys.get_int_max_str_digits()
            message = (f"a result has more than {limit} digits, above the limit of "
                       f"{limit} digits on integer string conversion")
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    if problem is not None:
        print(problem, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
