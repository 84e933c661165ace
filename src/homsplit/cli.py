"""Command-line front end.

Subcommands: check, construct (dispatched by the one table `CONSTRUCTIONS`),
verify-op, solve-op and iso (both walk `operators.grid_points`), emit-system,
fingerprint, corpus.  Output is machine-first (JSON reports, stable key
order) with a one-line human summary on stdout.  Every JSON payload is
serialized once, by `files.json_text`, or in chunks by `files.json_stream`
when it goes to a report file or stdout.

Exit codes: 0 all pass; 1 violations or discrepancies found; 2 input error.
`check` exits by its kind check, and prints its report if any of its checks fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import constructions, corpus, morphisms, operators
from .axioms import (
    SQ15_DEFAULT,
    SQ15_READINGS,
    check_action,
    check_kind,
    check_multiplicative,
    check_representation,
)
from .files import (
    algebra_to_dict,
    classify_file,
    json_stream,
    json_text,
    matrix_rows,
    read_json,
    write_json,
)
from .model import ActionBundle, AlgebraBundle
from .report import PreconditionError


def _dump(data) -> str:
    """The JSON text of the payload `data`; a str is a chunk of a report that
    `_write_report` streams, and is its own text.  Every report text the CLI
    makes passes through here once, whole or chunk by chunk, so that a
    profile can count it."""
    return data if type(data) is str else json_text(data)


def _write_report(payload: dict, streams: list) -> None:
    """Write the JSON text of `payload` and a newline to each of `streams`,
    serializing it once: each chunk goes to every stream as it is made."""
    writes = [stream.write for stream in streams]

    def write(chunk: str) -> None:
        chunk = _dump(chunk)
        for stream_write in writes:
            stream_write(chunk)

    json_stream(payload, write)
    for stream_write in writes:
        stream_write("\n")


def _publish(args, payload: dict, summary: str | None = None, show: bool = True) -> None:
    """Print `summary`, then write `payload` to the --report path and, if
    `show`, to stdout, in one streamed serialization.  The report file is
    opened first, so that a path that cannot be opened prints nothing."""
    report = open(args.report, "w", encoding="utf-8") if args.report else None
    with report or contextlib.nullcontext():
        if summary is not None:
            print(summary)
        streams = ([report] if report else []) + ([sys.stdout] if show else [])
        if streams:
            _write_report(payload, streams)


# construct name -> (construction, its input files in order: "algebra",
# "representation", "action" or the kind of an operator file); a construction
# takes --force exactly when one of its inputs is not an algebra
CONSTRUCTIONS = {
    "sum-dias": (constructions.quadri_to_diassociative, ("algebra",)),
    "sum-tri": (constructions.six_to_triassociative, ("algebra",)),
    "dsum": (constructions.direct_sum_quadri, ("algebra", "algebra")),
    "hemi": (constructions.hemi_semidirect, ("representation",)),
    "semidirect": (constructions.semidirect_dendriform, ("action",)),
    "quotient": (constructions.quotient_dendriform, ("algebra",)),
    "avg-dias": (constructions.averaging_induced_diassociative, ("algebra", "averaging_assoc")),
    "rb-dias": (constructions.rota_baxter_induced, ("algebra", "rota_baxter")),
    "ravg-quadri": (
        constructions.relative_averaging_induced_quadri, ("representation", "relative_averaging")
    ),
    "havg-six": (
        constructions.homomorphic_averaging_induced_six,
        ("action", "homomorphic_relative_averaging"),
    ),
}


def _load_input(name: str, shape: str, path):
    """The bundle of a construct input file of the given shape, or the matrix
    of an operator file whose kind is `shape`."""
    if path is None:
        raise corpus.CorpusError(f"construct {name}: missing input file(s)")
    if shape not in operators.OPERATOR_KINDS:
        return getattr(corpus, f"load_{shape}")(path)
    kind, matrix = corpus.load_operator(path)
    if kind != shape:
        raise corpus.CorpusError(
            f"construct {name} needs an operator of kind {shape!r}, "
            f"but {path} has kind {kind!r}"
        )
    return matrix


def _load_context(path):
    """Load an algebra, representation, or action file by its shape, reading
    and parsing the file once."""
    data = read_json(path)
    shape = classify_file(data)
    if shape == "operator":
        raise corpus.CorpusError(f"{path}: expected an algebra/representation/action file")
    return getattr(corpus, f"load_{shape}")(path, data)


#: The most values a --grid may build, sum over d of ((hi - lo) * d + 1), counted
#: first; a search may visit |grid|^f points for up to f = 9 free coefficients.
MAX_GRID_VALUES = 10_000


def _parse_grid(text: str, denominators: str) -> list:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
        dens = [int(d) for d in denominators.split(",")] if denominators else [1]
    except ValueError as exc:
        raise corpus.CorpusError(f"bad grid specification: {exc}") from exc
    if hi < lo or any(d < 1 for d in dens):
        raise corpus.CorpusError("bad grid specification")
    if (count := sum((hi - lo) * d + 1 for d in dens)) > MAX_GRID_VALUES:
        raise corpus.CorpusError(
            f"grid of {count} values is above the limit of {MAX_GRID_VALUES} values"
        )
    return sorted({Fraction(n, d) for d in dens for n in range(lo * d, hi * d + 1)})


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check(args) -> int:
    context = _load_context(args.file)
    extra = {}
    if isinstance(context, AlgebraBundle):
        if args.sq15 and context.kind != "six_dendriform":
            raise corpus.CorpusError(
                f"check --sq15 takes a six_dendriform file, not {args.file} of kind {context.kind}"
            )
        report = check_kind(context, sq15=args.sq15 or SQ15_DEFAULT)
        if args.multiplicative:
            extra["multiplicative"] = check_multiplicative(context)
    elif args.multiplicative or args.sq15:
        option = "--multiplicative" if args.multiplicative else "--sq15"
        raise corpus.CorpusError(f"check {option} takes an algebra file, not {args.file}")
    elif isinstance(context, ActionBundle):
        report = check_action(context)
    else:
        report = check_representation(context)
    reports = {"check": report, **extra}
    payload = {"file": str(args.file), **{key: r.payload() for key, r in reports.items()}}
    summary = f"{args.file}: {report.status} ({len(report.entries)} violation(s))"
    _publish(args, payload, summary, show=not all(r.ok for r in reports.values()))
    return 0 if report.ok else 1


def _cmd_construct(args) -> int:
    name = args.name
    build, shapes = CONSTRUCTIONS[name]
    if len(args.inputs) > len(shapes):
        raise corpus.CorpusError(
            f"construct {name} takes {len(shapes)} input file(s), got {len(args.inputs)}"
        )
    paths = iter(args.inputs)
    inputs = [_load_input(name, shape, next(paths, None)) for shape in shapes]
    forced = {"force": args.force} if set(shapes) != {"algebra"} else {}
    try:
        out = build(*inputs, **forced)
    except PreconditionError as exc:
        print(f"construct {name} refused: {exc}", file=sys.stderr)
        print(_dump(exc.report.payload()), file=sys.stderr)
        return 1
    if isinstance(out, constructions.QuotientResult):
        if not out.ok:
            print(f"{name} refused: preconditions failed", file=sys.stderr)
            print(_dump(out.report.payload()), file=sys.stderr)
            return 1
        if not out.bundle.dim:
            raise corpus.CorpusError(
                f"construct {name}: I_D is all of D, so the quotient has dimension 0, "
                "which no algebra file can hold"
            )
        out = out.bundle
    header = f"construct {name} " + " ".join(str(p) for p in args.inputs)
    write_json(args.output, algebra_to_dict(out), header=header)
    print(f"wrote {args.output} ({out.kind}, dimension {out.dim})")
    return 0


def _cmd_verify_op(args) -> int:
    context = _load_context(args.context)
    kind, matrix = corpus.load_operator(args.operator)
    report = operators.verify_operator(kind, context, matrix, strict_twist=args.strict_twist)
    payload = {
        "context": str(args.context),
        "operator": str(args.operator),
        "kind": kind,
        "report": report.payload(),
    }
    summary = f"{kind}: {report.status} ({len(report.entries)} violation(s))"
    _publish(args, payload, summary, show=not report.ok)
    return 0 if report.ok else 1


def _cmd_solve_op(args) -> int:
    context = _load_context(args.context)
    grid = _parse_grid(args.grid, args.denominators)
    solutions = operators.solve_operators_grid(
        context, args.kind, grid, strict_twist=args.strict_twist
    )
    payload = {
        "context": str(args.context),
        "kind": args.kind,
        "grid": [str(g) for g in grid],
        "solutions": [matrix_rows(m) for m in solutions],
    }
    _publish(args, payload, f"{len(solutions)} solution(s) over grid of {len(grid)} values")
    return 0


def _cmd_emit_system(args) -> int:
    context = _load_context(args.context)
    system = operators.emit_operator_system(
        context, args.kind, unknown_prefix=args.unknown_prefix, strict_twist=args.strict_twist
    )
    payload = {
        "context": str(args.context),
        "kind": args.kind,
        "unknowns_prefix": args.unknown_prefix,
        "equations": [str(p) for p in system],
    }
    _publish(args, payload)
    return 0


def _cmd_fingerprint(args) -> int:
    bundle = corpus.load_algebra(args.file)
    fp = morphisms.fingerprint(bundle)
    payload = {"file": str(args.file), "fingerprint": fp.to_dict()}
    _publish(args, payload)
    return 0


def _cmd_iso(args) -> int:
    first = corpus.load_algebra(args.first)
    second = corpus.load_algebra(args.second)
    grid = _parse_grid(args.grid, args.denominators)
    if first.kind != second.kind or first.dim != second.dim:
        payload = {"verdict": "distinct", "fingerprint_fields": ["kind-or-dimension"]}
    else:
        fp_a, fp_b = morphisms.fingerprint(first), morphisms.fingerprint(second)
        if fp_a != fp_b:
            payload = {
                "verdict": "distinct",
                "fingerprint_fields": fp_a.differing_fields(fp_b),
            }
        else:
            found = morphisms.brute_force_iso_search(first, second, grid)
            if found is not None:
                payload = {"verdict": "isomorphic", "matrix": matrix_rows(found)}
            else:
                payload = {"verdict": "unknown", "note": "no isomorphism within grid"}
    _publish(args, payload)
    return 0


def _cmd_corpus(args) -> int:
    root = Path(args.corpus) if args.corpus else None
    if args.action == "list":
        given = [f"--{name}" for name in ("report", "discrepancies", "sq15")
                 if getattr(args, name) is not None]
        if given:
            raise corpus.CorpusError(f"corpus list does not take {', '.join(given)}")
        for entry in corpus.list_entries(root):
            print(f"{entry['id']:32} {entry['type']:8} {entry['path']}")
        return 0
    report = corpus.corpus_verify_all(root=root, sq15=args.sq15 or SQ15_DEFAULT)
    if args.report:
        Path(args.report).write_text(corpus.report_to_json(report), encoding="utf-8")
    if args.discrepancies:
        Path(args.discrepancies).write_text(
            corpus.discrepancies_markdown(report), encoding="utf-8"
        )
    summary = report["summary"]
    print(
        f"{summary['total']} entries: {summary['pass']} pass, {summary['fail']} fail, "
        f"{len(summary['discrepancies'])} discrepanc"
        + ("y" if len(summary["discrepancies"]) == 1 else "ies")
    )
    for eid in summary["discrepancies"]:
        print(f"  discrepancy: {eid}")
    return 0 if not summary["discrepancies"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsplit",
        description="Exact symbolic verification workbench for Hom-type splitting algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--report", help="write the JSON report to this path")

    def add_grid(p):
        p.add_argument("--grid", default="-2..2", help="integer range lo..hi (default -2..2)")
        p.add_argument(
            "--denominators", default="1", help="comma-separated denominators (default 1)"
        )

    p = sub.add_parser("check", help="run the axiom checker matching a file's kind")
    p.add_argument("file")
    p.add_argument(
        "--multiplicative",
        action="store_true",
        help="also run the opt-in multiplicativity check (never folded into kind checks)",
    )
    # no default, so that a representation or action file can refuse the option
    p.add_argument(
        "--sq15",
        choices=SQ15_READINGS,
        help="reading of the ambiguous six-dendriform identity sq15",
    )
    add_report(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="run a structure-producing construction")
    p.add_argument("name", choices=list(CONSTRUCTIONS))
    p.add_argument("inputs", nargs="+", help="input algebra/representation/operator files")
    p.add_argument("-o", "--output", required=True, help="output algebra file")
    p.add_argument(
        "--force",
        action="store_true",
        help="build even when the precondition report fails (discrepancy hunting)",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify-op", help="verify an operator file against its context")
    p.add_argument("context", help="algebra/representation/action file")
    p.add_argument("operator", help="operator file {kind, matrix}")
    p.add_argument(
        "--strict-twist",
        action="store_true",
        help="require twist commutation even for operator kinds whose definition omits it",
    )
    add_report(p)
    p.set_defaults(func=_cmd_verify_op)

    p = sub.add_parser("solve-op", help="enumerate operator solutions over a rational grid")
    p.add_argument("context")
    p.add_argument("--kind", required=True, choices=sorted(operators.OPERATOR_KINDS))
    add_grid(p)
    p.add_argument("--strict-twist", action="store_true")
    add_report(p)
    p.set_defaults(func=_cmd_solve_op)

    p = sub.add_parser(
        "emit-system", help="emit the polynomial system cutting out an operator variety"
    )
    p.add_argument("context")
    p.add_argument("--kind", required=True)
    p.add_argument("--unknown-prefix", default="t", help="prefix of the unknown names tij")
    p.add_argument("--strict-twist", action="store_true")
    add_report(p)
    p.set_defaults(func=_cmd_emit_system)

    p = sub.add_parser("fingerprint", help="isomorphism-invariant fingerprint of an algebra")
    p.add_argument("file")
    add_report(p)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser(
        "iso", help="bounded isomorphism search over the grid matrices commuting with the twists"
    )
    p.add_argument("first")
    p.add_argument("second")
    add_grid(p)
    add_report(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("corpus", help="batch-verify the bundled corpus")
    p.add_argument("action", choices=["verify-all", "list"])
    p.add_argument("--corpus", help="corpus root directory (default: bundled)")
    # no default here, so that `corpus list` can refuse the option
    p.add_argument("--sq15", choices=SQ15_READINGS)
    p.add_argument(
        "--discrepancies", help="write the discrepancy summary markdown to this path"
    )
    add_report(p)
    p.set_defaults(func=_cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing leaves it as it
    was, and each call gets a fresh namespace filled from its defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
