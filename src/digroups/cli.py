"""Command line surface tying the library together.

Exit codes follow one contract everywhere: 0 for success or a true property,
1 for a false property (validation failed, not isomorphic, claim failed),
2 for usage or input errors.  Invoke as ``python -m digroups <command>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import fileio
from .tables import (
    DigroupError,
    DigroupTable,
    ValidationReport,
    builtin,
    is_commutative,
    is_group,
    liu_inverse_map,
    validate_digroup,
)

OK, PROPERTY_FALSE, USAGE_ERROR = 0, 1, 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise fileio.ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_lines(report: ValidationReport) -> list[str]:
    if report.ok:
        return ["ok"]
    lines = []
    for v in report.violations:
        extra = ""
        if v.lhs is not None or v.rhs is not None:
            extra = f" lhs={v.lhs} rhs={v.rhs}"
        lines.append(f"violation {v.law} witnesses={v.witnesses}{extra}")
    return lines


def _load_digroup(path: str) -> DigroupTable:
    return fileio.parse_digroup(_read(path))


def _load_valid_digroup(path: str) -> tuple[Optional[DigroupTable], int]:
    table = _load_digroup(path)
    report = validate_digroup(table)
    if not report.ok:
        for line in _report_lines(report):
            print(line)
        return None, PROPERTY_FALSE
    return table, OK


def _cmd_check(args) -> int:
    table = _load_digroup(args.file)
    report = validate_digroup(table)
    for line in _report_lines(report):
        print(line)
    return OK if report.ok else PROPERTY_FALSE


def _cmd_info(args) -> int:
    from .subdigroups import all_subdigroups

    table, code = _load_valid_digroup(args.file)
    if table is None:
        return code
    # The subset scan is the step that can refuse an order, so it runs
    # before any line is printed.
    subdigroups = all_subdigroups(table)
    liu = liu_inverse_map(table)
    print(f"order: {table.order}")
    print(f"identity: {table.label(table.identity)}")
    print(f"commutative: {is_commutative(table)}")
    print(f"group: {is_group(table)}")
    print(
        "liu_inverse: "
        + ", ".join(f"{table.label(x)}->{table.label(liu(x))}" for x in table.elements())
    )
    print(f"subdigroups: {len(subdigroups)}")
    return OK


def _cmd_subs(args) -> int:
    from .subdigroups import all_subdigroups

    table, code = _load_valid_digroup(args.file)
    if table is None:
        return code
    for mask in all_subdigroups(table):
        print("{" + ", ".join(table.label(x) for x in mask.sorted_members()) + "}")
    return OK


def _cmd_iso(args) -> int:
    from .morphisms import find_isomorphism

    t1, code = _load_valid_digroup(args.file1)
    if t1 is None:
        return code
    t2, code = _load_valid_digroup(args.file2)
    if t2 is None:
        return code
    mapping = find_isomorphism(t1, t2)
    if mapping is None:
        print("not isomorphic")
        return PROPERTY_FALSE
    print(
        ", ".join(f"{t1.label(x)}->{t2.label(mapping(x))}" for x in t1.elements())
    )
    return OK


def _cmd_embed(args) -> int:
    from .translations import cayley_embedding

    table, code = _load_valid_digroup(args.file)
    if table is None:
        return code
    prod = cayley_embedding(table)
    _write_out(fileio.serialize_embedding(prod), args.out)
    return OK


def _cmd_triple(args) -> int:
    from .triples import (
        TripleValidationError,
        digroup_from_triple,
        triple_from_digroup,
        validate_triple,
    )

    if args.action == "extract":
        table, code = _load_valid_digroup(args.file)
        if table is None:
            return code
        _write_out(fileio.serialize_triple(triple_from_digroup(table)), args.out)
        return OK
    triple = fileio.parse_triple(_read(args.file))
    if args.action == "check":
        report = validate_triple(triple)
        for line in _report_lines(report):
            print(line)
        return OK if report.ok else PROPERTY_FALSE
    try:
        table = digroup_from_triple(triple)
    except TripleValidationError as exc:
        print(str(exc))
        return PROPERTY_FALSE
    _write_out(fileio.serialize_digroup(table), args.out)
    return OK


def _cmd_enumerate(args) -> int:
    from .search import count_by_class, enumerate_digroups, naive_enumerate

    if args.naive:
        entries = naive_enumerate(args.order)
    else:
        entries = enumerate_digroups(args.order)
    if args.count_only:
        counts = count_by_class(entries)
        print(
            " ".join(
                f"{key}={counts[key]}"
                for key in ("total", "commutative", "groups", "non_group", "non_commutative")
            )
        )
        return OK
    _write_out("\n".join(fileio.catalog_lines(entries)) + "\n", args.out)
    return OK


def _cmd_claims(args) -> int:
    from .search import verify_classification_claims

    report = verify_classification_claims(through=args.through)
    for claim in report.claims:
        status = "PASS" if claim.passed else "FAIL"
        print(f"{claim.claim_id} {status} ({claim.runtime_s:.2f}s): {claim.expected}")
        print(f"   observed: {claim.observed}")
        if claim.entries:
            for entry in claim.entries:
                kind = "group" if entry.group else "non-group"
                print(f"   class: {kind}, subdigroups={entry.subdigroup_count}")
    return OK if report.ok else PROPERTY_FALSE


def _cmd_builtin(args) -> int:
    table = builtin(args.name)
    _write_out(fileio.serialize_digroup(table), args.out)
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digroups",
        description="Finite digroup toolkit: check, classify, embed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a digroup document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("info", help="order, commutativity, Liu inverses, subdigroup count")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("subs", help="list all subdigroups")
    p.add_argument("file")
    p.set_defaults(func=_cmd_subs)

    p = sub.add_parser("iso", help="search for an isomorphism between two digroups")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("embed", help="emit the translation product with the diagonal embedding")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("triple", help="standard triple workflows")
    p.add_argument("action", choices=("extract", "check", "build"))
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_triple)

    p = sub.add_parser("enumerate", help="classify digroups of one order up to isomorphism")
    p.add_argument("order", type=int)
    p.add_argument("--naive", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("claims", help="verify the small-order classification claims")
    p.add_argument("--through", type=int, default=6, help="largest order to enumerate")
    p.set_defaults(func=_cmd_claims)

    p = sub.add_parser("builtin", help="emit a builtin digroup document")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_builtin)

    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else OK
    try:
        return args.func(args)
    except (fileio.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
