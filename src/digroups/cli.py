"""Command line surface tying the library together.

Exit codes follow one contract everywhere: 0 for success or a true property,
1 for a false property (validation failed, not isomorphic, claim failed),
2 for usage or input errors.  A command that finds a property false prints
its evidence on stdout and raises ``_PropertyFalse``; exit 1 comes only from
``run_cli`` catching it, and no command returns a code.  Invoke as
``python -m digroups <command>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import fileio
from .tables import (
    ConstructionError,
    DigroupError,
    DigroupTable,
    UnsupportedOrderError,
    ValidationReport,
    builtin,
    is_commutative,
    is_group,
    liu_inverse_map,
    validate_digroup,
)

OK, PROPERTY_FALSE, USAGE_ERROR = 0, 1, 2
# find_isomorphism on Z2 x J with one against two pairs of J swapped, whose
# core element orders agree: 0.5 s at order 16, 5.4 s at 18, 59 s at 20
# (in-process, 2-vCPU host)
_ISO_CAP = 16


class _PropertyFalse(Exception):
    """The property a command decides is false; its evidence is on stdout."""


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


def _print_report(report: ValidationReport) -> None:
    """Print ``ok``, or one line per violation and raise _PropertyFalse."""
    if report.ok:
        print("ok")
        return
    for v in report.violations:
        extra = ""
        if v.lhs is not None or v.rhs is not None:
            extra = f" lhs={v.lhs} rhs={v.rhs}"
        print(f"violation {v.law} witnesses={v.witnesses}{extra}")
    raise _PropertyFalse


def _load_valid_digroup(path: str) -> DigroupTable:
    table = fileio.parse_digroup(_read(path))
    report = validate_digroup(table)
    if not report.ok:
        _print_report(report)
    return table


def _cmd_check(args) -> None:
    _print_report(validate_digroup(fileio.parse_digroup(_read(args.file))))


def _cmd_info(args) -> None:
    from .subdigroups import all_subdigroups

    table = _load_valid_digroup(args.file)
    # The subdigroup listing is the step that can refuse an order, so it runs
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


def _cmd_subs(args) -> None:
    from .subdigroups import all_subdigroups

    table = _load_valid_digroup(args.file)
    for mask in all_subdigroups(table):
        print("{" + ", ".join(table.label(x) for x in mask.sorted_members()) + "}")


def _cmd_iso(args) -> None:
    from .morphisms import find_isomorphism

    t1 = _load_valid_digroup(args.file1)
    t2 = _load_valid_digroup(args.file2)
    if t1.order == t2.order > _ISO_CAP:
        raise UnsupportedOrderError(f"iso supports order <= {_ISO_CAP}, got {t1.order}")
    mapping = find_isomorphism(t1, t2)
    if mapping is None:
        print("not isomorphic")
        raise _PropertyFalse
    print(
        ", ".join(f"{t1.label(x)}->{t2.label(mapping(x))}" for x in t1.elements())
    )


def _cmd_embed(args) -> None:
    from .translations import cayley_embedding

    table = fileio.parse_digroup(_read(args.file))
    try:
        prod = cayley_embedding(table)
    except ConstructionError:
        # The construction checks its source first, so only a source that is
        # no digroup is validated a second time, for its report.
        report = validate_digroup(table)
        if report.ok:  # a fault past the source check
            raise
        _print_report(report)  # raises _PropertyFalse
    _write_out(fileio.serialize_embedding(prod), args.out)


def _cmd_triple(args) -> None:
    from .triples import (
        TripleValidationError,
        digroup_from_triple,
        triple_from_digroup,
        validate_triple,
    )

    if args.action == "extract":
        triple = triple_from_digroup(_load_valid_digroup(args.file))
        _write_out(fileio.serialize_triple(triple), args.out)
        return
    triple = fileio.parse_triple(_read(args.file))
    if args.action == "check":
        _print_report(validate_triple(triple))
        return
    try:
        table = digroup_from_triple(triple)
    except TripleValidationError as exc:
        print(str(exc))
        raise _PropertyFalse from None
    _write_out(fileio.serialize_digroup(table), args.out)


def _cmd_enumerate(args) -> None:
    from .search import count_by_class, enumerate_digroups, naive_enumerate

    entries = (naive_enumerate if args.naive else enumerate_digroups)(args.order)
    if args.count_only:
        counts = count_by_class(entries)
        keys = ("total", "commutative", "groups", "non_group", "non_commutative")
        lines = [" ".join(f"{key}={counts[key]}" for key in keys)]
    else:
        lines = fileio.catalog_lines(entries)
    _write_out("\n".join(lines) + "\n", args.out)


def _cmd_claims(args) -> None:
    from .search import verify_classification_claims

    report = verify_classification_claims(through=args.through)
    for claim in report.claims:
        status = "PASS" if claim.passed else "FAIL"
        print(f"{claim.claim_id} {status} ({claim.runtime_s:.2f}s): {claim.expected}")
        print(f"   observed: {claim.observed}")
        for entry in claim.entries:
            kind = "group" if entry.group else "non-group"
            print(f"   class: {kind}, subdigroups={entry.subdigroup_count}")
    if not report.ok:
        raise _PropertyFalse


def _cmd_builtin(args) -> None:
    _write_out(fileio.serialize_digroup(builtin(args.name)), args.out)


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
        args.func(args)
    except _PropertyFalse:
        return PROPERTY_FALSE
    except (DigroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return OK
