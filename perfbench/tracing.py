"""Span tracing around calls into the digroups modules, from outside them.

A :class:`Tracer` replaces every name a digroups module binds to one of the
traced public functions with a wrapper that records a span: id, parent span,
the op (request) it belongs to, name, start, end, the order of the first
argument and one output size.  Because modules call each other through those
bound names (``search`` calls ``canonical_form`` through its own global, for
example), nested calls nest as spans.  Spans stay in memory; the benchmark
writes them out when it ends.  :func:`layer_metrics` turns one traced pass
into the per-layer numbers.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# Traced functions, as "<module>.<function>" under the digroups package.
TRACED = (
    "search.enumerate_digroups",
    "search.naive_enumerate",
    "morphisms.canonical_form",
    "morphisms.find_isomorphism",
    "morphisms.is_homomorphism",
    "tables.validate_digroup",
    "subdigroups.all_subdigroups",
    "subdigroups.is_subdigroup",
    "translations.translation_product_digroup",
    "translations.right_translation_product",
    "translations.cayley_embedding",
    "translations.verify_translation_identities",
    "triples.triple_from_digroup",
    "triples.validate_triple",
    "triples.digroup_from_triple",
    "fileio.parse_digroup",
    "fileio.parse_triple",
    "fileio.serialize_digroup",
    "fileio.serialize_embedding",
    "fileio.serialize_triple",
    "fileio.catalog_lines",
    "cli.run_cli",
)

_SERIALIZE = frozenset(
    (
        "fileio.serialize_digroup",
        "fileio.serialize_embedding",
        "fileio.serialize_triple",
        "fileio.catalog_lines",
    )
)
_PARSE = frozenset(("fileio.parse_digroup", "fileio.parse_triple"))
_PRODUCTS = frozenset(
    ("translations.translation_product_digroup", "translations.right_translation_product")
)


_UNITS = {
    "calls": "count",
    "raw_solutions": "count",
    "classes": "count",
    "useful_ratio": "ratio",
    "ms_p50": "ms",
    "us_per_call_small": "us",
    "mtriples_per_s_large": "Mtriples/s",
    "product_cells": "count",
    "bytes": "bytes",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric; times are in seconds."""
    for part in reversed(name.split(".")):
        if part in _UNITS:
            return _UNITS[part]
    return "s"


class Span(NamedTuple):
    sid: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    n: int  # order of the first argument (or the int argument), else 0
    out: int  # classes found, product order, or text length; else 0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _order_of(args) -> int:
    if not args:
        return 0
    a = args[0]
    if isinstance(a, int):
        return a
    for attr in ("order", "carrier_size"):
        v = getattr(a, attr, None)
        if isinstance(v, int):
            return v
    return 0


def _out_of(name: str, args, result) -> int:
    if name == "search.enumerate_digroups":
        return len(result)
    if name in _PRODUCTS:
        return result.table.order
    if name in _PARSE:
        return len(args[0].encode("utf-8"))
    if name == "fileio.catalog_lines":
        return sum(len(line.encode("utf-8")) + 1 for line in result)
    if name in _SERIALIZE:
        return len(result.encode("utf-8"))
    return 0


class Tracer:
    """Installs span-recording wrappers into the digroups modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 1
        self._patched: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        sid = self._next
        self._next += 1
        return sid

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1] if stack else 0
            op = stack[0] if stack else sid
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                out = 0 if result is None else _out_of(name, args, result)
                spans.append(Span(sid, parent, op, name, start, end, _order_of(args), out))

        return traced

    def install(self) -> None:
        targets = {}
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            fn = getattr(sys.modules["digroups." + mod_name], fn_name)
            targets[id(fn)] = (qual, fn)
        wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "digroups" and not mod_name.startswith("digroups."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and targets[id(value)][1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def op(self, name: str):
        """A root span for one op; spans inside it share its id as op id."""
        sid = self._new_id()
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, 0, sid, "op." + name, start, end, 0, 0))


def layer_metrics(spans: list[Span], cli_startup_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (its CLI replay included)."""
    child = defaultdict(float)
    names = {}
    for s in spans:
        child[s.parent] += s.dur
        names[s.sid] = s.name
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name, pred=lambda s: True):
        return sum((s.dur - child[s.sid] for s in by_name[name] if pred(s)), 0.0)

    def total_s(name):
        return sum((s.dur for s in by_name[name]), 0.0)

    def outer(group):
        return [s for s in spans if s.name in group and names.get(s.parent) not in group]

    o8 = {s.sid for s in by_name["search.enumerate_digroups"] if s.n == 8}
    raw_o8 = sum(1 for s in by_name["tables.validate_digroup"] if s.parent in o8)
    classes_o8 = sum(s.out for s in by_name["search.enumerate_digroups"] if s.n == 8)
    canon = [s.dur for s in by_name["morphisms.canonical_form"]]
    validate = by_name["tables.validate_digroup"]
    small = [s.dur for s in validate if s.n <= 8]
    large = [s for s in validate if s.n >= 64]
    large_s = sum(s.dur for s in large)
    io_spans = outer(_SERIALIZE | _PARSE)

    return {
        "search.self_s.o7": self_s("search.enumerate_digroups", lambda s: s.n == 7),
        "search.self_s.o8": self_s("search.enumerate_digroups", lambda s: s.n == 8),
        "search.raw_solutions.o8": raw_o8,
        "search.classes.o8": classes_o8,
        "search.useful_ratio.o8": classes_o8 / raw_o8 if raw_o8 else 0.0,
        "search.naive_enumerate.self_s": self_s("search.naive_enumerate"),
        "morphisms.canonical_form.calls": len(canon),
        "morphisms.canonical_form.s": sum(canon, 0.0),
        "morphisms.canonical_form.ms_p50": statistics.median(canon) * 1e3 if canon else 0.0,
        "morphisms.find_isomorphism.calls": len(by_name["morphisms.find_isomorphism"]),
        "morphisms.find_isomorphism.s": total_s("morphisms.find_isomorphism"),
        "morphisms.is_homomorphism.s": total_s("morphisms.is_homomorphism"),
        "tables.validate_digroup.calls": len(validate),
        "tables.validate_digroup.s": total_s("tables.validate_digroup"),
        "tables.validate_digroup.us_per_call_small": (
            statistics.median(small) * 1e6 if small else 0.0
        ),
        "tables.validate_digroup.mtriples_per_s_large": (
            sum(s.n**3 for s in large) / large_s / 1e6 if large_s else 0.0
        ),
        "subdigroups.all_subdigroups.calls": len(by_name["subdigroups.all_subdigroups"]),
        "subdigroups.all_subdigroups.s": total_s("subdigroups.all_subdigroups"),
        "subdigroups.is_subdigroup.s": total_s("subdigroups.is_subdigroup"),
        "translations.translation_product_digroup.self_s": self_s(
            "translations.translation_product_digroup"
        ),
        "translations.right_translation_product.self_s": self_s(
            "translations.right_translation_product"
        ),
        "translations.verify_translation_identities.s": total_s(
            "translations.verify_translation_identities"
        ),
        "translations.product_cells": sum(
            2 * s.out * s.out for name in _PRODUCTS for s in by_name[name]
        ),
        "triples.triple_from_digroup.s": total_s("triples.triple_from_digroup"),
        "triples.validate_triple.s": total_s("triples.validate_triple"),
        "triples.digroup_from_triple.self_s": self_s("triples.digroup_from_triple"),
        "fileio.parse_digroup.s": total_s("fileio.parse_digroup"),
        "fileio.serialize.s": sum((s.dur for s in io_spans if s.name in _SERIALIZE), 0.0),
        "fileio.bytes": sum(s.out for s in io_spans),
        "cli.run_cli.s": total_s("cli.run_cli"),
        "cli.startup_s": cli_startup_s,
    }
