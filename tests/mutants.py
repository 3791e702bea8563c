"""Mutation checks: each row is one known fault, and the tests it names must
catch it.

For each row the runner copies src/, tests/, pyproject.toml and the reference
catalog into a temporary directory, replaces the row's exact old text with its
new text in one file, and runs pytest on the row's tests with the row's
timeout (TIMEOUT seconds unless the row gives its own).  A failing run or a
timeout kills the mutant; a passing run lets it survive.  A run in which
pytest finds no named test (exit 4) or selects none (exit 5) tests nothing,
so the row is broken.
Rows marked equivalent change no behaviour the tests can see and are expected
to survive; each gives the reason.

The run fails (exit 1) if a row's old text is not found exactly once, if a
row is broken, if a mutant that is not marked equivalent survives, or if one
that is marked equivalent is killed.  A refactor that moves the code must move its rows.

    python tests/mutants.py

Pytest does not collect this file.  It uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MORPHISMS = "src/digroups/morphisms.py"
SEARCH = "src/digroups/search.py"
TABLES = "src/digroups/tables.py"
TRIPLES = "src/digroups/triples.py"
TIMEOUT = 60.0
WALKER_TESTS = (
    "tests/test_search.py::test_lex_cut_from_the_root_cuts_where_a_whole_relabeling_reads_below",
    "tests/test_search.py::test_complete_table_decision_matches_brute_force",
    "tests/test_search.py::test_complete_table_pruning_counts_are_pinned",
    "tests/test_search.py::test_search_node_counts_are_pinned",
    "tests/test_search.py::test_unpruned_search_matches_orbit_stabilizer_counts",
    "tests/test_morphisms.py",
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str
    equivalent: bool = False
    timeout: float = TIMEOUT


MUTANTS = (
    Mutant(
        "walker: the uniform-image test accepts a non-uniform cell",
        MORPHISMS,
        "return (images.pop() if len(images) == 1 else -1), live",
        "return (max(images) if -1 not in images else -1), live",
        WALKER_TESTS,
        "a cell whose image depends on the relabeling is compared as one image",
    ),
    Mutant(
        "walker: an unpinned operand's value takes the other operand's label",
        MORPHISMS,
        "img = x if raw == u else y if raw == w else -1",
        "img = y if raw == u else x if raw == w else -1",
        WALKER_TESTS,
        "the uniform image of a value that is its own operand is mislabelled",
    ),
    Mutant(
        "walker: an unknown cell stops the whole node",
        MORPHISMS,
        "            if raw < 0:\n                images.add(-1)\n                continue",
        "            if raw < 0:\n                return -1, {}",
        WALKER_TESTS,
        "the cut misses relabelings that read below past another's unknown cell",
    ),
    Mutant(
        "walker: the least free label is off by one",
        MORPHISMS,
        "img = inv.index(_FREE)",
        "img = inv.index(_FREE) + 1",
        WALKER_TESTS,
        "an unpinned value is compared one label too high",
    ),
    Mutant(
        "walker: the least image a child may give is one higher",
        MORPHISMS,
        "least = inv.index(_FREE)",
        "least = inv.index(_FREE) + 1",
        WALKER_TESTS,
        "the walk branches only on the least free label (a lower free label met "
        "the same candidates at an earlier cell, where they were uniform), so in "
        "a child an unpinned value that is no operand gets at least the next one",
        equivalent=True,
    ),
    Mutant(
        "walker: a child that may only tie is left unvisited",
        MORPHISMS,
        "if (least if img < 0 else img) <= cur:",
        "if (least if img < 0 else img) < cur:",
        WALKER_TESTS,
        "relabelings that tie the cell are dropped, and with them automorphisms "
        "and reads below at later cells",
    ),
    Mutant(
        "walker: a relabeling that reads above goes on",
        MORPHISMS,
        "            return fwd if img < cur else None\n        pos += 1",
        "            if img < cur:\n                return fwd\n        pos += 1",
        WALKER_TESTS,
        "relabelings that do not tie are walked on and recorded as automorphisms",
    ),
    Mutant(
        "walker: a value read below at is not pinned first",
        MORPHISMS,
        "                if img <= cur:",
        "                if img == cur:",
        ("tests/test_morphisms.py",),
        "the completion of the returned node may not read below; the descent can hang",
        # The unmutated tests take seconds; the mutant hangs in the descent.
        timeout=15.0,
    ),
    Mutant(
        "walker: the free block records only the transposition",
        MORPHISMS,
        "autos.extend((bytes(swap) + tail, bytes(cycle) + tail))",
        "autos.append(bytes(swap) + tail)",
        WALKER_TESTS,
        "Sym(F) is not generated when |F| > 2",
    ),
    Mutant(
        "walker: every recorded automorphism is a generator, not only those fixing the pins",
        MORPHISMS,
        "gens = [a for a in autos if inv.translate(a) == inv]",
        "gens = autos",
        WALKER_TESTS,
        "siblings are skipped by automorphisms that move a pinned element",
    ),
    Mutant(
        "walker: refuted children are not closed under the automorphisms",
        MORPHISMS,
        "        if gens:\n            _close(refuted, lambda w: [a[w] for a in gens])",
        "",
        (
            "tests/test_search.py::test_complete_table_pruning_counts_are_pinned",
            "tests/test_morphisms.py::test_canonical_form_branch_counts_are_pinned",
        ),
        "no sibling is skipped, so only the pinned branch counts can see it",
    ),
    Mutant(
        "walker: completions take the free labels in descending order",
        MORPHISMS,
        "labels = iter(sorted(set(range(len(fwd))).difference(fwd)))",
        "labels = iter(sorted(set(range(len(fwd))).difference(fwd), reverse=True))",
        WALKER_TESTS,
        "every completion of a returned node reads below, and every completion "
        "of a tied node is an automorphism, so the outputs stay; the descent "
        "takes another path, which only the pinned branch counts see",
    ),
    Mutant(
        "canonical: G is closed with the newest generator only",
        MORPHISMS,
        "_close(ties, lambda p: map(p.translate, gens))",
        "_close(ties, lambda p: map(p.translate, gens[-1:]))",
        ("tests/test_morphisms.py",),
        "the automorphisms listed are not closed under the older generators",
    ),
    Mutant(
        "canonical: G is not closed",
        MORPHISMS,
        "_close(ties, lambda p: map(p.translate, gens))",
        "ties.update(c.translate(g) for g in gens)",
        ("tests/test_morphisms.py",),
        "only the generators' images are listed as automorphisms",
    ),
    Mutant(
        "search: the cut explores only the first live child",
        MORPHISMS,
        "    for u in live:",
        "    for u in list(live)[:1]:",
        (
            "tests/test_search.py::test_search_node_counts_are_pinned",
            "tests/test_search.py::test_search_emits_canonical_tables_in_order",
        ),
        "the search keeps tables that another relabeling reads below",
    ),
    Mutant(
        "search: no bijection cut",
        SEARCH,
        "            if used[ln] & bit:\n                return False",
        "            if False:\n                return False",
        ("tests/test_search.py::test_search_node_counts_are_pinned",),
        "a repeated value in a ⇀ column or a ↼ row is searched on",
    ),
    Mutant(
        "search: the row-e seeds run j ascending",
        SEARCH,
        "for j in range(n, 0, -1):",
        "for j in range(1, n + 1):",
        ("tests/test_search.py::test_search_emits_canonical_tables_in_order",),
        "a larger fiber size gives a smaller row e, so the tables come out in "
        "decreasing key order",
    ),
    Mutant(
        "search: the groups' seed j = 1 is skipped",
        SEARCH,
        "for j in range(n, 0, -1):",
        "for j in range(n, 1, -1):",
        ("tests/test_search.py::test_catalogs_equal_the_reference_catalog",),
        "every class with J = {e}, each group, is lost",
    ),
    Mutant(
        "search: no cut after the row-e seed",
        SEARCH,
        " and (\n                _reads_below(self.val, self.bcells, self.bkeys, n, []) is None\n"
        "            ):",
        ":",
        (
            "tests/test_search.py::test_search_node_counts_are_pinned",
            "tests/test_search.py::test_search_emits_canonical_tables_in_order",
            "tests/test_search.py::test_catalogs_9_and_10_are_byte_stable",
        ),
        "the seeded row is the lex-least row e, and this cut never cuts at "
        "orders 1-12 (same tables and node counts, one cut call fewer per "
        "divisor); a table that propagation completes from the seed alone is "
        "the one digroup with that row e, so it is its own canonical form",
        equivalent=True,
    ),
    Mutant(
        "naive oracle: the skip tests DIASSOC_4 with ⇀ standing in for ↼",
        SEARCH,
        "return any(_diassoc_violations((left,), (0,)))",
        "return any(_diassoc_violations((left, left), (3,)))",
        ("tests/test_search.py",),
        "DIASSOC_4 holds on (⇀, ⇀), so no ⇀ table is skipped; only the pinned "
        "engine calls see it",
    ),
    Mutant(
        "naive oracle: the skip tests DIASSOC_5 with ⇀ standing in for ↼",
        SEARCH,
        "return any(_diassoc_violations((left,), (0,)))",
        "return any(_diassoc_violations((left, left), (4,)))",
        ("tests/test_search.py",),
        "on (⇀, ⇀) DIASSOC_5 is also the associativity of ⇀, so the same ⇀ "
        "tables are skipped",
        equivalent=True,
    ),
    Mutant(
        "law table: DIASSOC_2's nested side reads ↼ for its outer ⇀",
        TABLES,
        '("(x⇀y)⇀z", "x⇀(y↼z)"),',
        '("(x⇀y)⇀z", "x↼(y↼z)"),',
        ("tests/test_tables.py::test_validator_agrees_with_a_loop_oracle",),
        "the validator compares (x⇀y)⇀z with x↼(y↼z), which read x and z in "
        "M, so it reports M broken",
    ),
    Mutant(
        "law table: DIASSOC_2's nested side reads ↼ for its outer ⇀ (catalogs)",
        TABLES,
        '("(x⇀y)⇀z", "x⇀(y↼z)"),',
        '("(x⇀y)⇀z", "x↼(y↼z)"),',
        ("tests/test_search.py::test_catalogs_equal_the_reference_catalog",),
        "the search builds its constraints from the same wrong side and loses "
        "every class that is not a group, which the re-check, reading the same "
        "table, cannot see",
    ),
    Mutant(
        "search: an instance is built from a nested side first",
        SEARCH,
        "laws = [sorted(law, key=lambda s: s[0]) for law in _DIASSOC]",
        "laws = [sorted(law, key=lambda s: not s[0]) for law in _DIASSOC]",
        ("tests/test_search.py::test_search_node_counts_are_pinned",),
        "a nested side's outer cell steps by 1, not n, as its inner value grows, "
        "so the instance ties the wrong cells",
    ),
    Mutant(
        "validator: the witness index arithmetic",
        TABLES,
        "y, z = divmod(i, n)",
        "z, y = divmod(i, n)",
        ("tests/test_tables.py",),
        "a diassociativity witness names y and z swapped",
    ),
    Mutant(
        "liu scan: accepts a y with x↼y = e without checking y⇀x = e",
        TABLES,
        "            while left[y][x] != e:",
        "            while False:",
        ("tests/test_tables.py",),
        "the first e in row x of ↼ is taken as the Liu inverse, so the validator "
        "misses INVERSE_MISSING and the Liu map returns a wrong inverse",
    ),
    Mutant(
        "pair table: second rows are shifted by t * g, not t * s",
        TABLES,
        "kind(map((t * s).__add__, row))",
        "kind(map((t * g).__add__, row))",
        ("tests/test_tables.py::test_pair_table_equals_a_per_cell_reference",),
        "a cell's first component is scaled by the wrong factor when g != s",
    ),
    Mutant(
        "pair table: product rows run j-major",
        TABLES,
        "            for row in first\n            for copies in shifted",
        "            for copies in shifted\n            for row in first",
        ("tests/test_tables.py::test_pair_table_equals_a_per_cell_reference",),
        "row (i, j) is built at index j * g + i, not i * s + j",
    ),
    Mutant(
        "byte rows: the boundary is one order too high",
        TABLES,
        "_BYTE_ORDER = 256",
        "_BYTE_ORDER = 257",
        ("tests/test_tables.py", "-k", "past_order_256"),
        "an order-257 table holds the entry 256, which no byte string can",
    ),
    Mutant(
        "byte rows: the boundary is one order too low",
        TABLES,
        "_BYTE_ORDER = 256",
        "_BYTE_ORDER = 255",
        ("tests/test_tables.py", "-k", "past_order_256"),
        "order-256 tables take the per-cell path, which builds, relabels and "
        "refuses exactly as the byte path does, only more slowly",
        equivalent=True,
    ),
    Mutant(
        "reindex: the columns are picked in sorted order",
        TABLES,
        "join([flat[b::n] for b in members])",
        "join([flat[b::n] for b in sorted(members)])",
        ("tests/test_tables.py::test_relabel_equals_a_per_cell_reference",),
        "a relabelled table keeps the old column order",
    ),
    Mutant(
        "reindex: the identity keeps its old index",
        TABLES,
        "(e,) = relabel(kind((table.identity,)))",
        "e = table.identity",
        ("tests/test_tables.py::test_relabel_equals_a_per_cell_reference",),
        "a relabelled table's identity points at another element",
    ),
    Mutant(
        "reindex: a non-member is relabelled 255",
        TABLES,
        "code = bytearray(256)",
        'code = bytearray(b"\\xff" * 256)',
        ("tests/test_tables.py", "tests/test_subdigroups.py", "tests/test_morphisms.py"),
        "restrict refuses a subset that is not closed before it re-indexes, and "
        "every other caller passes a relabeling or a closed set, so no product "
        "outside the members is relabelled",
        equivalent=True,
    ),
    Mutant(
        "restrict: no closure check",
        "src/digroups/subdigroups.py",
        "    if _closure(table, h) != h:\n        raise",
        "    if False:\n        raise",
        ("tests/test_tables.py", "-k", "not_closed"),
        "a subset that is not closed is re-indexed, its outside products "
        "relabelled into it, and a table is returned",
    ),
    Mutant(
        "restrict: the closure check is skipped from order 256 on",
        "src/digroups/subdigroups.py",
        "    if _closure(table, h) != h:",
        "    if table.order < 256 and _closure(table, h) != h:",
        ("tests/test_tables.py", "-k", "past_order_256"),
        "in Z256 restricted to 0..254 the product 1 + 254 = 255 is relabelled "
        "0 and a table is returned; in Z257 the position dict raises KeyError",
    ),
    Mutant(
        "range check: an entry equal to the order passes",
        TABLES,
        "valid = bytes(range(n)) if small else frozenset(range(n))",
        "valid = bytes(range(n + 1)) if small else frozenset(range(n + 1))",
        ("tests/test_tables.py::test_range_error_text_at_the_first_and_last_cell",),
        "a table with an entry n is accepted",
    ),
    Mutant(
        "range check: the valid set is built before the row count is checked",
        TABLES,
        "    rows = tuple(rows)\n    if len(rows) != n:",
        "    rows = tuple(rows)\n    frozenset(range(n))\n    if len(rows) != n:",
        ("tests/test_budgets.py", "-k", "huge_order"),
        "a document that claims a huge order over one row fills memory",
    ),
    Mutant(
        "integer check: table cells are truncated",
        TABLES,
        "cells = bytes(row) if small else tuple(map(index, row))",
        "cells = bytes(map(int, row)) if small else tuple(map(int, row))",
        ("tests/test_tables.py", "-k", "non_integer"),
        "0.5 is read as 0 and '1' as 1, as int() reads them",
    ),
    Mutant(
        "integer check: index vectors are truncated",
        TABLES,
        "return tuple(map(index, values))",
        "return tuple(map(int, values))",
        ("tests/test_records.py", "-k", "reject_bad_input"),
        "a Mapping image, a transform row, left_inverse or phi takes 0.5 as 0",
    ),
    Mutant(
        "integer check: an int row is read as a length",
        TABLES,
        "if type(row) not in _ROW_TYPES:",
        "if False:",
        ("tests/test_tables.py", "-k", "any_iterable_type"),
        "bytes(k) of an int row k is k zero bytes, so a table given a number "
        "for a row is accepted",
    ),
    Mutant(
        "subdigroups: NextClosure accepts a candidate that adds an element above i",
        "src/digroups/subdigroups.py",
        "if all(x <= i or x in closed for x in candidate):",
        "if True:",
        ("tests/test_subdigroups.py",),
        "the listing jumps from a closed set to the first candidate, skipping "
        "subdigroups and leaving ascending mask order",
    ),
    Mutant(
        "subdigroups: is_subdigroup has no nonempty check",
        "src/digroups/subdigroups.py",
        "return bool(h) and generated_subdigroup(table, h).members == h",
        "return generated_subdigroup(table, h).members == h",
        (
            "tests/test_subdigroups.py"
            "::test_a_table_without_a_liu_inverse_is_refused_before_any_closure",
        ),
        "the closure of the empty set is {e}, so the answer stays False, but "
        "the Liu-inverse scan now runs first and refuses a table that lacks "
        "an inverse",
    ),
    Mutant(
        "subdigroups: the closure is seeded without e",
        "src/digroups/subdigroups.py",
        "found = set(seed) | {table.identity}",
        "found = set(seed)",
        ("tests/test_subdigroups.py",),
        "the empty seed generates the empty set, and in a trivial digroup a "
        "set without e is listed as closed",
    ),
    Mutant(
        "translations: swapped first-component tables",
        "src/digroups/translations.py",
        "_pair_table(mixed_t, second_t, first_t, first_t, unit)",
        "_pair_table(second_t, mixed_t, first_t, first_t, unit)",
        ("tests/test_translations.py",),
        "the right translation product's two products trade first components",
    ),
    Mutant(
        "translations: reordered pair labels",
        "src/digroups/translations.py",
        "pair_labels = tuple((i, j) for i in range(len(first)) for j in range(s))",
        "pair_labels = tuple((i, j) for j in range(s) for i in range(len(first)))",
        ("tests/test_translations.py",),
        "pair labels no longer follow the index i * |second| + j",
    ),
    Mutant(
        "translations: no injectivity check",
        "src/digroups/translations.py",
        "if len(set(prod.eta.image)) != source.order:",
        "if False:",
        ("tests/test_translations.py",),
        "a collapsed embedding is accepted",
    ),
    Mutant(
        "translations: no subdigroup check",
        "src/digroups/translations.py",
        "if not is_subdigroup(prod.table, prod.diagonal):",
        "if False:",
        ("tests/test_translations.py",),
        "a diagonal that is not a subdigroup is accepted",
    ),
    Mutant(
        "triples: a closure law reports the last missing composite",
        TRIPLES,
        "return next(((i, row.index(None)) for i, row in enumerate(table) if None in row), None)",
        "return next(((i, len(row) - 1 - row[::-1].index(None))\n"
        "                 for i, row in reversed(list(enumerate(table))) if None in row), None)",
        ("tests/test_triples.py",),
        "GROUP_CLOSURE, SEMI_CLOSURE and PHI_ABSORB name the lexicographically "
        "last witness, not the first",
    ),
    Mutant(
        "translations: the source of a product is not checked",
        "src/digroups/translations.py",
        "        ensure_valid(source)\n",
        "        pass\n",
        ("tests/test_translations.py::test_no_invalid_source_yields_a_product",),
        "a product is built for a source that is no digroup, and nothing "
        "else checks that the product is one",
    ),
    Mutant(
        "translations: a product is built before its source is checked",
        "src/digroups/translations.py",
        "    try:\n        ensure_valid(source)\n",
        "    build()\n    try:\n        ensure_valid(source)\n",
        ("tests/test_translations.py::test_no_invalid_source_yields_a_product",),
        "the builder trusts its caller, so a source that is no digroup reaches "
        "it and is refused, if at all, in the builder's words",
    ),
    Mutant(
        "cli: embed validates its source before the construction does",
        "src/digroups/cli.py",
        "        prod = cayley_embedding(table)",
        "        prod = cayley_embedding(_load_valid_digroup(args.file))",
        ("tests/test_cli.py::test_embed_validates_its_source_once",),
        "a valid source is validated twice",
    ),
    Mutant(
        "subdigroups: subset members are read with int()",
        "src/digroups/subdigroups.py",
        'frozenset(_integers(self.members, "subset members"))',
        "frozenset(map(int, self.members))",
        ("tests/test_records.py::test_validating_classes_reject_bad_input",),
        "0.9 reads as the identity and the string 1 as element 1",
    ),
    Mutant(
        "triples: a triple that fails validation is built",
        TRIPLES,
        "    if not report.ok:\n        raise TripleValidationError(",
        "    if False:\n        raise TripleValidationError(",
        ("tests/test_triples.py",),
        "the table of a triple that is no standard triple is returned unchecked",
    ),
    Mutant(
        "triples: the pair table's identity has its components swapped",
        TRIPLES,
        "return _pair_table(first, first, second, mixed, (ident, right_unit))",
        "return _pair_table(first, first, second, mixed, (right_unit, ident))",
        (
            "tests/test_translations.py::test_products_of_digroups_pass_the_axiom_check",
            "tests/test_triples.py::test_every_triple_that_passes_builds_a_digroup",
        ),
        "the identity is (right unit, identity transform), which the product "
        "check on the built tables refuses wherever the two indices differ",
    ),
    Mutant(
        "parser: a JSON boolean passes as an integer entry",
        "src/digroups/fileio.py",
        "_INTS = frozenset({int})",
        "_INTS = frozenset({int, bool})",
        ("tests/test_fileio.py", "-k", "booleans or no_integer"),
        "a document with true or false in a table row or a vector is read",
    ),
    Mutant(
        "claims: M is compared without canonicalising the entry",
        SEARCH,
        "canonical_form(entry.canonical).table == canonical_form(ref).table",
        "entry.canonical == canonical_form(ref).table",
        ("tests/test_search.py",),
        "a relabelled M or N is not recognised",
    ),
    Mutant(
        "claims: C1 is dropped from C2's pass",
        SEARCH,
        "return observed, m_found and claims[0].passed",
        "return observed, m_found",
        ("tests/test_search.py",),
        "C2 passes on a catalog whose order 1 is wrong",
    ),
    Mutant(
        "records: equality accepts a record of another class",
        TABLES,
        "if other.__class__ is self.__class__:",
        "if isinstance(other, _Record):",
        ("tests/test_records.py",),
        "two record classes with equal fields compare equal",
    ),
    Mutant(
        "records: the hash skips the first field",
        TABLES,
        "return hash(self._values(self))",
        "return hash(self._values(self)[1:])",
        ("tests/test_records.py",),
        "records that differ only in their first field share a hash, and "
        "no hash equals the frozen dataclass's",
    ),
    Mutant(
        "records: assignment to a field goes through",
        TABLES,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "_set(self, name, value)",
        ("tests/test_records.py",),
        "a record is mutable, so its hash can change while it sits in a set",
    ),
    Mutant(
        "budgets: a 40 MiB cap on info",
        "tests/test_budgets.py",
        '(["info", "trivial16.json"], 0, 10, 256)',
        '(["info", "trivial16.json"], 0, 10, 40)',
        ("tests/test_budgets.py", "-k", "info"),
        "the address-space cap is applied to the command",
    ),
    Mutant(
        "budgets: a 0.5 s budget on subs",
        "tests/test_budgets.py",
        '(["subs", "trivial16.json"], 0, 10, 256)',
        '(["subs", "trivial16.json"], 0, 0.5, 256)',
        ("tests/test_budgets.py", "-k", "subs"),
        "the time budget is applied to the command",
    ),
)


def _copy(dest: Path) -> None:
    for folder in ("src", "tests"):
        shutil.copytree(
            ROOT / folder, dest / folder, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "pyproject.toml", dest)
    (dest / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "catalog_1_8.jsonl", dest / "perfbench")


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'missing' (the old text is not found once) or
    'broken' (pytest ran no test: a named test is not found or none is
    selected)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        target = dest / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "missing"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        proc = subprocess.Popen(
            [*argv, *mutant.tests],
            cwd=dest,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=mutant.timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "killed"
        if code in (4, 5):
            return "broken"
        return "survived" if code == 0 else "killed"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        ok = verdict == expected
        bad += not ok
        mark = "ok " if ok else "BAD"
        print(f"{mark} {verdict:8} {time.perf_counter() - start:6.1f} s  {mutant.name}")
        if not ok or mutant.equivalent:
            print(f"      {mutant.why}")
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
