"""Exhaustive classification of digroups of a given order up to isomorphism.

The propagating enumerator fills the 2n² table cells with the identity fixed
at index 0.  Bar-unit cells are pre-seeded: column e of the left table is the
identity column, row e of the right table the identity row, and column e of
the right table is tied cell-by-cell to row e of the left table, which is
seeded whole once per fiber size (below).  Every diassociativity instance
links the two inner-product cells of a triple (x, y, z) to its two outer
cells; once both inner products are known the outer cells must agree, which
assigns a value, detects a conflict, or records an equality edge between two
still-open cells.  Partial assignments that are
lexicographically above one of their identity-fixing relabelings are cut.

The axioms also force two families of bijections.  Given y, take its Liu
inverse u, so u⇀y = e = y↼u.
- Each column of ⇀ is a bijection: (x⇀y)⇀u = x⇀(y↼u) = x⇀e = x by
  DIASSOC_2, so x ↦ x⇀y has the left inverse w ↦ w⇀u.
- Each row of ↼ is a bijection: u↼(y↼x) = (u↼y)↼x by DIASSOC_5,
  = (u⇀y)↼x by DIASSOC_4, = e↼x = x, so x ↦ y↼x has the left inverse
  w ↦ u↼w.
A partial table that repeats a value in a ⇀ column or a ↼ row therefore
cannot complete, and the search refuses any such assignment.  This cuts no
digroup, so the catalogs are unchanged.

No Liu-inverse cut is needed either: every leaf has them.  At a leaf each
⇀ column and ↼ row is a bijection and every law instance has fired.  Given
x, let u be the element with x↼u = e.  Then x↼(e⇀u) = (x↼e)⇀u by
DIASSOC_3, = (e⇀x)⇀u by the bar-unit swap, = e⇀(x↼u) by DIASSOC_2, = e;
row x of ↼ is a bijection, so e⇀u = u.  The y with y⇀x = e then satisfies
y = y⇀(x↼u) = (y⇀x)⇀u = e⇀u = u by DIASSOC_2, so u is the Liu inverse of
x.  _entries_from_solutions still re-validates every emitted table.

Row e of ⇀ is seeded whole, once per fiber size.  Let E = {e⇀x} be the
group core, J = {x : e⇀x = e} and j = |J|; the fiber of g in E is
{y : e⇀y = g}.
- e⇀· is idempotent: e⇀(e⇀y) = (e⇀e)⇀y = e⇀y by DIASSOC_1 and e⇀e = e.  So
  each g in E lies in its own fiber, and the fibers partition the carrier.
- x⇀y = x⇀(e⇀y), since x⇀(e⇀y) = (x⇀e)⇀y by DIASSOC_1 and x⇀e = x.
- Let g be in E.  For x in J, e⇀(g↼x) = (e⇀g)⇀x = g⇀x by DIASSOC_2, and
  g⇀x = g⇀(e⇀x) = g⇀e = g, so x ↦ g↼x maps J into the fiber of g,
  one-to-one since row g of ↼ is a bijection.  Let ǧ be the Liu inverse of
  g.  For z in the fiber of g, e⇀(ǧ↼z) = (e⇀ǧ)⇀z by DIASSOC_2,
  = (e⇀ǧ)⇀(e⇀z) = (e⇀ǧ)⇀g, = e⇀(ǧ⇀g) = e⇀e = e by DIASSOC_1, so
  z ↦ ǧ↼z maps the fiber of g one-to-one into J, row ǧ of ↼ being a
  bijection.
So every fiber has j elements, and j divides n.  A relabeling of a digroup
is a digroup with the same j, so its row e, R, has these properties too.
Let r(y) = y − y % j.  If R ≠ r, let y = kj + i (0 ≤ i < j) be the first
position where they differ.  The labels below kj fill the fibers of 0, j,
…, (k−1)j, which are then full, and the i labels kj, …, y − 1 map to kj.
R(y) is in the core, so it is a label v with R(v) = v.  If v < y, then
v = R(v) = r(v) is a multiple of j at most kj.  It is not below kj, whose
fibers are full, and v = kj (so i > 0) would give R(y) = kj = r(y).  So
R(y) = v ≥ y ≥ r(y), and R(y) > r(y): r is the lex-least row e over all
identity-fixing relabelings.  It is attained by labelling the core
elements 0, j, 2j, …, e first, and each fiber with the j labels from its
core element's on.  Row e of ⇀ is the first row of the key, so every
canonical table has row e equal to r, for its own j.  The search runs once
per divisor j of n: it seeds row e with r, cuts, and branches on the rest.
No class is lost, and the leaf check still keeps exactly the canonical
tables.

The seeded cells agree with their image under every identity-fixing
relabeling, so comparing the open cells in canonical-key order is comparing
whole flattened tables.  After each assignment the cut asks morphisms'
walker, from the root, whether some relabeling reads below the partial table
at its first decided cell; nothing is kept from one search node to the next.
At a leaf every cell is known and every relabeling has been compared in
full, so a table is emitted exactly when it is the lex-least member of its
class, its own canonical form: one table per class and no dedup pass
(orderly generation, McKay 1998).  On a complete table the walk prunes with
the automorphisms it finds; the morphisms module docstring proves that
sound.  Within one seed the search branches on the first open cell in key
order and tries values in ascending order.  The seeds run j in descending
order, and for j > j′ the row r of j reads 0 at position j′ where that of
j′ reads j′, so the tables come out strictly increasing.

A naive oracle for orders up to 3 scans every table pair consistent with the
unit constraints outright, keeps the valid ones equal to their canonical_form,
and must produce the identical class list.  It first asks the validator
whether a ⇀ table alone breaks DIASSOC_1, x⇀(y⇀z) = (x⇀y)⇀z, and if so skips
every ↼ table beside it: that law reads no ↼ cell, so each such pair breaks
it too and no digroup is lost.  At order 3 only 18 of the 729 ⇀ tables pass.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from typing import Optional

from .morphisms import _keys, _reads_below, canonical_form
from .subdigroups import all_subdigroups
from .tables import (
    ConstructionError,
    DigroupTable,
    UnsupportedOrderError,
    _Record,
    _violations,
    builtin,
    is_commutative,
    is_group,
    validate_digroup,
)

_PROPAGATING_CAP = 6  # the supported ceiling; beyond it use allow_large
_NAIVE_CAP = 3


class SearchOptions(_Record):
    """Options for enumerate_digroups: allow_large lifts the order cap of the
    search.  The brute-force oracle is the separate naive_enumerate."""

    allow_large: bool = False


class CatalogEntry(_Record):
    """One isomorphism class: its canonical table and recomputable flags."""

    canonical: DigroupTable
    order: int
    commutative: bool
    group: bool
    subdigroup_count: int


class ClaimResult(_Record):
    claim_id: str
    expected: str
    observed: str
    passed: bool
    runtime_s: float
    entries: tuple[CatalogEntry, ...] = ()


class ClaimReport(_Record):
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.claims)


# ---------------------------------------------------------------------------
# Constraint tables, cached per order
# ---------------------------------------------------------------------------

# A law instance is (in1, in2, base1, base2, mult2): when cells in1 and in2
# hold v1 and v2, the cells base1 + v1*n and base2 + v2*mult2 must be equal.
# Cell ids are t*n*n + x*n + y with t = 0 for the left table, 1 for the right.


@lru_cache(maxsize=None)
def _search_tables(n: int):
    nn = n * n

    def cell(t, x, y):
        return t * nn + x * n + y

    insts: list[tuple[int, int, int, int, int]] = []
    # (Tin1, Tin2, Tout1, Tout2) table selectors for the four chain-shaped
    # diassociativity laws; the fifth law pins two outer cells in one table.
    chain_laws = (
        (0, 0, 0, 0),  # x⇀(y⇀z) = (x⇀y)⇀z
        (0, 1, 0, 0),  # (x⇀y)⇀z = x⇀(y↼z)
        (1, 0, 0, 1),  # (x↼y)⇀z = x↼(y⇀z)
        (1, 1, 1, 1),  # (x↼y)↼z = x↼(y↼z)
    )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for t1, t2, to1, to2 in chain_laws:
                    insts.append(
                        (
                            cell(t1, x, y),
                            cell(t2, y, z),
                            to1 * nn + z,
                            cell(to2, x, 0),
                            1,
                        )
                    )
                # (x⇀y)↼z = (x↼y)↼z : both outer cells sit in the right table
                # at row given by the inner value, column z.
                insts.append((cell(0, x, y), cell(1, x, y), nn + z, nn + z, n))

    watch: list[list[int]] = [[] for _ in range(2 * nn)]
    for idx, (in1, in2, _, _, _) in enumerate(insts):
        watch[in1].append(idx)
        if in2 != in1:
            watch[in2].append(idx)

    # (table base, x, y) of each canonical-key position but the seeded cells,
    # column e of both tables and row e of ↼; the lex cut reads these
    # instead of decoding the cell ids
    bkeys = [(base, x, y) for base, x, y in _keys(n) if y and not (base and x == 0)]
    bcells = [base + x * n + y for base, x, y in bkeys]
    # Bijection line of each cell: ⇀ column y is line y, ↼ row x is n + x.
    line = tuple(y for x in range(n) for y in range(n))
    line += tuple(n + x for x in range(n) for y in range(n))

    return tuple(insts), tuple(map(tuple, watch)), tuple(bcells), tuple(bkeys), line


class _Search:
    """Backtracking state for one order; identity is fixed at index 0.

    run() returns the canonical table of every class, strictly increasing in
    canonical-key order (see the module docstring for why the leaf check is
    exact)."""

    def __init__(self, n: int):
        self.n = n
        self.insts, self.watch, self.bcells, self.bkeys, self.line = _search_tables(n)
        self.val = [-1] * (2 * n * n)
        self.used = [0] * (2 * n)  # bitmask of the values in each line
        self.eq: list[list[int]] = [[] for _ in range(2 * n * n)]
        self.trail: list[int] = []  # assigned cell c, or ~c for an eq edge
        self.solutions: list[tuple[tuple, tuple]] = []
        self._seed()

    def _seed(self) -> None:
        n = self.n
        nn = n * n
        for x in range(n):
            a, b = x, nn + x * n  # left[0][x] and right[x][0]
            self.eq[a].append(b)
            self.eq[b].append(a)
        for x in range(n):
            if not self._try(x * n, x) or not self._try(nn + x, x):
                raise ConstructionError("unit seeding conflict")

    def _try(self, cell: int, value: int) -> bool:
        """Assign and propagate to a fixed point; False on conflict.  All
        effects are recorded on the trail.

        Assigning a value already used in the cell's ⇀ column or ↼ row is a
        conflict, found before val or the trail is touched.  Otherwise the
        value's bit in that line's mask is set together with the cell's trail
        entry, and _undo clears it when it pops that entry.

        A cell's watch pass runs right after it is assigned, and each cell is
        assigned at most once per branch, so a law instance finds both inner
        cells known only on the watch pass of the second of them to be
        assigned: it fires exactly once per branch and needs no fired flag."""
        n = self.n
        val = self.val
        used = self.used
        line = self.line
        queue = [(cell, value)]
        while queue:
            c, w = queue.pop()
            cur = val[c]
            if cur != -1:
                if cur != w:
                    return False
                continue
            ln = line[c]
            bit = 1 << w
            if used[ln] & bit:
                return False
            used[ln] |= bit
            val[c] = w
            self.trail.append(c)
            for d in self.eq[c]:
                queue.append((d, w))
            for idx in self.watch[c]:
                in1, in2, base1, base2, mult2 = self.insts[idx]
                v1 = val[in1]
                if v1 < 0:
                    continue
                v2 = val[in2]
                if v2 < 0:
                    continue
                o1 = base1 + v1 * n
                o2 = base2 + v2 * mult2
                if o1 == o2:
                    continue
                a1 = val[o1]
                a2 = val[o2]
                if a1 >= 0:
                    if a2 >= 0:
                        if a1 != a2:
                            return False
                    else:
                        queue.append((o2, a1))
                elif a2 >= 0:
                    queue.append((o1, a2))
                else:
                    self.eq[o1].append(o2)
                    self.eq[o2].append(o1)
                    self.trail.append(~o1)
                    self.trail.append(~o2)
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            c = self.trail.pop()
            if c >= 0:
                self.used[self.line[c]] ^= 1 << self.val[c]
                self.val[c] = -1
            else:
                self.eq[~c].pop()

    def _emit(self) -> None:
        n = self.n
        nn = n * n
        left = tuple(tuple(self.val[x * n + y] for y in range(n)) for x in range(n))
        right = tuple(
            tuple(self.val[nn + x * n + y] for y in range(n)) for x in range(n)
        )
        self.solutions.append((left, right))

    def run(self) -> list[tuple[tuple, tuple]]:
        # One search per fiber size j: row e of ⇀ is e⇀y = y − y % j in every
        # canonical table (module docstring).  A larger j gives a smaller
        # row, so descending j keeps the tables in increasing key order.  The
        # seed is cut like any assignment, so _dfs enters only nodes that
        # passed the cut; a seed that propagation completes is the one
        # digroup with that row e, its own canonical form, so the cut never
        # drops a class there.
        n = self.n
        for j in range(n, 0, -1):
            if n % j:
                continue
            mark = len(self.trail)
            if all(self._try(y, y - y % j) for y in range(1, n)) and (
                _reads_below(self.val, self.bcells, self.bkeys, n, []) is None
            ):
                self._dfs(0)
            self._undo(mark)
        return self.solutions

    def _dfs(self, bpos: int) -> None:
        bcells, bkeys = self.bcells, self.bkeys
        m = len(bcells)
        while bpos < m and self.val[bcells[bpos]] != -1:
            bpos += 1
        if bpos == m:
            self._emit()
            return
        cell = bcells[bpos]
        for v in range(self.n):
            mark = len(self.trail)
            if self._try(cell, v) and _reads_below(self.val, bcells, bkeys, self.n, []) is None:
                self._dfs(bpos + 1)
            self._undo(mark)


def _entries_from_solutions(n: int, solutions) -> list[CatalogEntry]:
    """Catalog entries for canonical tables given in strictly increasing
    canonical-key order; each is re-checked against the axioms."""
    keys = [left + right for left, right in solutions]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ConstructionError("enumerator emitted tables out of canonical order")
    entries = []
    for left, right in solutions:
        table = DigroupTable(n, 0, left, right)
        if not validate_digroup(table).ok:
            raise ConstructionError("enumerator emitted a non-digroup table")
        entries.append(
            CatalogEntry(
                canonical=table,
                order=n,
                commutative=is_commutative(table),
                group=is_group(table),
                subdigroup_count=len(all_subdigroups(table)),
            )
        )
    return entries


def enumerate_digroups(
    n: int, opts: SearchOptions = SearchOptions()
) -> list[CatalogEntry]:
    """One entry per isomorphism class of digroups of order n, complete and
    duplicate-free, sorted by canonical table, found by the propagating
    search; naive_enumerate is the independent oracle for n <= 3.

    Orders above _PROPAGATING_CAP raise UnsupportedOrderError unless
    opts.allow_large is set, which lifts the cap with no timing promise."""
    if n < 1:
        raise UnsupportedOrderError("order must be >= 1")
    if n > _PROPAGATING_CAP and not opts.allow_large:
        raise UnsupportedOrderError(
            f"propagating enumeration supports orders 1 to {_PROPAGATING_CAP}"
        )
    return _entries_from_solutions(n, _Search(n).run())


def naive_enumerate(n: int) -> list[CatalogEntry]:
    """Brute-force oracle: build every table pair consistent with the unit
    constraints, check each against the axioms until its first broken law,
    and keep each one that passes and equals its canonical_form.  The
    candidates run in canonical-key order, so the output matches
    enumerate_digroups exactly.

    A ⇀ table that breaks DIASSOC_1 on its own is skipped with all its ↼
    tables: DIASSOC_1 reads only ⇀, so every such pair breaks it."""
    if n > _NAIVE_CAP:
        raise UnsupportedOrderError(f"naive enumeration supports order <= {_NAIVE_CAP}")
    if n < 1:
        raise UnsupportedOrderError("order must be >= 1")

    # Column e of ⇀ and row e of ↼ are the identity, and column e of ↼
    # repeats row e of ⇀; the other cells run through every value, in
    # canonical-key order: the free cells of ⇀ row by row, then those of ↼.
    tails = list(itertools.product(range(n), repeat=n - 1))
    rows = [[bytes((v,) + t) for t in tails] for v in range(n)]
    unit = bytes(range(n))
    solutions = []
    for left in itertools.product(*rows):
        if _breaks_diassoc_1(left):
            continue
        for tail in itertools.product(*map(rows.__getitem__, left[0][1:])):
            right = (unit,) + tail
            if next(_violations(0, left, right), None) is None:
                table = DigroupTable(n, 0, left, right)
                if canonical_form(table).table == table:
                    solutions.append((table.left, table.right))
    return _entries_from_solutions(n, solutions)


def _breaks_diassoc_1(left: tuple[bytes, ...]) -> bool:
    """Whether the ⇀ rows alone break DIASSOC_1, decided by the validator
    with ⇀ standing in for ↼, which that law never reads."""
    return any(k == 0 for k, _ in _violations(0, left, left))


def count_by_class(entries: list[CatalogEntry]) -> dict[str, int]:
    """Tallies over a catalog, from either enumerate_digroups or
    naive_enumerate."""
    commutative = sum(1 for e in entries if e.commutative)
    groups = sum(1 for e in entries if e.group)
    return {
        "total": len(entries),
        "commutative": commutative,
        "groups": groups,
        "non_group": len(entries) - groups,
        "non_commutative": len(entries) - commutative,
    }


def _is_builtin(entry: CatalogEntry, name: str) -> bool:
    """Whether entry's class is the named builtin's, by canonical table; the
    orders are compared first, so no entry reaches the canonical cap."""
    ref = builtin(name)
    return entry.canonical.order == ref.order and (
        canonical_form(entry.canonical).table == canonical_form(ref).table
    )


def verify_classification_claims(
    catalogs: Optional[dict[int, list[CatalogEntry]]] = None,
    through: int = 6,
) -> ClaimReport:
    """Machine-check the headline classification facts about small digroups.

    C1: order 1 has exactly the trivial group.
    C2: order 2 adds exactly one non-group class, the projection digroup M,
        which is therefore the smallest digroup that is not a group.
    C3: orders 3, 4 and 5 have no non-commutative class.
    C4: order 6 has exactly one non-commutative class that is not a group,
        and it is the builtin N (the raw non-commutative class list, which
        also contains non-commutative groups such as S3, is attached for
        audit).
    C5: N fails commutativity at the witness pair (β, β).

    The claims are one table of rows (id, largest order needed, expected
    text, check); one loop times each check and builds its ClaimResult.  M and
    N are recognised by canonical table.

    Precomputed catalogs may be passed in keyed by order; missing orders are
    enumerated with the default options.  Claims needing orders above
    ``through`` are skipped (C5 needs none and always runs).
    """
    cache: dict[int, list[CatalogEntry]] = dict(catalogs or {})

    def catalog(order: int) -> list[CatalogEntry]:
        if order not in cache:
            cache[order] = enumerate_digroups(order)
        return cache[order]

    def c1():
        ones = catalog(1)
        observed = f"{len(ones)} class(es), group={ones[0].group if ones else None}"
        return observed, len(ones) == 1 and ones[0].group

    def c2():
        twos = catalog(2)
        non_groups = [e for e in twos if not e.group]
        m_found = len(twos) == 2 and len(non_groups) == 1 and _is_builtin(non_groups[0], "M")
        observed = f"{len(twos)} classes, {len(non_groups)} non-group"
        return observed, m_found and claims[0].passed  # C1 always runs first

    def c3():
        counts = [
            (order, sum(1 for e in catalog(order) if not e.commutative), len(catalog(order)))
            for order in (3, 4, 5)
        ]
        observed = "; ".join(
            f"order {order}: {nc} non-commutative of {total}" for order, nc, total in counts
        )
        return observed, not any(nc for _, nc, _ in counts)

    def c4():
        sixes = catalog(6)
        nc = [e for e in sixes if not e.commutative]
        nc_non_group = [e for e in nc if not e.group]
        observed = (
            f"{len(sixes)} classes, {len(nc)} non-commutative "
            f"({sum(1 for e in nc if e.group)} of them groups), "
            f"{len(nc_non_group)} non-commutative non-group"
        )
        passed = len(nc_non_group) == 1 and _is_builtin(nc_non_group[0], "N")
        return observed, passed, tuple(nc)

    def c5():
        n_table = builtin("N")
        lhs, rhs = n_table.left[2][2], n_table.right[2][2]
        observed = f"β⇀β = {n_table.label(lhs)}, β↼β = {n_table.label(rhs)}"
        return observed, lhs == 4 and rhs == 5

    rows = (
        ("C1", 1, "order 1 has exactly one class, the trivial group", c1),
        ("C2", 2, "order 2 has one non-group class isomorphic to M, the smallest "
                  "digroup that is not a group", c2),
        ("C3", 5, "every digroup of order 3, 4 or 5 is commutative", c3),
        ("C4", 6, "order 6 has exactly one non-commutative class that is not a "
                  "group, and it is N", c4),
        ("C5", None, "N is non-commutative at the witness pair (β, β)", c5),
    )
    claims: list[ClaimResult] = []
    for claim_id, needs, expected, check in rows:
        if needs is not None and needs > through:
            continue
        start = time.perf_counter()
        observed, passed, *entries = check()
        runtime = time.perf_counter() - start
        claims.append(ClaimResult(claim_id, expected, observed, passed, runtime, *entries))
    return ClaimReport(tuple(claims))
