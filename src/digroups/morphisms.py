"""Homomorphisms, isomorphism search, and exact canonical forms.

A digroup homomorphism maps identity to identity and preserves both products.
Isomorphism is decided two ways that must agree: a backtracking search for a
bijective homomorphism, and equality of canonical forms.  The canonical form
of a table pair is the lexicographically least relabeling (flatten the left
table then the right table row-major) over all bijections sending the
identity to index 0; it is exact, not hash-based, so equal canonical tables
characterize isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .tables import (
    DigroupTable,
    Mapping,
    MalformedTableError,
    UnsupportedOrderError,
)

_CANONICAL_CAP = 8  # (n-1)! relabelings; 7! = 5040 is still fine


def relabel(table: DigroupTable, perm: Mapping) -> DigroupTable:
    """Apply a bijective relabeling: new[p(x)][p(y)] = p(old[x][y])."""
    if not perm.is_bijection() or perm.domain_size != table.order:
        raise MalformedTableError("relabeling must be a bijection of the carrier")
    n = table.order
    p = perm.image
    inv = perm.inverse().image
    left = tuple(
        tuple(p[table.left[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )
    right = tuple(
        tuple(p[table.right[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )
    labels = None
    if table.labels is not None:
        labels = tuple(table.labels[inv[x]] for x in range(n))
    return DigroupTable(n, p[table.identity], left, right, labels)


def is_homomorphism(d1: DigroupTable, d2: DigroupTable, m: Mapping) -> bool:
    """True iff m maps identity to identity and preserves both products."""
    if m.domain_size != d1.order or m.codomain_size != d2.order:
        return False
    if m(d1.identity) != d2.identity:
        return False
    for x in d1.elements():
        mx = m(x)
        for y in d1.elements():
            my = m(y)
            if m(d1.left[x][y]) != d2.left[mx][my]:
                return False
            if m(d1.right[x][y]) != d2.right[mx][my]:
                return False
    return True


def _iso_search(d1: DigroupTable, d2: DigroupTable, find_all: bool) -> list[Mapping]:
    """Backtracking over images in ascending order with forced-product
    propagation: once m[x] and m[y] are set, m[x*y] is forced for both
    products.  The first solution found is lexicographically least."""
    if d1.order != d2.order:
        return []
    n = d1.order
    image = [-1] * n
    used = [False] * n
    results: list[Mapping] = []

    def place(x: int, v: int, trail: list[int]) -> bool:
        # Assign image[x] = v and propagate forced products; trail records
        # assigned sources for undo.
        queue = [(x, v)]
        while queue:
            a, b = queue.pop()
            if image[a] != -1:
                if image[a] != b:
                    return False
                continue
            if used[b]:
                return False
            image[a] = b
            used[b] = True
            trail.append(a)
            for c in range(n):
                if image[c] == -1:
                    continue
                for t1, t2 in ((d1.left, d2.left), (d1.right, d2.right)):
                    queue.append((t1[a][c], t2[b][image[c]]))
                    queue.append((t1[c][a], t2[image[c]][b]))
        return True

    def undo(trail: list[int]) -> None:
        for a in trail:
            used[image[a]] = False
            image[a] = -1

    def extend(pos: int) -> bool:
        while pos < n and image[pos] != -1:
            pos += 1
        if pos == n:
            m = Mapping(n, n, tuple(image))
            results.append(m)
            return not find_all
        candidates = (
            [d2.identity] if pos == d1.identity else [v for v in range(n) if not used[v]]
        )
        for v in candidates:
            trail: list[int] = []
            if place(pos, v, trail) and extend(pos + 1):
                return True
            undo(trail)
        return False

    trail: list[int] = []
    if place(d1.identity, d2.identity, trail):
        extend(0)
    else:
        undo(trail)
    return results


def find_isomorphism(d1: DigroupTable, d2: DigroupTable) -> Optional[Mapping]:
    """A bijective homomorphism d1 -> d2 if one exists, else None.

    The returned mapping is the first in lexicographic backtracking order.
    """
    found = _iso_search(d1, d2, find_all=False)
    return found[0] if found else None


def automorphisms(table: DigroupTable) -> list[Mapping]:
    """All bijective self-homomorphisms, in lexicographic order."""
    if table.order > _CANONICAL_CAP:
        raise UnsupportedOrderError(
            f"automorphism scan supports order <= {_CANONICAL_CAP}"
        )
    return _iso_search(table, table, find_all=True)


@dataclass(frozen=True)
class CanonicalTable:
    """The lex-least identity-normalizing relabeling of a table pair, plus the
    relabeling that realizes it."""

    table: DigroupTable
    certificate: Mapping


def _flatten(left, right) -> tuple[int, ...]:
    return tuple(v for row in left for v in row) + tuple(
        v for row in right for v in row
    )


def canonical_form(table: DigroupTable) -> CanonicalTable:
    """Exact lex-min canonical form over all identity-fixing relabelings.

    Two validated digroups are isomorphic iff their canonical tables are
    equal.  Labels are dropped; the certificate recovers the relabeling.
    """
    n = table.order
    if n > _CANONICAL_CAP:
        raise UnsupportedOrderError(
            f"canonical form supports order <= {_CANONICAL_CAP}, got {n}"
        )
    e = table.identity
    others = [x for x in range(n) if x != e]
    best_key = None
    best_perm = None
    for images in itertools.permutations(range(1, n)):
        p = [0] * n
        p[e] = 0
        for src, dst in zip(others, images):
            p[src] = dst
        inv = [0] * n
        for x, v in enumerate(p):
            inv[v] = x
        left = tuple(
            tuple(p[table.left[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        right = tuple(
            tuple(p[table.right[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        key = _flatten(left, right)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = tuple(p)
            best_tables = (left, right)
    perm = Mapping(n, n, best_perm)
    canon = DigroupTable(n, 0, best_tables[0], best_tables[1])
    return CanonicalTable(canon, perm)
