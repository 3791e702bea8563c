"""Finite digroups as pairs of Cayley tables.

A digroup is a set G with two binary operations, the left product ``x >> y``
(written ``x ⇀ y``) and the right product ``x << y`` (written ``x ↼ y``),
together with a distinguished bar-unit e, satisfying

  1. the diassociative law, five mixed associativity identities:
       x⇀(y⇀z) = (x⇀y)⇀z = x⇀(y↼z)
       (x↼y)⇀z = x↼(y⇀z)
       (x⇀y)↼z = (x↼y)↼z = x↼(y↼z)
  2. the bar-unit laws  x⇀e = x = e↼x  and  x↼e = e⇀x,
  3. for every x a (necessarily unique) Liu inverse y with y⇀x = e = x↼y.

When the two products coincide the structure is an ordinary group and the Liu
inverse is the group inverse.  Elements are dense indices 0..n-1; the
distinguished identity may sit at any index, although all builtins put it at 0.

Tables are stored row-major with the row index as the left operand:
``left[x][y] = x ⇀ y`` and ``right[x][y] = x ↼ y``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Element = int

# Law identifiers, in report order.  DIASSOC_1..5 are the five equalities of
# the diassociative law in the order listed in the module docstring.
DIASSOC_1 = "DIASSOC_1"  # x⇀(y⇀z) = (x⇀y)⇀z
DIASSOC_2 = "DIASSOC_2"  # (x⇀y)⇀z = x⇀(y↼z)
DIASSOC_3 = "DIASSOC_3"  # (x↼y)⇀z = x↼(y⇀z)
DIASSOC_4 = "DIASSOC_4"  # (x⇀y)↼z = (x↼y)↼z
DIASSOC_5 = "DIASSOC_5"  # (x↼y)↼z = x↼(y↼z)
BARUNIT_RIGHT = "BARUNIT_RIGHT"  # x⇀e = x
BARUNIT_LEFT = "BARUNIT_LEFT"  # e↼x = x
BARUNIT_SWAP = "BARUNIT_SWAP"  # x↼e = e⇀x
INVERSE_MISSING = "INVERSE_MISSING"  # no y with y⇀x = e = x↼y

DIGROUP_LAWS = (
    DIASSOC_1,
    DIASSOC_2,
    DIASSOC_3,
    DIASSOC_4,
    DIASSOC_5,
    BARUNIT_RIGHT,
    BARUNIT_LEFT,
    BARUNIT_SWAP,
    INVERSE_MISSING,
)

# The axiom check decides n^3 triples per table; the cap bounds its time.
# Its memory is O(n^2).  The check holds rows as bytes and composes them with
# bytes.translate, whose table has 256 entries, so the cap must stay <= 256.
_VALIDATE_CAP = 200


class DigroupError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTableError(DigroupError):
    """A table or mapping breaks a structural invariant (shape, range)."""


class UnsupportedOrderError(DigroupError):
    """The requested order is beyond the cap of an exhaustive routine."""


class ConstructionError(DigroupError):
    """A self-verifying construction produced an object failing its checks."""


def _as_matrix(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in rows)


@dataclass(frozen=True)
class DigroupTable:
    """A pointed carrier with two n x n operation tables.

    Structural well-formedness (square tables, entries in range, distinct
    labels) is enforced at construction time and raises
    :class:`MalformedTableError`.  Whether the tables satisfy the digroup
    axioms is a separate question answered by :func:`validate_digroup`.
    """

    order: int
    identity: Element
    left: tuple[tuple[Element, ...], ...]
    right: tuple[tuple[Element, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "left", _as_matrix(self.left))
        object.__setattr__(self, "right", _as_matrix(self.right))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        n = self.order
        if n < 1:
            raise MalformedTableError(f"order must be >= 1, got {n}")
        if not (0 <= self.identity < n):
            raise MalformedTableError(
                f"identity index {self.identity} out of range for order {n}"
            )
        for name, table in (("left", self.left), ("right", self.right)):
            if len(table) != n:
                raise MalformedTableError(
                    f"{name} table must have {n} rows, found {len(table)}"
                )
            for x, row in enumerate(table):
                if len(row) != n:
                    raise MalformedTableError(
                        f"{name} table row {x} must have {n} entries, found {len(row)}"
                    )
                for y, v in enumerate(row):
                    if not (0 <= v < n):
                        raise MalformedTableError(
                            f"entry {v} out of range at {name}[{x}][{y}]"
                        )
        if self.labels is not None:
            if len(self.labels) != n:
                raise MalformedTableError(
                    f"labels must have {n} entries, found {len(self.labels)}"
                )
            if len(set(self.labels)) != n:
                raise MalformedTableError("labels must be pairwise distinct")

    def lprod(self, x: Element, y: Element) -> Element:
        """Left product x ⇀ y."""
        return self.left[x][y]

    def rprod(self, x: Element, y: Element) -> Element:
        """Right product x ↼ y."""
        return self.right[x][y]

    def label(self, x: Element) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def elements(self) -> range:
        return range(self.order)


@dataclass(frozen=True)
class Violation:
    """One broken law with the lexicographically first witness tuple."""

    law: str
    witnesses: tuple[Element, ...]
    lhs: Optional[Element] = None
    rhs: Optional[Element] = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))
        if self.ok != (not self.violations):
            raise MalformedTableError("ok flag must match emptiness of violations")

    @staticmethod
    def from_violations(violations: Sequence[Violation]) -> "ValidationReport":
        vs = tuple(violations)
        return ValidationReport(ok=not vs, violations=vs)


@dataclass(frozen=True)
class Mapping:
    """A finite function between index sets, as an image vector.

    Used for homomorphisms, Liu-inverse maps, relabelings, transform
    labelings and the transforms themselves: a translation of a digroup of
    order n is a ``Mapping(n, n, row)``.  Composition applies the right
    factor first: ``f.compose(g)(x) = f(g(x))``.
    """

    domain_size: int
    codomain_size: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(v) for v in self.image))
        if len(self.image) != self.domain_size:
            raise MalformedTableError(
                f"mapping image has {len(self.image)} entries, "
                f"expected {self.domain_size}"
            )
        for x, v in enumerate(self.image):
            if not (0 <= v < self.codomain_size):
                raise MalformedTableError(f"mapping image[{x}] = {v} out of range")

    def __call__(self, x: int) -> int:
        return self.image[x]

    def compose(self, other: "Mapping") -> "Mapping":
        """self∘other, defined when other lands in self's domain."""
        if other.codomain_size != self.domain_size:
            raise MalformedTableError(
                f"cannot compose a mapping on {self.domain_size} points "
                f"after one into {other.codomain_size} points"
            )
        return Mapping(
            other.domain_size,
            self.codomain_size,
            tuple(self.image[v] for v in other.image),
        )

    def is_bijection(self) -> bool:
        return self.domain_size == self.codomain_size and len(set(self.image)) == len(
            self.image
        )

    def inverse(self) -> "Mapping":
        if not self.is_bijection():
            raise MalformedTableError("cannot invert a non-bijective mapping")
        inv = [0] * self.domain_size
        for x, v in enumerate(self.image):
            inv[v] = x
        return Mapping(self.codomain_size, self.domain_size, tuple(inv))

    @staticmethod
    def identity(n: int) -> "Mapping":
        return Mapping(n, n, tuple(range(n)))


def _first_difference(a: bytes, b: bytes) -> int:
    """The first index where two unequal byte strings of one length differ."""
    bits = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return len(a) - 1 - (bits.bit_length() - 1) // 8


def _violations(
    e: Element, left: Sequence[bytes], right: Sequence[bytes]
) -> Iterator[tuple[int, Violation]]:
    """Yield ``(k, violation)`` for every law ``DIGROUP_LAWS[k]`` the tables
    break, each with its lexicographically first witness.

    ``left`` and ``right`` are the rows of ⇀ and ↼ as byte strings.  The
    laws come out in no fixed order, each as soon as it is found, so a
    caller that only asks whether a table is a digroup stops at the first.

    For each x the eight products x⇀(y⇀z), x⇀(y↼z), x↼(y⇀z), x↼(y↼z) and
    (x⇀y)⇀z, (x↼y)⇀z, (x↼y)↼z, (x⇀y)↼z are built for all (y, z) at once,
    flattened as y*n + z: the first four by translating the flattened inner
    table through row x, the last four by joining the rows that row x names.
    Each diassociativity law is then one comparison per x, and x runs in
    order, so the first x that breaks a law holds its first witness.
    """
    n = len(left)
    for x, row in enumerate(right):
        y = row.find(e)
        while y >= 0 and left[y][x] != e:
            y = row.find(e, y + 1)
        if y < 0:
            yield 8, Violation(INVERSE_MISSING, (x,))
            break
    ident = bytes(range(n))
    flat_l, flat_r = b"".join(left), b"".join(right)
    for k, lhs, rhs in (
        (5, flat_l[e::n], ident),  # x⇀e = x
        (6, right[e], ident),  # e↼x = x
        (7, flat_r[e::n], left[e]),  # x↼e = e⇀x
    ):
        if lhs != rhs:
            x = _first_difference(lhs, rhs)
            yield k, Violation(DIGROUP_LAWS[k], (x,), lhs[x], rhs[x])

    pad = bytes(256 - n)  # translate takes a 256-byte table: n <= 256
    join, row_l, row_r = b"".join, left.__getitem__, right.__getitem__
    open_laws = [0, 1, 2, 3, 4]
    for x in range(n):
        lx, rx = left[x] + pad, right[x] + pad
        ll, rr = join(map(row_l, left[x])), join(map(row_r, right[x]))
        sides = (
            (flat_l.translate(lx), ll),  # x⇀(y⇀z) = (x⇀y)⇀z
            (ll, flat_r.translate(lx)),  # (x⇀y)⇀z = x⇀(y↼z)
            (join(map(row_l, right[x])), flat_l.translate(rx)),  # (x↼y)⇀z = x↼(y⇀z)
            (join(map(row_r, left[x])), rr),  # (x⇀y)↼z = (x↼y)↼z
            (rr, flat_r.translate(rx)),  # (x↼y)↼z = x↼(y↼z)
        )
        still_open = []
        for k in open_laws:
            lhs, rhs = sides[k]
            if lhs == rhs:
                still_open.append(k)
                continue
            i = _first_difference(lhs, rhs)
            y, z = divmod(i, n)
            yield k, Violation(DIGROUP_LAWS[k], (x, y, z), lhs[i], rhs[i])
        if not still_open:
            return
        open_laws = still_open


def _require_checkable(n: int) -> None:
    """Raise UnsupportedOrderError for orders beyond the axiom check's cap."""
    if n > _VALIDATE_CAP:
        raise UnsupportedOrderError(
            f"axiom check supports order <= {_VALIDATE_CAP}, got {n}"
        )


def validate_digroup(table: DigroupTable) -> ValidationReport:
    """Decide every digroup axiom exhaustively over all n^3 triples.

    Returns a deterministic report: per broken law, one violation carrying the
    lexicographically first witness.  Structural malformation never reaches
    this function; it is rejected by the :class:`DigroupTable` constructor.
    Rows are held as byte strings, so memory grows as n^2; orders above
    ``_VALIDATE_CAP`` raise UnsupportedOrderError, since the time grows as
    n^3.
    """
    _require_checkable(table.order)
    found = _violations(
        table.identity,
        tuple(map(bytes, table.left)),
        tuple(map(bytes, table.right)),
    )
    return ValidationReport.from_violations(
        v for _, v in sorted(found, key=lambda kv: kv[0])
    )


def ensure_valid(table: DigroupTable) -> DigroupTable:
    """Validate and return the table, raising ConstructionError if it fails."""
    report = validate_digroup(table)
    if not report.ok:
        raise ConstructionError(
            f"table of order {table.order} is not a digroup: "
            + "; ".join(v.law for v in report.violations)
        )
    return table


def liu_inverse(table: DigroupTable, x: Element) -> Element:
    """The unique y with y ⇀ x = e = x ↼ y.  Requires a validated table."""
    e = table.identity
    for y in table.elements():
        if table.left[y][x] == e and table.right[x][y] == e:
            return y
    raise DigroupError(f"element {x} has no Liu inverse; table was not validated")


def liu_inverse_map(table: DigroupTable) -> Mapping:
    """Liu inverse of every element, as a self-mapping of the carrier."""
    n = table.order
    return Mapping(n, n, tuple(liu_inverse(table, x) for x in range(n)))


def commutes(table: DigroupTable, x: Element, y: Element) -> bool:
    """True iff x ⇀ y = y ↼ x."""
    return table.left[x][y] == table.right[y][x]


def is_commutative(table: DigroupTable) -> bool:
    n = table.order
    return all(commutes(table, x, y) for x in range(n) for y in range(n))


def is_group(table: DigroupTable) -> bool:
    """True iff the two products coincide entry-wise."""
    return table.left == table.right


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

_M_LABELS = ("0", "a")
_N_LABELS = ("e", "α", "β", "γ", "δ", "ε")

# Order-6 non-commutative digroup; rows are the left operand.
_N_LEFT = (
    (0, 1, 1, 1, 0, 0),
    (1, 0, 0, 0, 1, 1),
    (2, 4, 4, 4, 2, 2),
    (3, 5, 5, 5, 3, 3),
    (4, 2, 2, 2, 4, 4),
    (5, 3, 3, 3, 5, 5),
)
_N_RIGHT = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 5, 4, 3, 2),
    (1, 0, 5, 4, 3, 2),
    (1, 0, 5, 4, 3, 2),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
)


def trivial_digroup(n: int, labels: Optional[Sequence[str]] = None) -> DigroupTable:
    """The projection digroup: x ⇀ y = x and x ↼ y = y, identity 0.

    Every element is a bar-unit here; 0 is the distinguished one.  The order-2
    instance is the smallest digroup that is not a group.
    """
    if n < 1:
        raise MalformedTableError("trivial digroup needs order >= 1")
    left = tuple(tuple(x for _ in range(n)) for x in range(n))
    right = tuple(tuple(range(n)) for _ in range(n))
    return DigroupTable(n, 0, left, right, tuple(labels) if labels else None)


def cyclic_group(n: int) -> DigroupTable:
    """The cyclic group of order n read as a digroup (both products equal)."""
    if n < 1:
        raise MalformedTableError("cyclic group needs order >= 1")
    rows = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    return DigroupTable(n, 0, rows, rows)


def symmetric_group_3() -> DigroupTable:
    """S3 as a digroup; elements are the permutations of three points in
    lexicographic order, composed left-to-right as functions."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[k]] for k in range(3))
    rows = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    labels = tuple("".join(str(k) for k in p) for p in perms)
    return DigroupTable(6, 0, rows, rows, labels)


def _pair_table(
    first_left: Sequence[Sequence[int]],
    first_right: Sequence[Sequence[int]],
    second_left: Sequence[Sequence[int]],
    second_right: Sequence[Sequence[int]],
    identity: tuple[int, int],
    labels: Optional[Sequence[str]] = None,
) -> DigroupTable:
    """The unvalidated componentwise table on pairs (i, j) -> i * s + j, with
    s = len(second_left).  Each product takes its first component from its
    first index table and its second from its second: (i, j) ⇀ (k, l) is
    (first_left[i][k], second_left[j][l]), and likewise for ↼."""
    g, s = len(first_left), len(second_left)
    left, right = [], []
    for i in range(g):
        for j in range(s):
            lrow, rrow = [], []
            for k in range(g):
                lbase, rbase = first_left[i][k] * s, first_right[i][k] * s
                lrow += [lbase + v for v in second_left[j]]
                rrow += [rbase + v for v in second_right[j]]
            left.append(lrow)
            right.append(rrow)
    return DigroupTable(g * s, identity[0] * s + identity[1], left, right, labels)


def direct_product(d1: DigroupTable, d2: DigroupTable) -> DigroupTable:
    """Componentwise product digroup on pairs (x1, x2) -> x1 * n2 + x2."""
    labels = None
    if d1.labels is not None and d2.labels is not None:
        labels = [f"({a},{b})" for a in d1.labels for b in d2.labels]
    return _pair_table(
        d1.left, d1.right, d2.left, d2.right, (d1.identity, d2.identity), labels
    )


def builtin(name: str) -> DigroupTable:
    """Builtin digroups by name.

    Accepted names: ``M``, ``N``, ``trivial(k)``, ``cyclic(k)`` (alias ``Zk``),
    and ``S3``.  M and N reproduce their source tables bit-exactly under the
    labels {0, a} and {e, α, β, γ, δ, ε}; M equals trivial(2).  Orders above
    ``_VALIDATE_CAP`` raise UnsupportedOrderError.
    """
    name = name.strip()
    if name == "M":
        return trivial_digroup(2, _M_LABELS)
    if name == "N":
        return DigroupTable(6, 0, _N_LEFT, _N_RIGHT, _N_LABELS)
    if name == "S3":
        return symmetric_group_3()
    if name.startswith("Z") and name[1:].isdigit():
        factory, body = cyclic_group, name[1:]
    else:
        for prefix, factory in (("trivial", trivial_digroup), ("cyclic", cyclic_group)):
            if name.startswith(prefix + "(") and name.endswith(")"):
                body = name[len(prefix) + 1 : -1]
                break
        else:
            raise DigroupError(f"unknown builtin {name!r}")
    try:
        k = int(body)
    except ValueError:
        raise DigroupError(f"bad order in builtin name {name!r}") from None
    # No command can check a larger table, and building one takes memory
    # growing as k^2.
    _require_checkable(k)
    return factory(k)


BUILTIN_NAMES = ("M", "N", "S3", "trivial(k)", "cyclic(k)", "Zk")
