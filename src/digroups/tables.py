"""Finite digroups as pairs of Cayley tables.

A digroup is a set G with two binary operations, the left product ``x >> y``
(written ``x ⇀ y``) and the right product ``x << y`` (written ``x ↼ y``),
together with a distinguished bar-unit e, satisfying

  1. the diassociative law, five mixed associativity identities, each
     equating two bracketings of x, y, z under ⇀ and ↼; _DIASSOC below
     states them once, and the validator and the search both read it,
  2. the bar-unit laws  x⇀e = x = e↼x  and  x↼e = e⇀x,
  3. for every x a (necessarily unique) Liu inverse y with y⇀x = e = x↼y.

When the two products coincide the structure is an ordinary group and the Liu
inverse is the group inverse.  Elements are dense indices 0..n-1; the
distinguished identity may sit at any index, although all builtins put it at 0.

Tables are stored row-major with the row index as the left operand:
``left[x][y] = x ⇀ y`` and ``right[x][y] = x ↼ y``.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, index
from typing import Iterable, Iterator, Optional, Sequence

Element = int

# Law identifiers, in report order.  DIASSOC_1..5 are the five laws of
# _DIASSOC, in its order.
DIASSOC_1 = "DIASSOC_1"
DIASSOC_2 = "DIASSOC_2"
DIASSOC_3 = "DIASSOC_3"
DIASSOC_4 = "DIASSOC_4"
DIASSOC_5 = "DIASSOC_5"
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


def _read_side(text: str) -> tuple[bool, int, int]:
    """(nested, a, b) for a side written x a (y b z), which is nested, or
    (x a y) b z, with 0 for ⇀ and 1 for ↼ (the table index of the product)."""
    a, b = (int(c == "↼") for c in text if c in "⇀↼")
    return text[0] == "x", a, b


# The diassociative law, stated once: the (lhs, rhs) sides of DIASSOC_1..5.
# The validator compares them, the search builds its constraints from them,
# and the naive oracle's skip test compares DIASSOC_1's alone.
_DIASSOC = tuple(tuple(map(_read_side, law)) for law in (
    ("x⇀(y⇀z)", "(x⇀y)⇀z"),
    ("(x⇀y)⇀z", "x⇀(y↼z)"),
    ("(x↼y)⇀z", "x↼(y⇀z)"),
    ("(x⇀y)↼z", "(x↼y)↼z"),
    ("(x↼y)↼z", "x↼(y↼z)"),
))

# The axiom check decides n^3 triples per table; the cap bounds its time.
# Its memory is O(n^2).  The check holds rows as bytes and composes them with
# bytes.translate, whose table has 256 entries, so the cap must stay <= 256.
_VALIDATE_CAP = 200

# Tables up to this order have every entry in 0..255, so their rows fit byte
# strings and one 256-entry bytes.translate table relabels them.
_BYTE_ORDER = 256


class DigroupError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTableError(DigroupError):
    """A table or mapping breaks a structural invariant (shape, range)."""


class UnsupportedOrderError(DigroupError):
    """The requested order is beyond the cap of an exhaustive routine."""


class ConstructionError(DigroupError):
    """A self-verifying construction produced an object failing its checks."""


def _integer(value, what: str) -> int:
    """value as an exact int.  Anything with ``__index__`` is an integer,
    bools too; a float, a string or None raises MalformedTableError."""
    try:
        return index(value)
    except TypeError:
        raise MalformedTableError(f"{what} must be an integer, got {value!r}") from None


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values as a tuple of exact ints, under the contract of _integer; the
    first that is no integer raises MalformedTableError as what[position]."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        for y, v in enumerate(values):
            _integer(v, f"{what}[{y}]")
        raise


# Row types that bytes() reads as a sequence of integers; any other row (a
# generator, a range, an array whose buffer holds wider items) is read
# through tuple() first.
_ROW_TYPES = (bytes, bytearray, list, tuple)


def _refuse_row(row: Sequence, n: int, name: str, x: int) -> None:
    """Raise MalformedTableError for row x of table name at its first fault."""
    if len(row) != n:
        raise MalformedTableError(
            f"{name} table row {x} must have {n} entries, found {len(row)}"
        )
    for y, v in enumerate(row):
        v = _integer(v, f"{name}[{x}][{y}]")
        if not 0 <= v < n:
            raise MalformedTableError(f"entry {v} out of range at {name}[{x}][{y}]")
    raise AssertionError(f"{name} table row {x} has no fault")


def _as_matrix(rows: Iterable[Iterable[int]], n: int, name: str) -> tuple[tuple[int, ...], ...]:
    """The rows of table name as tuples of exact ints, checked to form an
    n x n matrix over 0..n-1; the first faulty row or cell, in row order,
    raises MalformedTableError.

    Up to _BYTE_ORDER a row is read by one bytes(row), which takes only
    integers in 0..255, and range-checked by one translate; above it, by
    operator.index per cell and one frozenset.issuperset.  Either way no
    Python code runs per cell."""
    rows = tuple(rows)
    if len(rows) != n:
        raise MalformedTableError(f"{name} table must have {n} rows, found {len(rows)}")
    small = n <= _BYTE_ORDER
    # built once the table holds n rows, so never larger than the input
    valid = bytes(range(n)) if small else frozenset(range(n))
    matrix = []
    for x, row in enumerate(rows):
        if type(row) not in _ROW_TYPES:
            row = tuple(row)
        try:
            cells = bytes(row) if small else tuple(map(index, row))
        except (TypeError, ValueError):  # a non-integer, or an entry past 255
            cells = None
        if (
            cells is None
            or len(cells) != n
            or (cells.translate(None, valid) if small else not valid.issuperset(cells))
        ):
            _refuse_row(row, n, name, x)
        matrix.append(tuple(cells))
    return tuple(matrix)


_set = object.__setattr__


class _Record:
    """Base of the package's immutable records: what ``@dataclass(frozen=True)``
    gives, without importing ``dataclasses`` or generating code.

    A subclass lists its fields as annotations, in order; a class attribute
    of the same name is that field's default.  From them the base gives
    construction by position and keyword, a ``__post_init__`` hook, equality
    with records of the same class only, ``hash`` of the tuple of fields,
    the dataclass repr, and AttributeError on assignment or deletion.
    Fields are set with ``object.__setattr__``, as ``__post_init__`` may
    also do; touching ``__dict__`` instead would make every later attribute
    read slower.  ``functools.cached_property`` keeps what it caches in the
    instance ``__dict__``, outside equality.  A class built in bulk defines
    its own ``__init__`` with the fields as parameters, which is faster than
    the generic one.
    """

    def __init_subclass__(cls):
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
        values = attrgetter(*fields)
        if len(fields) == 1:  # attrgetter of one name gives the bare value
            values = staticmethod(lambda self, one=values: (one(self),))
        cls._values = values

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            _set(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, for a call that names some fields or
        leaves some to their defaults."""
        fields, defaults = cls._fields, cls._defaults
        given = dict(zip(fields, args))
        if (
            len(args) > len(fields)
            or any(f not in fields or f in given for f in kwargs)
            or any(f not in given and f not in kwargs and f not in defaults for f in fields)
        ):
            raise TypeError(
                f"{cls.__name__}() takes each of {', '.join(fields)} once, by position"
                f" or keyword; got {len(args)} by position and {sorted(kwargs)}"
            )
        given.update(kwargs)
        return [given[f] if f in given else defaults[f] for f in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._values(self))
        )
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DigroupTable(_Record):
    """A pointed carrier with two n x n operation tables.

    Structural well-formedness (square tables, entries in range, distinct
    labels) is enforced at construction time and raises
    :class:`MalformedTableError`.  Whether the tables satisfy the digroup
    axioms is a separate question answered by :func:`validate_digroup`.

    The order, the identity and every table entry must be integers, that is
    have ``__index__``: ints and bools pass and are stored as exact ints,
    while a float (even ``1.0``), a string (even ``"1"``) or None raises
    MalformedTableError naming the field or the first such cell.
    """

    order: int
    identity: Element
    left: tuple[tuple[Element, ...], ...]
    right: tuple[tuple[Element, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def __init__(self, order, identity, left, right, labels=None):
        n = _integer(order, "order")
        e = _integer(identity, "identity")
        _set(self, "order", n)
        _set(self, "identity", e)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
        _set(self, "labels", labels)
        if n < 1:
            raise MalformedTableError(f"order must be >= 1, got {n}")
        if not (0 <= e < n):
            raise MalformedTableError(f"identity index {e} out of range for order {n}")
        _set(self, "left", _as_matrix(left, n, "left"))
        _set(self, "right", _as_matrix(right, n, "right"))
        if self.labels is not None:
            if len(self.labels) != n:
                raise MalformedTableError(
                    f"labels must have {n} entries, found {len(self.labels)}"
                )
            if len(set(self.labels)) != n:
                raise MalformedTableError("labels must be pairwise distinct")

    def label(self, x: Element) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def elements(self) -> range:
        return range(self.order)


class Violation(_Record):
    """One broken law with the lexicographically first witness tuple."""

    law: str
    witnesses: tuple[Element, ...]
    lhs: Optional[Element] = None
    rhs: Optional[Element] = None

    def __init__(self, law, witnesses, lhs=None, rhs=None):
        _set(self, "law", law)
        _set(self, "witnesses", witnesses)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class ValidationReport(_Record):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        # ok is derived, but printed and digested reports name it
        return f"ValidationReport(ok={self.ok}, violations={self.violations!r})"

    @staticmethod
    def from_violations(violations: Iterable[Violation]) -> "ValidationReport":
        return ValidationReport(tuple(violations))


class Mapping(_Record):
    """A finite function between index sets, as an image vector.

    Used for homomorphisms, Liu-inverse maps, relabelings, transform
    labelings and the transforms themselves: a translation of a digroup of
    order n is a ``Mapping(n, n, row)``.  Composition applies the right
    factor first: ``f.compose(g)(x) = f(g(x))``.
    """

    domain_size: int
    codomain_size: int
    image: tuple[int, ...]

    def __init__(self, domain_size, codomain_size, image):
        n = _integer(domain_size, "domain size")
        m = _integer(codomain_size, "codomain size")
        image = _integers(image, "mapping image")
        _set(self, "domain_size", n)
        _set(self, "codomain_size", m)
        _set(self, "image", image)
        if len(image) != n:
            raise MalformedTableError(
                f"mapping image has {len(image)} entries, expected {n}"
            )
        if image and (min(image) < 0 or max(image) >= m):
            x, v = next((x, v) for x, v in enumerate(image) if not 0 <= v < m)
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


def _reindex(table: DigroupTable, members: Sequence[Element]) -> DigroupTable:
    """The table on members[0], members[1], ... relabelled 0, 1, ....  The
    members must hold the identity and every product of two members.

    Each table is read flat: the rows of the members end to end; then, for
    each member b, column b of those rows as one stride-n slice, which lays
    the picked table out transposed; then every m-th cell of that, which
    gives its rows back.  Up to _BYTE_ORDER the cells are byte strings and
    one translate relabels them all; above it they are tuples relabelled
    through a position dict.  Either way no cell is visited by Python code,
    and the rows are handed to DigroupTable as built."""
    n, m = table.order, len(members)
    if n <= _BYTE_ORDER:
        code = bytearray(256)
        for i, x in enumerate(members):
            code[x] = i
        kind, join = bytes, b"".join
        relabel = lambda cells: cells.translate(code)
    else:
        pos = {x: i for i, x in enumerate(members)}
        kind, join = tuple, lambda parts: tuple(chain.from_iterable(parts))
        relabel = lambda cells: tuple(map(pos.__getitem__, cells))

    def reindexed(rows):
        flat = join(map(kind, map(rows.__getitem__, members)))
        cells = relabel(join([flat[b::n] for b in members]))
        return [cells[i::m] for i in range(m)]

    (e,) = relabel(kind((table.identity,)))
    left, right = reindexed(table.left), reindexed(table.right)
    labels = None if table.labels is None else map(table.labels.__getitem__, members)
    return DigroupTable(m, e, left, right, labels)


def _first_difference(a: bytes, b: bytes) -> int:
    """The first index where two unequal byte strings of one length differ."""
    bits = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return len(a) - 1 - (bits.bit_length() - 1) // 8


def _liu_inverses(e: Element, left: Sequence, right: Sequence) -> list[Element]:
    """For each x the first y with x↼y = e and y⇀x = e, or -1 if there is
    none.  Rows may be byte strings or tuples; index finds each e in row x of
    ↼, so the scan visits no cell of that row one by one."""
    inverses = []
    for x, row in enumerate(right):
        try:
            y = row.index(e)
            while left[y][x] != e:
                y = row.index(e, y + 1)
        except ValueError:
            y = -1
        inverses.append(y)
    return inverses


def _close(found: set, step) -> None:
    """Add to found every value that step, which maps a value to an iterable
    of its images, reaches from a member.  step may read found, which grows
    as the closure runs, but must not return a lazy view of it."""
    stack = list(found)
    while stack:
        for v in step(stack.pop()):
            if v not in found:
                found.add(v)
                stack.append(v)


def _violations(
    e: Element, left: Sequence[bytes], right: Sequence[bytes]
) -> Iterator[tuple[int, Violation]]:
    """Yield ``(k, violation)`` for every law ``DIGROUP_LAWS[k]`` the tables
    break, each with its lexicographically first witness.

    ``left`` and ``right`` are the rows of ⇀ and ↼ as byte strings.  The
    laws come out in no fixed order, each as soon as it is found, so a
    caller that only asks whether a table is a digroup stops at the first.
    """
    n = len(left)
    inverses = _liu_inverses(e, left, right)
    if -1 in inverses:
        yield 8, Violation(INVERSE_MISSING, (inverses.index(-1),))
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
    yield from _diassoc_violations((left, right), range(5))


def _diassoc_violations(
    rows: Sequence[Sequence[bytes]], laws: Iterable[int]
) -> Iterator[tuple[int, Violation]]:
    """Yield ``(k, violation)`` for every law ``_DIASSOC[k]``, k in laws,
    that the tables break, each with its lexicographically first witness.

    rows[0] and rows[1] are the rows of ⇀ and ↼ as byte strings; a caller
    that asks only about laws reading ⇀ may pass ⇀ alone.  For each x, build
    makes each side of the laws still open for all (y, z) at once, flattened
    as y*n + z: x a (y b z) by translating the flattened b table through row
    x of a, (x a y) b z by joining the rows of b that row x of a names.
    Each law is then one comparison per x, and x runs in order, so the first
    x that breaks a law holds its first witness.
    """
    n = len(rows[0])
    flats = tuple(map(b"".join, rows))
    pad = bytes(256 - n)  # translate takes a 256-byte table: n <= 256

    def build(side: tuple[bool, int, int], x: Element) -> bytes:
        nested, a, b = side
        if nested:
            return flats[b].translate(rows[a][x] + pad)
        return b"".join(map(rows[b].__getitem__, rows[a][x]))

    open_laws = list(laws)
    for x in range(n):
        built = {side: build(side, x) for side in {s for k in open_laws for s in _DIASSOC[k]}}
        still_open = []
        for k in open_laws:
            lhs, rhs = map(built.__getitem__, _DIASSOC[k])
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
    return liu_inverse_map(table)(x)


def liu_inverse_map(table: DigroupTable) -> Mapping:
    """Liu inverse of every element, as a self-mapping of the carrier.  The
    scan is the validator's own, so it fails exactly where the validator
    reports INVERSE_MISSING, at the same element."""
    n = table.order
    inverses = _liu_inverses(table.identity, table.left, table.right)
    if -1 in inverses:
        x = inverses.index(-1)
        raise DigroupError(f"element {x} has no Liu inverse; table was not validated")
    return Mapping(n, n, tuple(inverses))


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


def trivial_digroup(n: int) -> DigroupTable:
    """The projection digroup: x ⇀ y = x and x ↼ y = y, identity 0.

    Every element is a bar-unit here; 0 is the distinguished one.  The order-2
    instance is the smallest digroup that is not a group.
    """
    if n < 1:
        raise MalformedTableError("trivial digroup needs order >= 1")
    left = tuple((x,) * n for x in range(n))
    right = (tuple(range(n)),) * n
    return DigroupTable(n, 0, left, right)


def cyclic_group(n: int) -> DigroupTable:
    """The cyclic group of order n read as a digroup (both products equal)."""
    if n < 1:
        raise MalformedTableError("cyclic group needs order >= 1")
    base = tuple(range(n))
    rows = tuple(base[x:] + base[:x] for x in range(n))  # row x is (x + y) % n
    return DigroupTable(n, 0, rows, rows)


def symmetric_group_3() -> DigroupTable:
    """S3 as a digroup; elements are the permutations of three points in
    lexicographic order, composed left-to-right as functions."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
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
    (first_left[i][k], second_left[j][l]), and likewise for ↼.

    Row (i, j) of a product is, for k = 0, 1, ..., row j of the second
    table shifted by t * s, where t = first[i][k].  The g shifted copies of
    each second row are built once, by mapping an add over the row, and each
    product row joins the copies that row i of the first table names, so
    the g * s * s entries of the copies and the (g * s)^2 cells are all
    written by C-level maps and joins.  Up to _BYTE_ORDER the copies are
    byte strings and a row is one bytes join; above it they are lists, which
    a row chains.  The rows are handed to DigroupTable unbuilt, so the only
    copy made of them is the table's own."""
    g, s = len(first_left), len(second_left)
    # lists, not tuples: freed tuples of under 20 entries stay on CPython's
    # free list, which would raise the peak of what follows
    kind, glue = (bytes, b"".join) if g * s <= _BYTE_ORDER else (list, chain.from_iterable)

    def rows(first, second):
        shifted = [[kind(map((t * s).__add__, row)) for t in range(g)] for row in second]
        return (
            glue(map(copies.__getitem__, row))
            for row in first
            for copies in shifted
        )

    left, right = rows(first_left, second_left), rows(first_right, second_right)
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
        m = trivial_digroup(2)
        return DigroupTable(2, 0, m.left, m.right, _M_LABELS)
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
        # int() alone would also read signs, spaces, underscores and
        # non-ASCII digits; it refuses a body of too many digits
        if not (body.isascii() and body.isdigit()):
            raise ValueError(body)
        k = int(body)
    except ValueError:
        raise DigroupError(f"bad order in builtin name {name!r}") from None
    # No command can check a larger table, and building one takes memory
    # growing as k^2.
    _require_checkable(k)
    return factory(k)
