"""Standard triples: transform sets, their composition, and the pair digroup.

A standard triple on a finite carrier is a transformation group, a
transformation semigroup with a right unit and a chosen left inverse for each
member, and a compatibility map phi from the semigroup to the group
satisfying:

    f∘e = f                      (right unit)
    linv(f)∘f = e                (left inverse)
    phi(f∘g) = phi(f)∘phi(g)     phi(S)∘S ⊆ S
    phi(e)∘f = f                 e∘f = phi(f)∘e
    phi(f)∘linv(f) = e
    f∘phi(g) = f∘g               phi(phi(f)∘g) = phi(f)∘phi(g)

Every digroup yields one: its left translation sets, x -> a ↼ x (the group
part, rows of the right table) and x -> a ⇀ x (the semigroup part, rows of the
left table), with phi sending the semigroup transform of a to the group
transform of a.  Every standard triple yields a digroup on (group) x
(semigroup) pairs:

    (α, f) ⇀ (β, g) = (α∘β, f∘g)
    (α, f) ↼ (β, g) = (α∘β, phi(f)∘g)

with identity (1, e) and Liu inverse (α⁻¹, linv(f)).

Why the pair table of a triple that passes ``validate_triple`` is a digroup,
law by law (the source paper's second theorem).  Members are self-maps of
the carrier and ∘ is composition of maps, which is associative.  A part
holds each map once, so a pair of members is one carrier point, and two
products agree exactly when their components agree.  Write x = (α, f),
y = (β, g), z = (γ, h).

  Well-defined.  α∘β ∈ G (GROUP_CLOSURE), f∘g ∈ S (SEMI_CLOSURE) and
    phi(f)∘g ∈ S (PHI_ABSORB), so both products land on pairs.
  First components.  Both products compose them, so each side of DIASSOC_1
    to DIASSOC_5 has first component α∘β∘γ.  Second components:
  DIASSOC_1  x⇀(y⇀z) = (x⇀y)⇀z:  f∘(g∘h) = (f∘g)∘h by associativity.
  DIASSOC_2  (x⇀y)⇀z = x⇀(y↼z):  f∘(phi(g)∘h) = (f∘phi(g))∘h = (f∘g)∘h
    by PHI_RIGHT_ABSORB.
  DIASSOC_3  (x↼y)⇀z = x↼(y⇀z):  (phi(f)∘g)∘h = phi(f)∘(g∘h) by
    associativity.
  DIASSOC_4  (x⇀y)↼z = (x↼y)↼z:  phi(f∘g)∘h = phi(phi(f)∘g)∘h, since
    phi(f∘g) = phi(f)∘phi(g) (PHI_HOMOMORPHISM) = phi(phi(f)∘g)
    (PHI_COMPOSE).
  DIASSOC_5  (x↼y)↼z = x↼(y↼z):  phi(phi(f)∘g)∘h = phi(f)∘phi(g)∘h
    (PHI_COMPOSE) = phi(f)∘(phi(g)∘h) by associativity.
  The identity (1, e) is a pair: 1 ∈ G (GROUP_IDENTITY), e ∈ S the right
    unit.  Composing with 1 leaves a first component alone.
  BARUNIT_RIGHT  x⇀(1, e) = (α, f∘e) = (α, f) by SEMI_RIGHT_UNIT.
  BARUNIT_LEFT   (1, e)↼x = (α, phi(e)∘f) = (α, f) by PHI_UNIT_ACTS.
  BARUNIT_SWAP   x↼(1, e) = (α, phi(f)∘e) and (1, e)⇀x = (α, e∘f) agree
    by PHI_UNIT_SWAP.
  INVERSE_MISSING  never: y = (α⁻¹, linv(f)) is a pair, as α⁻¹ ∈ G
    (GROUP_BIJECTION, GROUP_INVERSE) and linv indexes S; y⇀x =
    (α⁻¹∘α, linv(f)∘f) = (1, e) by SEMI_LEFT_INVERSE, and x↼y =
    (α∘α⁻¹, phi(f)∘linv(f)) = (1, e) by PHI_LEFT_INVERSE.

So ``digroup_from_triple`` checks the triple, with O(|S|²) compositions,
and not the table, whose axiom check decides (|G|·|S|)³ triples.  Only this
direction holds: the builder never reads ``left_inverse``, so a triple with
a wrong left-inverse entry fails validation yet builds a digroup.

This module owns that idea whole and reads only the table layer.  A
``TransformSet`` holds distinct ``Mapping`` self-maps of the carrier and
composes them as byte strings with ``bytes.translate``.  One composition
table, the index of f∘h for every pair of members with None where f∘h falls
outside its part, serves both the closure laws of ``validate_triple``, which
report the first missing composite, and the pair-table builder.  The
builder refuses nothing but a product past the order cap: every
construction checks the triple, or the digroup the triple comes from, and
the product's order before it builds, and a triple that passes lacks no
composite and holds the identity transform.  The translation
module builds its products and its identity suite on the same extraction,
composition and builder, so each law code has one meaning across both
modules.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .tables import (
    DigroupError,
    DigroupTable,
    Element,
    MalformedTableError,
    Mapping,
    ValidationReport,
    Violation,
    _Record,
    _integer,
    _integers,
    _pair_table,
    _require_checkable,
    liu_inverse_map,
)

# Triple law codes, in report order.
GROUP_BIJECTION = "GROUP_BIJECTION"  # every α is a bijection
GROUP_IDENTITY = "GROUP_IDENTITY"  # 1 ∈ G
GROUP_CLOSURE = "GROUP_CLOSURE"  # α∘β ∈ G
GROUP_INVERSE = "GROUP_INVERSE"  # α⁻¹ ∈ G
SEMI_CLOSURE = "SEMI_CLOSURE"  # f∘g ∈ S
SEMI_RIGHT_UNIT = "SEMI_RIGHT_UNIT"  # f∘e = f
SEMI_LEFT_INVERSE = "SEMI_LEFT_INVERSE"  # linv(f)∘f = e
PHI_HOMOMORPHISM = "PHI_HOMOMORPHISM"  # phi(f∘g) = phi(f)∘phi(g)
PHI_ABSORB = "PHI_ABSORB"  # phi(f)∘g ∈ S
PHI_UNIT_ACTS = "PHI_UNIT_ACTS"  # phi(e)∘g = g
PHI_UNIT_SWAP = "PHI_UNIT_SWAP"  # e∘f = phi(f)∘e
PHI_LEFT_INVERSE = "PHI_LEFT_INVERSE"  # phi(f)∘linv(f) = e
PHI_RIGHT_ABSORB = "PHI_RIGHT_ABSORB"  # f∘phi(g) = f∘g
PHI_COMPOSE = "PHI_COMPOSE"  # phi(phi(f)∘g) = phi(f)∘phi(g)

TRIPLE_LAWS = (
    GROUP_BIJECTION,
    GROUP_IDENTITY,
    GROUP_CLOSURE,
    GROUP_INVERSE,
    SEMI_CLOSURE,
    SEMI_RIGHT_UNIT,
    SEMI_LEFT_INVERSE,
    PHI_HOMOMORPHISM,
    PHI_ABSORB,
    PHI_UNIT_ACTS,
    PHI_UNIT_SWAP,
    PHI_LEFT_INVERSE,
    PHI_RIGHT_ABSORB,
    PHI_COMPOSE,
)


class TransformSet(_Record):
    """Distinct transforms, self-maps of a carrier of ``carrier_size``
    points, with a labeling of carrier elements onto them.

    Duplicate functions collapse (set semantics); label_of records which
    transform each element's translation became, and is surjective.
    """

    carrier_size: int
    transforms: tuple[Mapping, ...]
    label_of: Mapping

    def __post_init__(self):
        n = self.carrier_size
        if any((t.domain_size, t.codomain_size) != (n, n) for t in self.transforms):
            raise MalformedTableError(f"transforms must be self-maps of {n} points")
        images = [t.image for t in self.transforms]
        if len(set(images)) != len(images):
            raise MalformedTableError("transform set contains duplicate functions")
        if set(self.label_of.image) != set(range(len(self.transforms))):
            raise MalformedTableError("element labeling must cover every transform")

    def __len__(self) -> int:
        return len(self.transforms)

    @cached_property
    def _rows(self) -> tuple[bytes, ...]:
        """The members as byte strings, the form composing loops use."""
        _require_checkable(self.carrier_size)  # translate tables have 256 entries
        return tuple(bytes(t.image) for t in self.transforms)

    @cached_property
    def _after(self) -> tuple[bytes, ...]:
        """Per member f, the translate table with h.translate(table) = f∘h."""
        return tuple(row.ljust(256, b"\0") for row in self._rows)

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return {row: i for i, row in enumerate(self._rows)}

    def index_of(self, t: Mapping) -> Optional[int]:
        """Index of a transform by extension, or None if absent.  Carriers
        beyond the axiom check's cap raise UnsupportedOrderError."""
        return self._index.get(bytes(t.image))

    @staticmethod
    def from_rows(rows) -> "TransformSet":
        """Build from per-element image rows, deduplicating in first-seen order."""
        rows = [_integers(row, f"transform rows[{i}]") for i, row in enumerate(rows)]
        if not rows:
            raise MalformedTableError("transform set needs at least one transform")
        n = len(rows[0])
        seen: dict[tuple[int, ...], int] = {}
        transforms: list[Mapping] = []
        labels: list[int] = []
        for row in rows:
            if row not in seen:
                seen[row] = len(transforms)
                transforms.append(Mapping(n, n, row))
            labels.append(seen[row])
        return TransformSet(
            n, tuple(transforms), Mapping(len(rows), len(transforms), tuple(labels))
        )


def _left_parts(table: DigroupTable) -> tuple[TransformSet, TransformSet]:
    """The group part x -> a ↼ x (rows of the right table) and the semi part
    x -> a ⇀ x (rows of the left table) of a digroup's left translations."""
    return TransformSet.from_rows(table.right), TransformSet.from_rows(table.left)


def _phi(pair: Sequence[TransformSet], e: Element) -> Mapping:
    """phi over a (group part, semi part) pair of left translation sets:
    phi(f) is the group transform of the element f(e) that f recovers."""
    group, semi = pair
    image = tuple(group.label_of(f(e)) for f in semi.transforms)
    return Mapping(len(semi), len(group), image)


def _first_violation(store: dict, law: str, witnesses: tuple[int, ...]) -> None:
    """Record a violation of law at witnesses unless law already has one."""
    if law not in store:
        store[law] = Violation(law, witnesses)


def _composition_table(afters, ts: TransformSet) -> list[list[Optional[int]]]:
    """Per translate table of a transform f, the index in ts of f∘h for every
    member h, or None where f∘h lies outside ts."""
    index = ts._index.get
    return [[index(h.translate(after)) for h in ts._rows] for after in afters]


def _first_missing(table) -> Optional[tuple[int, int]]:
    """The first (f, h) in lexicographic order whose composite the
    composition table lacks, or None if every composite is present."""
    return next(((i, row.index(None)) for i, row in enumerate(table) if None in row), None)


def _index_tables(group: TransformSet, semi: TransformSet, phi: Sequence[int]):
    """The index tables of α∘β (group part), f∘g (semi part) and phi(f)∘g
    (semi part), None where a composite lies outside its part.  They fill
    the pair digroup, whose callers check the triple or its source first, so
    that every composite is present, and they hold |G|² + 2·|S|² cells
    whatever the product's order."""
    return (
        _composition_table(group._after, group),
        _composition_table(semi._after, semi),
        _composition_table([group._after[pj] for pj in phi], semi),
    )


def _triple_table(
    group: TransformSet, semi: TransformSet, phi: Sequence[int], right_unit: int
) -> DigroupTable:
    """The unvalidated pair digroup of standard-triple data that passes
    ``validate_triple``: pairs (i, j) of group and semi indices, the left
    product composing both components, the right product composing first
    components and setting the second to phi(f)∘g, identity (identity
    transform, right unit)."""
    first, second, mixed = _index_tables(group, semi, phi)
    ident = group._index[bytes(range(group.carrier_size))]
    return _pair_table(first, first, second, mixed, (ident, right_unit))


class TripleValidationError(DigroupError):
    """A digroup was requested from a triple that fails validation."""


class StandardTriple(_Record):
    """Group part, semigroup part, right unit, left-inverse selection, and
    phi, all as transforms of a common carrier.

    right_unit indexes into semi_part; left_inverse and phi are index maps on
    semi_part (phi lands in group_part).  The left-inverse selection is given
    data, never re-searched; validation checks it satisfies both inverse laws.
    All three are integers under :class:`DigroupTable`'s contract: a float,
    a string or None raises MalformedTableError.
    """

    carrier_size: int
    group_part: TransformSet
    semi_part: TransformSet
    right_unit: int
    left_inverse: tuple[int, ...]
    phi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "right_unit", _integer(self.right_unit, "right unit"))
        object.__setattr__(self, "left_inverse", _integers(self.left_inverse, "left_inverse"))
        object.__setattr__(self, "phi", _integers(self.phi, "phi"))
        ng, ns = len(self.group_part), len(self.semi_part)
        if self.group_part.carrier_size != self.carrier_size:
            raise MalformedTableError("group part carrier size mismatch")
        if self.semi_part.carrier_size != self.carrier_size:
            raise MalformedTableError("semi part carrier size mismatch")
        if not (0 <= self.right_unit < ns):
            raise MalformedTableError("right unit index out of range")
        if len(self.left_inverse) != ns or any(
            not (0 <= v < ns) for v in self.left_inverse
        ):
            raise MalformedTableError("left inverse map must index the semi part")
        if len(self.phi) != ns or any(not (0 <= v < ng) for v in self.phi):
            raise MalformedTableError("phi must map semi indices to group indices")


def validate_triple(triple: StandardTriple) -> ValidationReport:
    """Check every standard-triple condition exhaustively over all transform
    pairs.  Violations name the failing condition with transform-index
    witnesses; one violation per law, lexicographically first witness.
    Triples whose carrier, group part or semi part exceeds the axiom check's
    order cap raise UnsupportedOrderError; the triple of any checkable
    digroup stays within it."""
    g, s = triple.group_part, triple.semi_part
    n = triple.carrier_size
    _require_checkable(max(n, len(g), len(s)))
    # Members as byte rows with their translate tables: f∘h is
    # h.translate(after of f).
    G, S, GA, SA = g._rows, s._rows, g._after, s._after
    ident = bytes(range(n))
    eu = triple.right_unit
    unit = S[eu]
    phis = [G[k] for k in triple.phi]
    # The indices of α∘β, f∘h and phi(f)∘h, None outside the part.
    group, semi, mixed = _index_tables(g, s, triple.phi)

    found: dict[str, Violation] = {}

    for law, table in ((GROUP_CLOSURE, group), (SEMI_CLOSURE, semi), (PHI_ABSORB, mixed)):
        witness = _first_missing(table)
        if witness is not None:
            _first_violation(found, law, witness)
    if ident not in g._index:
        _first_violation(found, GROUP_IDENTITY, ())
    for i, a in enumerate(G):
        if len(set(a)) != n:
            _first_violation(found, GROUP_BIJECTION, (i,))
        elif bytes.maketrans(a, ident)[:n] not in g._index:
            _first_violation(found, GROUP_INVERSE, (i,))

    for j, (f, after) in enumerate(zip(S, SA)):
        if unit.translate(after) != f:
            _first_violation(found, SEMI_RIGHT_UNIT, (j,))
        if f.translate(SA[triple.left_inverse[j]]) != unit:
            _first_violation(found, SEMI_LEFT_INVERSE, (j,))

    for j, f in enumerate(S):
        fa, pfa = SA[j], GA[triple.phi[j]]
        if S[triple.left_inverse[j]].translate(pfa) != unit:
            _first_violation(found, PHI_LEFT_INVERSE, (j,))
        if j == eu:
            for l, h in enumerate(S):
                if h.translate(pfa) != h:
                    _first_violation(found, PHI_UNIT_ACTS, (l,))
        if f.translate(SA[eu]) != unit.translate(pfa):
            _first_violation(found, PHI_UNIT_SWAP, (j,))
        for l, (h, ph, fh, pfh) in enumerate(zip(S, phis, semi[j], mixed[j])):
            # phi(f)∘phi(h) against phi(f∘h) and phi(phi(f)∘h); fh and pfh
            # index f∘h and phi(f)∘h in S, None where they lie outside it
            pfph = ph.translate(pfa)
            if fh is None or phis[fh] != pfph:
                _first_violation(found, PHI_HOMOMORPHISM, (j, l))
            if ph.translate(fa) != h.translate(fa):
                _first_violation(found, PHI_RIGHT_ABSORB, (j, l))
            if pfh is None or phis[pfh] != pfph:
                _first_violation(found, PHI_COMPOSE, (j, l))

    ordered = [found[law] for law in TRIPLE_LAWS if law in found]
    return ValidationReport.from_violations(ordered)


def triple_from_digroup(table: DigroupTable) -> StandardTriple:
    """Extract the standard triple of a validated digroup: group part and
    semi part are its left translation sets, the right unit is the semi
    transform of e, the left inverse of the transform of a is the transform
    of the Liu inverse of a, and phi bridges the two sets."""
    group, semi = pair = _left_parts(table)
    e = table.identity
    liu = liu_inverse_map(table)
    return StandardTriple(
        carrier_size=table.order,
        group_part=group,
        semi_part=semi,
        right_unit=semi.label_of(e),
        left_inverse=tuple(semi.label_of(liu(f(e))) for f in semi.transforms),
        phi=_phi(pair, e).image,
    )


def digroup_from_triple(triple: StandardTriple) -> DigroupTable:
    """Build the pair digroup of a standard triple.

    The carrier is (group index, semi index) -> i * |semi| + j; the left
    product composes both components, the right product applies phi to the
    first factor's semi component.  Rejects products beyond the pair
    product's order cap before validating the triple, then triples failing
    validation.  The table of a triple that passes is a digroup by the
    proof in the module docstring, so it is returned unchecked.
    """
    _require_checkable(len(triple.group_part) * len(triple.semi_part), "pair product")
    report = validate_triple(triple)
    if not report.ok:
        raise TripleValidationError(
            "triple fails validation: " + "; ".join(v.law for v in report.violations)
        )
    return _triple_table(triple.group_part, triple.semi_part, triple.phi, triple.right_unit)
