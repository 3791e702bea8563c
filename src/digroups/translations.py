"""Translation representations and the Cayley-style embedding.

For an element a of a digroup there are four translation maps:

    by the left product:   x -> a ⇀ x   (rows of the left table)
    by the right product:  x -> a ↼ x   (rows of the right table)
    and their right-handed mirrors x -> x ⇀ a, x -> x ↼ a (columns).

Each translation is a transform: a self-map of the carrier held as a
``Mapping(n, n, row)``, and as a byte string in its ``TransformSet`` for
composing.  Read as sets of transforms these collapse: translations by the
right product form a group under composition, while the family x -> a ⇀ x
is a semigroup with a right unit and left inverses, always of size n because
each member f recovers its element as a = f(e).  The map phi sending the
semigroup-part transform of a to its group-part transform is a semigroup
homomorphism.

Composing the two families pairwise turns (group part) x (semi part) into a
digroup, and a -> (both translations of a) embeds the original digroup onto
the diagonal of that product: the digroup counterpart of Cayley's theorem.
The two sets with phi are the digroup's standard triple (see triples.py), so
this module has one builder for the pair digroup of triple data, shared with
``digroup_from_triple``; it refuses a product beyond the axiom check's order
cap before building any table.  The identity suite checks only the laws that
read the digroup's products or Liu inverses before running the triple laws
on the extracted triple, and both record violations through one collector.
The right-handed theory is the left one applied to the opposite digroup
(x ⇀' y = y ↼ x, x ↼' y = y ⇀ x): the right translations are its left
translations, read off the columns, and the pair-table builder fills the
mirrored product from their index tables, transposed, with the components
swapped.  Both products are verified alike: the product passes the axiom
check and eta is an injective homomorphism onto a subdigroup, which also
proves the source a digroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .morphisms import is_homomorphism
from .subdigroups import SubsetMask, is_subdigroup
from .tables import (
    ConstructionError,
    DigroupTable,
    Element,
    Mapping,
    MalformedTableError,
    UnsupportedOrderError,
    ValidationReport,
    Violation,
    _VALIDATE_CAP,
    _pair_table,
    _require_checkable,
    ensure_valid,
)

# Translation identity suite law codes, in report order.  The laws that only
# involve transforms are the standard-triple laws of the extracted triple.
TRANS_GRP_LPROD = "TRANS_GRP_LPROD"  # grp(a⇀b) = grp(a)∘grp(b)
TRANS_GRP_RPROD = "TRANS_GRP_RPROD"  # grp(a↼b) = grp(a)∘grp(b)
TRANS_MIXED_RPROD = "TRANS_MIXED_RPROD"  # semi(a↼b) = grp(a)∘semi(b)
TRANS_GRP_IDENTITY = "TRANS_GRP_IDENTITY"  # grp(e) = id
TRANS_GRP_INVERSE = "TRANS_GRP_INVERSE"  # grp(ǎ)∘grp(a) = id = grp(a)∘grp(ǎ)
TRANS_SEMI_PROD = "TRANS_SEMI_PROD"  # semi(a⇀b) = semi(a)∘semi(b)

TRANSLATION_LAWS = (
    TRANS_GRP_LPROD,
    TRANS_GRP_RPROD,
    TRANS_MIXED_RPROD,
    TRANS_GRP_IDENTITY,
    TRANS_GRP_INVERSE,
    TRANS_SEMI_PROD,
)


@dataclass(frozen=True)
class TransformSet:
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
        rows = [tuple(map(int, row)) for row in rows]
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


class TranslationPair(NamedTuple):
    """Group-part and semigroup-part translation sets of one digroup."""

    group_part: TransformSet
    semi_part: TransformSet


def left_translations(table: DigroupTable) -> TranslationPair:
    """Left translation sets: the group part collects x -> a ↼ x (rows of the
    right table; these collapse), the semi part x -> a ⇀ x (rows of the left
    table; always n distinct members since they send e to a)."""
    group = TransformSet.from_rows(table.right)
    semi = TransformSet.from_rows(table.left)
    return TranslationPair(group, semi)


def right_translations(table: DigroupTable) -> TranslationPair:
    """Right translation sets: the group part collects x -> x ⇀ a (columns of
    the left table), the semi part x -> x ↼ a (columns of the right table;
    always n distinct since they send e to a).  These are the left
    translation sets of the opposite digroup."""
    group = TransformSet.from_rows(zip(*table.left))
    semi = TransformSet.from_rows(zip(*table.right))
    return TranslationPair(group, semi)


def phi(table: DigroupTable) -> Mapping:
    """The semigroup homomorphism from semi-part transforms to group-part
    transforms, indexed over the left translation sets.

    Well-defined because a semi-part transform determines its element as the
    image of e; sends the transform of e to the identity transform.
    """
    return _phi(left_translations(table), table.identity)


def _phi(pair: TranslationPair, e: Element) -> Mapping:
    """phi over an already built pair of left translation sets."""
    group, semi = pair
    image = tuple(group.label_of(f(e)) for f in semi.transforms)
    return Mapping(len(semi), len(group), image)


def _first_violation(store: dict, law: str, witnesses: tuple[int, ...]) -> None:
    """Record a violation of law at witnesses unless law already has one."""
    if law not in store:
        store[law] = Violation(law, witnesses)


def verify_translation_identities(table: DigroupTable) -> ValidationReport:
    """Exhaustively check every translation identity over all element pairs.

    The input must be a validated digroup (``liu_inverse_map`` requires it).
    The laws that read the table's products or Liu inverses come first: the
    compatibility of translations with both products and the group structure
    of the group part, one violation per law, first witness in lexicographic
    (a, b) order.  The laws among transforms alone (the right unit and left
    inverses of the semi part and every phi law) are the standard-triple laws
    of the extracted triple; ``validate_triple`` checks them and its
    violations, with transform-index witnesses, are appended.
    """
    from .triples import _triple_and_liu, validate_triple  # triples imports us

    n = table.order
    e = table.identity
    triple, liu = _triple_and_liu(table)
    group, semi = triple.group_part, triple.semi_part
    ident = bytes(range(n))
    # Per element a: grp(a) and sem(a) as rows, and their translate tables.
    grp, sem = ([t._rows[k] for k in t.label_of.image] for t in (group, semi))
    gt, st = ([t._after[k] for k in t.label_of.image] for t in (group, semi))

    found: dict[str, Violation] = {}

    if grp[e] != ident:
        _first_violation(found, TRANS_GRP_IDENTITY, (e,))
    for a, ai in enumerate(liu.image):
        if grp[a].translate(gt[ai]) != ident or grp[ai].translate(gt[a]) != ident:
            _first_violation(found, TRANS_GRP_INVERSE, (a,))

    for a, (ga, sa) in enumerate(zip(gt, st)):
        for b, (lab, rab) in enumerate(zip(table.left[a], table.right[a])):
            ab = grp[b].translate(ga)
            if grp[lab] != ab:
                _first_violation(found, TRANS_GRP_LPROD, (a, b))
            if grp[rab] != ab:
                _first_violation(found, TRANS_GRP_RPROD, (a, b))
            # The composite grp(a)∘semi(b) evaluates x to a↼(b⇀x), which the
            # mixed associativity law rewrites to (a↼b)⇀x: the semi transform
            # of a↼b.  This is also what keeps the product construction's
            # right operation well-defined.
            if sem[rab] != sem[b].translate(ga):
                _first_violation(found, TRANS_MIXED_RPROD, (a, b))
            if sem[lab] != sem[b].translate(sa):
                _first_violation(found, TRANS_SEMI_PROD, (a, b))

    ordered = [found[law] for law in TRANSLATION_LAWS if law in found]
    ordered += validate_triple(triple).violations
    return ValidationReport.from_violations(ordered)


@dataclass(frozen=True)
class ProductDigroup:
    """A digroup built on pairs of transforms, with the embedding of the
    source digroup onto its diagonal.

    pair_labels[p] gives the (first component index, second component index)
    of carrier point p; eta maps source elements into the carrier; diagonal is
    the image of eta.  first_parts and second_parts hold the transform sets
    the two components are drawn from, so pairs can act on points.
    """

    table: DigroupTable
    pair_labels: tuple[tuple[int, int], ...]
    eta: Mapping
    diagonal: SubsetMask
    first_parts: TransformSet
    second_parts: TransformSet


def _composition_table(afters, ts: TransformSet, error: str) -> list[list[int]]:
    """Per translate table of a transform f, the index in ts of f∘h for every
    member h; each composite must lie in ts."""
    rows = []
    for after in afters:
        row = [ts._index.get(h.translate(after)) for h in ts._rows]
        if None in row:
            raise ConstructionError(error)
        rows.append(row)
    return rows


def _require_product_checkable(group: TransformSet, semi: TransformSet) -> None:
    """Refuse a pair product beyond the axiom check's order cap."""
    order = len(group) * len(semi)
    if order > _VALIDATE_CAP:
        raise UnsupportedOrderError(f"pair product supports order <= {_VALIDATE_CAP}, got {order}")


def _index_tables(group: TransformSet, semi: TransformSet, phi: Sequence[int]):
    """What the pair digroup of standard-triple data is filled from: the
    index of the identity transform in the group part, and the index tables
    of α∘β (group part), f∘g (semi part) and phi(f)∘g (semi part).  Products
    beyond the axiom check's cap are refused before any table is built."""
    _require_product_checkable(group, semi)
    ident = group._index.get(bytes(range(group.carrier_size)))
    if ident is None:
        raise ConstructionError("group part lacks the identity transform")
    first, second = (
        _composition_table(ts._after, ts, f"{what} not closed under composition")
        for ts, what in ((group, "group part"), (semi, "semi part"))
    )
    absorb = "phi image does not absorb into the semi part"
    mixed = _composition_table([group._after[pj] for pj in phi], semi, absorb)
    return ident, first, second, mixed


def _triple_table(
    group: TransformSet, semi: TransformSet, phi: Sequence[int], right_unit: int
) -> DigroupTable:
    """The unvalidated pair digroup of standard-triple data: pairs (i, j) of
    group and semi indices, the left product composing both components, the
    right product composing first components and setting the second to
    phi(f)∘g, identity (identity transform, right unit)."""
    ident, first, second, mixed = _index_tables(group, semi, phi)
    return _pair_table(first, first, second, mixed, (ident, right_unit))


def _embedded(
    source: DigroupTable,
    product: DigroupTable,
    first: TransformSet,
    second: TransformSet,
    what: str,
) -> ProductDigroup:
    """The validated pair table on (first) x (second) with the verified
    diagonal embedding a -> (first label of a, second label of a)."""
    try:
        ensure_valid(product)
    except ConstructionError as exc:
        raise ConstructionError(f"{what} product is not a digroup: {exc}") from exc
    n, s = source.order, len(second)
    pair_labels = tuple((i, j) for i in range(len(first)) for j in range(s))
    eta_image = tuple(first.label_of(a) * s + second.label_of(a) for a in range(n))
    eta = Mapping(n, product.order, eta_image)
    diagonal = SubsetMask.of(product.order, set(eta.image))
    prod = ProductDigroup(product, pair_labels, eta, diagonal, first, second)
    _verify_embedding(source, prod, f"{what} embedding")
    return prod


def translation_product_digroup(table: DigroupTable) -> ProductDigroup:
    """The digroup on (group part) x (semi part) of the left translations,
    with the diagonal embedding a -> (group transform of a, semi transform
    of a).

    Pairs are indexed (i, j) -> i * |semi| + j.  The left product composes
    both components; the right product composes first components and sets the
    second to phi(f)∘g.  The product must pass the axiom checker, and eta must
    be an injective homomorphism whose image is a subdigroup, hence an
    isomorphism of the source onto the diagonal; both are verified here.
    """
    e = table.identity
    group, semi = pair = left_translations(table)
    product = _triple_table(group, semi, _phi(pair, e).image, semi.label_of(e))
    return _embedded(table, product, group, semi, "left translation")


def _verify_embedding(source: DigroupTable, prod: ProductDigroup, what: str) -> None:
    # An injective homomorphism whose image is a subdigroup is an isomorphism
    # onto that subdigroup, so these three checks prove the embedding (and,
    # into a validated product, that the source is a digroup).
    if len(set(prod.eta.image)) != source.order:
        raise ConstructionError(f"{what}: embedding is not injective")
    if not is_homomorphism(source, prod.table, prod.eta):
        raise ConstructionError(f"{what}: embedding is not a homomorphism")
    if not is_subdigroup(prod.table, prod.diagonal):
        raise ConstructionError(f"{what}: diagonal is not a subdigroup")


def cayley_embedding(table: DigroupTable) -> ProductDigroup:
    """The translation product with its diagonal embedding, verified when
    built: the digroup counterpart of Cayley's theorem."""
    return translation_product_digroup(table)


def pair_action(
    prod: ProductDigroup, pair: int, point: tuple[Element, Element]
) -> tuple[Element, Element]:
    """Natural componentwise action of a product carrier point on a pair of
    source elements.  The identity pair need not act as the identity map."""
    i, j = prod.pair_labels[pair]
    x, y = point
    return (prod.first_parts.transforms[i](x), prod.second_parts.transforms[j](y))


def right_translation_product(table: DigroupTable) -> ProductDigroup:
    """The mirrored product digroup on right translations.

    The carrier pairs an x -> x ↼ a transform (first component, n distinct)
    with an x -> x ⇀ a transform (second component, the group part of the
    right translations), indexed (j, i) -> j * |group| + i.  It is the
    opposite of the opposite digroup's left product with the components
    swapped, filled directly from the right translation sets' index tables,
    transposed: ⇀ takes phi(f)∘g and ↼ takes f∘g in the first component, both
    take α∘β in the second.  The result must pass the axiom checker and carry
    the diagonal embedding a -> (semi label of a, group label of a).
    """
    e = table.identity
    group, semi = pair = right_translations(table)
    ident, first, second, mixed = _index_tables(group, semi, _phi(pair, e).image)
    mixed_t, second_t, first_t = (list(zip(*t)) for t in (mixed, second, first))
    unit = (semi.label_of(e), ident)
    product = _pair_table(mixed_t, second_t, first_t, first_t, unit)
    return _embedded(table, product, semi, group, "right translation")
