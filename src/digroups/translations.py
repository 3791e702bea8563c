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
The two sets with phi are the digroup's standard triple, and the triples
module owns that layer: ``TransformSet``, the extraction of the left parts,
phi, composition and the pair-digroup builder, which refuses a product
beyond the axiom check's order cap before building any table.  This module
imports them and adds what reads a digroup's products: the translation
sets as ``TranslationPair``s, the identity suite, both products and their
embeddings.  The identity suite checks only the laws that read the
digroup's products or Liu inverses, then appends ``validate_triple``'s
violations on the extracted triple; both record through one collector.
The right-handed theory is the left one applied to the opposite digroup
(x ⇀' y = y ↼ x, x ↼' y = y ⇀ x): the right translations are its left
translations, read off the columns, and the pair-table builder fills the
mirrored product from their index tables, transposed, with the components
swapped.  Both products are verified alike: the product passes the axiom
check and eta is an injective homomorphism onto a subdigroup, which also
proves the source a digroup.
"""

from __future__ import annotations

from typing import NamedTuple

from .morphisms import is_homomorphism
from .subdigroups import SubsetMask, is_subdigroup
from .tables import (
    ConstructionError,
    DigroupTable,
    Element,
    Mapping,
    ValidationReport,
    Violation,
    _Record,
    _pair_table,
    ensure_valid,
    liu_inverse_map,
)
from .triples import (
    TransformSet,
    _first_violation,
    _index_tables,
    _left_parts,
    _phi,
    _triple_table,
    triple_from_digroup,
    validate_triple,
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


class TranslationPair(NamedTuple):
    """Group-part and semigroup-part translation sets of one digroup."""

    group_part: TransformSet
    semi_part: TransformSet


def left_translations(table: DigroupTable) -> TranslationPair:
    """Left translation sets: the group part collects x -> a ↼ x (rows of the
    right table; these collapse), the semi part x -> a ⇀ x (rows of the left
    table; always n distinct members since they send e to a)."""
    return TranslationPair(*_left_parts(table))


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
    n = table.order
    e = table.identity
    triple = triple_from_digroup(table)
    liu = liu_inverse_map(table)
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


class ProductDigroup(_Record):
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
