"""Standard triples: the abstract shape behind the translation product.

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

Every digroup yields one (its left translation sets with phi), and every
standard triple yields a digroup on (group) x (semigroup) pairs:

    (α, f) ⇀ (β, g) = (α∘β, f∘g)
    (α, f) ↼ (β, g) = (α∘β, phi(f)∘g)

with identity (1, e) and Liu inverse (α⁻¹, linv(f)).  Transforms are
``Mapping`` self-maps of the carrier, composed and inverted as the byte
strings their ``TransformSet`` holds.  The translation product is this
construction on the extracted triple, built by the same table builder, and
``verify_translation_identities`` reports the violations of these laws on the
extracted triple; both modules record violations through the same collector.
Each law code has one meaning across both modules.
"""

from __future__ import annotations

from .tables import (
    DigroupTable,
    DigroupError,
    MalformedTableError,
    Mapping,
    ValidationReport,
    Violation,
    _Record,
    _require_checkable,
    ensure_valid,
    liu_inverse_map,
)
from .translations import (
    TransformSet,
    _first_violation,
    _phi,
    _require_product_checkable,
    _triple_table,
    left_translations,
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


class TripleValidationError(DigroupError):
    """A digroup was requested from a triple that fails validation."""


class StandardTriple(_Record):
    """Group part, semigroup part, right unit, left-inverse selection, and
    phi, all as transforms of a common carrier.

    right_unit indexes into semi_part; left_inverse and phi are index maps on
    semi_part (phi lands in group_part).  The left-inverse selection is given
    data, never re-searched; validation checks it satisfies both inverse laws.
    """

    carrier_size: int
    group_part: TransformSet
    semi_part: TransformSet
    right_unit: int
    left_inverse: tuple[int, ...]
    phi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left_inverse", tuple(map(int, self.left_inverse)))
        object.__setattr__(self, "phi", tuple(map(int, self.phi)))
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
    # Members as byte rows with their translate tables (see translations.py):
    # f∘h is h.translate(after of f); phi_of maps semi rows to phi rows.
    G, S, GA, SA = g._rows, s._rows, g._after, s._after
    ident = bytes(range(n))
    eu = triple.right_unit
    unit = S[eu]
    phis = [G[k] for k in triple.phi]
    phi_of = dict(zip(S, phis))

    found: dict[str, Violation] = {}

    for i, a in enumerate(G):
        if len(set(a)) != n:
            _first_violation(found, GROUP_BIJECTION, (i,))
    if ident not in g._index:
        _first_violation(found, GROUP_IDENTITY, ())
    for i, (a, after) in enumerate(zip(G, GA)):
        for k, b in enumerate(G):
            if b.translate(after) not in g._index:
                _first_violation(found, GROUP_CLOSURE, (i, k))
        if len(set(a)) == n and bytes.maketrans(a, ident)[:n] not in g._index:
            _first_violation(found, GROUP_INVERSE, (i,))

    for j, (f, after) in enumerate(zip(S, SA)):
        for l, h in enumerate(S):
            if h.translate(after) not in s._index:
                _first_violation(found, SEMI_CLOSURE, (j, l))
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
        for l, (h, ph) in enumerate(zip(S, phis)):
            # f∘h, phi(f)∘h and phi(f)∘phi(h)
            fh, mixed, pfph = h.translate(fa), h.translate(pfa), ph.translate(pfa)
            if phi_of.get(fh) != pfph:
                _first_violation(found, PHI_HOMOMORPHISM, (j, l))
            if mixed not in s._index:
                _first_violation(found, PHI_ABSORB, (j, l))
            if ph.translate(fa) != fh:
                _first_violation(found, PHI_RIGHT_ABSORB, (j, l))
            if phi_of.get(mixed) != pfph:
                _first_violation(found, PHI_COMPOSE, (j, l))

    ordered = [found[law] for law in TRIPLE_LAWS if law in found]
    return ValidationReport.from_violations(ordered)


def triple_from_digroup(table: DigroupTable) -> StandardTriple:
    """Extract the standard triple of a validated digroup: group part and
    semi part are its left translation sets, the right unit is the semi
    transform of e, the left inverse of the transform of a is the transform
    of the Liu inverse of a, and phi bridges the two sets."""
    return _triple_and_liu(table)[0]


def _triple_and_liu(table: DigroupTable) -> tuple[StandardTriple, Mapping]:
    """The standard triple of a validated digroup, with the Liu inverse map
    it was built from."""
    group, semi = pair = left_translations(table)
    e = table.identity
    liu = liu_inverse_map(table)
    phi_map = _phi(pair, e)
    left_inverse = []
    for f in semi.transforms:
        a = f(e)
        left_inverse.append(semi.label_of(liu(a)))
    triple = StandardTriple(
        carrier_size=table.order,
        group_part=group,
        semi_part=semi,
        right_unit=semi.label_of(e),
        left_inverse=tuple(left_inverse),
        phi=tuple(phi_map.image),
    )
    return triple, liu


def digroup_from_triple(triple: StandardTriple) -> DigroupTable:
    """Build the pair digroup of a standard triple.

    The carrier is (group index, semi index) -> i * |semi| + j; the left
    product composes both components, the right product applies phi to the
    first factor's semi component.  Rejects products beyond the axiom
    check's order cap before validating the triple, then triples failing
    validation, and verifies the produced table against the axiom checker.
    """
    _require_product_checkable(triple.group_part, triple.semi_part)
    report = validate_triple(triple)
    if not report.ok:
        raise TripleValidationError(
            "triple fails validation: " + "; ".join(v.law for v in report.violations)
        )
    return ensure_valid(
        _triple_table(
            triple.group_part, triple.semi_part, triple.phi, triple.right_unit
        )
    )
