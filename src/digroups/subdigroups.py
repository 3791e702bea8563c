"""Subdigroups: subsets containing the identity that are digroups on their own.

Three equivalent characterizations are implemented independently so their
agreement is a checkable theorem, not a definition:

  (i)   e in H and the restricted tables satisfy every digroup axiom,
  (ii)  e in H and (H ⇀ H~) ∪ (H~ ↼ H) ⊆ H, where H~ is the set of ambient
        Liu inverses of H,
  (iii) H nonempty, closed under both products and under ambient Liu inverses.

Liu inverses in (ii) and (iii) are always taken in the ambient digroup, from
liu_inverse_map, whose scan is the validator's own.  generated_subdigroup is
the closure operator of (iii): the package's one worklist closure, _close,
run from seed ∪ {e} under the Liu inverse and both products.  Its closed sets
are exactly the subdigroups, so they can be listed through it one closure at
a time, as NextClosure does (Ganter 1984).
"""

from __future__ import annotations

from .tables import (
    DigroupTable,
    Element,
    MalformedTableError,
    UnsupportedOrderError,
    _Record,
    _close,
    _reindex,
    liu_inverse_map,
    validate_digroup,
)

_SUBSET_SCAN_CAP = 16  # exhaustive subset scans stop at 2^16 subsets


class SubsetMask(_Record):
    """A subset of the carrier of a digroup of the given order."""

    order: int
    members: frozenset[Element]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(x) for x in self.members))
        for x in self.members:
            if not (0 <= x < self.order):
                raise MalformedTableError(f"subset member {x} out of range")

    @property
    def mask(self) -> int:
        return sum(1 << x for x in self.members)

    def sorted_members(self) -> tuple[Element, ...]:
        return tuple(sorted(self.members))

    @staticmethod
    def of(order: int, members) -> "SubsetMask":
        return SubsetMask(order, frozenset(members))


def _members(table: DigroupTable, subset) -> frozenset[Element]:
    if isinstance(subset, SubsetMask):
        if subset.order != table.order:
            raise MalformedTableError("subset order does not match table order")
        return subset.members
    return SubsetMask.of(table.order, subset).members


def _is_closed(table: DigroupTable, mask: int, liu: tuple[Element, ...]) -> bool:
    """Criterion (iii) on the members of a nonzero bitmask: closed under both
    products and the ambient Liu inverses ``liu``."""
    members = [x for x in range(table.order) if mask >> x & 1]
    for a in members:
        if not mask >> liu[a] & 1:
            return False
        left, right = table.left[a], table.right[a]
        for b in members:
            if not mask >> left[b] & 1 or not mask >> right[b] & 1:
                return False
    return True


def is_subdigroup(table: DigroupTable, subset) -> bool:
    """Criterion (iii): nonempty, closed under both products and Liu inverses."""
    mask = sum(1 << x for x in _members(table, subset))
    return mask != 0 and _is_closed(table, mask, liu_inverse_map(table).image)


def restrict(table: DigroupTable, subset) -> DigroupTable:
    """Restrict the tables to a closed subset, re-indexed in ascending order.

    Raises MalformedTableError if the subset is not closed under both products
    or does not contain the identity.
    """
    h = sorted(_members(table, subset))
    if table.identity not in h:
        raise MalformedTableError("restriction requires the identity in the subset")
    try:
        return _reindex(table, h)
    except KeyError:
        raise MalformedTableError("subset is not closed under the products") from None


def subdigroup_criteria(table: DigroupTable, subset) -> tuple[bool, bool, bool]:
    """Evaluate the three subdigroup criteria independently from definitions."""
    h = _members(table, subset)
    e = table.identity

    # (i) restrict literally and run the axiom checker; a closure failure
    # means the restriction is not even a table, hence not a digroup.
    crit_i = False
    if e in h:
        try:
            crit_i = validate_digroup(restrict(table, h)).ok
        except MalformedTableError:
            crit_i = False

    # (ii) e in H and (H ⇀ H~) ∪ (H~ ↼ H) ⊆ H, exactly these two product sets.
    crit_ii = False
    if e in h:
        liu = liu_inverse_map(table)
        inv = {liu(a) for a in h}
        crit_ii = all(table.left[a][k] in h for a in h for k in inv) and all(
            table.right[k][a] in h for k in inv for a in h
        )

    return crit_i, crit_ii, is_subdigroup(table, h)


def generated_subdigroup(table: DigroupTable, seed) -> SubsetMask:
    """Smallest subdigroup containing the seed set: the closure of
    seed ∪ {e} under both products and Liu inverses."""
    liu, left, right = liu_inverse_map(table), table.left, table.right
    closure = set(_members(table, seed)) | {table.identity}
    _close(
        closure,
        lambda a: [liu(a)]
        + [p for b in closure for p in (left[a][b], left[b][a], right[a][b], right[b][a])],
    )
    return SubsetMask.of(table.order, closure)


def all_subdigroups(table: DigroupTable) -> list[SubsetMask]:
    """Every subdigroup, in ascending bitmask order.  Exhaustive over all
    2^n - 1 nonempty subsets, capped at order 16."""
    n = table.order
    if n > _SUBSET_SCAN_CAP:
        raise UnsupportedOrderError(
            f"subset scan supports order <= {_SUBSET_SCAN_CAP}, got {n}"
        )
    liu = liu_inverse_map(table).image
    return [
        SubsetMask.of(n, (x for x in range(n) if mask >> x & 1))
        for mask in range(1, 1 << n)
        if _is_closed(table, mask, liu)
    ]
