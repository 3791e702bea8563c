"""Subdigroups: subsets containing the identity that are digroups on their own.

Three equivalent characterizations are implemented independently so their
agreement is a checkable theorem, not a definition:

  (i)   e in H and the restricted tables satisfy every digroup axiom,
  (ii)  e in H and (H ⇀ H~) ∪ (H~ ↼ H) ⊆ H, where H~ is the set of ambient
        Liu inverses of H,
  (iii) H contains e and is closed under both products.

Liu inverses in (ii) are taken in the ambient digroup, from liu_inverse_map,
whose scan is the validator's own.  (iii) holds the Liu inverses as well.
Let a ∈ H with Liu inverse y, so y⇀a = e = a↼y.  Then

  y = y⇀e = y⇀(a↼y) = (y⇀a)⇀y = e⇀y        (x⇀e = x and DIASSOC_2),

so every Liu inverse lies in E = e⇀G.  Under ⇀, E is closed and has the
identity e (e⇀(e⇀x) = e⇀x and u⇀e = u), and y is a left inverse there of
u = e⇀a: y⇀u = (y⇀e)⇀a = y⇀a = e.  A finite monoid whose elements all have
left inverses is a group, so u has some order k ≥ 1 in it and
y = u⇀u⇀…⇀u (k − 1 factors, e when k = 1).  Both e and a lie in H, hence u
and y do.  Conversely a nonempty set closed under both products and Liu
inverses holds a↼y = e.

So the subdigroups are exactly the closed sets of one closure operator,
_closure: the package's one worklist closure, _close, run from seed ∪ {e}
under both products.  generated_subdigroup returns it, is_subdigroup asks a
nonempty set to equal it, restrict refuses a set that differs from it, and
all_subdigroups lists its closed sets by NextClosure (B. Ganter, "Two basic
algorithms in concept analysis", 1984, reprinted in ICFCA 2010, LNCS 5986).

NextClosure lists the closed sets in lectic order: A comes before B when the
greatest element where they differ lies in B.  Element n − 1 is the greatest,
so A comes before B exactly when A's bitmask is below B's, since the highest
bit where two masks differ decides which is smaller.  The list starts at the
closure of the empty set, {e}.  After a closed set A ≠ G, the next one is

  cl({x ∈ A : x > i} ∪ {i})  for the least i ∉ A whose closure adds nothing
                             above i (its members above i are A's).

The next closed set B agrees with A above the greatest element i where they
differ, and holds i where A does not; so B contains that candidate, and the
two are equal because B is the least closed set after A.  Every accepted
candidate comes after A, and one from a smaller accepted i lacks the larger
i, as A does, so it comes first: B is the least accepted i's.  Each step
runs at most n closures, so a listing costs at most n closures per
subdigroup, not 2^n subset tests.
"""

from __future__ import annotations

from .tables import (
    DigroupTable,
    Element,
    MalformedTableError,
    UnsupportedOrderError,
    _Record,
    _close,
    _integers,
    _reindex,
    liu_inverse_map,
    validate_digroup,
)

_LISTING_CAP = 16  # listings stop at order 16; trivial(16) has 2^15 subdigroups


class SubsetMask(_Record):
    """A subset of the carrier of a digroup of the given order.  Members are
    integers under :class:`DigroupTable`'s contract: a float, a string or
    None raises MalformedTableError."""

    order: int
    members: frozenset[Element]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(_integers(self.members, "subset members")))
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


def _closure(table: DigroupTable, seed) -> set[Element]:
    """seed ∪ {e} closed under both products, by the package's one worklist
    closure.  Its closed sets are exactly the subdigroups."""
    left, right = table.left, table.right
    found = set(seed) | {table.identity}
    _close(
        found,
        lambda a: [p for b in found for p in (left[a][b], left[b][a], right[a][b], right[b][a])],
    )
    return found


def is_subdigroup(table: DigroupTable, subset) -> bool:
    """Criterion (iii): nonempty and equal to its own closure."""
    h = _members(table, subset)
    return bool(h) and generated_subdigroup(table, h).members == h


def restrict(table: DigroupTable, subset) -> DigroupTable:
    """Restrict the tables to a closed subset, re-indexed in ascending order.

    Raises MalformedTableError if the subset is not closed under both products
    or does not contain the identity.
    """
    h = _members(table, subset)
    if table.identity not in h:
        raise MalformedTableError("restriction requires the identity in the subset")
    if _closure(table, h) != h:
        raise MalformedTableError("subset is not closed under the products")
    return _reindex(table, sorted(h))


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
    seed ∪ {e} under both products."""
    liu_inverse_map(table)  # a table with no Liu inverse is refused here
    return SubsetMask.of(table.order, _closure(table, _members(table, seed)))


def all_subdigroups(table: DigroupTable) -> list[SubsetMask]:
    """Every subdigroup, in ascending bitmask order, listed by NextClosure
    with at most n closures per subdigroup; capped at order 16."""
    n = table.order
    if n > _LISTING_CAP:
        raise UnsupportedOrderError(
            f"subdigroup listing supports order <= {_LISTING_CAP}, got {n}"
        )
    liu_inverse_map(table)  # a table with no Liu inverse is refused here
    found = [{table.identity}]  # the closure of the empty set
    while len(closed := found[-1]) < n:
        for i in sorted(set(range(n)).difference(closed)):
            candidate = _closure(table, {x for x in closed if x > i} | {i})
            if all(x <= i or x in closed for x in candidate):
                found.append(candidate)
                break
    return [SubsetMask.of(n, h) for h in found]
