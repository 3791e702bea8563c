#!/usr/bin/env python3
"""Classifying all digroups of orders 1..6 up to isomorphism.

The search fixes the identity at index 0, seeds the bar-unit cells,
propagates the five diassociativity identities as cells fill in, and prunes
every partial table that a label permutation makes lexicographically
smaller, so each table it emits is already the canonical form of its class.
Order 6 settles the two headline facts: 6 is the smallest order with a
non-commutative digroup, and among non-groups there is exactly one
non-commutative class there, the builtin N.
"""

import time

from digroups import (
    builtin,
    count_by_class,
    enumerate_digroups,
    find_isomorphism,
    naive_enumerate,
    verify_classification_claims,
)

for n in range(1, 7):
    t0 = time.perf_counter()
    entries = enumerate_digroups(n)
    dt = time.perf_counter() - t0
    tags = []
    for e in entries:
        tag = "group" if e.group else "non-group"
        if not e.commutative:
            tag = "non-commutative " + tag
        tags.append(tag)
    print(f"order {n}: {len(entries)} classes in {dt:.2f}s -> {tags}")

print()
print("order 2 counts:", count_by_class(enumerate_digroups(2)))
print("naive oracle agrees at order 3:",
      [e.canonical for e in naive_enumerate(3)]
      == [e.canonical for e in enumerate_digroups(3)])
print()

report = verify_classification_claims()
for claim in report.claims:
    print(f"{claim.claim_id} {'PASS' if claim.passed else 'FAIL'}: {claim.expected}")
    print(f"   observed: {claim.observed}")

# The unique non-commutative non-group class at order 6 really is N:
six = enumerate_digroups(6)
the_one = [e for e in six if not e.commutative and not e.group]
print()
print("that class is isomorphic to builtin N:",
      find_isomorphism(the_one[0].canonical, builtin("N")) is not None)
