"""Subdigroup criteria, generated closures, NextClosure listings."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import digroups.subdigroups as subdigroups
from digroups import (
    DigroupError,
    DigroupTable,
    MalformedTableError,
    Mapping,
    SubsetMask,
    all_subdigroups,
    builtin,
    direct_product,
    generated_subdigroup,
    is_subdigroup,
    liu_inverse_map,
    relabel,
    restrict,
    subdigroup_criteria,
    trivial_digroup,
    validate_digroup,
)
from digroups.fileio import parse_catalog_line


def brute_force_subdigroups(table):
    """Independent oracle: closure scan written from the definition."""
    liu = liu_inverse_map(table)
    found = []
    n = table.order
    for r in range(1, n + 1):
        for members in itertools.combinations(range(n), r):
            s = set(members)
            closed = all(liu(a) in s for a in s) and all(
                table.left[a][b] in s and table.right[a][b] in s
                for a in s
                for b in s
            )
            if closed:
                found.append(frozenset(s))
    return set(found)


def test_n_subdigroup_examples(n_table):
    assert is_subdigroup(n_table, {0, 1})  # {e, α}
    assert is_subdigroup(n_table, {0, 4, 5})  # {e, δ, ε}
    assert not is_subdigroup(n_table, {0, 2})  # β⇀β = δ escapes


def test_all_subdigroups_m(m_table):
    subs = [s.members for s in all_subdigroups(m_table)]
    assert subs == [frozenset({0}), frozenset({0, 1})]


def test_all_subdigroups_n_against_oracle(n_table):
    got = {s.members for s in all_subdigroups(n_table)}
    assert got == brute_force_subdigroups(n_table)
    for expected in ({0}, {0, 1}, {0, 4, 5}, set(range(6))):
        assert frozenset(expected) in got


def test_all_subdigroups_ascending_mask_order(n_table):
    masks = [s.mask for s in all_subdigroups(n_table)]
    assert masks == sorted(masks)


def test_trivial_1():
    t = builtin("trivial(1)")
    assert [s.members for s in all_subdigroups(t)] == [frozenset({0})]


@pytest.mark.parametrize("name", ["M", "N", "S3", "trivial(3)"])
def test_criteria_equivalence_exhaustive(name):
    table = builtin(name)
    n = table.order
    for mask in range(1 << n):
        subset = {x for x in range(n) if mask >> x & 1}
        a, b, c = subdigroup_criteria(table, subset)
        assert a == b == c, f"criteria disagree on {name} subset {subset}"


def test_criteria_empty_set(n_table):
    assert subdigroup_criteria(n_table, set()) == (False, False, False)


def test_generated_subdigroup_examples(n_table):
    assert generated_subdigroup(n_table, {2}).members == frozenset(range(6))
    assert generated_subdigroup(n_table, {4}).members == frozenset({0, 4})
    assert generated_subdigroup(n_table, set()).members == frozenset({0})


def test_generated_subdigroup_idempotent_and_monotone(n_table):
    for seed in ({1}, {2}, {4, 5}, {3}):
        closure = generated_subdigroup(n_table, seed)
        assert generated_subdigroup(n_table, closure.members).members == closure.members
        assert is_subdigroup(n_table, closure)
        assert table_identity_in(closure, n_table)


def table_identity_in(mask, table):
    return table.identity in mask.members


@given(
    st.sampled_from(["M", "N", "S3", "trivial(3)"]),
    st.sets(st.integers(0, 5), max_size=6),
)
def test_generated_subdigroup_contains_seed_and_identity(name, seed):
    table = builtin(name)
    seed = {x for x in seed if x < table.order}
    closure = generated_subdigroup(table, seed)
    assert seed <= closure.members
    assert table.identity in closure.members
    bigger = generated_subdigroup(table, closure.members | {0})
    assert closure.members <= bigger.members


def test_restricted_subdigroups_validate(n_table):
    for mask in all_subdigroups(n_table):
        sub = restrict(n_table, mask)
        assert validate_digroup(sub).ok
        assert sub.identity == sorted(mask.members).index(n_table.identity)


def test_restrict_requires_the_identity(n_table):
    message = "^restriction requires the identity in the subset$"
    with pytest.raises(MalformedTableError, match=message):
        restrict(n_table, {1, 2})


def test_restrict_requires_a_closed_subset(n_table):
    # e ⇀ β = α, outside {e, β}
    message = "^subset is not closed under the products$"
    with pytest.raises(MalformedTableError, match=message):
        restrict(n_table, {0, 2})


def test_labels_follow_their_elements(n_table):
    perm = Mapping(6, 6, (3, 0, 2, 5, 1, 4))
    moved = relabel(n_table, perm)
    assert moved.identity == 3
    assert [moved.label(perm(x)) for x in range(6)] == list(n_table.labels)
    # {e, δ, ε} sits at {3, 1, 4} after the relabelling
    sub = restrict(moved, {3, 1, 4})
    assert sub.labels == ("δ", "e", "ε")
    assert sub.identity == 1
    assert restrict(n_table, {0, 4, 5}).labels == ("e", "δ", "ε")


def test_subset_mask_range_checked():
    from digroups import MalformedTableError

    with pytest.raises(MalformedTableError):
        SubsetMask.of(3, {4})


def test_scan_cap():
    from digroups import UnsupportedOrderError
    from digroups import trivial_digroup

    with pytest.raises(UnsupportedOrderError):
        all_subdigroups(trivial_digroup(17))


def test_generated_subdigroup_is_the_least_subdigroup_holding_the_seed(reference_classes):
    """The closure equals the intersection of the scanned subdigroups that
    hold the seed, for every seed of at most two elements."""
    for entry in reference_classes:
        table, n = entry.canonical, entry.order
        if n > 6:
            continue
        subs = [s.members for s in all_subdigroups(table)]
        for size in range(3):
            for seed in itertools.combinations(range(n), size):
                holding = [h for h in subs if h.issuperset(seed)]
                least = frozenset.intersection(*holding)
                assert generated_subdigroup(table, seed).members == least, (n, seed)


def _relabelled(table, rng):
    perm = list(range(table.order))
    rng.shuffle(perm)
    return relabel(table, Mapping(table.order, table.order, tuple(perm)))


def _oracle_tables(reference_classes):
    """Every class of orders 1-10, each with three seeded relabellings, and
    eight products and builtins of orders 8-12."""
    path = Path(__file__).with_name("catalog_9_10.jsonl")
    entries = list(reference_classes)
    entries += [parse_catalog_line(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rng = random.Random(3211)
    for entry in entries:
        yield entry.canonical, entry.subdigroup_count
        for _ in range(3):
            yield _relabelled(entry.canonical, rng), entry.subdigroup_count
    m, n, z2 = builtin("M"), builtin("N"), builtin("Z2")
    for table in (
        direct_product(n, z2),
        direct_product(n, m),
        direct_product(m, builtin("Z4")),
        direct_product(builtin("S3"), m),
        direct_product(direct_product(m, m), m),
        builtin("Z10"),
        builtin("Z12"),
        trivial_digroup(12),
    ):
        yield table, None


def test_every_listing_closure_and_membership_test_matches_the_definition(reference_classes):
    """all_subdigroups lists the subset scan's subdigroups in ascending mask
    order; is_subdigroup and generated_subdigroup agree with them on 50
    seeded subsets per table, half of them subdigroups."""
    rng = random.Random(3212)
    tables = 0
    for table, count in _oracle_tables(reference_classes):
        n = table.order
        oracle = sorted(brute_force_subdigroups(table), key=lambda h: SubsetMask.of(n, h).mask)
        assert [s.members for s in all_subdigroups(table)] == oracle
        assert count in (None, len(oracle))
        for k in range(50):
            subset = rng.choice(oracle) if k % 2 else frozenset(
                x for x in range(n) if rng.getrandbits(1)
            )
            assert is_subdigroup(table, subset) == (subset in oracle), subset
            least = frozenset.intersection(*(h for h in oracle if h >= subset))
            assert generated_subdigroup(table, subset).members == least, subset
        tables += 1
    assert tables == 4 * 40 + 8


def _z2_4():
    z2 = builtin("Z2")
    return direct_product(direct_product(z2, z2), direct_product(z2, z2))


def test_order_16_subdigroup_counts():
    # Z16 has one subgroup per divisor of 16.  Z2^4 has 1 + 15 + 35 + 15 + 1
    # subspaces over GF(2).  In trivial(16) every subset holding e is closed.
    for table, count in ((builtin("Z16"), 5), (_z2_4(), 67), (trivial_digroup(16), 2**15)):
        masks = [s.mask for s in all_subdigroups(table)]
        assert len(masks) == count
        assert masks == sorted(masks)


def test_listing_runs_at_most_n_closures_per_subdigroup(monkeypatch):
    """NextClosure's closure count is pinned, so a return to a subset scan
    shows as a count and not only as a time."""
    calls = []
    closure = subdigroups._closure
    monkeypatch.setattr(
        subdigroups, "_closure", lambda table, seed: calls.append(seed) or closure(table, seed)
    )
    for table, closures in ((builtin("Z16"), 38), (_z2_4(), 436), (trivial_digroup(8), 127)):
        calls.clear()
        listed = len(all_subdigroups(table))
        assert len(calls) == closures
        assert closures <= table.order * listed


def test_a_table_without_a_liu_inverse_is_refused_before_any_closure():
    # x ⇀ y = x ↼ y = max(x, y): 0 is a bar-unit, and 1 ↼ y is never 0
    table = DigroupTable(2, 0, ((0, 1), (1, 1)), ((0, 1), (1, 1)))
    message = "^element 1 has no Liu inverse;"
    for call in (
        lambda: all_subdigroups(table),
        lambda: generated_subdigroup(table, set()),
        lambda: is_subdigroup(table, {0}),
    ):
        with pytest.raises(DigroupError, match=message):
            call()
    # the empty set is refused before the table is read
    assert not is_subdigroup(table, set())
