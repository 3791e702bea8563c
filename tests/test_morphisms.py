"""Homomorphism checks, isomorphism search, canonical forms, automorphisms."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from digroups import (
    CanonicalTable,
    DigroupTable,
    MalformedTableError,
    Mapping,
    all_subdigroups,
    automorphisms,
    builtin,
    canonical_form,
    cyclic_group,
    direct_product,
    find_isomorphism,
    is_commutative,
    is_group,
    is_homomorphism,
    liu_inverse_map,
    relabel,
    validate_digroup,
)


def identity_fixing_perm(table, images):
    """Bijection of the carrier fixing the identity, from a permutation of
    the non-identity positions."""
    n = table.order
    others = [x for x in range(n) if x != table.identity]
    p = [0] * n
    p[table.identity] = table.identity
    for src, dst in zip(others, images):
        p[src] = dst
    return Mapping(n, n, tuple(p))


def test_identity_map_is_homomorphism(n_table):
    assert is_homomorphism(n_table, n_table, Mapping.identity(6))


def test_constant_to_identity_is_homomorphism(m_table):
    assert is_homomorphism(m_table, m_table, Mapping(2, 2, (0, 0)))


def test_m_to_z2_not_homomorphism(m_table):
    # a ⇀ a = a in M but 1 + 1 = 0 in Z2
    z2 = cyclic_group(2)
    assert not is_homomorphism(m_table, z2, Mapping(2, 2, (0, 1)))


@pytest.mark.parametrize(
    "perm",
    [
        Mapping(6, 6, (0, 0, 1, 2, 3, 4)),  # not injective
        Mapping(6, 7, (0, 1, 2, 3, 4, 5)),  # not onto
        Mapping(5, 5, (0, 1, 2, 3, 4)),  # too small
        Mapping(7, 7, (0, 1, 2, 3, 4, 5, 6)),  # too large
    ],
)
def test_relabel_requires_a_bijection_of_the_carrier(n_table, perm):
    message = "^relabeling must be a bijection of the carrier$"
    with pytest.raises(MalformedTableError, match=message):
        relabel(n_table, perm)


def test_find_isomorphism_m_swap(m_table):
    swapped = relabel(m_table, Mapping(2, 2, (1, 0)))
    # the swap moves the identity to 1; both projections are preserved by any
    # bijection, so the swap itself is the isomorphism back
    found = find_isomorphism(m_table, swapped)
    assert found is not None
    assert is_homomorphism(m_table, swapped, found)
    assert found.is_bijection()


def test_m_not_isomorphic_to_z2(m_table):
    assert find_isomorphism(m_table, cyclic_group(2)) is None


def test_n_self_isomorphism_is_identity_first(n_table):
    assert find_isomorphism(n_table, n_table) == Mapping.identity(6)


def test_returned_isomorphisms_are_bijective_homomorphisms(n_table):
    for table in (n_table, builtin("S3"), builtin("trivial(3)")):
        perm_images = tuple(reversed(range(1, table.order)))
        perm = identity_fixing_perm(table, perm_images)
        other = relabel(table, perm)
        m = find_isomorphism(table, other)
        assert m is not None and m.is_bijection()
        assert is_homomorphism(table, other, m)


def test_canonical_form_idempotent(n_table):
    canon = canonical_form(n_table).table
    again = canonical_form(canon).table
    assert canon.left == again.left and canon.right == again.right


def test_canonical_form_normalizes_identity(m_table):
    assert canonical_form(m_table).table.identity == 0
    shifted = relabel(builtin("N"), Mapping(6, 6, (3, 1, 2, 0, 4, 5)))
    assert shifted.identity == 3
    canon = canonical_form(shifted)
    assert canon.table.identity == 0
    assert canon.certificate.image[shifted.identity] == 0


def test_canonical_certificate_realizes_the_form(n_table):
    res = canonical_form(n_table)
    assert relabel(n_table, res.certificate).left == res.table.left
    assert relabel(n_table, res.certificate).right == res.table.right


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["M", "N", "S3", "trivial(3)", "Z4"]), st.data())
def test_canonical_form_is_orbit_invariant(name, data):
    table = builtin(name)
    images = data.draw(st.permutations(range(1, table.order)))
    perm = identity_fixing_perm(table, images)
    relabeled = relabel(table, perm)
    a = canonical_form(table).table
    b = canonical_form(relabeled).table
    assert a.left == b.left and a.right == b.right


def test_iso_agrees_with_canonical_on_builtin_pool():
    pool = [builtin(x) for x in ("M", "N", "S3", "Z2", "Z4", "trivial(3)")]
    pool.append(direct_product(builtin("M"), builtin("Z2")))
    for d1 in pool:
        for d2 in pool:
            iso = find_isomorphism(d1, d2) is not None
            if d1.order != d2.order:
                assert not iso
                continue
            same_canon = canonical_form(d1).table == canonical_form(d2).table
            assert iso == same_canon


def test_isomorphism_preserves_invariants(n_table):
    perm = identity_fixing_perm(n_table, (3, 4, 5, 1, 2))
    other = relabel(n_table, perm)
    assert validate_digroup(other).ok
    assert is_commutative(other) == is_commutative(n_table)
    assert is_group(other) == is_group(n_table)
    assert len(all_subdigroups(other)) == len(all_subdigroups(n_table))
    orbit = sorted(liu_inverse_map(n_table).image.count(x) for x in range(6))
    orbit_other = sorted(liu_inverse_map(other).image.count(x) for x in range(6))
    assert orbit == orbit_other


def brute_force_automorphisms(table):
    """Oracle: filter all identity-fixing bijections by the definition."""
    n = table.order
    found = []
    others = [x for x in range(n) if x != table.identity]
    for images in itertools.permutations(others):
        p = [0] * n
        p[table.identity] = table.identity
        for src, dst in zip(others, images):
            p[src] = dst
        m = Mapping(n, n, tuple(p))
        if is_homomorphism(table, table, m):
            found.append(m)
    return found


@pytest.mark.parametrize(
    "name,count",
    [
        ("M", 1),  # the swap moves the identity, only id survives
        ("Z2", 1),
        ("cyclic(3)", 2),
        ("N", 2),
        ("trivial(3)", 2),
        ("S3", 6),
    ],
)
def test_automorphism_counts(name, count):
    table = builtin(name)
    autos = automorphisms(table)
    assert len(autos) == count
    oracle = brute_force_automorphisms(table)
    assert sorted(a.image for a in autos) == sorted(a.image for a in oracle)
    for a in autos:
        assert a.is_bijection() and is_homomorphism(table, table, a)


def test_canonical_cap():
    from digroups import UnsupportedOrderError, trivial_digroup

    with pytest.raises(UnsupportedOrderError):
        canonical_form(trivial_digroup(9))
    with pytest.raises(UnsupportedOrderError):
        automorphisms(trivial_digroup(9))


def brute_force_canonical_form(table):
    """Oracle: the least flattened left-then-right image over every
    identity-fixing relabeling, taken in permutation order, with the first
    relabeling that reaches it as the certificate."""
    n = table.order
    e = table.identity
    others = [x for x in range(n) if x != e]
    best_key = best_perm = best_tables = None
    for images in itertools.permutations(range(1, n)):
        p = [0] * n
        for src, dst in zip(others, images):
            p[src] = dst
        inv = [0] * n
        for x, v in enumerate(p):
            inv[v] = x
        left = tuple(
            tuple(p[table.left[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        right = tuple(
            tuple(p[table.right[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        key = left + right
        if best_key is None or key < best_key:
            best_key, best_perm, best_tables = key, tuple(p), (left, right)
    return CanonicalTable(
        DigroupTable(n, 0, *best_tables), Mapping(n, n, best_perm)
    )


def assert_engine_matches_oracles(table):
    assert canonical_form(table) == brute_force_canonical_form(table)
    assert automorphisms(table) == brute_force_automorphisms(table)


def test_engine_matches_oracles_on_catalog_classes(reference_classes):
    # every class of orders 1-7, and three seeded relabelings of each that
    # move the identity off index 0
    rng = random.Random(20261018)
    for entry in reference_classes:
        n = entry.order
        if n > 7:
            continue
        assert_engine_matches_oracles(entry.canonical)
        for _ in range(3 if n > 1 else 0):
            images = list(range(n))
            while images[0] == 0:
                rng.shuffle(images)
            assert_engine_matches_oracles(
                relabel(entry.canonical, Mapping(n, n, tuple(images)))
            )


def test_engine_matches_oracles_on_random_tables():
    # canonical_form and automorphisms accept any table, digroup or not
    rng = random.Random(1998)
    for _ in range(200):
        n = rng.randint(1, 5)
        left = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        right = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        assert_engine_matches_oracles(DigroupTable(n, rng.randrange(n), left, right))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_engine_matches_oracles_when_every_relabeling_ties(n):
    e = n // 2
    rows = [[e] * n for _ in range(n)]
    table = DigroupTable(n, e, rows, rows)
    assert_engine_matches_oracles(table)
    assert len(automorphisms(table)) == math.factorial(n - 1)


def test_automorphisms_match_the_oracle_at_order_8(reference_classes):
    # every class of order 8 and one seeded relabeling of each that moves the
    # identity off index 0; the groups found run up to 168 (Z2³) and 5,040
    # (trivial(8)) elements
    rng = random.Random(8)
    sizes = set()
    for entry in reference_classes:
        if entry.order != 8:
            continue
        images = list(range(8))
        while images[0] == 0:
            rng.shuffle(images)
        for table in (entry.canonical, relabel(entry.canonical, Mapping(8, 8, tuple(images)))):
            autos = automorphisms(table)
            assert autos == brute_force_automorphisms(table)
            sizes.add(len(autos))
    assert {168, 5040} <= sizes


def dihedral_8():
    """D4 as a group digroup: r^a s^b is a + 4b, and s r = r⁻¹ s."""

    def mul(x, y):
        a, b, c, d = x % 4, x // 4, y % 4, y // 4
        return (a + (-c if b else c)) % 4 + 4 * ((b + d) % 2)

    rows = [[mul(x, y) for y in range(8)] for x in range(8)]
    return DigroupTable(8, 0, rows, rows)


@pytest.mark.parametrize(
    "name,image,branches",
    [
        ("trivial(8)", tuple(range(8)), 1),
        ("Z8", (3, 0, 7, 1, 6, 2, 5, 4), 51),
        ("D4", (3, 2, 0, 7, 4, 5, 6, 1), 104),
    ],
)
def test_canonical_form_branch_counts_are_pinned(name, image, branches, monkeypatch):
    # canonical_form reaches its result only through the depth-first pass,
    # once per descent round; the count of its branches over all rounds is
    # the machine-independent measure of the walk.  A cell that every
    # relabeling of a node reads alike costs no branch, so trivial(8) takes
    # none, and a group's row e of ⇀ ties without listing relabelings.  The
    # D4 image is random.Random(4).sample(range(8), 8).
    from digroups import morphisms

    calls = 0
    reads_below = morphisms._reads_below

    def counted(*args):
        nonlocal calls
        calls += 1
        return reads_below(*args)

    monkeypatch.setattr(morphisms, "_reads_below", counted)
    table = dihedral_8() if name == "D4" else builtin(name)
    canonical_form(relabel(table, Mapping(8, 8, image)))
    assert calls == branches


def _product_of(*names):
    table = builtin(names[0])
    for name in names[1:]:
        table = direct_product(table, builtin(name))
    return table


def test_unequal_core_orders_are_refused_before_backtracking():
    # Z2^5 has no element of order 4 and Z4 x Z2^3 has sixteen; the
    # backtracking alone takes seconds to refuse this pair
    a = _product_of(*["Z2"] * 5)
    b = _product_of("Z4", *["Z2"] * 3)
    start = time.perf_counter()
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, a) is None
    assert time.perf_counter() - start < 0.1


def test_core_order_check_changes_no_result(reference_classes, monkeypatch):
    # every ordered pair of relabelled classes of orders 1-6, against the
    # backtracking with the check switched off
    rng = random.Random("core-orders")
    tables = []
    for entry in reference_classes:
        if entry.order <= 6:
            n = entry.order
            for _ in range(2):
                images = list(range(n))
                rng.shuffle(images)
                tables.append(relabel(entry.canonical, Mapping(n, n, tuple(images))))
    pairs = [(a, b) for a in tables for b in tables]
    got = [find_isomorphism(a, b) for a, b in pairs]
    monkeypatch.setattr("digroups.morphisms._core_orders", lambda table: [])
    assert got == [find_isomorphism(a, b) for a, b in pairs]
    assert len(pairs) == 34**2 and sum(m is not None for m in got) == 17 * 4
