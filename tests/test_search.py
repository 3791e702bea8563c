"""Enumerator: completeness, soundness, determinism, class-level ground truth.

Ground truth below is derived independently of the search: every digroup is
determined by its group core E = {e⇀x}, a pointed fiber over e, and a
basepoint-fixing action of E on that fiber (left and right products read off
as the free right action and the twisted left action).  Enumerating those
data up to equivalence by hand gives explicit representatives per order,
which the classes found by the search must match one-to-one up to
isomorphism.  The naive oracle independently covers orders up to 3.
"""

import json
from pathlib import Path

import pytest

from digroups import (
    SearchOptions,
    UnsupportedOrderError,
    builtin,
    canonical_form,
    catalog_lines,
    count_by_class,
    cyclic_group,
    direct_product,
    enumerate_digroups,
    find_isomorphism,
    is_commutative,
    is_group,
    naive_enumerate,
    trivial_digroup,
    validate_digroup,
    verify_classification_claims,
)


def expected_representatives(n):
    """Hand-derived complete class lists per order (see module docstring)."""
    z = cyclic_group
    t = trivial_digroup
    m = builtin("M")
    if n == 1:
        return [t(1)]
    if n == 2:
        return [z(2), m]
    if n == 3:
        return [z(3), t(3)]
    if n == 4:
        return [z(4), direct_product(z(2), z(2)), direct_product(m, z(2)), t(4)]
    if n == 5:
        return [z(5), t(5)]
    if n == 6:
        return [
            z(6),
            builtin("S3"),
            direct_product(m, z(3)),
            direct_product(z(2), t(3)),
            builtin("N"),
            t(6),
        ]
    raise ValueError(n)


def assert_matches_representatives(entries, reps):
    assert len(entries) == len(reps)
    rep_keys = set()
    for rep in reps:
        canon = canonical_form(rep).table
        rep_keys.add(canon.left + canon.right)
    assert len(rep_keys) == len(reps), "representative list has a duplicate class"
    entry_keys = {e.canonical.left + e.canonical.right for e in entries}
    assert entry_keys == rep_keys


def test_order_1(catalogs):
    entries = catalogs[1]
    assert len(entries) == 1
    assert entries[0].group and entries[0].commutative


def test_order_2_is_z2_and_m(catalogs):
    entries = catalogs[2]
    assert len(entries) == 2
    assert_matches_representatives(entries, expected_representatives(2))
    non_group = [e for e in entries if not e.group]
    assert len(non_group) == 1
    assert find_isomorphism(non_group[0].canonical, builtin("M")) is not None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_naive_oracle_agrees(n, catalogs):
    naive = naive_enumerate(n)
    assert [e.canonical for e in naive] == [e.canonical for e in catalogs[n]]


def _unit_consistent_pairs(n):
    """Every unit-consistent table pair of order n, as each ⇀ table
    with the list of its ↼ tables: column e of ⇀ and row e of ↼ are the
    identity, column e of ↼ repeats row e of ⇀."""
    import itertools

    tails = list(itertools.product(range(n), repeat=n - 1))
    rows = [[bytes((v,) + t) for t in tails] for v in range(n)]
    for left in itertools.product(*rows):
        yield left, [
            (bytes(range(n)),) + tail
            for tail in itertools.product(*(rows[v] for v in left[0][1:]))
        ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_naive_skip_loses_no_digroup(n):
    # the full scan of every unit-consistent pair is the oracle of the
    # shortened one: every pair the validator passes has a ⇀ table that the
    # skip test lets through
    from digroups.search import _breaks_diassoc_1
    from digroups.tables import _violations

    scanned = 0
    for left, rights in _unit_consistent_pairs(n):
        scanned += len(rights)
        if any(next(_violations(0, left, right), None) is None for right in rights):
            assert not _breaks_diassoc_1(left)
    assert scanned == n ** ((n - 1) * (2 * n - 1))  # the free cells of both tables


@pytest.mark.parametrize("n, calls", [(1, 2), (2, 10), (3, 2187)])
def test_naive_engine_calls_are_pinned(n, calls, monkeypatch):
    # one validator call per ⇀ table and one per pair beside an associative
    # ⇀; the full scan made 1, 8 and 59,049
    from digroups import search

    engine, made = search._violations, []

    def counting(*args):
        made.append(args)
        return engine(*args)

    monkeypatch.setattr(search, "_violations", counting)
    naive_enumerate(n)
    assert len(made) == calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_classes_match_derived_ground_truth(n, catalogs):
    assert_matches_representatives(catalogs[n], expected_representatives(n))


def test_soundness_and_canonicity(catalogs):
    for n, entries in catalogs.items():
        keys = []
        for e in entries:
            assert e.order == n
            report = validate_digroup(e.canonical)
            assert report.ok
            canon = canonical_form(e.canonical).table
            assert canon.left == e.canonical.left and canon.right == e.canonical.right
            assert e.canonical.identity == 0
            assert e.commutative == is_commutative(e.canonical)
            assert e.group == is_group(e.canonical)
            keys.append(e.canonical.left + e.canonical.right)
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_no_two_entries_isomorphic(catalogs):
    for entries in catalogs.values():
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                assert find_isomorphism(a.canonical, b.canonical) is None


def test_iso_iff_equal_canonical_on_enumerated_small_orders(catalogs):
    # cross-check the two isomorphism routes on every enumerated digroup of
    # order <= 4 and a nontrivial relabeling of each
    from digroups import Mapping, relabel

    tables = []
    for n in (1, 2, 3, 4):
        for e in catalogs[n]:
            tables.append(e.canonical)
            images = [0] + list(reversed(range(1, n)))
            tables.append(relabel(e.canonical, Mapping(n, n, tuple(images))))
    for a in tables:
        for b in tables:
            iso = find_isomorphism(a, b) is not None
            if a.order != b.order:
                assert not iso
                continue
            same = canonical_form(a).table == canonical_form(b).table
            assert iso == same


def test_group_counts_match_known_values(catalogs):
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1}
    for n, want in expected.items():
        got = sum(1 for e in catalogs[n] if e.group)
        assert got == want


@pytest.mark.parametrize("n,labeled", [(1, 1), (2, 2), (3, 2), (4, 6), (5, 7), (6, 86)])
def test_unpruned_search_matches_orbit_stabilizer_counts(
    n, labeled, catalogs, monkeypatch
):
    # Disable the symmetry pruning: the search must then emit every labeled
    # digroup with identity at 0 whose row e of ⇀ is the block row y − y % j,
    # j = |{x : e⇀x = e}| (search module docstring).  The identity-fixing
    # relabelings of a class's canonical table that keep that row send the
    # core to 0, j, 2j, … in (n/j − 1)! ways and each fiber onto the block
    # after its core element in (j − 1)! ways, so the number of such tables
    # is the orbit-stabilizer sum of (j − 1)!^(n/j)·(n/j − 1)!/|Aut(D)| over
    # the classes.  At n ≤ 3 the set is also compared with every
    # unit-consistent pair that the validator passes and whose row e is a
    # block row.
    import math

    from digroups import DigroupTable, automorphisms
    from digroups.search import _Search
    from digroups.tables import _violations

    monkeypatch.setattr("digroups.search._reads_below", lambda *table: None)
    solutions = _Search(n).run()
    assert len(solutions) == labeled
    assert len(set(solutions)) == labeled
    classes = {
        canonical_form(DigroupTable(n, 0, left, right)).table for left, right in solutions
    }
    canon = sorted(classes, key=lambda t: t.left + t.right)
    assert canon == [e.canonical for e in catalogs[n]]
    predicted = 0
    for t in canon:
        j = t.left[0].count(0)
        relabelings = math.factorial(j - 1) ** (n // j) * math.factorial(n // j - 1)
        predicted += relabelings // len(automorphisms(t))
    assert predicted == labeled
    if n <= 3:
        blocks = {bytes(y - y % j for y in range(n)) for j in range(1, n + 1) if n % j == 0}
        naive = {
            (tuple(map(tuple, left)), tuple(map(tuple, right)))
            for left, rights in _unit_consistent_pairs(n)
            if left[0] in blocks
            for right in rights
            if next(_violations(0, left, right), None) is None
        }
        assert set(solutions) == naive


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_search_emits_canonical_tables_in_order(n):
    # The leaf check of the symmetry pruning is the only canonicity test on
    # the enumeration path: every emitted table must already be its own
    # canonical form, and the list strictly increasing in key order.
    from digroups import DigroupTable
    from digroups.search import _Search

    solutions = _Search(n).run()
    for left, right in solutions:
        table = DigroupTable(n, 0, left, right)
        assert canonical_form(table).table == table
    keys = [left + right for left, right in solutions]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "n,nodes",
    [(1, 1), (2, 3), (3, 5), (4, 14), (5, 10), (6, 38), (7, 16), (8, 73)],
)
def test_search_node_counts_are_pinned(n, nodes, monkeypatch):
    # The number of search nodes is the machine-independent measure of the
    # pruning; a change that prunes more or less shows up as an edit here.
    from digroups.search import _Search

    calls = 0
    dfs = _Search._dfs

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return dfs(self, *args)

    monkeypatch.setattr(_Search, "_dfs", counted)
    _Search(n).run()
    assert calls == nodes


def test_catalogs_equal_the_reference_catalog():
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "catalog_1_8.jsonl"
    lines = reference.read_text(encoding="utf-8").splitlines()
    for n in range(1, 9):
        want = [line for line in lines if json.loads(line)["order"] == n]
        got = catalog_lines(enumerate_digroups(n, SearchOptions(allow_large=True)))
        assert got == want


def test_catalogs_9_and_10_are_byte_stable():
    # tests/catalog_9_10.jsonl was written by the search before it seeded row
    # e of ⇀ per fiber size, one catalog line per class and a newline each
    reference = Path(__file__).with_name("catalog_9_10.jsonl")
    got = [
        line
        for n in (9, 10)
        for line in catalog_lines(enumerate_digroups(n, SearchOptions(allow_large=True)))
    ]
    assert "".join(line + "\n" for line in got).encode("utf-8") == reference.read_bytes()


def test_order_11_has_two_classes():
    # Order 11 is prime: a group core of order 11 with a one-point fiber, Z11,
    # and the trivial core with a fiber of 11 points, trivial(11); 1 + 1
    # classes by the structure of the module docstring
    entries = enumerate_digroups(11, SearchOptions(allow_large=True))
    assert [e.group for e in entries] == [False, True]
    for entry, rep in zip(entries, (trivial_digroup(11), cyclic_group(11))):
        assert validate_digroup(entry.canonical).ok
        assert find_isomorphism(entry.canonical, rep) is not None


def test_row_e_of_the_canonical_table_is_a_block_row(reference_classes):
    # The search seeds row e of ⇀ only with y − y % j for j = |J|,
    # J = {x : e⇀x = e} (search module docstring).  This checks the lemma
    # without the search: e⇀· is idempotent, every fiber {y : e⇀y = g} has |J|
    # elements, and the canonical table's row e is the block row.  The tables
    # are every reference class and direct products up to order 36, each with
    # three seeded relabelings that may move the identity.
    import random
    from collections import Counter

    from digroups import Mapping, relabel
    from digroups.morphisms import _CANONICAL_CAP

    rng = random.Random(24)
    b, z, t = builtin, cyclic_group, trivial_digroup
    products = [
        direct_product(b("N"), z(3)),
        direct_product(b("S3"), t(3)),
        direct_product(b("M"), z(4)),
        direct_product(b("N"), b("M")),
        direct_product(b("N"), b("N")),
    ]
    tables = []
    for table in [e.canonical for e in reference_classes] + products:
        n = table.order
        tables.append(table)
        for _ in range(3):
            tables.append(relabel(table, Mapping(n, n, tuple(rng.sample(range(n), n)))))
    assert len(tables) == 4 * (29 + 5)
    canonical_checked = 0
    for table in tables:
        n, e = table.order, table.identity
        row = table.left[e]
        assert all(row[row[y]] == row[y] for y in range(n))
        fibers = Counter(row)
        j = fibers[e]
        assert set(fibers.values()) == {j}
        if n <= _CANONICAL_CAP:
            assert canonical_form(table).table.left[0] == tuple(y - y % j for y in range(n))
            canonical_checked += 1
    assert canonical_checked == 4 * (29 + 1)


def is_lex_least(table):
    # canonical_form's definition (no identity-fixing relabeling has a
    # smaller flattened left-then-right key), checked with an early exit per
    # relabeling, since canonical_form itself stops at order 8
    import itertools

    n = table.order
    assert table.identity == 0
    cells = [
        (t, x, y) for t in (table.left, table.right) for x in range(n) for y in range(n)
    ]
    key = [t[x][y] for t, x, y in cells]
    for images in itertools.permutations(range(1, n)):
        p = (0,) + images
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        for (t, x, y), want in zip(cells, key):
            img = p[t[inv[x]][inv[y]]]
            if img != want:
                if img < want:
                    return False
                break
    return True


def test_order_9_has_four_classes(monkeypatch):
    # The structure of the module docstring gives 2 + 1 + 1 classes at
    # order 9: the groups Z9 and Z3 x Z3, the group core Z3 acting trivially
    # on a pointed fiber of size 3, and the trivial digroup.  The node count
    # is pinned as in test_search_node_counts_are_pinned, on the same run.
    from digroups.search import _Search

    calls = 0
    dfs = _Search._dfs

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return dfs(self, *args)

    monkeypatch.setattr(_Search, "_dfs", counted)
    entries = enumerate_digroups(9, SearchOptions(allow_large=True))
    assert calls == 41
    assert len(entries) == 4
    assert sum(e.group for e in entries) == 2
    for e in entries:
        assert validate_digroup(e.canonical).ok
        assert is_lex_least(e.canonical)


def test_out_of_order_solutions_are_rejected():
    from digroups import ConstructionError
    from digroups.search import _entries_from_solutions

    z2, m = builtin("Z2"), builtin("M")
    ordered = sorted([(z2.left, z2.right), (m.left, m.right)], key=lambda s: s[0] + s[1])
    assert len(_entries_from_solutions(2, ordered)) == 2
    with pytest.raises(ConstructionError):
        _entries_from_solutions(2, ordered[::-1])
    with pytest.raises(ConstructionError):
        _entries_from_solutions(2, ordered[:1] * 2)


def test_lex_cut_from_the_root_cuts_where_a_whole_relabeling_reads_below():
    # The walk from the root must cut exactly when one of the (n-1)!
    # identity-fixing relabelings, compared one by one along the key, reads
    # below the table at its first decided cell.  The unit cells are seeded
    # as the search seeds them; the others are revealed one at a time, in a
    # seeded order with seeded values.
    import itertools
    import random

    from digroups.morphisms import _reads_below
    from digroups.search import _search_tables

    def some_image_below(val, n, bcells, bkeys):
        for images in itertools.permutations(range(1, n)):
            p = (0,) + images
            inv = [p.index(v) for v in range(n)]
            for cell, (base, x, y) in zip(bcells, bkeys):
                cur, raw = val[cell], val[base + inv[x] * n + inv[y]]
                if cur < 0 or raw < 0 or p[raw] > cur:
                    break
                if p[raw] < cur:
                    return True
        return False

    rng = random.Random(604)
    for _ in range(150):
        n = rng.randint(2, 5)
        _, _, bcells, bkeys, _ = _search_tables(n)
        val = [-1] * (2 * n * n)
        for x in range(n):
            val[x * n] = val[n * n + x] = x  # x⇀e = x and e↼x = x
        cells = [c for c, v in enumerate(val) if v < 0]
        rng.shuffle(cells)
        for cell in cells:
            val[cell] = rng.randrange(n) if rng.random() < 0.8 else rng.randrange(2)
            below = _reads_below(val, bcells, bkeys, n, []) is not None
            assert below == some_image_below(val, n, bcells, bkeys)
            if below:
                break


def _complete_table_reads_below(table):
    # the search's lex cut on a complete table, from the root
    from digroups.morphisms import _reads_below
    from digroups.search import _search_tables

    n = table.order
    _, _, bcells, bkeys, _ = _search_tables(n)
    val = [v for rows in (table.left, table.right) for row in rows for v in row]
    return _reads_below(val, bcells, bkeys, n, []) is not None


def test_complete_table_decision_matches_brute_force(reference_classes):
    # On a complete table the cut prunes with the automorphisms it finds; it
    # must still answer exactly as a relabeling-by-relabeling scan does.  The
    # tables are every class of orders 2..7 with three seeded relabelings of
    # each, and random unit-seeded tables whose free entries take 1, 2 or n
    # values, so that symmetries are common.
    import random

    from digroups import DigroupTable, Mapping, relabel

    rng = random.Random(19)
    tables = []
    for entry in reference_classes:
        n = entry.order
        if 2 <= n <= 7:
            tables.append(entry.canonical)
            for _ in range(3):
                image = (0, *rng.sample(range(1, n), n - 1))
                tables.append(relabel(entry.canonical, Mapping(n, n, image)))
    for _ in range(3000):
        n = rng.randint(2, 6)
        k = rng.choice((1, 2, n))
        # x⇀e = x, e↼x = x and x↼e = e⇀x, as the search seeds them
        left = [[x] + [rng.randrange(k) for _ in range(1, n)] for x in range(n)]
        right = [list(range(n))]
        right += [[left[0][x]] + [rng.randrange(k) for _ in range(1, n)] for x in range(1, n)]
        tables.append(DigroupTable(n, 0, left, right))
    assert len(tables) == 3072
    verdicts = [(_complete_table_reads_below(t), not is_lex_least(t)) for t in tables]
    assert [t for t, (got, want) in zip(tables, verdicts) if got != want] == []
    assert {below for below, _ in verdicts} == {True, False}


@pytest.mark.parametrize(
    "name,below,branches",
    [
        ("trivial(8)", False, 1),
        ("trivial(9)", False, 1),
        ("trivial(10)", False, 1),
        ("Z9", True, 4),
    ],
)
def test_complete_table_pruning_counts_are_pinned(name, below, branches, monkeypatch):
    # Every relabeling of trivial(n) is an automorphism, and a group's row e
    # of ⇀ ties every relabeling, so a walk that listed relabelings would
    # meet (n-1)! of them.  Deferred labels compare such cells without
    # branching.  The count of depth-first branches is the machine-independent
    # measure of the walk.
    import math

    from digroups import morphisms

    calls = 0
    reads_below = morphisms._reads_below

    def counted(*args):
        nonlocal calls
        calls += 1
        return reads_below(*args)

    monkeypatch.setattr(morphisms, "_reads_below", counted)
    table = builtin(name)
    assert _complete_table_reads_below(table) == below
    assert calls == branches
    assert calls < math.factorial(table.order - 1) // 50


def test_instance_encoding_matches_axiom_checker():
    # the search's law instances, evaluated on a full table pair, must agree
    # with the checker's five diassociativity verdicts on random tables
    import random

    from digroups import DigroupTable, validate_digroup
    from digroups.search import _search_tables

    rng = random.Random(7)
    n = 3
    insts = _search_tables(n)[0]
    for _ in range(300):
        left = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        right = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        flat = [v for row in left for v in row] + [v for row in right for v in row]
        insts_ok = all(
            flat[base1 + flat[in1] * n] == flat[base2 + flat[in2] * mult2]
            for in1, in2, base1, base2, mult2 in insts
        )
        report = validate_digroup(DigroupTable(n, 0, left, right))
        checker_ok = not any(v.law.startswith("DIASSOC") for v in report.violations)
        assert insts_ok == checker_ok


def test_unit_preseeding_is_sound(identity_suite):
    # in any digroup the seeded cells are forced exactly as the search seeds
    # them, so the pruning loses no models
    for table in identity_suite.values():
        e = table.identity
        for x in table.elements():
            assert table.left[x][e] == x
            assert table.right[e][x] == x
            assert table.right[x][e] == table.left[e][x]


def test_bijection_cut_is_sound(catalogs, identity_suite):
    # in any digroup every column of ⇀ and every row of ↼ is a permutation of
    # the carrier (search.py docstring), so cutting a repeated value in one of
    # these lines loses no models
    tables = [e.canonical for entries in catalogs.values() for e in entries]
    order_7 = enumerate_digroups(7, SearchOptions(allow_large=True))
    tables += [e.canonical for e in order_7]
    tables += [rep for n in range(1, 7) for rep in expected_representatives(n)]
    tables += list(identity_suite.values())
    tables += [
        direct_product(builtin("N"), builtin("Z2")),
        direct_product(builtin("M"), builtin("Z4")),
    ]
    for table in tables:
        carrier = set(table.elements())
        for y in table.elements():
            assert {table.left[x][y] for x in table.elements()} == carrier
        for x in table.elements():
            assert {table.right[x][y] for y in table.elements()} == carrier


def test_count_by_class(catalogs):
    counts = count_by_class(catalogs[2])
    assert counts == {
        "total": 2,
        "commutative": 2,
        "groups": 1,
        "non_group": 1,
        "non_commutative": 0,
    }
    counts = count_by_class(catalogs[1])
    assert counts["total"] == 1 and counts["groups"] == 1


def test_determinism_across_runs(catalogs):
    for n in range(1, 6):
        one = "\n".join(catalog_lines(enumerate_digroups(n))).encode("utf-8")
        again = "\n".join(catalog_lines(enumerate_digroups(n))).encode("utf-8")
        assert one == again
        assert one == "\n".join(catalog_lines(catalogs[n])).encode("utf-8")


def test_order_caps():
    with pytest.raises(UnsupportedOrderError):
        enumerate_digroups(7)
    with pytest.raises(UnsupportedOrderError):
        naive_enumerate(4)
    with pytest.raises(UnsupportedOrderError):
        enumerate_digroups(0)


def test_verify_classification_claims(catalogs):
    report = verify_classification_claims(catalogs=catalogs)
    assert report.ok
    by_id = {c.claim_id: c for c in report.claims}
    assert set(by_id) == {"C1", "C2", "C3", "C4", "C5"}
    # C4 attaches the raw non-commutative class list for audit: N plus the
    # non-commutative group S3
    audit = by_id["C4"].entries
    assert len(audit) == 2
    assert sorted(e.group for e in audit) == [False, True]


def test_claims_subset_run():
    report = verify_classification_claims(through=2)
    assert {c.claim_id for c in report.claims} == {"C1", "C2", "C5"}
    assert report.ok


def _moved(entry, rng):
    """The entry with its table relabelled by a seeded random bijection that
    moves the identity off index 0, so the table is no longer canonical."""
    from digroups import CatalogEntry, Mapping, relabel

    n = entry.order
    perm = list(range(n))
    rng.shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    moved = relabel(entry.canonical, Mapping(n, n, tuple(perm)))
    return CatalogEntry(
        moved, entry.order, entry.commutative, entry.group, entry.subdigroup_count
    )


def test_claims_recognise_relabelled_m_and_n(catalogs):
    import random

    rng = random.Random(15)
    moved = {2: [_moved(e, rng) for e in catalogs[2]], 6: [_moved(e, rng) for e in catalogs[6]]}
    assert all(e.canonical.identity != 0 for entries in moved.values() for e in entries)
    report = verify_classification_claims(catalogs={**catalogs, **moved})
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["C2"].passed and by_id["C4"].passed
    assert report.ok


def test_claim_c4_fails_when_n_is_replaced_by_s3(catalogs):
    s3 = [e for e in catalogs[6] if e.group and not e.commutative]
    assert len(s3) == 1
    sixes = [s3[0] if not (e.group or e.commutative) else e for e in catalogs[6]]
    report = verify_classification_claims(catalogs={**catalogs, 6: sixes})
    by_id = {c.claim_id: c for c in report.claims}
    assert not by_id["C4"].passed
    assert by_id["C4"].observed == (
        "6 classes, 2 non-commutative (2 of them groups), 0 non-commutative non-group"
    )
    assert [c.claim_id for c in report.claims if not c.passed] == ["C4"]


def test_claims_c1_and_c2_fail_on_an_empty_order_1_catalog(catalogs):
    report = verify_classification_claims(catalogs={**catalogs, 1: []}, through=2)
    assert [(c.claim_id, c.passed) for c in report.claims] == [
        ("C1", False),
        ("C2", False),
        ("C5", True),
    ]
    assert report.claims[0].observed == "0 class(es), group=None"
    assert not report.ok


def test_canonical_recognition_of_m_and_n_agrees_with_find_isomorphism(reference_classes):
    from digroups.search import _is_builtin

    entries = [e for e in reference_classes if e.order in (2, 6)]
    assert len(entries) == 8
    for name in ("M", "N"):
        named = builtin(name)
        for e in entries:
            assert _is_builtin(e, name) == (find_isomorphism(e.canonical, named) is not None)
        assert sum(_is_builtin(e, name) for e in entries) == 1
