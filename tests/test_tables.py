"""Core table type, axiom checker, Liu inverses, builtins, direct products.

Expected tables for M and N are frozen here from their source, transcribed by
hand; indices follow the label orders (0, a) and (e, α, β, γ, δ, ε).
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from digroups import (
    DigroupError,
    DigroupTable,
    MalformedTableError,
    Mapping,
    builtin,
    commutes,
    cyclic_group,
    direct_product,
    find_isomorphism,
    is_commutative,
    is_group,
    liu_inverse,
    liu_inverse_map,
    relabel,
    trivial_digroup,
    validate_digroup,
)
from digroups.morphisms import canonical_form
from digroups.subdigroups import all_subdigroups, restrict
from digroups.tables import (
    BARUNIT_LEFT,
    BARUNIT_RIGHT,
    BARUNIT_SWAP,
    DIASSOC_1,
    DIASSOC_2,
    DIASSOC_3,
    DIASSOC_4,
    DIASSOC_5,
    INVERSE_MISSING,
    ValidationReport,
    Violation,
    _pair_table,
    _reindex,
)

# Hand-transcribed operation tables for the two named digroups.
M_LEFT = ((0, 0), (1, 1))
M_RIGHT = ((0, 1), (0, 1))

N_LEFT = (
    (0, 1, 1, 1, 0, 0),
    (1, 0, 0, 0, 1, 1),
    (2, 4, 4, 4, 2, 2),
    (3, 5, 5, 5, 3, 3),
    (4, 2, 2, 2, 4, 4),
    (5, 3, 3, 3, 5, 5),
)
N_RIGHT = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 5, 4, 3, 2),
    (1, 0, 5, 4, 3, 2),
    (1, 0, 5, 4, 3, 2),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
)

ALL_BUILTINS = ["M", "N", "S3", "Z2", "Z4", "trivial(3)", "cyclic(5)", "trivial(1)"]


def test_builtin_m_matches_frozen_tables(m_table):
    assert m_table.left == M_LEFT
    assert m_table.right == M_RIGHT
    assert m_table.identity == 0
    assert m_table.labels == ("0", "a")
    # row a of the left table is (a, a)
    assert m_table.left[1] == (1, 1)


def test_builtin_n_matches_frozen_tables(n_table):
    assert n_table.left == N_LEFT
    assert n_table.right == N_RIGHT
    assert n_table.labels == ("e", "α", "β", "γ", "δ", "ε")
    # row β of the right table is (α, e, ε, δ, γ, β)
    assert n_table.right[2] == (1, 0, 5, 4, 3, 2)


def test_m_is_trivial_2(m_table):
    assert m_table.left == trivial_digroup(2).left
    assert m_table.right == trivial_digroup(2).right


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtins_validate(name):
    assert validate_digroup(builtin(name)).ok


def test_m_properties(m_table):
    assert is_commutative(m_table)
    assert not is_group(m_table)


def test_n_properties(n_table):
    assert not is_commutative(n_table)
    assert not is_group(n_table)
    # the non-commutativity witness: β⇀β = δ but β↼β = ε
    assert n_table.left[2][2] == 4
    assert n_table.right[2][2] == 5
    assert not commutes(n_table, 2, 2)


def test_commutes_examples(m_table, n_table):
    assert commutes(m_table, 0, 1)
    assert commutes(n_table, 0, 1)  # e⇀α = α = α↼e


def test_trivial_3_properties():
    t = builtin("trivial(3)")
    assert validate_digroup(t).ok
    assert is_commutative(t)
    assert not is_group(t)


def test_groups_as_digroups():
    for g in (cyclic_group(2), cyclic_group(5), builtin("S3")):
        assert validate_digroup(g).ok
        assert is_group(g)
    assert is_commutative(cyclic_group(5))
    assert not is_commutative(builtin("S3"))


def test_liu_inverse_examples(m_table, n_table):
    # 0 is the Liu inverse of both elements of M
    assert liu_inverse(m_table, 0) == 0
    assert liu_inverse(m_table, 1) == 0
    assert liu_inverse_map(m_table).image == (0, 0)
    # exhaustive-scan values for N, frozen from the tables above
    assert liu_inverse(n_table, 2) == 1  # β -> α
    assert liu_inverse_map(n_table).image == (0, 1, 1, 1, 0, 0)
    # self-inverse element of Z2
    assert liu_inverse(cyclic_group(2), 1) == 1


def test_liu_inverse_uniqueness_by_full_scan(identity_suite):
    # exactly one y per x satisfies y⇀x = e = x↼y
    for table in list(identity_suite.values()) + [builtin("trivial(4)")]:
        assert validate_digroup(table).ok
        e = table.identity
        for x in table.elements():
            sols = [
                y
                for y in table.elements()
                if table.left[y][x] == e and table.right[x][y] == e
            ]
            assert len(sols) == 1
            assert sols[0] == liu_inverse(table, x)


def test_liu_inverse_of_identity_is_identity(identity_suite):
    for table in identity_suite.values():
        assert liu_inverse_map(table)(table.identity) == table.identity


def test_group_liu_inverse_is_group_inverse():
    for g in (cyclic_group(4), cyclic_group(5), builtin("S3")):
        liu = liu_inverse_map(g)
        for x in g.elements():
            assert g.left[liu(x)][x] == g.identity
            assert g.left[x][liu(x)] == g.identity


def test_barunit_laws_exhaustively(identity_suite):
    for table in identity_suite.values():
        e = table.identity
        for x in table.elements():
            assert table.left[x][e] == x
            assert table.right[e][x] == x
            assert table.right[x][e] == table.left[e][x]


def test_validation_is_deterministic(n_table):
    broken = DigroupTable(6, 0, N_LEFT, tuple(reversed(N_RIGHT)))
    assert validate_digroup(broken) == validate_digroup(broken)


def test_mutated_m_reports_diassoc_violation(m_table):
    # rewrite a⇀a to 0; by direct triple check a⇀(a⇀a) = a while (a⇀a)⇀a = 0
    left = ((0, 0), (1, 0))
    broken = DigroupTable(2, 0, left, M_RIGHT)
    assert left[1][left[1][1]] == 1
    assert left[left[1][1]][1] == 0
    report = validate_digroup(broken)
    assert not report.ok
    laws = {v.law: v for v in report.violations}
    assert DIASSOC_1 in laws
    # the first witness in lexicographic order is (1, 0, 1), which breaks the
    # same law: 1⇀(0⇀1) = 1 but (1⇀0)⇀1 = 0
    assert laws[DIASSOC_1].witnesses == (1, 0, 1)
    assert laws[DIASSOC_1].lhs == 1 and laws[DIASSOC_1].rhs == 0


def test_barunit_violations_detected():
    # left projection for both products: x↼e = x breaks e↼x = x at x=1 and
    # the unit swap at (1, 0)
    left = ((0, 0), (1, 1))
    right = ((0, 0), (1, 1))
    report = validate_digroup(DigroupTable(2, 0, left, right))
    assert not report.ok
    laws = [v.law for v in report.violations]
    assert BARUNIT_LEFT in laws
    assert BARUNIT_SWAP in laws


def test_witnesses_past_order_128():
    # Z200 with 150⇀0 set to 10: the two sides differ by 150 ^ 10 = 156, so
    # locating the witness reads the top bit of a byte, which no table of
    # order <= 128 sets.  Each side follows from x⇀y = x + y off that cell,
    # e.g. 1⇀(149⇀0) = 1⇀149 = 150 but (1⇀149)⇀0 = 150⇀0 = 10.
    z = builtin("Z200")
    left = [list(row) for row in z.left]
    left[150][0] = 10
    report = validate_digroup(DigroupTable(200, 0, left, z.right))
    assert report.violations == (
        Violation(DIASSOC_1, (1, 149, 0), 150, 10),
        Violation(DIASSOC_2, (0, 150, 0), 10, 150),
        Violation(DIASSOC_3, (1, 149, 0), 10, 150),
        Violation(DIASSOC_4, (150, 0, 0), 10, 150),
        Violation(BARUNIT_RIGHT, (150,), 10, 150),
    )


def test_missing_inverse_detected():
    # both products x+y mod 2 shifted to kill inverses of 1: use a constant
    # right table so 1 never reaches e from the right
    left = ((0, 1), (1, 0))
    right = ((0, 0), (0, 0))
    report = validate_digroup(DigroupTable(2, 0, left, right))
    assert not report.ok
    assert any(v.law in (INVERSE_MISSING, BARUNIT_LEFT, BARUNIT_RIGHT) for v in report.violations)


def test_structural_malformation_raises_distinctly():
    with pytest.raises(MalformedTableError):
        DigroupTable(2, 0, ((0, 2), (1, 0)), M_RIGHT)  # entry out of range
    with pytest.raises(MalformedTableError):
        DigroupTable(2, 0, ((0,), (1, 0)), M_RIGHT)  # ragged row
    with pytest.raises(MalformedTableError):
        DigroupTable(2, 2, M_LEFT, M_RIGHT)  # identity out of range
    with pytest.raises(MalformedTableError):
        DigroupTable(2, 0, M_LEFT, M_RIGHT, labels=("x", "x"))  # dup labels
    with pytest.raises(MalformedTableError):
        DigroupTable(0, 0, (), ())  # empty carrier


def test_range_errors_name_the_first_bad_entry():
    # each row has two bad entries; the smallest and the largest come second
    good = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    left = (good[0], (5, 0, 7), good[2])
    with pytest.raises(MalformedTableError) as exc:
        DigroupTable(3, 0, left, good)
    assert str(exc.value) == "entry 5 out of range at left[1][0]"
    right = (good[0], good[1], (2, 9, -1))
    with pytest.raises(MalformedTableError) as exc:
        DigroupTable(3, 0, good, right)
    assert str(exc.value) == "entry 9 out of range at right[2][1]"
    with pytest.raises(MalformedTableError) as exc:
        Mapping(3, 3, (0, 4, -1))
    assert str(exc.value) == "mapping image[1] = 4 out of range"


# Each bad entry at the first and at the last cell of a table, and the text
# the constructor must raise for it.
_BAD_ENTRIES = (-1, 3, 10**30)
_BAD_CELLS = (
    ("left", 0, 0),
    ("left", 2, 2),
    ("right", 0, 0),
    ("right", 2, 2),
)


@pytest.mark.parametrize("bad", _BAD_ENTRIES)
@pytest.mark.parametrize("name, x, y", _BAD_CELLS)
def test_range_error_text_at_the_first_and_last_cell(bad, name, x, y):
    rows = {side: [[(a + b) % 3 for b in range(3)] for a in range(3)] for side in ("left", "right")}
    rows[name][x][y] = bad
    with pytest.raises(MalformedTableError) as exc:
        DigroupTable(3, 0, rows["left"], rows["right"])
    assert str(exc.value) == f"entry {bad} out of range at {name}[{x}][{y}]"


# Entries that are no integers: a table refuses each rather than truncating
# or parsing it.
_NON_INTEGERS = (0.5, 1.0, "1", None)


@pytest.mark.parametrize("bad", _NON_INTEGERS)
@pytest.mark.parametrize("name, x, y", _BAD_CELLS)
@pytest.mark.parametrize("n", (3, 257))
def test_non_integer_error_text_at_the_first_and_last_cell(bad, name, x, y, n):
    """Order 3 reads rows as bytes, order 257 cell by cell."""
    x, y = x * (n - 1) // 2, y * (n - 1) // 2
    rows = {side: [[(a + b) % n for b in range(n)] for a in range(n)] for side in ("left", "right")}
    rows[name][x][y] = bad
    with pytest.raises(MalformedTableError) as exc:
        DigroupTable(n, 0, rows["left"], rows["right"])
    assert str(exc.value) == f"{name}[{x}][{y}] must be an integer, got {bad!r}"


def test_the_first_fault_in_row_order_is_reported():
    # row 0 holds a non-integer after an out-of-range entry; row 1 is short
    left = [[0, 7, 0.5], [1, 2], [2, 0, 1]]
    with pytest.raises(MalformedTableError, match=r"^entry 7 out of range at left\[0\]\[1\]$"):
        DigroupTable(3, 0, left, left)
    left[0] = [0, "1", 9]
    with pytest.raises(MalformedTableError, match=r"^left\[0\]\[1\] must be an integer"):
        DigroupTable(3, 0, left, left)
    left[0] = [0, 1, 2]
    with pytest.raises(MalformedTableError, match="^left table row 1 must have 3 entries, found 2$"):
        DigroupTable(3, 0, left, left)


def test_rows_of_any_iterable_type_are_read_as_integers():
    z3 = cyclic_group(3)
    rows = (range(0, 3), iter((1, 2, 0)), bytearray(b"\x02\x00\x01"))
    right = ([(x + y) % 3 for y in range(3)] for x in range(3))
    assert DigroupTable(3, 0, rows, right) == z3
    # a row is never read as a length, as bytes(1) = b"\x00" would read it
    with pytest.raises(TypeError):
        DigroupTable(1, 0, (1,), ((0,),))


@pytest.mark.parametrize("bad", _BAD_ENTRIES)
@pytest.mark.parametrize("x", (0, 2))
def test_mapping_range_error_text_at_the_first_and_last_entry(bad, x):
    image = [0, 1, 2]
    image[x] = bad
    with pytest.raises(MalformedTableError) as exc:
        Mapping(3, 3, image)
    assert str(exc.value) == f"mapping image[{x}] = {bad} out of range"


def _pair_reference(first_left, first_right, second_left, second_right, identity):
    """The pair table cell by cell: (i, j) -> i * s + j, each product taking
    its first component from the first table and its second from the second."""
    g, s = len(first_left), len(second_left)
    pairs = [(i, j) for i in range(g) for j in range(s)]
    left, right = (
        tuple(
            tuple(first[i][k] * s + second[j][l] for k, l in pairs) for i, j in pairs
        )
        for first, second in ((first_left, second_left), (first_right, second_right))
    )
    return (g * s, identity[0] * s + identity[1], left, right)


@pytest.mark.parametrize("g, s", [(1, 1), (1, 6), (6, 1), (3, 7), (7, 3), (5, 5)])
@pytest.mark.parametrize("labelled", [False, True])
def test_pair_table_equals_a_per_cell_reference(g, s, labelled):
    """Seeded index tables, not digroups: the builder reads them as arrays."""
    rng = random.Random(g * 100 + s)
    first_left, first_right = (
        [[rng.randrange(g) for _ in range(g)] for _ in range(g)] for _ in range(2)
    )
    second_left, second_right = (
        [[rng.randrange(s) for _ in range(s)] for _ in range(s)] for _ in range(2)
    )
    identity = (rng.randrange(g), rng.randrange(s))
    labels = [f"p{k}" for k in range(g * s)] if labelled else None
    got = _pair_table(first_left, first_right, second_left, second_right, identity, labels)
    expected = _pair_reference(first_left, first_right, second_left, second_right, identity)
    assert (got.order, got.identity, got.left, got.right) == expected
    assert got.labels == (None if labels is None else tuple(labels))


def test_direct_product_past_order_256_equals_a_per_cell_reference():
    z20 = builtin("Z20")
    prod = direct_product(z20, z20)
    identity = (z20.identity, z20.identity)
    expected = _pair_reference(z20.left, z20.right, z20.left, z20.right, identity)
    assert (prod.order, prod.identity, prod.left, prod.right) == expected
    assert prod.order == 400 and prod.left[399][399] == 18 * 20 + 18


@pytest.mark.parametrize("g, s", [(16, 16), (1, 257), (257, 1), (20, 20)])
def test_pair_table_and_relabel_at_and_past_order_256_equal_per_cell_references(g, s):
    """Order 256 is the largest built as byte rows; 257 and 400 are built
    from lists and tuples."""
    first, second = cyclic_group(g), trivial_digroup(s)
    prod = direct_product(first, second)
    identity = (first.identity, second.identity)
    expected = _pair_reference(first.left, first.right, second.left, second.right, identity)
    assert (prod.order, prod.identity, prod.left, prod.right) == expected
    image = list(range(prod.order))
    random.Random(g * 1000 + s).shuffle(image)
    moved = relabel(prod, Mapping(prod.order, prod.order, tuple(image)))
    assert moved == _relabel_reference(prod, image)


def _relabel_reference(table, image):
    """new[p(x)][p(y)] = p(old[x][y]) cell by cell, labels moved along."""
    n = table.order
    left, right = ([[None] * n for _ in range(n)] for _ in range(2))
    for new, old in ((left, table.left), (right, table.right)):
        for x in range(n):
            for y in range(n):
                new[image[x]][image[y]] = image[old[x][y]]
    labels = None
    if table.labels is not None:
        labels = [None] * n
        for x in range(n):
            labels[image[x]] = table.labels[x]
        labels = tuple(labels)
    return DigroupTable(n, image[table.identity], left, right, labels)


def _restrict_reference(table, members):
    """The table on sorted members, re-indexed 0, 1, ... cell by cell."""
    h = sorted(members)
    rows = tuple(
        tuple(tuple(h.index(old[a][b]) for b in h) for a in h)
        for old in (table.left, table.right)
    )
    labels = None if table.labels is None else tuple(table.labels[a] for a in h)
    return DigroupTable(len(h), h.index(table.identity), rows[0], rows[1], labels)


def test_relabel_equals_a_per_cell_reference():
    rng = random.Random(4099)
    pool = [builtin(name) for name in ("trivial(1)", "M", "N", "S3", "Z12", "trivial(5)")]
    pool.append(direct_product(builtin("N"), builtin("Z4")))
    for table in pool:
        for _ in range(4):
            image = list(range(table.order))
            rng.shuffle(image)
            perm = Mapping(table.order, table.order, tuple(image))
            assert relabel(table, perm) == _relabel_reference(table, image)


def test_restrict_and_canonical_form_equal_a_per_cell_reference(reference_classes):
    tables = [e.canonical for e in reference_classes if e.order <= 6]
    tables += [builtin("N"), relabel(builtin("N"), Mapping(6, 6, (5, 3, 1, 0, 2, 4)))]
    singletons = 0
    for table in tables:
        for sub in all_subdigroups(table):
            assert restrict(table, sub) == _restrict_reference(table, sub.members)
            singletons += len(sub.members) == 1
        canon = canonical_form(table)
        unlabelled = DigroupTable(table.order, table.identity, table.left, table.right)
        assert canon.table == _relabel_reference(unlabelled, canon.certificate.image)
    # every digroup's identity alone is a subdigroup
    assert singletons == len(tables)


def test_reindex_on_one_member():
    n = builtin("N")
    for members in ([0], b"\x00", (0,)):
        one = _reindex(n, members)
        assert (one.order, one.identity, one.left, one.right) == (1, 0, ((0,),), ((0,),))
        assert one.labels == ("e",)


def test_restrict_refuses_a_subset_that_is_not_closed():
    n = builtin("N")
    # β⇀β = δ lies outside {e, β}; {e, α, β} holds e but not β⇀α = δ
    for subset in ({0, 2}, {0, 1, 2}, set(range(5))):
        with pytest.raises(MalformedTableError, match="^subset is not closed under the products$"):
            restrict(n, subset)
    with pytest.raises(MalformedTableError, match="requires the identity"):
        restrict(n, {1})


@pytest.mark.parametrize("n, subset", [(256, range(255)), (256, (0, 200)), (257, (0, 1))])
def test_restrict_refuses_a_subset_that_is_not_closed_at_and_past_order_256(n, subset):
    # in Z256, 1 + 254 = 255 lies outside 0..254, the largest subset whose
    # labels leave out 255
    with pytest.raises(MalformedTableError, match="^subset is not closed under the products$"):
        restrict(cyclic_group(n), set(subset))


def test_direct_product_properties(m_table):
    z2 = cyclic_group(2)
    prod = direct_product(m_table, z2)
    assert prod.order == 4
    assert validate_digroup(prod).ok
    assert is_commutative(prod)
    assert not is_group(prod)

    mm = direct_product(m_table, m_table)
    assert validate_digroup(mm).ok
    assert is_commutative(mm) and not is_group(mm)

    # one-point factor changes nothing up to isomorphism
    one = trivial_digroup(1)
    again = direct_product(m_table, one)
    assert find_isomorphism(again, m_table) is not None


def test_direct_product_preserves_flags_on_builtin_pairs():
    pool = [builtin(name) for name in ("M", "N", "Z2", "S3", "trivial(3)")]
    for d1 in pool:
        for d2 in pool:
            prod = direct_product(d1, d2)
            assert validate_digroup(prod).ok
            assert is_commutative(prod) == (is_commutative(d1) and is_commutative(d2))
            assert is_group(prod) == (is_group(d1) and is_group(d2))


def test_builtin_unknown_name():
    from digroups import DigroupError

    with pytest.raises(DigroupError):
        builtin("nope")
    with pytest.raises(DigroupError):
        builtin("trivial(x)")


@pytest.mark.parametrize(
    "name", ["trivial(3_0)", "cyclic(+3)", "cyclic( 3 )", "cyclic(-3)", "Z٣", "trivial(३)", "Z²"]
)
def test_builtin_orders_are_ascii_decimal(name):
    # int() reads each of these bodies, or str.isdigit passes it
    with pytest.raises(DigroupError, match="^bad order in builtin name "):
        builtin(name)


@given(st.sampled_from(ALL_BUILTINS), st.data())
def test_commutes_matches_definition(name, data):
    table = builtin(name)
    x = data.draw(st.integers(0, table.order - 1))
    y = data.draw(st.integers(0, table.order - 1))
    assert commutes(table, x, y) == (table.left[x][y] == table.right[y][x])


def test_mapping_invariants():
    m = Mapping(3, 2, (0, 1, 1))
    assert not m.is_bijection()
    with pytest.raises(MalformedTableError):
        Mapping(2, 2, (0, 2))
    with pytest.raises(MalformedTableError):
        Mapping(2, 2, (0,))
    ident = Mapping.identity(4)
    assert ident.is_bijection()
    assert ident.inverse() == ident


def test_mapping_compose_applies_the_right_factor_first():
    g = Mapping(4, 3, (2, 0, 1, 2))  # 4 points into 3
    f = Mapping(3, 2, (1, 1, 0))  # 3 points into 2
    fg = f.compose(g)
    assert (fg.domain_size, fg.codomain_size) == (4, 2)
    assert all(fg(x) == f(g(x)) for x in range(4))
    assert fg.image == (0, 1, 1, 0)
    with pytest.raises(MalformedTableError):
        g.compose(f)  # f lands in 2 points, g needs 4
    with pytest.raises(MalformedTableError):
        f.compose(f)
    for m in (f, g, fg):
        assert m.compose(Mapping.identity(m.domain_size)) == m
        assert Mapping.identity(m.codomain_size).compose(m) == m


def _reference_report(table):
    """All nine laws by plain loops over the tables, first witnesses in
    lexicographic order; independent of the byte-string engine."""
    n, e, L, R = table.order, table.identity, table.left, table.right
    violations = []
    for law, lhs, rhs in (
        (DIASSOC_1, lambda x, y, z: L[x][L[y][z]], lambda x, y, z: L[L[x][y]][z]),
        (DIASSOC_2, lambda x, y, z: L[L[x][y]][z], lambda x, y, z: L[x][R[y][z]]),
        (DIASSOC_3, lambda x, y, z: L[R[x][y]][z], lambda x, y, z: R[x][L[y][z]]),
        (DIASSOC_4, lambda x, y, z: R[L[x][y]][z], lambda x, y, z: R[R[x][y]][z]),
        (DIASSOC_5, lambda x, y, z: R[R[x][y]][z], lambda x, y, z: R[x][R[y][z]]),
    ):
        for w in itertools.product(range(n), repeat=3):
            if lhs(*w) != rhs(*w):
                violations.append(Violation(law, w, lhs(*w), rhs(*w)))
                break
    for law, lhs, rhs in (
        (BARUNIT_RIGHT, lambda x: L[x][e], lambda x: x),
        (BARUNIT_LEFT, lambda x: R[e][x], lambda x: x),
        (BARUNIT_SWAP, lambda x: R[x][e], lambda x: L[e][x]),
    ):
        for x in range(n):
            if lhs(x) != rhs(x):
                violations.append(Violation(law, (x,), lhs(x), rhs(x)))
                break
    for x in range(n):
        if not any(L[y][x] == e and R[x][y] == e for y in range(n)):
            violations.append(Violation(INVERSE_MISSING, (x,)))
            break
    return ValidationReport.from_violations(violations)


def _candidates():
    """Every table pair with every identity at orders 1 and 2, and 2,000
    seeded order-3 tables: half arbitrary, half with the bar-unit cells
    filled in the way the naive oracle fills them."""
    for n in (1, 2):
        for e in range(n):
            for vals in itertools.product(range(n), repeat=2 * n * n):
                left = [vals[i * n : (i + 1) * n] for i in range(n)]
                right = [vals[n * n + i * n : n * n + (i + 1) * n] for i in range(n)]
                yield DigroupTable(n, e, left, right)
    rng = random.Random(2003)
    for k in range(2000):
        left = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        right = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        e = rng.randrange(3)
        if k % 2:
            for x in range(3):
                left[x][e], right[e][x] = x, x
            for x in range(3):
                right[x][e] = left[e][x]
        yield DigroupTable(3, e, left, right)


def _corruptions(table, rng, count):
    """Seeded copies of a table with one cell changed."""
    n = table.order
    out = []
    for _ in range(count):
        left = [list(row) for row in table.left]
        right = [list(row) for row in table.right]
        cells = rng.choice((left, right))
        x, y = rng.randrange(n), rng.randrange(n)
        cells[x][y] = (cells[x][y] + rng.randrange(1, n)) % n
        out.append(DigroupTable(n, table.identity, left, right))
    return out


def _relabelled_products():
    """Direct products of order 24 to 36, each seeded-relabelled (which
    moves the identity off 0) and with four seeded one-cell corruptions."""
    rng = random.Random(1601)
    for table in (
        direct_product(builtin("N"), builtin("Z4")),
        direct_product(builtin("trivial(5)"), builtin("S3")),
        direct_product(direct_product(builtin("M"), builtin("Z3")), builtin("N")),
    ):
        images = list(range(table.order))
        rng.shuffle(images)
        moved = relabel(table, Mapping(table.order, table.order, tuple(images)))
        yield moved
        yield from _corruptions(moved, rng, 4)


def test_validator_agrees_with_a_loop_oracle():
    reports = [validate_digroup(t) for t in _candidates()]
    assert reports == [_reference_report(t) for t in _candidates()]
    assert 0 < sum(r.ok for r in reports) < len(reports)
    tables_24_36 = list(_relabelled_products())
    assert sorted({t.order for t in tables_24_36}) == [24, 30, 36]
    reports = [validate_digroup(t) for t in tables_24_36]
    assert reports == [_reference_report(t) for t in tables_24_36]
    assert [r.ok for r in reports] == [True, False, False, False, False] * 3


def test_liu_inverse_map_fails_exactly_where_the_validator_reports(reference_classes):
    """liu_inverse_map raises on a table iff its report holds INVERSE_MISSING,
    and names that law's witness; where it succeeds, liu_inverse reads it."""
    rng = random.Random(2311)
    # an order-1 table has no other value to corrupt a cell to
    tables = [e.canonical for e in reference_classes if 2 <= e.order <= 6]
    tables.append(builtin("Z64"))
    corrupted = [c for t in tables for c in _corruptions(t, rng, 12)]
    missing = 0
    for table in tables + corrupted:
        witnesses = [
            v.witnesses for v in validate_digroup(table).violations if v.law == INVERSE_MISSING
        ]
        if witnesses:
            [(x,)] = witnesses
            with pytest.raises(DigroupError, match=rf"^element {x} has no Liu inverse;"):
                liu_inverse_map(table)
            missing += 1
            continue
        liu = liu_inverse_map(table)
        assert [liu_inverse(table, x) for x in table.elements()] == list(liu.image)
    assert 0 < missing < len(corrupted)
