"""Acceptance suite: one test per criterion, each printing a pass line.

Every criterion is exact (no tolerances); the enumerations are shared through
the session-scoped catalogs fixture so the order-6 run happens once.
"""


import pytest

from digroups import (
    SearchOptions,
    builtin,
    catalog_lines,
    cayley_embedding,
    digroup_from_triple,
    enumerate_digroups,
    find_isomorphism,
    is_commutative,
    is_group,
    is_homomorphism,
    is_subdigroup,
    liu_inverse,
    liu_inverse_map,
    naive_enumerate,
    restrict,
    subdigroup_criteria,
    translation_product_digroup,
    triple_from_digroup,
    trivial_digroup,
    validate_digroup,
    validate_triple,
    verify_classification_claims,
    verify_translation_identities,
)


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def embedding_pool(identity_suite, catalogs):
    pool = dict(identity_suite)
    for n in (1, 2, 3, 4):
        for i, entry in enumerate(catalogs[n]):
            pool[f"order{n}#{i}"] = entry.canonical
    return pool


def test_criterion_1_named_examples_validate():
    m = builtin("M")
    n = builtin("N")
    assert validate_digroup(m).ok and not validate_digroup(m).violations
    assert validate_digroup(n).ok and not validate_digroup(n).violations
    assert is_commutative(m) and not is_group(m)
    assert not is_commutative(n) and not is_group(n)
    assert n.left[2][2] == 4 and n.right[2][2] == 5  # β⇀β = δ ≠ ε = β↼β
    _announce(1, "M and N validate; M commutative non-group; N non-commutative at (β, β)")


def test_criterion_2_liu_inverse_facts():
    assert liu_inverse_map(builtin("M")).image == (0, 0)
    for table in (builtin("M"), builtin("N"), builtin("S3"), trivial_digroup(4)):
        e = table.identity
        for x in table.elements():
            sols = [
                y
                for y in table.elements()
                if table.left[y][x] == e and table.right[x][y] == e
            ]
            assert sols == [liu_inverse(table, x)]
    _announce(2, "Liu inverse map of M is (0, 0); uniqueness holds by full scan")


def test_criterion_3_subdigroup_criteria_agree():
    for table in (builtin("M"), builtin("N")):
        n = table.order
        for mask in range(1 << n):
            subset = {x for x in range(n) if mask >> x & 1}
            a, b, c = subdigroup_criteria(table, subset)
            assert a == b == c
    _announce(3, "the three subdigroup criteria agree on every subset of M and N")


def test_criterion_4_translation_identity_suite(identity_suite):
    for name, table in identity_suite.items():
        report = verify_translation_identities(table)
        assert report.ok, (name, [v.law for v in report.violations])
    _announce(4, "translation identity suite passes on M, N, Z2, Z4, S3, MxZ2, trivial(3)")


def test_criterion_5_cayley_embedding(embedding_pool):
    for name, table in embedding_pool.items():
        prod = cayley_embedding(table)
        assert validate_digroup(prod.table).ok, name
        assert len(set(prod.eta.image)) == table.order, name
        assert is_homomorphism(table, prod.table, prod.eta), name
        assert is_subdigroup(prod.table, prod.diagonal), name
        diag = restrict(prod.table, prod.diagonal)
        assert find_isomorphism(table, diag) is not None, name
    _announce(5, f"diagonal embedding verified on {len(embedding_pool)} digroups")


def test_criterion_6_standard_triple_round_trip(embedding_pool):
    for name, table in embedding_pool.items():
        triple = triple_from_digroup(table)
        assert validate_triple(triple).ok, name
        built = digroup_from_triple(triple)
        assert validate_digroup(built).ok, name
        prod = translation_product_digroup(table).table
        assert built.left == prod.left and built.right == prod.right, name
        assert built.identity == prod.identity, name
    _announce(6, f"triple round trip equals the translation product on {len(embedding_pool)} digroups")


def test_criterion_7_small_order_classification(catalogs):
    assert len(catalogs[1]) == 1
    assert len(catalogs[2]) == 2
    classes2 = catalogs[2]
    assert any(find_isomorphism(e.canonical, builtin("Z2")) for e in classes2)
    assert any(find_isomorphism(e.canonical, builtin("M")) for e in classes2)
    for n in (1, 2, 3):
        naive = naive_enumerate(n)
        assert [e.canonical for e in naive] == [e.canonical for e in catalogs[n]]
    _announce(7, "orders 1 and 2 classify to (trivial) and (Z2, M); naive oracle agrees up to order 3")


def test_criterion_8_no_small_non_commutative(catalogs, claims_report):
    for n in (3, 4, 5):
        assert all(e.commutative for e in catalogs[n])
    c3 = {c.claim_id: c for c in claims_report.claims}["C3"]
    assert c3.passed
    _announce(8, "orders 3, 4, 5 have zero non-commutative classes")


def test_criterion_9_order_6_uniqueness(catalogs, claims_report):
    six = catalogs[6]
    non_comm = [e for e in six if not e.commutative]
    non_comm_non_group = [e for e in non_comm if not e.group]
    assert len(non_comm_non_group) == 1
    assert find_isomorphism(non_comm_non_group[0].canonical, builtin("N")) is not None
    c4 = {c.claim_id: c for c in claims_report.claims}["C4"]
    assert c4.passed
    assert len(c4.entries) == len(non_comm)
    kinds = sorted((e.group, e.commutative) for e in non_comm)
    _announce(
        9,
        f"order 6: {len(six)} classes, non-commutative classes {kinds} "
        "(the unique non-group one is N)",
    )


def test_criterion_10_group_count_anchor(catalogs):
    expected = (1, 1, 1, 2, 1)
    got = tuple(sum(1 for e in catalogs[n] if e.group) for n in range(1, 6))
    assert got == expected
    _announce(10, f"group classes per order 1..5 are {got}")


def test_criterion_11_determinism():
    for n in range(1, 6):
        runs = [catalog_lines(enumerate_digroups(n, SearchOptions())) for _ in range(3)]
        blobs = {"\n".join(r).encode("utf-8") for r in runs}
        assert len(blobs) == 1
    _announce(11, "catalogs are byte-identical across repeated runs")


@pytest.fixture(scope="module")
def claims_report(catalogs):
    return verify_classification_claims(catalogs=catalogs)


def test_claims_report_all_pass(claims_report):
    for claim in claims_report.claims:
        print(
            f"claim {claim.claim_id}: {'PASS' if claim.passed else 'FAIL'} "
            f"({claim.runtime_s:.2f}s) {claim.observed}"
        )
    assert claims_report.ok
