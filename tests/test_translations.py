"""Translation sets, the identity suite, products, and the diagonal embedding."""

import hashlib
import random
from pathlib import Path

import pytest

from digroups import (
    ConstructionError,
    DigroupTable,
    MalformedTableError,
    Mapping,
    TransformSet,
    builtin,
    cayley_embedding,
    cyclic_group,
    digroup_from_triple,
    direct_product,
    find_isomorphism,
    is_homomorphism,
    is_subdigroup,
    left_translations,
    liu_inverse_map,
    pair_action,
    phi,
    restrict,
    right_translation_product,
    relabel,
    right_translations,
    serialize_digroup,
    serialize_embedding,
    translation_product_digroup,
    triple_from_digroup,
    trivial_digroup,
    validate_digroup,
    verify_translation_identities,
)
from digroups import translations as tl, triples as tr
from digroups.fileio import parse_catalog_line
from digroups.subdigroups import SubsetMask
from digroups.tables import INVERSE_MISSING
from digroups.translations import TRANSLATION_LAWS, ProductDigroup, _verify_embedding
from digroups.triples import TRIPLE_LAWS


def _opposite(table: DigroupTable) -> DigroupTable:
    """The opposite digroup: x ⇀' y = y ↼ x and x ↼' y = y ⇀ x, same
    identity and labels.  It is a digroup exactly when the table is."""
    left, right = zip(*table.right), zip(*table.left)  # transposes
    return DigroupTable(table.order, table.identity, left, right, table.labels)


def test_left_translation_sizes(m_table, n_table):
    grp, semi = left_translations(n_table)
    assert len(grp) == 2 and len(semi) == 6
    grp, semi = left_translations(m_table)
    assert len(grp) == 1 and len(semi) == 2
    for g in (cyclic_group(4), builtin("S3")):
        grp, semi = left_translations(g)
        assert len(grp) == g.order and len(semi) == g.order
        assert {t.image for t in grp.transforms} == {t.image for t in semi.transforms}


def test_semi_part_labeled_injectively(identity_suite):
    # x -> a⇀x sends e to a, so the semi part always has n distinct members
    for table in identity_suite.values():
        _, semi = left_translations(table)
        assert len(semi) == table.order
        for a in table.elements():
            assert semi.transforms[semi.label_of(a)](table.identity) == a


def test_right_translation_sizes(m_table, n_table):
    grp, semi = right_translations(m_table)
    # x⇀a = x for M, so the group part is just the identity map
    assert len(grp) == 1 and grp.transforms[0] == Mapping.identity(2)
    # x↼a = a gives the two constant maps
    assert len(semi) == 2
    assert {t.image for t in semi.transforms} == {(0, 0), (1, 1)}
    grp, semi = right_translations(n_table)
    assert len(grp) == 2 and len(semi) == 6
    for g in (cyclic_group(3), builtin("S3")):
        grp, semi = right_translations(g)
        assert len(grp) == g.order and len(semi) == g.order


def test_group_part_is_a_group_under_composition(identity_suite):
    for table in identity_suite.values():
        grp, _ = left_translations(table)
        ident = Mapping.identity(table.order)
        assert grp.index_of(ident) is not None
        liu = liu_inverse_map(table)
        for t in grp.transforms:
            for u in grp.transforms:
                assert grp.index_of(t.compose(u)) is not None
        for a in table.elements():
            t = grp.transforms[grp.label_of(a)]
            ti = grp.transforms[grp.label_of(liu(a))]
            assert t.compose(ti).image == ident.image
            assert ti.compose(t).image == ident.image


def test_semi_part_closure_unit_and_left_inverses(identity_suite):
    for table in identity_suite.values():
        _, semi = left_translations(table)
        e = table.identity
        unit = semi.transforms[semi.label_of(e)]
        liu = liu_inverse_map(table)
        for t in semi.transforms:
            for u in semi.transforms:
                assert semi.index_of(t.compose(u)) is not None
            assert t.compose(unit).image == t.image
        for a in table.elements():
            f = semi.transforms[semi.label_of(a)]
            fi = semi.transforms[semi.label_of(liu(a))]
            assert fi.compose(f).image == unit.image


@pytest.mark.parametrize(
    "name", ["M", "N", "Z2", "Z4", "S3", "trivial(3)"]
)
def test_translation_identity_suite_builtin(name):
    assert verify_translation_identities(builtin(name)).ok


def test_translation_identity_suite_product(identity_suite):
    assert verify_translation_identities(identity_suite["MxZ2"]).ok


def test_translation_and_triple_law_codes_are_disjoint():
    assert set(TRANSLATION_LAWS).isdisjoint(TRIPLE_LAWS)


def test_identity_suite_flags_a_corrupted_cell(n_table):
    # one changed cell of N that keeps every Liu inverse, so the suite runs
    left = [list(row) for row in n_table.left]
    left[2][3] = 2
    broken = DigroupTable(6, n_table.identity, left, n_table.right)
    assert INVERSE_MISSING not in {v.law for v in validate_digroup(broken).violations}
    report = verify_translation_identities(broken)
    assert not report.ok
    laws = [v.law for v in report.violations]
    assert set(laws) <= set(TRANSLATION_LAWS + TRIPLE_LAWS)
    # both halves report: the product laws and the extracted triple's laws
    assert set(laws) & set(TRANSLATION_LAWS) and set(laws) & set(TRIPLE_LAWS)


def test_phi_examples(m_table, n_table):
    p = phi(n_table)
    assert p.domain_size == 6 and p.codomain_size == 2
    assert set(p.image) == {0, 1}  # 6-to-2 surjection
    p = phi(m_table)
    grp, _ = left_translations(m_table)
    assert all(grp.transforms[i] == Mapping.identity(2) for i in p.image)
    p = phi(cyclic_group(4))
    assert sorted(p.image) == list(range(4))  # bijection in the group case


def test_phi_is_semigroup_homomorphism(identity_suite):
    for table in identity_suite.values():
        grp, semi = left_translations(table)
        p = phi(table)
        for j, f in enumerate(semi.transforms):
            for l, g in enumerate(semi.transforms):
                comp = semi.index_of(f.compose(g))
                assert p(comp) == grp.index_of(
                    grp.transforms[p(j)].compose(grp.transforms[p(l)])
                )


def test_translation_product_m(m_table):
    prod = translation_product_digroup(m_table)
    assert prod.table.order == 2
    assert validate_digroup(prod.table).ok
    assert find_isomorphism(prod.table, m_table) is not None
    # the embedding is onto here
    assert prod.diagonal.members == {0, 1}


def test_translation_product_n(n_table):
    prod = translation_product_digroup(n_table)
    assert prod.table.order == 12
    assert validate_digroup(prod.table).ok
    assert len(prod.diagonal.members) == 6


def test_translation_product_group_case():
    z2 = cyclic_group(2)
    prod = translation_product_digroup(z2)
    assert prod.table.order == 4
    assert find_isomorphism(prod.table, direct_product(z2, z2)) is not None


def test_cayley_embedding_properties(identity_suite):
    for name, table in identity_suite.items():
        prod = cayley_embedding(table)
        assert validate_digroup(prod.table).ok
        assert len(set(prod.eta.image)) == table.order
        assert is_homomorphism(table, prod.table, prod.eta)
        assert is_subdigroup(prod.table, prod.diagonal)
        diag = restrict(prod.table, prod.diagonal)
        assert find_isomorphism(table, diag) is not None, name


def test_embeddings_run_no_isomorphism_search(monkeypatch, catalogs):
    # eta is checked as an injective homomorphism whose image is a
    # subdigroup, so neither construction may fall back on the backtracking
    # search
    def refuse(*args):
        raise AssertionError("construction ran find_isomorphism")

    monkeypatch.setattr("digroups.morphisms.find_isomorphism", refuse)
    monkeypatch.setattr("digroups.translations.find_isomorphism", refuse, raising=False)
    tables = [entry.canonical for n in range(1, 7) for entry in catalogs[n]]
    tables += [
        direct_product(builtin("N"), builtin("Z2")),
        direct_product(builtin("M"), builtin("Z4")),
    ]
    for table in tables:
        for build in (cayley_embedding, right_translation_product):
            prod = build(table)
            assert sorted(prod.diagonal.members) == sorted(prod.eta.image)


def test_transform_set_rejects_members_of_another_carrier():
    with pytest.raises(MalformedTableError, match="self-maps of 3 points"):
        TransformSet(3, (Mapping(2, 2, (0, 1)),), Mapping(1, 1, (0,)))
    with pytest.raises(MalformedTableError, match="self-maps of 3 points"):
        TransformSet(3, (Mapping(3, 2, (0, 1, 1)),), Mapping(1, 1, (0,)))


def test_liu_inverse_in_product_is_componentwise(n_table):
    # Liu inverse of (grp(a), semi(b)) is (grp of liu(a)), semi of liu(b))
    prod = translation_product_digroup(n_table)
    grp, semi = left_translations(n_table)
    liu_prod = liu_inverse_map(prod.table)
    liu = liu_inverse_map(n_table)
    for p, (i, j) in enumerate(prod.pair_labels):
        q = liu_prod(p)
        qi, qj = prod.pair_labels[q]
        a = grp.transforms[i]
        # group component inverts functionally
        assert grp.transforms[qi].compose(a) == Mapping.identity(n_table.order)
        b = semi.transforms[j](n_table.identity)
        assert qj == semi.label_of(liu(b))


def test_pair_action_examples(m_table, n_table):
    prod = translation_product_digroup(m_table)
    # the identity pair is (identity map, constant-0 map): not the identity action
    assert pair_action(prod, prod.table.identity, (0, 1)) == (0, 0)

    z2 = cyclic_group(2)
    gprod = translation_product_digroup(z2)
    for p in range(gprod.table.order):
        if p == gprod.table.identity:
            for point in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert pair_action(gprod, p, point) == point

    nprod = translation_product_digroup(n_table)
    grp, semi = left_translations(n_table)
    pair = grp.label_of(1) * len(semi) + semi.label_of(2)  # (grp(α), semi(β))
    assert pair_action(nprod, pair, (0, 0)) == (1, 2)


def test_right_translation_product_examples(m_table, n_table):
    for table in (m_table, n_table):
        prod = right_translation_product(table)
        assert validate_digroup(prod.table).ok
        diag = restrict(prod.table, prod.diagonal)
        assert find_isomorphism(table, diag) is not None
    assert right_translation_product(m_table).table.order == 2
    assert right_translation_product(n_table).table.order == 12


def test_right_translation_product_group_case():
    for g in (cyclic_group(2), cyclic_group(3)):
        prod = right_translation_product(g)
        assert prod.table.order == g.order ** 2
        assert find_isomorphism(prod.table, direct_product(g, g)) is not None


def test_right_translation_product_identity_pool(identity_suite):
    for name, table in identity_suite.items():
        prod = right_translation_product(table)
        assert validate_digroup(prod.table).ok, name


def _reference_right_product(table):
    """The right product built the long way: the opposite digroup's left
    product, taken opposite again and relabelled (i, j) -> (j, i)."""
    left = translation_product_digroup(_opposite(table))
    g, size = len(left.first_parts), left.table.order
    swap = Mapping(size, size, tuple(j * g + i for i, j in left.pair_labels))
    return (
        relabel(_opposite(left.table), swap),
        tuple(swap(p) for p in left.eta.image),
        tuple(sorted((j, i) for i, j in left.pair_labels)),
        left.second_parts,
        left.first_parts,
    )


def test_right_product_equals_the_opposite_route(reference_classes):
    classes = [entry.canonical for entry in reference_classes]
    rng = random.Random(20261018)
    tables = list(classes)
    for table in classes[1:]:  # order 1 has nowhere to move its identity
        n = table.order
        images = list(range(n))
        while images[0] == 0:
            rng.shuffle(images)
        tables.append(relabel(table, Mapping(n, n, tuple(images))))
    tables += [
        direct_product(builtin("N"), builtin("Z2")),
        direct_product(builtin("M"), builtin("Z4")),
    ]
    assert len(tables) == 59
    for table in tables:
        prod = right_translation_product(table)
        got = (
            prod.table,
            prod.eta.image,
            prod.pair_labels,
            prod.first_parts,
            prod.second_parts,
        )
        assert got == _reference_right_product(table), serialize_digroup(table)


# Corrupted order-2 sources whose flaw shows in the translation sets
# themselves.  trivial(2) and Z2 with left[1][0] = 0: in the left product the
# second component of f ↼ h, phi(f)∘h, is no longer the semi transform of
# f(e) ↼ h(e).  With right[0][1] = 0: the columns x -> x ↼ a no longer send e
# to a, so the right semi part collapses.
BROKEN_ORDER_2 = (
    ([[0, 0], [0, 1]], [[0, 1], [0, 1]]),
    ([[0, 1], [0, 0]], [[0, 1], [1, 0]]),
    ([[0, 0], [1, 1]], [[0, 0], [0, 1]]),
    ([[0, 1], [1, 0]], [[0, 0], [1, 0]]),
)


def test_no_invalid_source_yields_a_product(reference_classes, monkeypatch):
    # A product is a digroup only through its source, so each one-cell
    # corruption the axiom check rejects must be refused by every
    # construction, in the source's name, before any pair table is built.
    def unreachable(*args):
        raise AssertionError("a pair table was built for a source that is no digroup")

    monkeypatch.setattr(tr, "_pair_table", unreachable)  # the left product's
    monkeypatch.setattr(tl, "_pair_table", unreachable)  # the right product's
    rng = random.Random(11)
    tables = [DigroupTable(2, 0, left, right) for left, right in BROKEN_ORDER_2]
    for entry in reference_classes[1:]:  # order 1 has no other value to write
        table, n = entry.canonical, entry.order
        for _ in range(20):
            products = [[list(row) for row in table.left], [list(row) for row in table.right]]
            side, a, b = rng.randrange(2), rng.randrange(n), rng.randrange(n)
            old = products[side][a][b]
            products[side][a][b] = rng.choice([x for x in range(n) if x != old])
            broken = DigroupTable(n, table.identity, *products)
            if not validate_digroup(broken).ok:
                tables.append(broken)
    assert len(tables) == 564
    for table in tables:
        assert not validate_digroup(table).ok
        for build, side in (
            (translation_product_digroup, "left"),
            (cayley_embedding, "left"),
            (right_translation_product, "right"),
        ):
            refusal = f"^{side} translation product needs a digroup source: table of order "
            with pytest.raises(ConstructionError, match=refusal):
                build(table)


def _product_oracle_sources(reference_classes):
    """Every class of orders 1-8 with three seeded relabellings of each,
    Z14, and seeded direct products of classes whose translation products
    have order <= 200."""
    rng = random.Random("product-oracle")
    tables = [builtin("Z14")]
    for entry in reference_classes:
        table, n = entry.canonical, entry.order
        tables.append(table)
        for _ in range(3):
            images = list(range(n))
            rng.shuffle(images)
            tables.append(relabel(table, Mapping(n, n, tuple(images))))
    factors = [entry.canonical for entry in reference_classes[1:]]
    products = 0
    while products < 10:
        table = direct_product(*rng.sample(factors, 2))
        sizes = [len(p) for p in (*left_translations(table), *right_translations(table))]
        if sizes[0] * sizes[1] <= 200 and sizes[2] * sizes[3] <= 200:
            tables.append(table)
            products += 1
    return tables


def test_products_of_digroups_pass_the_axiom_check(reference_classes):
    # The constructions check the source, not the product; this runs the
    # product check they skip.
    tables = _product_oracle_sources(reference_classes)
    assert len(tables) == 1 + 4 * 29 + 10
    assert max(t.order for t in tables) == 42
    for table in tables:
        for product in (
            cayley_embedding(table).table,
            right_translation_product(table).table,
            digroup_from_triple(triple_from_digroup(table)),
        ):
            assert validate_digroup(product).ok, serialize_digroup(table)


def _order_15_classes():
    """Every class of order 15, read from the checked-in catalog."""
    lines = Path(__file__).with_name("catalog_11_15.jsonl").read_text(encoding="utf-8")
    entries = map(parse_catalog_line, lines.splitlines())
    return [entry.canonical for entry in entries if entry.order == 15]


# Digroups of orders 15 and 16 -> the order of both translation products.
# The only group of order 15 and the four abelian groups of order 16 give
# products at and near the table bound, 256.
_THROUGH_ORDER_16 = {
    **{
        f"class15-{k}": (lambda k=k: _order_15_classes()[k], order)
        for k, order in enumerate((15, 45, 45, 75, 225))
    },
    "Z16": (lambda: builtin("Z16"), 256),
    "Z4xZ4": (lambda: direct_product(builtin("Z4"), builtin("Z4")), 256),
    "Z2xZ8": (lambda: direct_product(builtin("Z2"), builtin("Z8")), 256),
    "Z2^4": (lambda: direct_product(*[direct_product(builtin("Z2"), builtin("Z2"))] * 2), 256),
    "trivial(16)": (lambda: trivial_digroup(16), 16),
}


@pytest.mark.parametrize("name", _THROUGH_ORDER_16)
def test_products_through_order_16_build_check_and_round_trip(name):
    make, order = _THROUGH_ORDER_16[name]
    assert len(_order_15_classes()) == 5
    table = make()
    left, right = cayley_embedding(table).table, right_translation_product(table).table
    assert (left.order, right.order) == (order, order)
    assert verify_translation_identities(table).ok
    assert digroup_from_triple(triple_from_digroup(table)) == left
    if order > 200:
        assert validate_digroup(left).ok and validate_digroup(right).ok


def test_verify_embedding_rejects_a_broken_embedding(n_table):
    prod = cayley_embedding(n_table)
    n, size = n_table.order, prod.table.order
    eta = prod.eta.image
    what = "left translation embedding"

    def rejects(broken, message):
        with pytest.raises(ConstructionError, match=f"^{what}: {message}$"):
            _verify_embedding(n_table, broken, what)

    def replaced(eta=prod.eta, diagonal=prod.diagonal):
        return ProductDigroup(
            prod.table, prod.pair_labels, eta, diagonal, prod.first_parts, prod.second_parts
        )

    collapsed = Mapping(n, size, (eta[0],) * n)
    rejects(replaced(eta=collapsed), "embedding is not injective")

    # swapping the images of α and β keeps eta injective but not a homomorphism
    swapped = Mapping(n, size, (eta[0], eta[2], eta[1]) + eta[3:])
    assert not is_homomorphism(n_table, prod.table, swapped)
    rejects(replaced(eta=swapped), "embedding is not a homomorphism")

    outside = min(set(range(size)) - set(eta))
    widened = SubsetMask.of(size, set(eta) | {outside})
    assert not is_subdigroup(prod.table, widened)
    rejects(replaced(diagonal=widened), "diagonal is not a subdigroup")


def test_opposite_digroup(identity_suite):
    for name, table in identity_suite.items():
        opposite = _opposite(table)
        assert validate_digroup(opposite).ok, name
        assert _opposite(opposite) == table, name
        assert right_translations(table) == left_translations(opposite), name


# sha256 of (cayley_embedding document, right translation product table with
# its eta image and pair labels, digroup_from_triple of the extracted triple).
# Any change to how the products are built must leave these bytes alone.
PRODUCT_DIGESTS = {
    "M": (
        "4b9640d330a3c67f969445801bce2a91d6a60aa22ef006834d467a015740315b",
        "8542434195b0195a0bc1a39ae5db643b613b04554a5f4ce7aa78235dd709ba0b",
        "79bd9267b413d85410582b80295e2bbcc7ddae6456ae53343d56045abc7e04af",
    ),
    "N": (
        "d7023efb5e19a5616d7eea21e76ed9603be957a75ec1712ae29f1596982a2838",
        "598854eb85e90d1d9267d17422cfcf6621624d8a7825b47727ce67a27b33a5c2",
        "e963cd4d135560deb33922ae7a2b15009a58d294d10eca28ba58104a78ca9ccb",
    ),
    "S3": (
        "65bcad0086f35670b4bf3198f17331eeecd011e682f77d3e2e485f732f4328b9",
        "809eb8e61ec39bdafac2f44b4382112b50f349e2f1a561dd8c6ecd524abc5d65",
        "f6683e4d33014ca0a72a52cef10d12a19a1a3a74f6b9bc92af28fa68b0f45554",
    ),
    "Z4": (
        "7f6acc09057a35fe67d56f836fb34e2a1ddcc7bf431e0fab87e4c2fffed64140",
        "74cd0296fb58b4158e62065f3e9334a7310b4b7a698fc18c1bb4251096125261",
        "54c87ba5b37ee4bc4a53b7bb4906af519002d6728c9fafff33475b93eb220880",
    ),
    "NxZ2": (
        "232f907762e68e157b79b25e348d55655f35053768beb377e98f7644ba1c647a",
        "4f3608d68d88eefee3aaf8eda228caf2be59f53f8c49afeb49eb69e7faced363",
        "ecbdc2d0c9ad9dc8cfb46d8f1caee4ad977850a6399d37bfcc22e9aefcfe0677",
    ),
    "MxZ4": (
        "4535ebb626163e8a55483e72e6c9d016524a08fbd7d0cfc03b17be5382095fac",
        "f15b77a0236c40172a02a174e58d78a21d89eacc5fd5de7a9fea59473d3765f1",
        "7ca715ad2e3f640aab8598782e94379edf9cd72244dc7c70bfb1cd4b08e9b07c",
    ),
    "shifted_N": (
        "7e2aa7f0333fda176a05901f283788c049a91f17be2f5c7113c826d87af4f442",
        "6643b44e8636386f88a599998f81605dde5953ce688e9c0d0e1b7bbb96cd21c7",
        "d372537127318dac3ff41c86d36a09b407a89d4563ce97a40076829264c2b188",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stability_input(name: str):
    if name == "NxZ2":
        return direct_product(builtin("N"), builtin("Z2"))
    if name == "MxZ4":
        return direct_product(builtin("M"), builtin("Z4"))
    if name == "shifted_N":  # the identity at index 3
        return relabel(builtin("N"), Mapping(6, 6, (3, 0, 2, 5, 1, 4)))
    return builtin(name)


@pytest.mark.parametrize("name", sorted(PRODUCT_DIGESTS))
def test_products_are_byte_stable(name):
    table = _stability_input(name)
    right = right_translation_product(table)
    got = (
        _digest(serialize_embedding(cayley_embedding(table))),
        _digest(
            serialize_digroup(right.table) + repr(right.eta.image) + repr(right.pair_labels)
        ),
        _digest(serialize_digroup(digroup_from_triple(triple_from_digroup(table)))),
    )
    assert got == PRODUCT_DIGESTS[name]
    assert _opposite(_opposite(table)) == table
    assert validate_digroup(_opposite(table)).ok


# sha256 of serialize_digroup(direct_product(a, b)) for every ordered pair of
# five factors.  Any change to how direct products are built must leave these
# bytes alone.
DIRECT_PRODUCT_DIGESTS = {
    ("M", "M"): "cbf93a3239ae9874b5f6f478e743486b0a7e6526fcc10e633f9ba27de0345757",
    ("M", "N"): "150c1f758f63036bab9592947293947d12b11bc441562755f688c476ea970c80",
    ("M", "Z2"): "53e7f49e9120fa859b92ebc89c2e9229d60e917659b6be3bd0493a5a1672f2ec",
    ("M", "S3"): "97d3616eedeadcff1df2aae8a9d45f784d4c3d68596bdc6decb137a85ed44c10",
    ("M", "trivial(3)"): "2b9de4c380e925d947cb447d53f57bb42897d40c4cfe37602bace5df6c1b7a4e",
    ("N", "M"): "824a2bcebe71536f6db97a8d2471a4f1af68766f35f90bce1410bbb1be7fe5f6",
    ("N", "N"): "ee15830667cde38285326cd4a70023cfeddd1eaf675f918950a901e46a0bdbb0",
    ("N", "Z2"): "b0f7e65e885eb970f461ebad2abf3a865351b020c787ab4025db1721763b1a95",
    ("N", "S3"): "0b8a0708bf04d6a74e1043856ab205daf9296d6f368ad149226c4345ae6603fe",
    ("N", "trivial(3)"): "31ae2ed42e1a88729db6b90d6c6774ff1014c7165386e50ce5ee806246bbd466",
    ("Z2", "M"): "087a7160a75be6a5304a3b3ff7a47e7c704e1aa58c123b7978045d0b18c315f6",
    ("Z2", "N"): "e963cd4d135560deb33922ae7a2b15009a58d294d10eca28ba58104a78ca9ccb",
    ("Z2", "Z2"): "6e4a771a64bb37f32cf37ea8352be64b632973acc7831eb67146a06f5b4f4d3e",
    ("Z2", "S3"): "05d6685b654774352395f9838ac61974a4d25db84178e3d1383389354a343b5b",
    ("Z2", "trivial(3)"): "5a14967860f533b19e366f73ba71021e06fd6d04b774d478e050ad87fff38d47",
    ("S3", "M"): "2b4ff5457b8d640be019c63e58a74e1bfd6d88268f7659e724692d8eea0964b1",
    ("S3", "N"): "df775258cffb8058ec7121e328d5c3387878071e276c454713cb4005c980bd5b",
    ("S3", "Z2"): "95b56e5f12f86180ee99f1ffcc077a805867c67d279d5aed6c3793194f984bb5",
    ("S3", "S3"): "43c534c597ad76d811d6849c987cb1ea8024be7002a78edf06ce6798376a4dd1",
    ("S3", "trivial(3)"): "0efa1772c3700311c3f3bb2331e647b8ae92f59416c37beefa32302f1da928d5",
    ("trivial(3)", "M"): "2b9de4c380e925d947cb447d53f57bb42897d40c4cfe37602bace5df6c1b7a4e",
    ("trivial(3)", "N"): "e4fab8e01c3c1dd2b2c910945907759824412a3dd34fff758c84837ee75c74d8",
    ("trivial(3)", "Z2"): "4259582dd0f8a214abd58c2f7db06415d97cd8ebb5e850af5b8d62b149426fbb",
    ("trivial(3)", "S3"): "a7a58dadc1f8309aaac9b8acb2afc7d370a591e4e19259613189718744ce66f3",
    ("trivial(3)", "trivial(3)"): "357410daaca18d6f56c8a20a9fae1e12daaffe6a207f561635edc61d0209ae0c",
}


def test_direct_products_are_byte_stable():
    got = {
        (a, b): _digest(serialize_digroup(direct_product(builtin(a), builtin(b))))
        for a, b in DIRECT_PRODUCT_DIGESTS
    }
    assert got == DIRECT_PRODUCT_DIGESTS
