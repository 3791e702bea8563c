"""Standard triples: extraction, validation, and the pair digroup."""

import hashlib
import itertools
import random

import pytest

from digroups import (
    DigroupTable,
    Mapping,
    ValidationReport,
    Violation,
    StandardTriple,
    TransformSet,
    TripleValidationError,
    builtin,
    cyclic_group,
    digroup_from_triple,
    direct_product,
    find_isomorphism,
    is_subdigroup,
    liu_inverse_map,
    restrict,
    serialize_triple,
    translation_product_digroup,
    triple_from_digroup,
    validate_digroup,
    validate_triple,
    verify_translation_identities,
)
from digroups.tables import INVERSE_MISSING
from digroups import triples as tr
from digroups.triples import SEMI_RIGHT_UNIT, TRIPLE_LAWS


def test_triple_sizes(m_table, n_table):
    t = triple_from_digroup(m_table)
    assert t.carrier_size == 2 and len(t.group_part) == 1 and len(t.semi_part) == 2
    t = triple_from_digroup(n_table)
    assert t.carrier_size == 6 and len(t.group_part) == 2 and len(t.semi_part) == 6
    t = triple_from_digroup(cyclic_group(2))
    assert len(t.group_part) == len(t.semi_part) == 2
    assert sorted(t.phi) == [0, 1]


def test_extracted_triples_validate(identity_suite):
    for name, table in identity_suite.items():
        report = validate_triple(triple_from_digroup(table))
        assert report.ok, (name, [v.law for v in report.violations])


def test_group_regular_representation_triple():
    # for a plain group both parts are the regular representation and the
    # bridge map is a bijection
    g = builtin("S3")
    t = triple_from_digroup(g)
    assert {x.image for x in t.group_part.transforms} == {
        x.image for x in t.semi_part.transforms
    }
    assert validate_triple(t).ok


def test_broken_right_unit_detected(n_table):
    t = triple_from_digroup(n_table)
    # swap the right unit for a non-unit transform
    broken = StandardTriple(
        t.carrier_size,
        t.group_part,
        t.semi_part,
        right_unit=t.semi_part.label_of(2),  # the transform of β
        left_inverse=t.left_inverse,
        phi=t.phi,
    )
    report = validate_triple(broken)
    assert not report.ok
    assert any(v.law == SEMI_RIGHT_UNIT for v in report.violations)


def test_digroup_from_triple_round_trip_m(m_table):
    built = digroup_from_triple(triple_from_digroup(m_table))
    assert built.order == 2
    assert validate_digroup(built).ok
    assert find_isomorphism(built, m_table) is not None


def test_digroup_from_triple_round_trip_n(n_table):
    t = triple_from_digroup(n_table)
    built = digroup_from_triple(t)
    assert built.order == 12
    assert validate_digroup(built).ok
    # the diagonal pairs (phi(j), j) form a subdigroup isomorphic to N
    ns = len(t.semi_part)
    diag = {t.phi[j] * ns + j for j in range(ns)}
    assert is_subdigroup(built, diag)
    assert find_isomorphism(n_table, restrict(built, diag)) is not None


def test_group_triple_builds_group_square():
    g = cyclic_group(3)
    built = digroup_from_triple(triple_from_digroup(g))
    assert built.order == 9
    assert find_isomorphism(built, direct_product(g, g)) is not None


def test_round_trip_equals_translation_product(identity_suite):
    # shared transform ordering makes the two construction routes agree
    # cell by cell, identity included
    for name, table in identity_suite.items():
        built = digroup_from_triple(triple_from_digroup(table))
        prod = translation_product_digroup(table).table
        assert built.left == prod.left, name
        assert built.right == prod.right, name
        assert built.identity == prod.identity, name


def test_built_liu_inverse_is_componentwise(identity_suite):
    for table in identity_suite.values():
        t = triple_from_digroup(table)
        built = digroup_from_triple(t)
        liu = liu_inverse_map(built)
        ng, ns = len(t.group_part), len(t.semi_part)
        for i in range(ng):
            a = t.group_part.transforms[i]
            inv_image = [0] * t.carrier_size
            for x, v in enumerate(a.image):
                inv_image[v] = x
            n = t.carrier_size
            ai = t.group_part.index_of(Mapping(n, n, inv_image))
            for j in range(ns):
                assert liu(i * ns + j) == ai * ns + t.left_inverse[j]


def test_digroup_from_triple_rejects_invalid(n_table):
    t = triple_from_digroup(n_table)
    broken = StandardTriple(
        t.carrier_size,
        t.group_part,
        t.semi_part,
        right_unit=t.semi_part.label_of(4),
        left_inverse=t.left_inverse,
        phi=t.phi,
    )
    with pytest.raises(TripleValidationError):
        digroup_from_triple(broken)


def test_external_triple_with_identity_labeling(n_table):
    # rebuild the triple through explicit transform lists, as a file would
    t = triple_from_digroup(n_table)
    group = TransformSet.from_rows([tr.image for tr in t.group_part.transforms])
    semi = TransformSet.from_rows([tr.image for tr in t.semi_part.transforms])
    rebuilt = StandardTriple(
        t.carrier_size, group, semi, t.right_unit, t.left_inverse, t.phi
    )
    assert validate_triple(rebuilt).ok
    assert digroup_from_triple(rebuilt).left == digroup_from_triple(t).left


# sha256 of, per digroup: serialize_triple of its extracted triple; repr of
# its identity-suite report followed by the reports on seeded one-cell
# corruptions of its tables that keep every Liu inverse; and repr of the
# validate_triple reports on seeded one-cell corruptions of the extracted
# transform rows.  Any change to how transforms, triples or their reports are
# built must leave these bytes alone.
TRIPLE_LAYER_DIGESTS = {
    "M": (
        "e6f7c41fc2c47a8d2ea2916ab404de94496ead552c5ec76352a193aadd166204",
        "410e4b427e7d528dc7cb138b1f306f0991eaa37fb08bcef15982296d76e244e4",
        "963ef1e23279a91d467e3ff07d1b338faf055162c547b373700484dff676c360",
    ),
    "N": (
        "a2f407d737fb4b99aedd35f155ff3c454f89bfd8e943858f6ac19dcd4e4cd247",
        "bd3f9a3679d72ff6513dea24a45a9521f171a7aa615811aa4e81dc72dab195c2",
        "baf39f31c7ee358cdcc0980568b7397746c70f7ef13ba4ee91455cd7c0b7f462",
    ),
    "S3": (
        "3e7d8a83ab8190b8b6c932a8857a8fc730283c0f6b0f29649bb4387d53561104",
        "139551c6d1b52c1bd4a8823432ed32ffe846fff9df03ab8f0a6f0ac12286a320",
        "1d2bb942db768c465e20fc214e48e1c958fd56ead968c834821799e85c02f646",
    ),
    "Z4": (
        "6cfb93ec722519af4b9d6c5ac1acf85c5e8e9cb8d3fee88cff9187ef68a84b85",
        "9b3d7b060418be941a390ad5174654c4e6cdca83edc7e134e639688c4e9404b3",
        "5b5f6af7b98056c835874e1f40b275c41add3559d501ee39e43457e56d75357f",
    ),
    "NxZ2": (
        "ea07ca299441cab1aadebc8494e96f15fe17e119d98224cd9b519190d77e0c87",
        "2fbdb48adabcf86832305d5ac54b9aaa0bd56b75bda534ee99a7c2eab9077988",
        "45c20e03433338fae7385c1cdf3d0cb4ba5ca3ec19111298fa6a10cb5d518cf8",
    ),
    "MxZ4": (
        "db084d2395f28ca46515214ca5886c651584503481ab49ab34097ab68de16e4e",
        "c10a656ce4d943888ef5730e0db6771a5d75162903a96849987d88cf38364a17",
        "f2badb53f204242de3442dddae83e48c5ecc1a93eb5c42e0f5b1f00f925f357a",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _triple_layer_input(name: str):
    if name == "NxZ2":
        return direct_product(builtin("N"), builtin("Z2"))
    if name == "MxZ4":
        return direct_product(builtin("M"), builtin("Z4"))
    return builtin(name)


def _corrupted_tables(table, rng, count):
    """One-cell corruptions of either product that keep every Liu inverse, so
    the identity suite can run on them."""
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        left = [list(row) for row in table.left]
        right = [list(row) for row in table.right]
        cells = rng.choice((left, right))
        x, y = rng.randrange(table.order), rng.randrange(table.order)
        cells[x][y] = rng.choice([v for v in range(table.order) if v != cells[x][y]])
        broken = DigroupTable(table.order, table.identity, left, right)
        if INVERSE_MISSING not in {v.law for v in validate_digroup(broken).violations}:
            out.append(broken)
    return out


def _corrupted_triples(t, rng, count):
    """One-cell corruptions of the group or semi part's transform rows that
    keep the rows distinct."""
    out = []
    n = t.carrier_size
    while len(out) < count:
        parts = {
            "group": [list(f.image) for f in t.group_part.transforms],
            "semi": [list(f.image) for f in t.semi_part.transforms],
        }
        rows = parts[rng.choice(("group", "semi"))]
        i, x = rng.randrange(len(rows)), rng.randrange(n)
        rows[i][x] = rng.choice([v for v in range(n) if v != rows[i][x]])
        if len(set(map(tuple, rows))) != len(rows):
            continue
        group, semi = (TransformSet.from_rows(parts[p]) for p in ("group", "semi"))
        out.append(
            StandardTriple(n, group, semi, t.right_unit, t.left_inverse, t.phi)
        )
    return out


@pytest.mark.parametrize("name", ["M", "N", "S3", "Z4", "NxZ2", "MxZ4"])
def test_triple_layer_is_byte_stable(name):
    table = _triple_layer_input(name)
    rng = random.Random(f"triple-layer-{name}")
    triple = triple_from_digroup(table)
    suites = [table] + _corrupted_tables(table, rng, 3)
    got = (
        _digest(serialize_triple(triple)),
        _digest("".join(repr(verify_translation_identities(t)) for t in suites)),
        _digest(
            "".join(
                repr(validate_triple(t)) for t in _corrupted_triples(triple, rng, 10)
            )
        ),
    )
    assert got == TRIPLE_LAYER_DIGESTS[name]


def _reference_triple_report(triple):
    """validate_triple as loops over ``Mapping.compose``, finding members by
    their image tuples: the oracle for the byte-string composition."""
    g, s = triple.group_part, triple.semi_part
    g_index = {t.image: i for i, t in enumerate(g.transforms)}
    s_index = {t.image: i for i, t in enumerate(s.transforms)}
    eu = triple.right_unit
    unit = s.transforms[eu]
    found = {}

    def record(law, witnesses):
        found.setdefault(law, Violation(law, witnesses))

    for i, t in enumerate(g.transforms):
        if not t.is_bijection():
            record(tr.GROUP_BIJECTION, (i,))
    if Mapping.identity(triple.carrier_size).image not in g_index:
        record(tr.GROUP_IDENTITY, ())
    for i, a in enumerate(g.transforms):
        for k, b in enumerate(g.transforms):
            if a.compose(b).image not in g_index:
                record(tr.GROUP_CLOSURE, (i, k))
        if a.is_bijection() and a.inverse().image not in g_index:
            record(tr.GROUP_INVERSE, (i,))

    for j, f in enumerate(s.transforms):
        for l, h in enumerate(s.transforms):
            if f.compose(h).image not in s_index:
                record(tr.SEMI_CLOSURE, (j, l))
        if f.compose(unit) != f:
            record(tr.SEMI_RIGHT_UNIT, (j,))
        if s.transforms[triple.left_inverse[j]].compose(f) != unit:
            record(tr.SEMI_LEFT_INVERSE, (j,))

    def phi_of(f):
        j = s_index.get(f.image)
        return g.transforms[triple.phi[j]] if j is not None else None

    for j, f in enumerate(s.transforms):
        pf = g.transforms[triple.phi[j]]
        if pf.compose(s.transforms[triple.left_inverse[j]]) != unit:
            record(tr.PHI_LEFT_INVERSE, (j,))
        if j == eu:
            for l, h in enumerate(s.transforms):
                if pf.compose(h) != h:
                    record(tr.PHI_UNIT_ACTS, (l,))
        if unit.compose(f) != pf.compose(unit):
            record(tr.PHI_UNIT_SWAP, (j,))
        for l, h in enumerate(s.transforms):
            ph = g.transforms[triple.phi[l]]
            composed_phi = phi_of(f.compose(h))
            if composed_phi is None or composed_phi != pf.compose(ph):
                record(tr.PHI_HOMOMORPHISM, (j, l))
            mixed = pf.compose(h)
            if mixed.image not in s_index:
                record(tr.PHI_ABSORB, (j, l))
            if f.compose(ph) != f.compose(h):
                record(tr.PHI_RIGHT_ABSORB, (j, l))
            mixed_phi = phi_of(mixed)
            if mixed_phi is None or mixed_phi != pf.compose(ph):
                record(tr.PHI_COMPOSE, (j, l))

    return ValidationReport.from_violations(
        [found[law] for law in TRIPLE_LAWS if law in found]
    )


def test_validate_triple_matches_the_compose_oracle(catalogs):
    tables = [entry.canonical for n in range(1, 7) for entry in catalogs[n]]
    tables += [_triple_layer_input("NxZ2"), _triple_layer_input("MxZ4")]
    rng = random.Random("triple-oracle")
    failing = 0
    for table in tables:
        triple = triple_from_digroup(table)
        # a one-point carrier has no other value to corrupt a cell to
        corrupted = _corrupted_triples(triple, rng, 20) if table.order > 1 else []
        for t in [triple] + corrupted:
            report = validate_triple(t)
            assert report == _reference_triple_report(t)
            failing += not report.ok
    assert failing == 20 * (len(tables) - 1)


def _widened(triple):
    """The triple with every permutation of the carrier as its group part.
    No law asks more of the group part than to be a group holding phi's
    image, so this is a standard triple, and no digroup's translation triple
    once the group part outgrows that image."""
    n = triple.carrier_size
    group = TransformSet.from_rows(itertools.permutations(range(n)))
    phi = [group.index_of(triple.group_part.transforms[k]) for k in triple.phi]
    return StandardTriple(
        n, group, triple.semi_part, triple.right_unit, triple.left_inverse, phi
    )


def _corrupted_indices(t, rng, count):
    """Corruptions of one index each: a phi value, the right unit or a
    left-inverse entry.  The semi part must have two members or more."""
    ng, ns, out = len(t.group_part), len(t.semi_part), []

    def other(old, size):
        return rng.choice([v for v in range(size) if v != old])

    while len(out) < count:
        phi, unit, linv = list(t.phi), t.right_unit, list(t.left_inverse)
        kind, j = rng.choice(("phi", "unit", "left inverse")), rng.randrange(ns)
        if kind == "phi":
            if ng == 1:
                continue
            phi[j] = other(phi[j], ng)
        elif kind == "unit":
            unit = other(unit, ns)
        else:
            linv[j] = other(linv[j], ns)
        out.append(StandardTriple(t.carrier_size, t.group_part, t.semi_part, unit, linv, phi))
    return out


def test_every_triple_that_passes_builds_a_digroup(reference_classes):
    # digroup_from_triple checks the triple, not the table; this runs the
    # table check it skips, on translation triples, on widened triples, and
    # on seeded corruptions of both.  Only this direction is
    # asserted: a corrupted left-inverse entry fails the triple check and
    # still builds a digroup.
    triples = [triple_from_digroup(e.canonical) for e in reference_classes[1:]]
    triples += [
        _widened(triple_from_digroup(e.canonical))
        for e in reference_classes[1:]
        if e.order <= 4
    ]
    rng = random.Random("triple-soundness")
    tried = passed = 0
    for triple in triples:
        corrupted = _corrupted_triples(triple, rng, 10) + _corrupted_indices(triple, rng, 15)
        for t in [triple] + corrupted:
            tried += 1
            if validate_triple(t).ok:
                passed += 1
                table = tr._triple_table(t.group_part, t.semi_part, t.phi, t.right_unit)
                assert validate_digroup(table).ok
    # no corruption passes: the 36 that pass are the uncorrupted triples
    assert (len(triples), tried, passed) == (36, 36 * 26, 36)


def test_a_wrong_left_inverse_fails_the_triple_yet_builds_the_same_table(n_table):
    # why only one direction of the proof is asserted above
    t = triple_from_digroup(n_table)
    linv = list(t.left_inverse)
    linv[1] = linv[0]
    broken = StandardTriple(t.carrier_size, t.group_part, t.semi_part, t.right_unit, linv, t.phi)
    assert not validate_triple(broken).ok
    table = tr._triple_table(broken.group_part, broken.semi_part, broken.phi, broken.right_unit)
    assert table == digroup_from_triple(t)
