"""The package's records against ``@dataclass(frozen=True)`` twins.

Every record class derives from ``tables._Record`` and must behave as the
frozen dataclass it replaced: the same repr and hash, equality with records
of its own class only, construction by position and keyword with defaults,
and AttributeError on assignment or deletion.  Each twin below is written out
by hand from the class's fields, so the test does not read the field list
from the code it checks.
"""

import random
from dataclasses import field, make_dataclass

import pytest

from digroups import (
    CanonicalTable,
    CatalogEntry,
    ClaimReport,
    ClaimResult,
    DigroupTable,
    MalformedTableError,
    Mapping,
    ProductDigroup,
    SearchOptions,
    StandardTriple,
    SubsetMask,
    TransformSet,
    ValidationReport,
    Violation,
    all_subdigroups,
    builtin,
    canonical_form,
    cayley_embedding,
    direct_product,
    enumerate_digroups,
    is_subdigroup,
    left_translations,
    relabel,
    right_translation_product,
    triple_from_digroup,
    validate_digroup,
    verify_classification_claims,
)
from digroups.tables import _Record

# Field names in order; a pair is a field with its default.
TWINS = {
    DigroupTable: ("order", "identity", "left", "right", ("labels", None)),
    Violation: ("law", "witnesses", ("lhs", None), ("rhs", None)),
    ValidationReport: (("violations", ()),),
    Mapping: ("domain_size", "codomain_size", "image"),
    SubsetMask: ("order", "members"),
    CanonicalTable: ("table", "certificate"),
    SearchOptions: (("allow_large", False),),
    CatalogEntry: ("canonical", "order", "commutative", "group", "subdigroup_count"),
    ClaimResult: ("claim_id", "expected", "observed", "passed", "runtime_s", ("entries", ())),
    ClaimReport: ("claims",),
    TransformSet: ("carrier_size", "transforms", "label_of"),
    ProductDigroup: ("table", "pair_labels", "eta", "diagonal", "first_parts", "second_parts"),
    StandardTriple: (
        "carrier_size",
        "group_part",
        "semi_part",
        "right_unit",
        "left_inverse",
        "phi",
    ),
}
RECORDS = list(TWINS)


def _names(cls) -> list[str]:
    return [f if isinstance(f, str) else f[0] for f in TWINS[cls]]


def _defaults(cls) -> dict:
    return dict(f for f in TWINS[cls] if not isinstance(f, str))


def _twin(cls):
    """The frozen dataclass the record class replaced.  ValidationReport
    writes its own repr, so its twin keeps the default object repr."""
    spec = [
        f if isinstance(f, str) else (f[0], object, field(default=f[1])) for f in TWINS[cls]
    ]
    return make_dataclass(cls.__name__, spec, frozen=True, repr=cls is not ValidationReport)


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in _names(type(record)))


@pytest.fixture(scope="module")
def instances():
    """Several seeded instances of every record class."""
    rng = random.Random(20240)
    tables = [builtin("M"), builtin("N"), builtin("S3"), direct_product(builtin("M"), builtin("Z2"))]
    moved = []
    for table in tables:
        perm = list(range(table.order))
        rng.shuffle(perm)
        moved.append(relabel(table, Mapping(table.order, table.order, tuple(perm))))
    broken = builtin("N")
    left = [list(row) for row in broken.left]
    left[rng.randrange(1, 6)][rng.randrange(6)] = rng.randrange(6)
    broken = DigroupTable(6, 0, left, broken.right)
    reports = [validate_digroup(t) for t in (tables[1], broken, builtin("trivial(3)"))]
    claims = verify_classification_claims(through=3)
    triples = [triple_from_digroup(t) for t in tables[:3]]
    products = [cayley_embedding(tables[1]), right_translation_product(tables[2])]
    return {
        DigroupTable: tables + moved,
        Violation: [v for r in reports for v in r.violations] + [Violation("X", (rng.randrange(9),))],
        ValidationReport: reports,
        Mapping: [Mapping(5, 7, tuple(rng.randrange(7) for _ in range(5))) for _ in range(4)],
        SubsetMask: rng.sample(all_subdigroups(tables[1]), 3) + [SubsetMask.of(4, ())],
        CanonicalTable: [canonical_form(t) for t in moved],
        SearchOptions: [SearchOptions(), SearchOptions(allow_large=True)],
        CatalogEntry: enumerate_digroups(3) + enumerate_digroups(4),
        ClaimResult: list(claims.claims),
        ClaimReport: [claims, ClaimReport(claims.claims[:1])],
        TransformSet: [ts for t in tables for ts in left_translations(t)],
        ProductDigroup: products,
        StandardTriple: triples,
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_hash_and_equality_match_the_dataclass_twin(cls, instances):
    twin = _twin(cls)
    records = instances[cls]
    assert len(records) >= 2
    for record in records:
        double = twin(*_values(record))
        assert hash(record) == hash(double)
        if cls is ValidationReport:
            assert repr(record) == (
                f"ValidationReport(ok={not record.violations}, "
                f"violations={record.violations!r})"
            )
        else:
            assert repr(record) == repr(double)
    for a in records:
        for b in records:
            assert (a == b) == (twin(*_values(a)) == twin(*_values(b)))
            assert (a != b) == (not a == b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_equals_no_tuple_and_no_record_of_another_class(cls, instances):
    names = _names(cls)
    lookalike = type(cls.__name__, (_Record,), {"__annotations__": dict.fromkeys(names, object)})
    for record in instances[cls]:
        values = _values(record)
        other = lookalike(*values)
        assert tuple(getattr(other, n) for n in names) == values
        assert hash(other) == hash(record)
        assert record != values and values != record
        assert record != other and other != record
        assert not record == other
        if len(values) == 1:
            assert record != values[0]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_and_defaults(cls, instances):
    names, defaults = _names(cls), _defaults(cls)
    record = instances[cls][0]
    values = _values(record)
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    required = [n for n in names if n not in defaults]
    given = dict(zip(required, values))
    built = cls(**given)
    assert _values(built) == tuple(given[n] if n in given else defaults[n] for n in names)
    if required:
        with pytest.raises(TypeError):
            cls(*values[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls, instances):
    for record in instances[cls]:
        values = _values(record)
        for name in (*_names(cls), "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _values(record) == values
        assert not hasattr(record, "no_such_field")


def test_validating_classes_normalise_their_fields():
    table = DigroupTable(2, 0, [[0, 0], [1, 1]], [[0, 1], [0, 1]], ["0", "a"])
    assert table == builtin("M")
    assert type(table.left) is tuple and type(table.left[0]) is tuple
    assert table.labels == ("0", "a")
    assert Mapping(2, 2, [1, 0]).image == (1, 0)
    # bools are integers, and every field holds exact ints
    flagged = DigroupTable(2, False, [[False, 0], [True, 1]], [[0, 1], [0, True]], ["0", "a"])
    assert flagged == table and type(flagged.identity) is int
    assert {type(v) for row in flagged.left + flagged.right for v in row} == {int}
    assert type(Mapping(True, 2, [True]).image[0]) is int
    assert SubsetMask(3, [2, 0]).members == frozenset({0, 2})
    triple = triple_from_digroup(builtin("N"))
    listed = StandardTriple(
        triple.carrier_size,
        triple.group_part,
        triple.semi_part,
        triple.right_unit,
        list(triple.left_inverse),
        list(triple.phi),
    )
    assert listed == triple and type(listed.phi) is tuple


def _triple_with(**changes):
    triple = triple_from_digroup(builtin("N"))
    values = dict(zip(_names(StandardTriple), _values(triple)), **changes)
    return StandardTriple(**values)


_M_LEFT, _M_RIGHT = ((0, 0), (1, 1)), ((0, 1), (0, 1))
_TS = TransformSet.from_rows([(0, 1), (1, 1)])

BAD_INPUTS = [
    (lambda: DigroupTable(0, 0, (), ()), "order must be >= 1, got 0"),
    (lambda: DigroupTable(2, 2, _M_LEFT, _M_RIGHT), "identity index 2 out of range for order 2"),
    (lambda: DigroupTable(2, 0, _M_LEFT[:1], _M_RIGHT), "left table must have 2 rows, found 1"),
    (
        lambda: DigroupTable(2, 0, _M_LEFT, ((0, 1), (0,))),
        r"right table row 1 must have 2 entries, found 1",
    ),
    (lambda: DigroupTable(2, 0, ((0, 0), (1, 2)), _M_RIGHT), r"entry 2 out of range at left\[1\]\[1\]"),
    (lambda: DigroupTable(2, 0, _M_LEFT, _M_RIGHT, ("a",)), "labels must have 2 entries, found 1"),
    (lambda: DigroupTable(2, 0, _M_LEFT, _M_RIGHT, ("a", "a")), "labels must be pairwise distinct"),
    (lambda: DigroupTable(2.0, 0, _M_LEFT, _M_RIGHT), "order must be an integer, got 2.0"),
    (lambda: DigroupTable(2, 0.0, _M_LEFT, _M_RIGHT), "identity must be an integer, got 0.0"),
    (lambda: DigroupTable(2, "0", _M_LEFT, _M_RIGHT), "identity must be an integer, got '0'"),
    (lambda: DigroupTable(2, 0, ((0.5, 0), (1, 1)), _M_RIGHT), r"left\[0\]\[0\] must be an integer, got 0.5"),
    (lambda: DigroupTable(2, 0, ((0, 0), (1, 1.0)), _M_RIGHT), r"left\[1\]\[1\] must be an integer, got 1.0"),
    (lambda: DigroupTable(2, 0, _M_LEFT, (("0", 1), (0, 1))), r"right\[0\]\[0\] must be an integer, got '0'"),
    (lambda: DigroupTable(2, 0, _M_LEFT, ((0, 1), (0, None))), r"right\[1\]\[1\] must be an integer, got None"),
    (lambda: Mapping(3, 3, (0, 1)), "mapping image has 2 entries, expected 3"),
    (lambda: Mapping(2, 2, (0.5, 1)), r"mapping image\[0\] must be an integer, got 0.5"),
    (lambda: Mapping(2, 2, (0, 1.0)), r"mapping image\[1\] must be an integer, got 1.0"),
    (lambda: Mapping(2, 2, ("1", 0)), r"mapping image\[0\] must be an integer, got '1'"),
    (lambda: Mapping(2, 2, (1, None)), r"mapping image\[1\] must be an integer, got None"),
    (lambda: Mapping(2.0, 2, (0, 1)), "domain size must be an integer, got 2.0"),
    (lambda: Mapping(2, "2", (0, 1)), "codomain size must be an integer, got '2'"),
    (lambda: Mapping(2, 2, (0, -1)), r"mapping image\[1\] = -1 out of range"),
    (lambda: SubsetMask(3, {0, 3}), "subset member 3 out of range"),
    (lambda: SubsetMask(3, {-1}), "subset member -1 out of range"),
    (
        lambda: TransformSet(3, (Mapping(2, 2, (0, 1)),), Mapping(1, 1, (0,))),
        "transforms must be self-maps of 3 points",
    ),
    (
        lambda: TransformSet(2, (Mapping(2, 2, (0, 1)),) * 2, Mapping(2, 2, (0, 1))),
        "transform set contains duplicate functions",
    ),
    (
        lambda: TransformSet(2, _TS.transforms, Mapping(2, 2, (0, 0))),
        "element labeling must cover every transform",
    ),
    (lambda: _triple_with(group_part=_TS), "group part carrier size mismatch"),
    (lambda: _triple_with(semi_part=_TS), "semi part carrier size mismatch"),
    (lambda: _triple_with(right_unit=6), "right unit index out of range"),
    (lambda: _triple_with(left_inverse=(0,)), "left inverse map must index the semi part"),
    (lambda: _triple_with(phi=(9,) * 6), "phi must map semi indices to group indices"),
    (
        lambda: TransformSet.from_rows([(0, 1), (1, 0.5)]),
        r"transform rows\[1\]\[1\] must be an integer, got 0.5",
    ),
    (lambda: _triple_with(right_unit=0.0), "right unit must be an integer, got 0.0"),
    (lambda: _triple_with(left_inverse=("0",) * 6), r"left_inverse\[0\] must be an integer, got '0'"),
    (lambda: _triple_with(phi=(0,) * 5 + (None,)), r"phi\[5\] must be an integer, got None"),
    (lambda: SubsetMask(4, [0.5, 1]), r"subset members\[0\] must be an integer, got 0.5"),
    (lambda: SubsetMask(4, ["1"]), r"subset members\[0\] must be an integer, got '1'"),
    (lambda: SubsetMask(4, [None]), r"subset members\[0\] must be an integer, got None"),
    (lambda: is_subdigroup(builtin("N"), [0.9]), r"subset members\[0\] must be an integer, got 0.9"),
]


@pytest.mark.parametrize("build, message", BAD_INPUTS)
def test_validating_classes_reject_bad_input(build, message):
    with pytest.raises(MalformedTableError, match=f"^{message}$"):
        build()


def test_cached_properties_leave_equality_and_hash_alone():
    rows = [row for row in builtin("N").left]
    cached, fresh = TransformSet.from_rows(rows), TransformSet.from_rows(rows)
    before = hash(cached), repr(cached)
    assert cached.index_of(cached.transforms[1]) == 1
    assert cached._after and cached._index
    assert (hash(cached), repr(cached)) == before
    assert cached == fresh and fresh == cached and hash(fresh) == before[0]
    twin = _twin(TransformSet)
    assert hash(cached) == hash(twin(*_values(cached)))
