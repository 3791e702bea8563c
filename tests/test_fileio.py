"""Document round trips, parse errors, rendering, catalog lines."""

import json

import pytest

from digroups import (
    CatalogEntry,
    ParseError,
    builtin,
    catalog_lines,
    cayley_embedding,
    parse_catalog_line,
    parse_digroup,
    parse_triple,
    render_table,
    serialize_digroup,
    serialize_embedding,
    serialize_triple,
    triple_from_digroup,
    validate_triple,
)

BUILTIN_POOL = ["M", "N", "S3", "Z2", "Z4", "trivial(3)", "trivial(1)"]


@pytest.mark.parametrize("name", BUILTIN_POOL)
def test_digroup_round_trip(name):
    table = builtin(name)
    back = parse_digroup(serialize_digroup(table))
    assert back == table


def test_round_trip_enumerated_tables(catalogs):
    for n in (1, 2, 3, 4):
        for entry in catalogs[n]:
            back = parse_digroup(serialize_digroup(entry.canonical))
            assert back == entry.canonical


def test_serialization_is_stable(n_table):
    assert serialize_digroup(n_table) == serialize_digroup(n_table)


@pytest.mark.parametrize("name", ["M", "N", "S3"])
def test_triple_round_trip(name):
    triple = triple_from_digroup(builtin(name))
    back = parse_triple(serialize_triple(triple))
    assert back.carrier_size == triple.carrier_size
    assert [t.image for t in back.group_part.transforms] == [
        t.image for t in triple.group_part.transforms
    ]
    assert [t.image for t in back.semi_part.transforms] == [
        t.image for t in triple.semi_part.transforms
    ]
    assert back.right_unit == triple.right_unit
    assert back.left_inverse == triple.left_inverse
    assert back.phi == triple.phi
    assert validate_triple(back).ok


def test_parse_rejects_wrong_dimensions():
    doc = '{"order": 6, "identity": 0, "left": [[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]], "right": []}'
    with pytest.raises(ParseError, match="left table row 0"):
        parse_digroup(doc)


def test_parse_rejects_out_of_range_entry():
    doc = '{"order": 2, "identity": 0, "left": [[0, 2], [1, 1]], "right": [[0, 1], [0, 1]]}'
    with pytest.raises(ParseError, match="out of range"):
        parse_digroup(doc)


def test_parse_rejects_duplicate_labels():
    doc = '{"order": 2, "identity": 0, "left": [[0, 0], [1, 1]], "right": [[0, 1], [0, 1]], "labels": ["x", "x"]}'
    with pytest.raises(ParseError, match="distinct"):
        parse_digroup(doc)


@pytest.mark.parametrize(
    "kind, path",
    [
        ("digroup", ("order",)),
        ("digroup", ("identity",)),
        ("digroup", ("left", 1, 0)),
        ("triple", ("right_unit",)),
        ("triple", ("phi", 0)),
    ],
    ids=["order", "identity", "left-cell", "right_unit", "phi-entry"],
)
def test_parse_rejects_booleans_as_integers(kind, path):
    # JSON booleans load as Python bools, which are ints; they must not pass
    table = builtin("N")
    if kind == "digroup":
        doc, parse = json.loads(serialize_digroup(table)), parse_digroup
    else:
        doc, parse = json.loads(serialize_triple(triple_from_digroup(table))), parse_triple
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    with pytest.raises(ParseError, match=repr(path[0])):
        parse(json.dumps(doc))


@pytest.mark.parametrize("bad", [True, 0.5, 1.0, "1", None, [0]])
@pytest.mark.parametrize(
    "kind, path, message",
    [
        ("digroup", ("left", 0, 0), "field 'left' row 0 must be a list of integers"),
        ("digroup", ("right", 5, 5), "field 'right' row 5 must be a list of integers"),
        ("triple", ("semi_part", 2, 0), "field 'semi_part' row 2 must be a list of integers"),
        ("triple", ("phi", 5), "field 'phi' must be a list of integers"),
        ("triple", ("left_inverse", 0), "field 'left_inverse' must be a list of integers"),
    ],
)
def test_parse_names_the_field_of_an_entry_that_is_no_integer(bad, kind, path, message):
    table = builtin("N")
    if kind == "digroup":
        doc, parse = json.loads(serialize_digroup(table)), parse_digroup
    else:
        doc, parse = json.loads(serialize_triple(triple_from_digroup(table))), parse_triple
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["group_part"].append(doc["group_part"][0]),
        lambda doc: doc["semi_part"].append(doc["semi_part"][1]),
        # broken in both parts: the group part is checked first
        lambda doc: doc.update(group_part=doc["group_part"] * 2, semi_part=[]),
    ],
    ids=["group", "semi", "group-then-empty-semi"],
)
def test_parse_triple_rejects_a_repeated_transform(edit):
    doc = json.loads(serialize_triple(triple_from_digroup(builtin("N"))))
    edit(doc)
    with pytest.raises(ParseError, match="^explicit transform list must be duplicate-free$"):
        parse_triple(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(carrier_size=7), "group part"),
        # the group part is checked first, then the semi part
        (lambda doc: doc.update(group_part=[r + [6] for r in doc["group_part"]]), "group part"),
        (lambda doc: doc.update(semi_part=[r + [6] for r in doc["semi_part"]]), "semi part"),
    ],
    ids=["carrier", "group", "semi"],
)
def test_parse_triple_rejects_transforms_off_the_carrier_size(edit, message):
    # StandardTriple makes the one carrier-size check; the parser passes its
    # text through
    doc = json.loads(serialize_triple(triple_from_digroup(builtin("N"))))
    edit(doc)
    with pytest.raises(ParseError, match=f"^{message} carrier size mismatch$"):
        parse_triple(json.dumps(doc))


def test_parse_rejects_non_json_and_non_object():
    with pytest.raises(ParseError, match="line 1"):
        parse_digroup("not json")
    with pytest.raises(ParseError, match="object"):
        parse_digroup("[1, 2]")
    with pytest.raises(ParseError, match="missing field"):
        parse_digroup('{"order": 2}')


def test_render_m_matches_golden(m_table):
    assert render_table(m_table) == (
        "⇀ | 0 a    ↼ | 0 a\n"
        "--+----    --+----\n"
        "0 | 0 0    0 | 0 a\n"
        "a | a a    a | 0 a\n"
    )


def test_render_n_matches_golden(n_table):
    assert render_table(n_table) == (
        "⇀ | e α β γ δ ε    ↼ | e α β γ δ ε\n"
        "--+------------    --+------------\n"
        "e | e α α α e e    e | e α β γ δ ε\n"
        "α | α e e e α α    α | α e ε δ γ β\n"
        "β | β δ δ δ β β    β | α e ε δ γ β\n"
        "γ | γ ε ε ε γ γ    γ | α e ε δ γ β\n"
        "δ | δ β β β δ δ    δ | e α β γ δ ε\n"
        "ε | ε γ γ γ ε ε    ε | e α β γ δ ε\n"
    )


def test_render_single_cell():
    out = render_table(builtin("trivial(1)"))
    assert out == ("⇀ | 0    ↼ | 0\n--+--    --+--\n0 | 0    0 | 0\n")


def test_render_byte_stable(n_table):
    assert render_table(n_table).encode() == render_table(n_table).encode()


def test_catalog_lines_round_trip(catalogs):
    entries = catalogs[2]
    lines = catalog_lines(entries)
    assert len(lines) == 2
    for line, entry in zip(lines, entries):
        back = parse_catalog_line(line)
        assert back.canonical == entry.canonical
        assert back.commutative == entry.commutative
        assert back.group == entry.group
        assert back.subdigroup_count == entry.subdigroup_count


def test_catalog_line_is_single_line(catalogs):
    for line in catalog_lines(catalogs[3]):
        assert "\n" not in line


def test_parse_catalog_line_requires_flags():
    with pytest.raises(ParseError, match="flags"):
        parse_catalog_line(
            '{"order": 1, "identity": 0, "left": [[0]], "right": [[0]]}'
        )


def test_embedding_document_extends_the_digroup_document(n_table):
    prod = cayley_embedding(n_table)
    keys = list(json.loads(serialize_embedding(prod)))
    digroup_keys = list(json.loads(serialize_digroup(prod.table)))
    assert keys == digroup_keys + ["eta", "diagonal", "pairs"]


def test_labelled_catalog_line_lists_the_document_fields_in_order(n_table):
    entry = CatalogEntry(
        canonical=n_table, order=6, commutative=False, group=False, subdigroup_count=6
    )
    keys = list(json.loads(catalog_lines([entry])[0]))
    document_keys = list(json.loads(serialize_digroup(n_table)))
    assert document_keys == ["order", "identity", "labels", "left", "right"]
    assert keys == document_keys + ["flags", "subdigroup_count"]
