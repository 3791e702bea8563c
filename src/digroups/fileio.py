"""Reading, writing and rendering of digroup and triple documents.

Documents are JSON objects written by one writer, a field per line and a
matrix row per line so diffs stay readable.  A digroup document carries
order, identity, optional labels, left and right, in that order, listed once
in digroup_to_dict; the embedding document appends eta, diagonal and pairs,
and a catalog line (one compact entry per line) flags and subdigroup_count.
A triple document carries carrier_size, group_part, semi_part, right_unit,
left_inverse and phi.  Parsing checks structure only.
"""

from __future__ import annotations

import json

from .tables import DigroupError, DigroupTable, MalformedTableError


class ParseError(DigroupError):
    """A document is malformed; the message names the offending field."""


def _json_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer literal longer than
        # int() accepts (sys.get_int_max_str_digits()).
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    return doc


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc: dict, key: str, kinds) -> object:
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kinds) or (kinds is int and not _is_int(value)):
        raise ParseError(f"field {key!r} has the wrong type")
    return value


def _int_matrix(doc: dict, key: str) -> list[list[int]]:
    value = _require(doc, key, list)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not all(_is_int(v) for v in row):
            raise ParseError(f"field {key!r} row {i} must be a list of integers")
        rows.append(row)
    return rows


def _int_vector(doc: dict, key: str) -> list[int]:
    value = _require(doc, key, list)
    if not all(_is_int(v) for v in value):
        raise ParseError(f"field {key!r} must be a list of integers")
    return value


def digroup_from_dict(doc: dict) -> DigroupTable:
    order = _require(doc, "order", int)
    identity = _require(doc, "identity", int)
    left = _int_matrix(doc, "left")
    right = _int_matrix(doc, "right")
    labels = None
    if doc.get("labels") is not None:
        raw = _require(doc, "labels", list)
        if not all(isinstance(s, str) for s in raw):
            raise ParseError("field 'labels' must be a list of strings")
        labels = tuple(raw)
    try:
        return DigroupTable(order, identity, left, right, labels)
    except MalformedTableError as exc:
        raise ParseError(str(exc)) from None


def parse_digroup(text: str) -> DigroupTable:
    """Parse a digroup document.  Structural errors raise ParseError naming
    the field; no axiom checking happens here."""
    return digroup_from_dict(_json_object(text))


def _document(doc: dict) -> str:
    """Write a document one field per line, in the dict's order, and the
    matrix fields one row per line."""
    parts = []
    for key, value in doc.items():
        if key in ("left", "right", "group_part", "semi_part"):
            value = "[\n    " + ",\n    ".join(map(json.dumps, value)) + "\n  ]"
        else:
            value = json.dumps(value, ensure_ascii=False)
        parts.append(f'  "{key}": {value}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def digroup_to_dict(table: DigroupTable) -> dict:
    """The digroup document's fields in order; json writes the row tuples as arrays."""
    doc = {"order": table.order, "identity": table.identity}
    if table.labels is not None:
        doc["labels"] = table.labels
    doc["left"] = table.left
    doc["right"] = table.right
    return doc


def serialize_digroup(table: DigroupTable) -> str:
    return _document(digroup_to_dict(table))


def parse_triple(text: str) -> StandardTriple:
    from .triples import StandardTriple, TransformSet

    doc = _json_object(text)
    carrier = _require(doc, "carrier_size", int)
    group_rows = _int_matrix(doc, "group_part")
    semi_rows = _int_matrix(doc, "semi_part")
    right_unit = _require(doc, "right_unit", int)
    left_inverse = _int_vector(doc, "left_inverse")
    phi = _int_vector(doc, "phi")
    try:
        parts = []
        for rows in (group_rows, semi_rows):
            parts.append(TransformSet.from_rows(rows))
            if len(parts[-1]) != len(rows):
                raise MalformedTableError("explicit transform list must be duplicate-free")
        group, semi = parts
        if group.carrier_size != carrier or semi.carrier_size != carrier:
            raise MalformedTableError("transform rows do not match carrier_size")
        return StandardTriple(carrier, group, semi, right_unit, tuple(left_inverse), tuple(phi))
    except MalformedTableError as exc:
        raise ParseError(str(exc)) from None


def serialize_triple(triple: StandardTriple) -> str:
    return _document(
        {
            "carrier_size": triple.carrier_size,
            "group_part": [t.image for t in triple.group_part.transforms],
            "semi_part": [t.image for t in triple.semi_part.transforms],
            "right_unit": triple.right_unit,
            "left_inverse": triple.left_inverse,
            "phi": triple.phi,
        }
    )


def serialize_embedding(prod) -> str:
    """Product digroup document extended with the embedding data: eta (source
    element -> carrier point), the diagonal, and per-point component pairs."""
    doc = digroup_to_dict(prod.table)
    doc["eta"] = prod.eta.image
    doc["diagonal"] = sorted(prod.diagonal.members)
    doc["pairs"] = prod.pair_labels
    return _document(doc)


def render_table(table: DigroupTable) -> str:
    """Two aligned operation grids, left product first, with a header row and
    column of labels.  Output is byte-stable for a given table."""
    n = table.order
    labels = [table.label(x) for x in range(n)]
    width = max(len(s) for s in labels + ["⇀", "↼"])

    def grid(symbol: str, rows) -> list[str]:
        lines = [
            symbol.rjust(width)
            + " |"
            + "".join(" " + labels[y].rjust(width) for y in range(n))
        ]
        lines.append("-" * width + "-+" + "-" * ((width + 1) * n))
        for x in range(n):
            lines.append(
                labels[x].rjust(width)
                + " |"
                + "".join(" " + labels[rows[x][y]].rjust(width) for y in range(n))
            )
        return lines

    left_grid = grid("⇀", table.left)
    right_grid = grid("↼", table.right)
    return "\n".join(
        f"{a}    {b}" for a, b in zip(left_grid, right_grid)
    ) + "\n"


def entry_to_dict(entry: CatalogEntry) -> dict:
    doc = digroup_to_dict(entry.canonical)
    doc["flags"] = {"commutative": entry.commutative, "group": entry.group}
    doc["subdigroup_count"] = entry.subdigroup_count
    return doc


def catalog_lines(entries) -> list[str]:
    """One compact JSON document per entry, streamable as JSONL."""
    return [
        json.dumps(entry_to_dict(e), ensure_ascii=False, separators=(", ", ": "))
        for e in entries
    ]


def parse_catalog_line(line: str) -> CatalogEntry:
    from .search import CatalogEntry

    doc = _json_object(line)
    table = digroup_from_dict(doc)
    flags = _require(doc, "flags", dict)
    for key in ("commutative", "group"):
        if not isinstance(flags.get(key), bool):
            raise ParseError(f"catalog flags must carry boolean {key!r}")
    count = _require(doc, "subdigroup_count", int)
    return CatalogEntry(
        canonical=table,
        order=table.order,
        commutative=flags["commutative"],
        group=flags["group"],
        subdigroup_count=count,
    )
