"""Command line exit codes and output contracts."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from digroups import (
    ParseError,
    UnsupportedOrderError,
    builtin,
    cyclic_group,
    parse_digroup,
    parse_triple,
    run_cli,
    serialize_digroup,
    serialize_triple,
    triple_from_digroup,
    trivial_digroup,
    validate_digroup,
)
from digroups.fileio import digroup_to_dict


@pytest.fixture()
def m_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(serialize_digroup(builtin("M")), encoding="utf-8")
    return str(path)


@pytest.fixture()
def n_file(tmp_path):
    path = tmp_path / "n.json"
    path.write_text(serialize_digroup(builtin("N")), encoding="utf-8")
    return str(path)


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(serialize_digroup(builtin("Z2")), encoding="utf-8")
    return str(path)


def test_check_valid(m_file, capsys):
    assert run_cli(["check", m_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_invalid_table(tmp_path, capsys):
    doc = '{"order": 2, "identity": 0, "left": [[0, 0], [1, 0]], "right": [[0, 1], [0, 1]]}'
    path = tmp_path / "broken.json"
    path.write_text(doc, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


def test_check_unparseable(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not a document", encoding="utf-8")
    assert run_cli(["check", str(path)]) == 2


def test_check_rejects_booleans_as_integers(tmp_path, capsys):
    doc = '{"order": true, "identity": false, "left": [[false]], "right": [[false]]}'
    path = tmp_path / "booleans.json"
    path.write_text(doc, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 2
    assert "'order'" in capsys.readouterr().err


def test_check_rejects_orders_beyond_the_validator_cap(tmp_path, capsys):
    path = tmp_path / "z201.json"
    path.write_text(serialize_digroup(cyclic_group(201)), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_embed_rejects_a_product_beyond_the_validator_cap(tmp_path, capsys):
    # Z20 is valid, but its translation product has order 400
    path = tmp_path / "z20.json"
    path.write_text(serialize_digroup(builtin("Z20")), encoding="utf-8")
    assert run_cli(["embed", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_embed_refuses_a_large_product_before_building_it(tmp_path, capsys):
    # Z100's translation product would have order 10,000; it must be refused
    # before its tables, whose size grows as n^4, are built
    path = tmp_path / "z100.json"
    path.write_text(serialize_digroup(builtin("Z100")), encoding="utf-8")
    tracemalloc.start()
    try:
        assert run_cli(["embed", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "error:" in capsys.readouterr().err
    assert peak < 64 * 2**20


def test_triple_build_refuses_a_large_product(tmp_path, capsys):
    path = tmp_path / "z100_triple.json"
    triple = triple_from_digroup(builtin("Z100"))
    path.write_text(serialize_triple(triple), encoding="utf-8")
    assert run_cli(["triple", "build", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_triple_check_refuses_a_large_carrier(tmp_path, capsys):
    path = tmp_path / "trivial201_triple.json"
    triple = triple_from_digroup(trivial_digroup(201))
    path.write_text(serialize_triple(triple), encoding="utf-8")
    assert run_cli(["triple", "check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@st.composite
def _documents(draw):
    """Digroup documents of order 1-4 with arbitrary integer entries,
    identity and labels.  A document starts from a valid table or from
    random in-range tables, and may then get one arbitrary integer in a
    cell or the identity, so that every exit code occurs."""
    n = draw(st.integers(1, 4))
    in_range = st.integers(0, n - 1)
    matrix = st.lists(st.lists(in_range, min_size=n, max_size=n), min_size=n, max_size=n)
    valid = [
        t for t in (builtin("trivial(1)"), builtin("M"), builtin("Z3"), builtin("Z4"))
        if t.order == n
    ]
    if valid and draw(st.booleans()):
        doc = digroup_to_dict(draw(st.sampled_from(valid)))
    else:
        doc = {"order": n, "identity": draw(in_range), "left": draw(matrix), "right": draw(matrix)}
    field = draw(st.sampled_from(("left", "right", "identity", None)))
    if field == "identity":
        doc["identity"] = draw(st.integers())
    elif field is not None:
        rows = [list(row) for row in doc[field]]
        rows[draw(in_range)][draw(in_range)] = draw(st.integers())
        doc[field] = rows
    labels = draw(
        st.one_of(
            st.none(),
            st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True),
            st.lists(st.one_of(st.text(max_size=2), st.integers()), max_size=5),
        )
    )
    if labels is not None:
        doc["labels"] = labels
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents())
def test_check_exit_code_matches_parser_and_validator(tmp_path, doc):
    text = json.dumps(doc)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code = run_cli(["check", str(path)])
    try:
        table = parse_digroup(text)
    except ParseError:
        assert code == 2
        return
    assert code == (0 if validate_digroup(table).ok else 1)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary())
@example(data=b"\xff\xfe")
@example(data=b"[" * 200_000)
@example(data=b"[" + b"1" * 5000 + b"]")
def test_check_on_arbitrary_bytes_exits_with_a_code(tmp_path, data):
    path = tmp_path / "doc.bin"
    path.write_bytes(data)
    assert run_cli(["check", str(path)]) in (0, 1, 2)


def test_check_reports_undecodable_and_overdeep_files_as_input_errors(tmp_path, capsys):
    for name, data in (
        ("utf16.json", b"\xff\xfe"),
        ("deep.json", b"[" * 200_000),
        ("long_int.json", b'{"order": ' + b"1" * 5000 + b"}"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert run_cli(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_builtin_refuses_orders_beyond_the_validator_cap_before_building(capsys):
    assert builtin("Z200").order == 200
    tracemalloc.start()
    try:
        for name in ("Z2000", "cyclic(201)", "trivial(201)"):
            with pytest.raises(UnsupportedOrderError):
                builtin(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert run_cli(["builtin", "Z201"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    for name in ("Z²", "Z" + "1" * 5000):
        assert run_cli(["builtin", name]) == 2
        assert capsys.readouterr().err.startswith("error: bad order")


def test_missing_file_is_input_error(capsys):
    assert run_cli(["check", "/nonexistent/file.json"]) == 2


def test_usage_errors():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["enumerate"]) == 2
    assert run_cli(["enumerate", "2", "--bogus"]) == 2


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0


def test_info(n_file, capsys):
    assert run_cli(["info", n_file]) == 0
    out = capsys.readouterr().out
    assert "order: 6" in out
    assert "commutative: False" in out
    assert "group: False" in out
    assert "subdigroups: 6" in out
    assert "β->α" in out


def test_info_refuses_an_order_beyond_the_subset_scan_before_printing(
    tmp_path, capsys
):
    path = tmp_path / "z20.json"
    path.write_text(serialize_digroup(builtin("Z20")), encoding="utf-8")
    assert run_cli(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_import_does_not_load_numpy():
    code = "import sys, digroups; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_subs(n_file, capsys):
    assert run_cli(["subs", n_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert "{e, δ, ε}" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["iso", "{broken}", "{m}"],
        ["iso", "{m}", "{broken}"],
        ["embed", "{broken}"],
        ["triple", "extract", "{broken}"],
    ],
)
def test_commands_report_an_invalid_digroup(argv, tmp_path, m_file, capsys):
    doc = '{"order": 2, "identity": 0, "left": [[0, 0], [1, 0]], "right": [[0, 1], [0, 1]]}'
    path = tmp_path / "broken.json"
    path.write_text(doc, encoding="utf-8")
    argv = [arg.format(broken=path, m=m_file) for arg in argv]
    assert run_cli(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("violation ") for line in lines)


def test_info_and_subs_on_invalid_table(tmp_path, capsys):
    doc = '{"order": 2, "identity": 0, "left": [[0, 0], [1, 0]], "right": [[0, 1], [0, 1]]}'
    path = tmp_path / "broken.json"
    path.write_text(doc, encoding="utf-8")
    assert run_cli(["info", str(path)]) == 1
    assert run_cli(["subs", str(path)]) == 1


def test_embed_out_file(tmp_path, n_file):
    out = tmp_path / "embedded.json"
    assert run_cli(["embed", n_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["order"] == 12
    assert len(doc["eta"]) == 6
    assert sorted(doc["diagonal"]) == sorted(set(doc["eta"]))
    table = parse_digroup(out.read_text(encoding="utf-8"))
    assert table.order == 12


def test_iso_not_isomorphic(m_file, z2_file, capsys):
    assert run_cli(["iso", m_file, z2_file]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def test_iso_found(tmp_path, n_file, capsys):
    from digroups import Mapping, relabel

    other = relabel(builtin("N"), Mapping(6, 6, (0, 1, 3, 2, 5, 4)))
    path = tmp_path / "n2.json"
    path.write_text(serialize_digroup(other), encoding="utf-8")
    assert run_cli(["iso", n_file, str(path)]) == 0
    assert "->" in capsys.readouterr().out


def test_enumerate_count_only(capsys):
    assert run_cli(["enumerate", "2", "--count-only"]) == 0
    out = capsys.readouterr().out
    assert "total=2" in out and "non_group=1" in out


def test_enumerate_naive_matches(capsys):
    assert run_cli(["enumerate", "2"]) == 0
    prop = capsys.readouterr().out
    assert run_cli(["enumerate", "2", "--naive"]) == 0
    naive = capsys.readouterr().out
    assert prop == naive
    assert len(prop.strip().splitlines()) == 2


def test_enumerate_out_file(tmp_path):
    out = tmp_path / "catalog.jsonl"
    assert run_cli(["enumerate", "3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        doc = json.loads(line)
        assert doc["order"] == 3 and "flags" in doc


def test_enumerate_out_of_range(capsys):
    assert run_cli(["enumerate", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "allow_large" not in err
    assert run_cli(["enumerate", "4", "--naive"]) == 2


def test_builtin_roundtrip(tmp_path, capsys):
    out = tmp_path / "n.json"
    assert run_cli(["builtin", "N", "--out", str(out)]) == 0
    assert parse_digroup(out.read_text(encoding="utf-8")) == builtin("N")
    assert run_cli(["builtin", "bogus"]) == 2


def test_embed(m_file, capsys):
    assert run_cli(["embed", m_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 2
    assert doc["eta"] == [0, 1]
    assert doc["diagonal"] == [0, 1]
    assert doc["pairs"] == [[0, 0], [0, 1]]


def test_triple_workflows(tmp_path, n_file, capsys):
    tri = tmp_path / "n_triple.json"
    assert run_cli(["triple", "extract", n_file, "--out", str(tri)]) == 0
    triple = parse_triple(tri.read_text(encoding="utf-8"))
    assert triple.carrier_size == 6

    assert run_cli(["triple", "check", str(tri)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    built = tmp_path / "built.json"
    assert run_cli(["triple", "build", str(tri), "--out", str(built)]) == 0
    table = parse_digroup(built.read_text(encoding="utf-8"))
    assert table.order == 12

    # break the triple: point the right unit at a non-unit transform
    doc = json.loads(tri.read_text(encoding="utf-8"))
    doc["right_unit"] = 2
    tri.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["triple", "check", str(tri)]) == 1
    assert run_cli(["triple", "build", str(tri)]) == 1


def test_claims_subset(capsys):
    assert run_cli(["claims", "--through", "2"]) == 0
    out = capsys.readouterr().out
    assert "C1 PASS" in out and "C2 PASS" in out and "C5 PASS" in out
    assert "C4" not in out


def test_claims_full(capsys):
    assert run_cli(["claims"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("   class:")] == [
        "   class: non-group, subdigroups=6",
        "   class: group, subdigroups=6",
    ]
