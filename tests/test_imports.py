"""Which modules a fresh interpreter loads.

``import digroups`` loads no submodule, and each CLI command loads only the
submodules it runs, so a command's start-up time does not pay for the rest
of the library.  No command loads ``dataclasses`` or ``inspect``: the
records derive from ``tables._Record``, which costs neither.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from digroups import builtin, serialize_digroup, serialize_triple, triple_from_digroup

ALL_MODULES = {
    "digroups.cli",
    "digroups.fileio",
    "digroups.morphisms",
    "digroups.search",
    "digroups.subdigroups",
    "digroups.tables",
    "digroups.translations",
    "digroups.triples",
}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _fresh(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _imported_by(argv: list[str], cwd) -> set[str]:
    """The modules that ``python -m digroups ARGV`` adds to ``sys.modules``,
    the command having exited 0."""
    code = (
        "import json, runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['digroups', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('digroups', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    return set(json.loads(_fresh(code, cwd).splitlines()[-1]))


def _loaded_by(argv: list[str], cwd) -> set[str]:
    """The digroups submodules that ``python -m digroups ARGV`` loads."""
    return {m for m in _imported_by(argv, cwd) if m.startswith("digroups.")}


@pytest.fixture()
def documents(tmp_path):
    (tmp_path / "z64.json").write_text(serialize_digroup(builtin("Z64")), encoding="utf-8")
    (tmp_path / "n.json").write_text(serialize_digroup(builtin("N")), encoding="utf-8")
    (tmp_path / "n_triple.json").write_text(
        serialize_triple(triple_from_digroup(builtin("N"))), encoding="utf-8"
    )
    return tmp_path


def test_check_loads_only_the_parser_and_the_validator(documents):
    assert _loaded_by(["check", "z64.json"], documents) <= {
        "digroups.__main__",
        "digroups.cli",
        "digroups.fileio",
        "digroups.tables",
    }


@pytest.mark.parametrize("argv", [["enumerate", "6"], ["claims"]])
def test_classification_commands_load_no_translations(argv, documents):
    loaded = _loaded_by(argv, documents)
    assert "digroups.search" in loaded
    assert not loaded & {"digroups.translations", "digroups.triples"}


@pytest.mark.parametrize(
    "argv", [["embed", "n.json"], ["triple", "build", "n_triple.json"]]
)
def test_translation_commands_load_no_search(argv, documents):
    loaded = _loaded_by(argv, documents)
    assert "digroups.triples" in loaded
    assert "digroups.search" not in loaded
    if argv[0] == "embed":
        assert "digroups.translations" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["triple", "extract", "n.json"],
        ["triple", "check", "n_triple.json"],
        ["triple", "build", "n_triple.json"],
    ],
)
def test_triple_commands_load_only_the_triple_layer(argv, documents):
    assert _loaded_by(argv, documents) == {
        "digroups.cli",
        "digroups.fileio",
        "digroups.tables",
        "digroups.triples",
    }


def test_triples_import_only_the_table_layer(tmp_path):
    code = (
        "import json, sys\n"
        "import digroups.triples\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('digroups.'))))\n"
    )
    assert json.loads(_fresh(code, tmp_path)) == ["digroups.tables", "digroups.triples"]


HEAVY_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "z64.json"],
        ["enumerate", "6"],
        ["claims"],
        ["embed", "n.json"],
        ["triple", "build", "n_triple.json"],
        ["info", "n.json"],
        ["subs", "n.json"],
        ["iso", "n.json", "n.json"],
    ],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv, documents):
    assert not _imported_by(argv, documents) & HEAVY_STDLIB


def test_loading_every_module_loads_neither_dataclasses_nor_inspect(tmp_path):
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import digroups\n"
        "digroups.DigroupTable\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(json.loads(_fresh(code, tmp_path)))
    assert ALL_MODULES <= loaded
    assert not loaded & HEAVY_STDLIB


def test_first_public_name_loads_every_module_for_the_tracer(tmp_path):
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import digroups\n"
        "before = sorted(m for m in sys.modules if m.startswith('digroups.'))\n"
        "digroups.DigroupTable\n"
        "after = sorted(m for m in sys.modules if m.startswith('digroups.'))\n"
        "from tracing import Tracer\n"
        "original = digroups.validate_digroup\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "wrapped = digroups.validate_digroup is not original\n"
        "tracer.remove()\n"
        "restored = digroups.validate_digroup is original\n"
        "print(json.dumps([before, after, wrapped, restored]))\n"
    )
    before, after, wrapped, restored = json.loads(_fresh(code, tmp_path))
    assert before == []
    assert set(after) == ALL_MODULES
    assert wrapped and restored


def test_star_import_and_dir_list_every_public_name(tmp_path):
    code = (
        "import json, digroups\n"
        "listed = [n for n in digroups.__all__ if n in dir(digroups)]\n"
        "namespace = {}\n"
        "exec('from digroups import *', namespace)\n"
        "print(json.dumps([digroups.__all__, listed, sorted(set(namespace) - {'__builtins__'})]))\n"
    )
    public, listed, star = json.loads(_fresh(code, tmp_path))
    assert public and len(public) == len(set(public))
    assert listed == public
    assert star == sorted(public)
