"""Every demo runs clean and prints its headline checks as True.

Each ``demos/*.py`` runs in a fresh interpreter under ``-X dev -W error``, as
the child processes of tests/test_imports.py do.  It must exit 0 and print
no ``FAIL``, and every line carrying one of its headline phrases must end
in ``True``, so a demo that prints a false check fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
HEADLINES = {
    "01_two_named_digroups.py": ("M is a digroup:", "N is a digroup:"),
    "02_subdigroups.py": ("restricted table validates:",),
    "03_translations_and_embedding.py": (
        "identity suite over all element pairs:",
        "validates:",
        "diagonal isomorphic to N:",
    ),
    "04_standard_triples.py": (
        "validates:",
        "equals the translation product table:",
        "isomorphic to Z3 x Z3:",
    ),
    "05_classification.py": (
        "naive oracle agrees at order 3:",
        "that class is isomorphic to builtin N:",
    ),
    "06_documents_and_cli.py": ("round trips:",),
}


def test_every_demo_has_headlines():
    assert sorted(HEADLINES) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs_and_its_headlines_hold(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(DEMOS / name)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout
    lines = done.stdout.splitlines()
    for phrase in HEADLINES[name]:
        found = [line for line in lines if phrase in line]
        assert found, phrase
        assert all(line.rstrip().endswith("True") for line in found), found
