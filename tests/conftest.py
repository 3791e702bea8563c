from pathlib import Path

import pytest

from digroups import SearchOptions, builtin, direct_product, enumerate_digroups
from digroups.fileio import parse_catalog_line


@pytest.fixture(scope="session")
def m_table():
    return builtin("M")


@pytest.fixture(scope="session")
def n_table():
    return builtin("N")


@pytest.fixture(scope="session")
def identity_suite():
    """The digroups of the translation identity acceptance pool."""
    return {
        "M": builtin("M"),
        "N": builtin("N"),
        "Z2": builtin("Z2"),
        "Z4": builtin("Z4"),
        "S3": builtin("S3"),
        "MxZ2": direct_product(builtin("M"), builtin("Z2")),
        "trivial(3)": builtin("trivial(3)"),
    }


@pytest.fixture(scope="session")
def catalogs():
    """Enumerations for orders 1..6, shared across the suite."""
    return {n: enumerate_digroups(n, SearchOptions()) for n in range(1, 7)}


@pytest.fixture(scope="session")
def reference_classes():
    """Every class of orders 1..8 as catalog entries, read from the checked-in
    reference catalog so that no search runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog_1_8.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    return [parse_catalog_line(line) for line in lines]
