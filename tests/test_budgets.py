"""Every CLI command, on the worst input its caps admit, within a time and
memory budget.

Each row runs ``python -m digroups`` in a child process whose address space
is capped with ``RLIMIT_AS`` (set in the child only) and whose wall time is
capped by a subprocess timeout.  The budgets are bounds, several times the
measured cost: on a 2-vCPU host every row took at most 1.3 s, every child
peaked at 43 MB resident, and every row ran under a 64 MiB address-space cap.
A change that needs a larger budget is a regression, not a reason to raise it.
"""

import os
import resource
import subprocess
import sys
import time

import pytest

from digroups import (
    builtin,
    direct_product,
    serialize_digroup,
    serialize_triple,
    triple_from_digroup,
    trivial_digroup,
)

MIB = 2**20

# Input documents: file name -> digroup or triple document text.
_INPUTS = {
    "z200.json": lambda: serialize_digroup(builtin("Z200")),
    "trivial16.json": lambda: serialize_digroup(trivial_digroup(16)),
    "z14.json": lambda: serialize_digroup(builtin("Z14")),
    "z200_triple.json": lambda: serialize_triple(triple_from_digroup(builtin("Z200"))),
    "z14_triple.json": lambda: serialize_triple(triple_from_digroup(builtin("Z14"))),
    "z2_trivial8.json": lambda: serialize_digroup(
        direct_product(builtin("Z2"), trivial_digroup(8))
    ),
    "trivial2_trivial8.json": lambda: serialize_digroup(
        direct_product(trivial_digroup(2), trivial_digroup(8))
    ),
    "trivial200.json": lambda: serialize_digroup(trivial_digroup(200)),
    "trivial18.json": lambda: serialize_digroup(trivial_digroup(18)),
    "z2_trivial9.json": lambda: serialize_digroup(
        direct_product(builtin("Z2"), trivial_digroup(9))
    ),
    "huge_order.json": lambda: (
        '{"order": 1000000000, "identity": 0, "left": [[0]], "right": [[0]]}'
    ),
}

# (argv, exit code, time budget in s, address-space budget in MiB); the
# measured time on a 2-vCPU host is in the comment.
BUDGETS = [
    (["check", "z200.json"], 0, 5, 128),  # 0.22 s
    (["info", "trivial16.json"], 0, 10, 256),  # 1.18 s, 2^15 subdigroups, one closure each
    (["subs", "trivial16.json"], 0, 10, 256),  # 1.25 s
    (["embed", "z14.json"], 0, 5, 128),  # 0.09 s, product order 196, source checked
    (["embed", "trivial200.json"], 0, 5, 128),  # 0.19 s, product order 200, source checked once
    (["triple", "extract", "z200.json"], 0, 5, 128),  # 0.27 s
    (["triple", "check", "z200_triple.json"], 0, 5, 128),  # 0.34 s
    (["triple", "build", "z14_triple.json"], 0, 5, 128),  # 0.09 s, triple checked
    (["triple", "build", "z200_triple.json"], 2, 5, 128),  # 0.18 s, product 40,000 refused
    (["builtin", "Z200"], 0, 5, 128),  # 0.12 s
    (["enumerate", "6"], 0, 5, 128),  # 0.14 s
    (["enumerate", "3", "--naive"], 0, 5, 128),  # 0.14 s, 2,187 validator calls
    (["claims"], 0, 5, 128),  # 0.14 s
    (["iso", "trivial16.json", "z2_trivial8.json"], 1, 10, 128),  # 0.15 s, cores of 1 and 2
    (["iso", "z2_trivial8.json", "trivial16.json"], 1, 10, 128),  # 0.15 s, cores of 2 and 1
    (["iso", "z2_trivial8.json", "trivial2_trivial8.json"], 1, 10, 128),  # 0.16 s, cores of 2 and 1
    (["iso", "trivial18.json", "z2_trivial9.json"], 2, 5, 128),  # 0.10 s, refused
    (["check", "huge_order.json"], 2, 5, 128),  # 0.07 s, one row where 10^9 are claimed
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("budgets")
    for name, make in _INPUTS.items():
        (folder / name).write_text(make(), encoding="utf-8")
    return folder


@pytest.mark.parametrize(
    "argv, code, seconds, mib", BUDGETS, ids=[" ".join(row[0]) for row in BUDGETS]
)
def test_command_within_budget(inputs, argv, code, seconds, mib):
    limit = mib * MIB

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    args = [str(inputs / a) if a in _INPUTS else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "digroups", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=cap_address_space,
    )
    elapsed = time.perf_counter() - start
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == code, done.stderr
    assert elapsed < seconds
