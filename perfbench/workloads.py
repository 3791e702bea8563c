"""The three benchmark workloads: seeded inputs, one pass, output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished.  Every op checks its own output; a failed check or
an exception counts the op as failed, never as skipped.

* ``classify`` runs the exhaustive search and canonical-form dedup for every
  order 1..8 plus the CLI ``enumerate 6`` and ``claims``.  Order 8 is where
  the search and the (n-1)! dedup dominate.  The input is the order list, so
  the seed does not change it.
* ``construct`` pushes a seeded pool of 25 digroups (a relabelling of every
  class of order 2..7 and seven direct products up to order 12) through the
  translation products, the identity suite, the standard-triple round trip
  and the subdigroup scan, plus the CLI ``embed`` and ``triple build``.  It
  never calls the search or ``canonical_form``, so a change there must leave
  it unchanged.
* ``check`` runs the naive order-3 oracle (59,049 single validator calls on
  tiny tables) and the validator on seeded tables of order 64..160, half of
  them with one corrupted cell, plus the CLI ``check`` on a large document.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import digroups as dg
from digroups import fileio
from speed import slowdown

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("catalog_1_8.jsonl")
PROBED_CLI = Path(__file__).with_name("probed_cli.py")

# Classes per order n = 1..8; the checked-in reference catalog must agree.
CLASS_COUNTS = {1: 1, 2: 2, 3: 2, 4: 4, 5: 2, 6: 6, 7: 2, 8: 10}

# Direct products in the construct pool with their subdigroup counts.
PRODUCTS = {
    "NxZ2": (("N", "Z2"), 14),
    "NxM": (("N", "M"), 40),
    "MxZ4": (("M", "Z4"), 6),
    "S3xM": (("S3", "M"), 12),
    "MxMxM": (("M", "M", "M"), 128),
    "Z10": (("Z10",), 4),
    "Z12": (("Z12",), 6),
}

# One valid and one corrupted table per order.  Validating order 160 peaks
# near 300 MB, so the list stops there.
LARGE_ORDERS = (64, 96, 128, 160)
CLI_CHECK_ORDER = 64

# Rounds of each workload's CLI commands per pass.  One command takes a few
# hundred ms and its time swings by 15-20 % with the host's load, so a run
# needs a few dozen of them for a steady median; the runner spends the time
# left after the last pass on further rounds.  These counts make classify
# and check fit two passes into a 35 s run, not sometimes two and sometimes
# three.
CLI_ROUNDS = {"classify": 3, "construct": 2, "check": 8}


def _key(table) -> tuple:
    return (table.order, table.identity, table.left, table.right)


def load_reference() -> dict[int, list[tuple]]:
    """Reference catalog per order: (table key, commutative, group, subdigroup count)."""
    by_order: dict[int, list[tuple]] = defaultdict(list)
    for line in REFERENCE.read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        table = dg.DigroupTable(doc["order"], doc["identity"], doc["left"], doc["right"])
        flags = doc["flags"]
        by_order[table.order].append(
            (_key(table), flags["commutative"], flags["group"], doc["subdigroup_count"])
        )
    return dict(by_order)


def _entry_row(entry) -> tuple:
    return (_key(entry.canonical), entry.commutative, entry.group, entry.subdigroup_count)


def check_catalog(n: int, entries, reference) -> list[str]:
    problems = []
    if len(entries) != CLASS_COUNTS[n]:
        problems.append(f"order {n}: {len(entries)} classes, expected {CLASS_COUNTS[n]}")
    if [_entry_row(e) for e in entries] != reference[n]:
        problems.append(f"order {n}: catalog differs from the reference catalog")
    return problems


def _relabelled(table, rng: random.Random):
    perm = list(range(table.order))
    rng.shuffle(perm)
    return dg.relabel(table, dg.Mapping(table.order, table.order, tuple(perm)))


def _reference_table(reference, n: int, k: int):
    order, identity, left, right = reference[n][k][0]
    return dg.DigroupTable(order, identity, left, right)


def _product(tables):
    result = tables[0]
    for t in tables[1:]:
        result = dg.direct_product(result, t)
    return result


def _breaks_diassociativity(left, right, x: int, y: int) -> bool:
    """Independent check that a table pair breaks one of the five
    diassociative laws on a triple (x, y, z) or (w, x, y)."""
    L, R = left, right
    n = len(L)
    laws = (
        lambda a, b, c: L[a][L[b][c]] != L[L[a][b]][c],
        lambda a, b, c: L[L[a][b]][c] != L[a][R[b][c]],
        lambda a, b, c: L[R[a][b]][c] != R[a][L[b][c]],
        lambda a, b, c: R[L[a][b]][c] != R[R[a][b]][c],
        lambda a, b, c: R[R[a][b]][c] != R[a][R[b][c]],
    )
    triples = [(x, y, z) for z in range(n)] + [(w, x, y) for w in range(n)]
    return any(law(a, b, c) for law in laws for a, b, c in triples)


def _corrupted(table, rng: random.Random):
    """A copy with one seeded non-identity cell changed so that the copy
    provably breaks diassociativity."""
    n, e = table.order, table.identity
    others = [x for x in range(n) if x != e]
    while True:
        which = rng.randrange(2)
        x, y = rng.choice(others), rng.choice(others)
        left = [list(row) for row in table.left]
        right = [list(row) for row in table.right]
        cells = (left, right)[which]
        cells[x][y] = (cells[x][y] + rng.randrange(1, n)) % n
        if _breaks_diassociativity(left, right, x, y):
            return dg.DigroupTable(n, e, left, right)


def _report_lines(report) -> str:
    """The CLI's text form of a validation report."""
    if report.ok:
        return "ok\n"
    lines = []
    for v in report.violations:
        extra = f" lhs={v.lhs} rhs={v.rhs}" if v.lhs is not None or v.rhs is not None else ""
        lines.append(f"violation {v.law} witnesses={v.witnesses}{extra}")
    return "\n".join(lines) + "\n"


class Pass:
    """What one pass attempted, measured and checked."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.cli_runs: list[tuple[list[str], int, str | None, float]] = []
        self.wall_s = 0.0
        self.slowdown = 1.0

    def op(self, what: str, fn, sample: str | None = None, scale: float = 1.0) -> float:
        """Run one op; fn returns a list of failed checks.  The op's time,
        times ``scale`` and divided by the probe's slowdown over it, goes to
        ``samples[sample]``; the wall time is returned."""
        self.attempted += 1
        span = self.tracer.op(what) if self.tracer else nullcontext()
        since = self.probe.mark()
        start = time.perf_counter()
        try:
            with span:
                problems = fn()
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if sample is not None:
            self.samples[sample].append(elapsed * scale / self.probe.slowdown(since))
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
        return elapsed

    def cli(self, argv: list[str], code: int, stdout: str | None = None) -> None:
        """One CLI command as a subprocess; checks its exit code and output.
        Its time goes to ``samples["cli_ms"]``, divided by the slowdown of the
        speed probe's samples that this process and the command took while
        the command ran.  The command's own few samples alone give too noisy
        a slowdown to follow the host's drift."""

        def run():
            since = self.probe.mark()
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(PROBED_CLI), *argv],
                cwd=ROOT,
                env=cli_env(),
                capture_output=True,
                text=True,
                timeout=120,
            )
            wall = time.perf_counter() - start
            self.cli_runs.append((argv, code, stdout, wall))
            problems = []
            if proc.returncode != code:
                problems.append(f"exit code {proc.returncode}, expected {code}")
            if stdout is not None and proc.stdout != stdout:
                problems.append("stdout differs from the expected output")
            last = proc.stderr.splitlines()[-1:]
            if last and last[0].startswith("loop-times "):
                loop_times = self.probe.loop_times(since) + [float(t) for t in last[0].split()[1:]]
                self.samples["cli_ms"].append(wall * 1e3 / slowdown(loop_times))
            else:
                problems.append("no loop-times line on stderr")
            return problems

        self.op("cli " + " ".join(argv[:2]), run)


def cli_env() -> dict[str, str]:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _digest(material) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Classify:
    name = "classify"

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        reference = load_reference()
        counts = {n: len(rows) for n, rows in reference.items()}
        if counts != CLASS_COUNTS:
            raise ValueError(f"reference catalog has class counts {counts}")
        lines = REFERENCE.read_text(encoding="utf-8").splitlines()
        enumerate6 = "".join(line + "\n" for line in lines if json.loads(line)["order"] == 6)
        inputs = {"orders": list(range(1, 9)), "reference": reference, "enumerate6": enumerate6}
        inputs["digest"] = _digest([inputs["orders"], lines])
        return inputs

    def run_pass(self, inputs: dict, p: Pass) -> None:
        reference = inputs["reference"]
        for n in inputs["orders"]:
            opts = dg.SearchOptions(allow_large=n > 6)
            p.op(
                f"enumerate {n}",
                lambda: check_catalog(n, dg.enumerate_digroups(n, opts), reference),
                sample=f"catalog_o{n}_s",
            )
        for _ in range(CLI_ROUNDS[self.name]):
            self.cli_round(inputs, p)

    def cli_round(self, inputs: dict, p: Pass) -> None:
        p.cli(["enumerate", "6"], 0, inputs["enumerate6"])
        p.cli(["claims"], 0)


class Construct:
    name = "construct"

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        reference = load_reference()
        pool = []
        for n in range(2, 8):
            for k, row in enumerate(reference[n]):
                table = _relabelled(_reference_table(reference, n, k), rng)
                pool.append((f"class{n}.{k}", table, row[3]))
        for name, (factors, subs) in PRODUCTS.items():
            pool.append((name, _product([dg.builtin(f) for f in factors]), subs))

        # CLI documents: two seeded order-6 pool items, so that every seed
        # gives the CLI the same amount of work.
        docs, texts = [], []
        sixes = [item for item in pool if item[1].order == 6]
        for i, (name, table, _) in enumerate(rng.sample(sixes, 2)):
            triple = dg.triple_from_digroup(table)
            digroup_path = workdir / f"construct{i}.json"
            triple_path = workdir / f"construct{i}.triple.json"
            texts += [fileio.serialize_digroup(table), fileio.serialize_triple(triple)]
            digroup_path.write_text(texts[-2], encoding="utf-8")
            triple_path.write_text(texts[-1], encoding="utf-8")
            docs.append(
                (
                    str(digroup_path),
                    fileio.serialize_embedding(dg.cayley_embedding(table)),
                    str(triple_path),
                    fileio.serialize_digroup(dg.digroup_from_triple(triple)),
                )
            )
        digest = _digest([[name, _key(t), subs] for name, t, subs in pool] + texts)
        return {"pool": pool, "docs": docs, "digest": digest}

    @staticmethod
    def _item(table, subdigroups: int) -> list[str]:
        problems = []
        prod = dg.cayley_embedding(table)
        dg.right_translation_product(table)
        if not dg.verify_translation_identities(table).ok:
            problems.append("translation identities fail")
        triple = dg.triple_from_digroup(table)
        if not dg.validate_triple(triple).ok:
            problems.append("standard triple fails validation")
        back = dg.digroup_from_triple(triple)
        if _key(back) != _key(prod.table):
            problems.append("digroup_from_triple differs from the translation product")
        found = len(dg.all_subdigroups(table))
        if found != subdigroups:
            problems.append(f"{found} subdigroups, expected {subdigroups}")
        return problems

    def run_pass(self, inputs: dict, p: Pass) -> None:
        for name, table, subs in inputs["pool"]:
            p.op(f"construct {name}", lambda: self._item(table, subs), "construct_ms", 1e3)
        for _ in range(CLI_ROUNDS[self.name]):
            self.cli_round(inputs, p)

    def cli_round(self, inputs: dict, p: Pass) -> None:
        for digroup_path, embedding, triple_path, built in inputs["docs"]:
            p.cli(["embed", digroup_path], 0, embedding)
            p.cli(["triple", "build", triple_path], 0, built)


class Check:
    name = "check"

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        reference = load_reference()
        large = []
        for n in LARGE_ORDERS:
            factors, rest = [], n
            while rest > 1:
                d = rng.choice([d for d in range(2, 9) if rest % d == 0])
                factors.append(d)
                rest //= d
            parts = [
                _reference_table(reference, d, rng.randrange(len(reference[d]))) for d in factors
            ]
            table = _relabelled(_product(parts), rng)
            large.append((f"valid{n}", table, True))
            large.append((f"corrupt{n}", _corrupted(table, rng), False))
        cli_table = next(t for name, t, _ in large if name == f"corrupt{CLI_CHECK_ORDER}")
        cli_path = str(workdir / "check.json")
        document = fileio.serialize_digroup(cli_table)
        Path(cli_path).write_text(document, encoding="utf-8")
        digest = _digest([[name, _key(t), ok] for name, t, ok in large] + [document])
        return {"reference": reference, "large": large, "cli_path": cli_path, "digest": digest}

    def run_pass(self, inputs: dict, p: Pass) -> None:
        reference = inputs["reference"]
        p.op("naive 3", lambda: check_catalog(3, dg.naive_enumerate(3), reference), "naive3_s")
        reports = {}
        for name, table, valid in inputs["large"]:

            def validate():
                reports[name] = report = dg.validate_digroup(table)
                if report.ok != valid:
                    return [f"validator says ok={report.ok}, expected {valid}"]
                return []

            p.op(f"validate {name}", validate, "validate_large_s")
        triples = sum(table.order**3 for _, table, _ in inputs["large"])
        p.samples["validate_mtriples_per_s"].append(
            triples / sum(p.samples["validate_large_s"]) / 1e6
        )
        cli_name = f"corrupt{CLI_CHECK_ORDER}"
        # The CLI's report must equal the in-process one; rounds after the
        # last pass compare with the report of that pass.
        inputs["cli_expected"] = _report_lines(reports[cli_name]) if cli_name in reports else None
        for _ in range(CLI_ROUNDS[self.name]):
            self.cli_round(inputs, p)

    def cli_round(self, inputs: dict, p: Pass) -> None:
        p.cli(["check", inputs["cli_path"]], 1, inputs["cli_expected"])


WORKLOADS = {w.name: w for w in (Classify(), Construct(), Check())}
