"""Benchmark of the digroups package.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run sets up its seeded inputs several times (reporting the median set-up
time and checking that every set-up gives identical inputs), then runs passes
of its workload until the next pass would overrun ``--seconds`` (at least
two), and spends the time left on more rounds of the workload's CLI
commands.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
two untraced passes and then traced passes, and prints the per-layer metrics
and the tracing overhead.  ``--workload all`` runs every workload, untraced
and traced, each in its own process.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name every metric with its unit, list failed checks and give the provenance.
Traces and full results go to perfbench/_work/.

Every end-to-end timing is divided by the slowdown the speed probe saw while
it was taken (see speed.py); the raw wall time of a pass and the slowdown are
printed beside it.  Claims of a speed-up confirm on HOLDOUT_SEED, which no
tuning run uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer, layer_metrics, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOAD_NAMES = ("classify", "construct", "check")
HOLDOUT_SEED = 7919
SETUP_REPEATS = 7
MIN_PASSES = 2

# End-to-end metrics: unit, and the workload they belong to (None: all).
E2E = {
    "setup_s": ("s", None),
    "pass_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "cli_ms_p50": ("ms", None),
    "fail_ratio": ("ratio", None),
    "catalog_o7_s": ("s", "classify"),
    "catalog_o8_s": ("s", "classify"),
    "construct_ms_p50": ("ms", "construct"),
    "construct_ms_p90": ("ms", "construct"),
    "naive3_s": ("s", "check"),
    "validate_mtriples_per_s": ("Mtriples/s", "check"),
}
# The ones that apply to every workload and never read 0.
GATED_E2E = ("setup_s", "pass_s", "peak_rss_mb", "cli_ms_p50")

def summary(values: list[float]) -> str:
    """Sample count plus the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    for q in (99, 95, 90, 75):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return f"median of {n}; p{q} {values[rank - 1]:.6g} with {n - rank} beyond"
    return f"median of {n}; no percentile has ten samples beyond it"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, digest: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "inputs_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def child_import_s() -> float:
    """Import time of digroups in a fresh interpreter, measured inside it and
    divided by the slowdown the speed probe saw there."""
    from workloads import cli_env

    code = (
        "import time, speed\n"
        "with speed.SpeedProbe() as probe:\n"
        "    start = time.perf_counter()\n"
        "    import digroups\n"
        "    took = time.perf_counter() - start\n"
        "print(took / probe.slowdown(0))\n"
    )
    env = cli_env()
    env["PYTHONPATH"] = str(HERE) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def set_up(workload, seed: int, workdir: Path, probe: SpeedProbe):
    """Import plus input generation, SETUP_REPEATS times."""
    setup_s, digests = [], []
    for _ in range(SETUP_REPEATS):
        import_s = child_import_s()
        since = probe.mark()
        start = time.perf_counter()
        inputs = workload.make_inputs(seed, workdir)
        setup_s.append(import_s + (time.perf_counter() - start) / probe.slowdown(since))
        digests.append(inputs["digest"])
    return inputs, setup_s, digests


def replay_cli(p, tracer) -> float:
    """Run the pass's CLI commands again in-process, traced, with the same
    checks; return subprocess time minus in-process time."""
    import digroups.cli

    startup = 0.0
    for argv, code, expected, sub_s in p.cli_runs:

        def run():
            out = StringIO()
            with redirect_stdout(out):
                got = digroups.cli.run_cli(list(argv))
            problems = []
            if got != code:
                problems.append(f"in-process exit code {got}, expected {code}")
            if expected is not None and out.getvalue() != expected:
                problems.append("in-process stdout differs from the expected output")
            return problems

        startup += sub_s - p.op("replay " + " ".join(argv[:2]), run)
    return startup


def measure(workload, inputs, seconds: float, trace: bool, probe: SpeedProbe) -> dict:
    """Passes until the next one would overrun ``seconds``, at least
    MIN_PASSES of them; then rounds of the workload's CLI commands until the
    next round would overrun.  A traced run makes two untraced passes (the
    first warms caches), then traced passes (at least one), and no extra
    rounds."""
    from workloads import Pass

    passes, traced, layers = [], [], []
    extra = Pass(probe)
    tracer = None
    start = time.perf_counter()
    try:
        while True:
            if trace and len(passes) == 2 and tracer is None:
                tracer = Tracer()
                tracer.install()
            first = len(tracer.spans) if tracer else 0
            p = Pass(probe, tracer)
            since = probe.mark()
            t0 = time.perf_counter()
            workload.run_pass(inputs, p)
            p.wall_s = time.perf_counter() - t0
            p.slowdown = probe.slowdown(since)
            if tracer is None:
                passes.append(p)
            else:
                startup = replay_cli(p, tracer)
                layers.append(layer_metrics(tracer.spans[first:], startup))
                traced.append(p)
            if (trace and not traced) or (not trace and len(passes) < MIN_PASSES):
                continue
            if time.perf_counter() - start + p.wall_s > seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()
    round_s = 0.0
    while not trace and time.perf_counter() - start + round_s <= seconds:
        t0 = time.perf_counter()
        workload.cli_round(inputs, extra)
        round_s = time.perf_counter() - t0
    return {"passes": passes, "traced": traced, "layers": layers, "tracer": tracer, "extra": extra}


def end_to_end(name: str, passes, extra, setup_s: list[float], failed: int, attempted: int):
    """(value, how it was summarised) of one end-to-end metric; ``extra``
    holds the CLI rounds run after the last pass."""
    if name == "setup_s":
        return statistics.median(setup_s), summary(setup_s)
    if name == "pass_s":
        values = [p.wall_s / p.slowdown for p in passes]
        return statistics.median(values), summary(values)
    if name == "peak_rss_mb":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "whole process"
    if name == "fail_ratio":
        return failed / attempted, f"{failed} of {attempted} ops"
    key = name.removesuffix("_p50").removesuffix("_p90")
    values = sorted(v for p in passes + [extra] for v in p.samples[key])
    if name == "construct_ms_p90":
        rank = math.ceil(0.9 * len(values))
        return values[rank - 1], f"p90 of {len(values)}, {len(values) - rank} beyond"
    return statistics.median(values), summary(values)


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import digroups

    if Path(digroups.__file__).resolve().parent != ROOT / "src" / "digroups":
        print(f"error: imported digroups from {digroups.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with SpeedProbe() as probe, tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs, setup_s, digests = set_up(workload, args.seed, Path(tmp), probe)
        result = measure(workload, inputs, args.seconds, bool(args.trace), probe)

    passes, traced, extra = result["passes"], result["traced"], result["extra"]
    failures = [f for p in passes + traced + [extra] for f in p.failures]
    attempted = 1 + sum(p.attempted for p in passes + traced + [extra])
    if len(set(digests)) != 1:
        failures.append("set-ups of one seed gave different inputs")
    prov = provenance(args.workload, args.seed, digests[0])
    print("provenance " + json.dumps(prov))

    report = {}
    if args.trace:
        for name in result["layers"][0]:
            report[name] = statistics.median(layer[name] for layer in result["layers"])
        report["trace.overhead_s"] = statistics.median(
            p.wall_s / p.slowdown for p in traced
        ) - passes[1].wall_s / passes[1].slowdown
        for name, value in report.items():
            print(f"layer {name} = {value:.6g} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in report.items()}
        spans = [list(s) for s in result["tracer"].spans]
        (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"provenance": prov, "spans": spans}), encoding="utf-8"
        )
    else:
        for name, (unit, only) in E2E.items():
            if only in (None, args.workload):
                value, how = end_to_end(name, passes, extra, setup_s, len(failures), attempted)
                report[name] = value
                print(f"metric {name} = {value:.6g} {unit} ({how})")
        report["pass_wall_s"] = statistics.median(p.wall_s for p in passes)
        report["slowdown"] = statistics.median(p.slowdown for p in passes)
        print(f"pass wall time {report['pass_wall_s']:.6g} s at slowdown {report['slowdown']:.4g}")
        metrics = {k: {"value": report[k], "unit": E2E[k][0]} for k in GATED_E2E}
    for failure in failures:
        print(f"FAILED {failure}")
    runs = traced if args.trace else passes
    print(
        f"passes {len(runs)}, CLI commands after them {extra.attempted}, "
        f"ops attempted {attempted}, failed {len(failures)}"
    )

    out = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = dict(out, provenance=prov, report=report, failures=failures)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(out), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.splitlines()
            print(f"== {workload} trace={trace}")
            for line in lines[:-1]:
                print("   " + line)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for name, metric in last["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "digroups" / "__init__.py").is_file():
        print(f"error: no digroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
