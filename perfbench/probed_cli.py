"""Run the digroups CLI under the speed probe.

``python3 perfbench/probed_cli.py ARGS`` runs ``python -m digroups ARGS``
in this process and then writes ``loop-times <t> <t> ...`` as the last stderr
line: the speed probe's samples taken while the command ran.  The benchmark
pools them with its own samples over the same stretch and divides the
command's subprocess time by the slowdown of the pool.
"""

import runpy
import sys

from speed import SpeedProbe

if __name__ == "__main__":
    probe = SpeedProbe()
    try:
        with probe:
            runpy.run_module("digroups", run_name="__main__", alter_sys=True)
    finally:
        sys.stderr.write(" ".join(["loop-times", *map(repr, probe.loop_times(0))]) + "\n")
