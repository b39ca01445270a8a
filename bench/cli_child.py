"""One `scattree` invocation of the cli workload, with host-speed samples.

    python3 bench/cli_child.py <scattree arguments>

Runs ``python3 -m scattree.cli <arguments>`` in this process, after a few
samples of the reference work of ``speed.py`` and with its sampler running
from a timer signal, and on
the way out (a normal end, SystemExit or an error) writes the samples and
the time they took as JSON to the file named by $BENCH_SPEED_FILE.  Output,
exit status and tracebacks are the CLI's own.
"""

import json
import os
import runpy

import speed  # this script's directory is on sys.path

sampler = speed.Sampler()
for _ in range(speed.STARTUP_SAMPLES):
    sampler.sample()
sampler.start()
try:
    runpy.run_module("scattree.cli", run_name="__main__", alter_sys=True)
finally:
    sampler.stop()
    with open(os.environ["BENCH_SPEED_FILE"], "w") as fh:
        json.dump({"samples": sampler.samples, "spent": sampler.spent}, fh)
