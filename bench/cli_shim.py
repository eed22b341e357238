"""`towerlab` console entry point under the tracer, for traced cli-cold jobs.

    python3 bench/cli_shim.py TRACE_OUT ARGS...

Runs `towerlab.cli.main(ARGS)` like the installed `towerlab` script, with the
same stdout and exit code, and writes the trace and the wall-clock time at
which interpreter start and import were done to TRACE_OUT.
"""

import json
import sys
import time

import towerlab.cli

t_ready = time.time()

from tracer import Tracer  # noqa: E402  (after the timed import)

tracer = Tracer().install()
code = towerlab.cli.main(sys.argv[2:])
tracer.uninstall()
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump({"t_ready": t_ready, "trace": tracer.dump()}, fh)
sys.exit(code)
