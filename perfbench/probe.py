"""Set-up probe: a fresh interpreter imports gaussbath.cli and runs one job.

Usage: python3 probe.py SRC_DIR CLI_ARG...

Prints one JSON line {"seconds", "code", "stdout", "warned"}, where
seconds runs from before the import to the end of the job, stdout is
what the job printed and warned lists the warnings it raised, so the
caller can check the output.
"""

import contextlib
import io
import json
import sys
import time
import warnings

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gaussbath import cli  # noqa: E402

out = io.StringIO()
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    with contextlib.redirect_stdout(out):
        code = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - t0
print(json.dumps({"seconds": elapsed, "code": code, "stdout": out.getvalue(),
                  "warned": [str(w.message) for w in caught]}))
