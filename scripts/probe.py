"""Run one wittlink CLI command in a fresh child and print what it cost.

    python3 scripts/probe.py --format json reciprocity --max-prime 2000

Every argument is passed on as ``python -m wittlink.cli ARGV``, run once in
a child process with ``src`` of this checkout first on its ``PYTHONPATH``.
One JSON line is printed: the child's exit code, its wall time, its peak
resident memory (``ru_maxrss`` of ``RUSAGE_CHILDREN``, in MB of 2^20
bytes) and the SHA-256 of its stdout, followed by the argv.  The peak
includes the few MB of this small parent that the child holds until exec.
Nothing is limited and nothing is asserted: this script exits 0 once the
child has run, whatever its exit code.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def probe(argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wittlink.cli", *argv], capture_output=True, env=env)
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux, bytes on macOS
    return {
        "code": proc.returncode,
        "wall_s": round(wall, 3),
        "maxrss_mb": round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1),
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "argv": argv,
    }


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1:])))
