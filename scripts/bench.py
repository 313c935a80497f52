"""Run the benchmark once per workload and record the results in git.

    python3 scripts/bench.py                           # this checkout
    python3 scripts/bench.py --checkout ../other-tree  # another checkout

For each workload named in BENCHMARK.json this runs the measured
checkout's ``perfbench/run.py --workload W --trace 0`` once, for
BENCHMARK.json's run length at perfbench's default seed, and appends one
entry to ``BENCH_<workload>.json`` beside this script's BENCHMARK.json: the
end-to-end metrics, ``correct``/``attempted``/``failed``, the measured
checkout's git SHA and whether its tree had changes, ``nproc``, the Python
version, the seed and the run length.  An entry from a tree with changes
also carries ``diff_sha256``, the SHA-256 of its ``git diff --binary HEAD``
(tracked files only), so that entries from different uncommitted trees on
one commit can be told apart.  Every entry uses the same seed and run
length, so the entries of one file stay comparable.  Committing the files after each
performance change lets ``git log -p BENCH_*.json`` show the trend.  The
workloads, their inputs and their metrics all live in perfbench; this
script defines none of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(checkout: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, check=True).stdout


def default_seed(checkout: Path) -> int:
    sys.path.insert(0, str(checkout / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.DEFAULT_SEED


def measure(checkout: Path, workload: str, seconds: float) -> dict:
    """One untraced perfbench run at its default seed; its last stdout line is the result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", type=Path, default=ROOT, help="the tree to measure (default: this one)")
    checkout = ap.parse_args().checkout.resolve()

    # BENCH_*.json are this script's output, not a change to what is measured
    own = ("--", ".", ":(exclude)BENCH_*.json")
    context = {
        "git_sha": git(checkout, "rev-parse", "HEAD").decode().strip(),
        "dirty": bool(git(checkout, "status", "--porcelain", *own).strip()),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "seed": default_seed(checkout),
        "seconds": spec["run_seconds"],
        "trace": 0,
    }
    if context["dirty"]:
        context["diff_sha256"] = hashlib.sha256(git(checkout, "diff", "--binary", "HEAD", *own)).hexdigest()
    for workload in (w["name"] for w in spec["workloads"]):
        result = measure(checkout, workload, spec["run_seconds"])
        path = ROOT / f"BENCH_{workload}.json"
        record = json.loads(path.read_text()) if path.exists() else {"workload": workload, "entries": []}
        record["entries"].append({**context, **result})
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{workload}: correct={result['correct']} failed={result['failed']} "
              f"ops_per_s={result['metrics']['ops_per_s']['value']:.1f} -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
