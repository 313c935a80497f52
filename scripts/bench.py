"""Run the benchmark once per workload and record the results in git.

    python3 scripts/bench.py                           # this checkout
    python3 scripts/bench.py --checkout ../other-tree  # another checkout
    python3 scripts/bench.py --pairs 10 --against ../parent-tree  # change against parent

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

With ``--pairs K --against DIR`` the checkout (the change) and DIR (the
parent) each run every workload K times, in pairs that alternate which
side runs first, after both ``src`` trees are byte-compiled so that they
start from the same bytecode state.  Every run is appended to
``BENCH_<workload>.json`` as above, with its own tree's SHA and state,
``series`` set to ``parent`` or ``change`` and ``pair`` to its pair's
index.  For each end-to-end metric it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side),
whether the change shows a gain (it wins at least nine tenths of the
pairs and its median is better by more than the distance between the
parent's quartiles) and how it stands to the metric's bound in
BENCHMARK.json: ``worse`` when its median is worse than the parent's by
more than the bound, ``unresolved`` when the parent's quartiles lie
further apart than the bound and not every run of the change beats every
run of the parent, else ``ok``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
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


def context(checkout: Path, spec: dict) -> dict:
    """The fields every entry of one tree carries: its commit and state, the host and the run settings."""
    # BENCH_*.json are this script's output, not a change to what is measured
    own = ("--", ".", ":(exclude)BENCH_*.json")
    ctx = {
        "git_sha": git(checkout, "rev-parse", "HEAD").decode().strip(),
        "dirty": bool(git(checkout, "status", "--porcelain", *own).strip()),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "seed": default_seed(checkout),
        "seconds": spec["run_seconds"],
        "trace": 0,
    }
    if ctx["dirty"]:
        ctx["diff_sha256"] = hashlib.sha256(git(checkout, "diff", "--binary", "HEAD", *own)).hexdigest()
    return ctx


def record(workload: str, entries: list[dict]) -> Path:
    """Append entries to BENCH_<workload>.json beside BENCHMARK.json."""
    path = ROOT / f"BENCH_{workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {"workload": workload, "entries": []}
    data["entries"].extend(entries)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    return (xs[0],) * 3 if len(xs) == 1 else tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, bool, str]:
    """One metric over paired runs: (pairs the change won, whether it shows a gain, its standing to the bound).

    parent[i] and change[i] are the runs of pair i; ``better`` is "higher"
    or "lower".  Ties count for neither side.  The standing is ``worse``,
    ``unresolved`` or ``ok``, as the module docstring sets out.
    """
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    gain = won >= 0.9 * len(parent) and sign * (cmed - pmed) > pq3 - pq1
    if -sign * (cmed - pmed) > bound * pmed:
        return won, gain, "worse"
    if pq3 - pq1 > bound * pmed and not all(sign * (c - p) > 0 for p in parent for c in change):
        return won, gain, "unresolved"  # the parent's own spread is wider than the bound
    return won, gain, "ok"


def compare(spec: dict, change: Path, parent: Path, pairs: int) -> None:
    """Run alternating pairs of parent and change per workload; record every run and print each metric's verdict."""
    sides = {"parent": parent, "change": change}
    contexts = {side: context(tree, spec) for side, tree in sides.items()}
    for tree in (change, parent):
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        entries = []
        for i in range(pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(measure(sides[side], workload, spec["run_seconds"]))
                entries.append({**contexts[side], "series": side, "pair": i, **runs[side][-1]})
        path = record(workload, entries)
        print(f"{workload}: {pairs} pairs of {spec['run_seconds']} s runs -> {path.name}")
        for side, rs in runs.items():
            print(f"  {side}: {sum(not r['correct'] for r in rs)} runs not correct, failed ops "
                  f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}")
        print(f"  {'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}  won  gain  bound")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            won, gain, bound = verdict(vals["parent"], vals["change"], metric["better"], metric["bound"])
            pq, cq = quartiles(vals["parent"]), quartiles(vals["change"])
            cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]" for q1, med, q3 in (pq, cq)]
            print(f"  {name:<12} {cells[0]:>30} {cells[1]:>30}  {won:>2}/{pairs}  {'yes' if gain else 'no':<4}  {bound}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", type=Path, default=ROOT, help="the tree to measure (default: this one)")
    ap.add_argument("--pairs", type=int, default=0, help="with --against: alternating runs per side and workload")
    ap.add_argument("--against", type=Path, help="the parent tree to compare the checkout with")
    args = ap.parse_args()
    checkout = args.checkout.resolve()
    if (args.pairs > 0) != (args.against is not None):
        ap.error("--pairs K (K >= 1) and --against DIR go together")
    if args.pairs:
        compare(spec, checkout, args.against.resolve(), args.pairs)
        return 0

    ctx = context(checkout, spec)
    for workload in (w["name"] for w in spec["workloads"]):
        result = measure(checkout, workload, spec["run_seconds"])
        path = record(workload, [{**ctx, **result}])
        print(f"{workload}: correct={result['correct']} failed={result['failed']} "
              f"ops_per_s={result['metrics']['ops_per_s']['value']:.1f} -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
