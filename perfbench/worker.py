"""Run one workload in a fresh interpreter and report what the program did.

Started by run.py with ``src`` on the path.  It builds the program's inputs
from the seeded cases, then issues the round's operations one after
another (a closed loop with one client), round after round:

* ``--seconds S``: whole rounds until S seconds have passed (timed run);
* ``--rounds K``: exactly K rounds (fixed work, for the traced run and for
  the untraced run that the tracing overhead is measured against).

Each operation's latency is kept as its fastest over the rounds.  The first
round's outputs are kept and sent back for checking; every later round's
output must equal the first round's for the same operation.  One
JSON document goes to stdout at the end.  Run with ``--trace 1`` to install
the layer-boundary tracer before the first operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _encode(payload):
    """A program payload as JSON data: Fractions become [num, den]."""
    if isinstance(payload, Fraction):
        return [payload.numerator, payload.denominator]
    if isinstance(payload, tuple):
        return list(payload)
    return payload


def _encode_witt(w) -> list:
    return [[_encode(c) for c in w.num.coeffs], [_encode(c) for c in w.den.coeffs]]


# --------------------------------------------------------------------------
# per-workload operations: build(case) -> (call, plain); call() is the timed
# op and returns the program's result, plain(result) turns it into JSON data


def witt_ops(entry):
    from wittlink.rings import Polynomial, RingSpec
    from wittlink.witt import GroupRingElement, WittVector

    def spec_of(ring):
        kind = ring[0]
        if kind == "Z":
            return RingSpec.integers()
        if kind == "Q":
            return RingSpec.rationals()
        if kind == "Fp":
            return RingSpec.prime_field(ring[1])
        if kind == "Zn":
            return RingSpec.mod_ring(ring[1])
        return RingSpec.cyclotomic(ring[1])

    def vector(spec, drawn):
        num, den = (Polynomial.from_payloads(spec, part) for part in drawn["parts"])
        return WittVector.from_polys(num, den)

    mul, frob, add = entry("witt", "witt_mul"), entry("witt", "frobenius"), entry("witt", "witt_add")
    ghost = entry("witt", "ghost")
    encode, decode = entry("witt", "groupring_to_witt"), entry("witt", "witt_to_groupring")

    def build(case):
        spec = spec_of(case["ring"])
        op = case["op"]
        if op == "roundtrip":
            x = GroupRingElement.of(spec, case["pairs"])
            return (lambda: decode(encode(x)),
                    lambda y: [str(y.spec), [[_encode(b), m] for b, m in y.terms]])
        f = vector(spec, case["f"])
        if op == "ghost":
            N = case["N"]
            return lambda: ghost(f, N), lambda gh: [_encode(c) for c in gh.components]
        if op == "frob":
            n = case["n"]
            return lambda: frob(n, f), _encode_witt
        g = vector(spec, case["g"])
        fn = mul if op == "mul" else add
        return lambda: fn(f, g), _encode_witt

    return build


def reciprocity_ops(entry):
    main = entry("cli", "main")
    texts: dict = {}  # digest -> stdout, sent back once per distinct output

    def build(case):
        argv = list(case["argv"])

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return code, buf.getvalue()

        def plain(result):
            code, text = result
            digest = hashlib.sha256(text.encode()).hexdigest()
            texts.setdefault(digest, text)
            return {"code": code, "sha256": digest}

        return call, plain

    build.texts = texts
    return build


def bridge_ops(entry):
    from wittlink.cft import AbelianField

    compare = entry("bridge", "bridge_compare")
    fields: dict = {}

    def plain(r):
        return [
            r.conductor,
            [r.deninger_side.count, r.deninger_side.covering_degree],
            [r.cc_side.count, r.cc_side.covering_degree],
            [r.deninger_monodromy.rep, r.deninger_monodromy.modulus],
            [r.cc_monodromy.rep, r.cc_monodromy.modulus],
            [list(s) for s in r.psi_samples],
            [r.monodromy_match, r.psi_zero_ok, r.anti_equivariance, r.match]
            + [ok for _, ok in r.equivariance_checks],
        ]

    def build(case):
        key = (case["level"], tuple(case["subgroup"]))
        if key not in fields:
            fields[key] = AbelianField(case["level"], frozenset(case["subgroup"]))
        F, p, m, seed = fields[key], case["prime"], case["m"], case["seed"]
        return lambda: compare(F, p, m, seed=seed, samples=workloads.BRIDGE_SAMPLES), plain

    return build


OPS = {"witt-arith": witt_ops, "reciprocity-cli": reciprocity_ops, "bridge-grid": bridge_ops}


# --------------------------------------------------------------------------


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    ``VmHWM`` belongs to the image that exec started; ``ru_maxrss`` also
    keeps the peak of the parent's image, which a spawned child inherits
    until exec, so it would count the benchmark's own memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    length = ap.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float, help="whole rounds until this many seconds have passed")
    length.add_argument("--rounds", type=int, help="exactly this many rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the kept spans (traced runs)")
    ns = ap.parse_args()

    import wittlink.cli  # noqa: F401  (the whole package, as a CLI user loads it)

    tracer = None
    if ns.trace:
        from tracing import Tracer

        tracer = Tracer()

    def entry(module: str, name: str):
        fn = getattr(importlib.import_module(f"wittlink.{module}"), name)
        return tracer.wrap(fn, f"{module}.{name}", root=True) if tracer else fn

    build = OPS[ns.workload](entry)
    ops = [build(case) for case in workloads.cases(ns.workload, ns.seed)]

    if tracer:
        from tracing import cache_counters

        tracer.install()
        cache_before = cache_counters()

    best = array("d", [math.inf] * len(ops))
    first: list = [None] * len(ops)
    failures: list = []
    attempted = rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for i, (call, plain) in enumerate(ops):
            attempted += 1
            t = clock()
            try:
                result = call()
            except Exception:  # a failed op is reported and the run goes on
                failures.append({"op": i, "round": rounds, "error": traceback.format_exc(limit=4)})
                continue
            elapsed = clock() - t
            if elapsed < best[i]:
                best[i] = elapsed
            out = plain(result)
            if rounds == 0:
                first[i] = out
            elif out != first[i]:
                failures.append({"op": i, "round": rounds, "error": "output differs from round 0"})
        rounds += 1
        if ns.rounds is not None:
            if rounds >= ns.rounds:
                break
        elif clock() - start >= ns.seconds:
            break
    phase_s = clock() - start

    result = {
        "phase_s": phase_s,
        "rounds": rounds,
        "attempted": attempted,
        "best": [x if x < math.inf else None for x in best],  # None: the op never succeeded
        "failures": failures,
        "outputs": first,
        "texts": getattr(build, "texts", {}),
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer:
        cache_after = cache_counters()
        tracer.uninstall()
        result["trace"] = {
            "aggregates": tracer.aggregates(),
            "bindings": tracer.bindings,
            "cache": {k: cache_after[k] - cache_before[k] for k in ("hits", "misses")},
            "spans_written": tracer.write_spans(ns.spans) if ns.spans else 0,
        }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
