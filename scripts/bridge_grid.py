#!/usr/bin/env python3
"""Sweep the fiber comparison over every subfield of small cyclotomic fields.

For each level n up to the bound, each subgroup of (Z/n)^*, each
unramified prime below the prime bound, and two auxiliary levels
(conductor and a coprime multiple), build the report comparing the
covering-side and flow-side fiber structures and count matches.

Usage:
    python scripts/bridge_grid.py [--level-bound 24] [--max-prime 30] [-v]
"""

import argparse
import sys
import time

from wittlink.bridge import bridge_compare
from wittlink.cft import AbelianField, all_subgroups, conductor, ramified_set
from wittlink.rings import primes_below
from wittlink.verify import second_level


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level-bound", type=int, default=24)
    ap.add_argument("--max-prime", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-v", "--verbose", action="store_true")
    ns = ap.parse_args()

    t0 = time.time()
    reports = mismatches = fields = 0
    for n in range(1, ns.level_bound + 1):
        for H in all_subgroups(n):
            F = AbelianField(n, H)
            fields += 1
            c = conductor(F)
            for p in primes_below(ns.max_prime):
                if p in ramified_set(F):
                    continue
                for m in {c, second_level(c, p)}:
                    rep = bridge_compare(F, p, m, seed=ns.seed, samples=4)
                    reports += 1
                    if not rep.match:
                        mismatches += 1
                        print(f"MISMATCH {F.describe()} p={p} m={m}")
                    elif ns.verbose:
                        print(
                            f"{F.describe():<28} p={p:<3} m={m:<4} "
                            f"r={rep.cc_side.count:<3} f={rep.cc_side.covering_degree:<3} ok"
                        )
    print(
        f"{reports} reports over {fields} field presentations "
        f"(levels <= {ns.level_bound}, p < {ns.max_prime}); "
        f"{mismatches} mismatches; {time.time() - t0:.2f}s"
    )
    return 0 if mismatches == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
