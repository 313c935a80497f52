"""Seeded inputs for the three workloads, as plain data.

``cases(workload, seed)`` returns one round: the list of operations the
benchmark issues, in order, each a dict holding the program's inputs and
the facts the oracles need.  The same seed gives the same round; the shape
of a round (operation kinds, rings, degrees, grid) never depends on the
seed, so the amount of work per round stays the same from seed to seed and
only the values drawn change.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from oracles import Ring, bridge_expectation, conductor, from_roots, second_level, sieve, subgroups

DEFAULT_SEED = 20241017

# --------------------------------------------------------------------------
# witt-arith
#
# Rings: Z, Q, F_p, Z/n and Z[zeta_n].  A shape is (kind, deg num, deg den)
# with kind "roots" (parts built from a drawn inverse-root multiset) or
# "dense" (drawn coefficients, Z and Q only).  Degrees run 1..8; the large
# products sit on Z and F_p, where one op stays below half a second.

Z, Q = ("Z",), ("Q",)
F13, F101 = ("Fp", 13), ("Fp", 101)
Z12, Z60 = ("Zn", 12), ("Zn", 60)
C5, C7, C8 = ("C", 5), ("C", 7), ("C", 8)

WITT_SCHEDULE = [
    # op, ring, f shape, g shape or Frobenius index / ghost precision
    ("mul", Z, ("roots", 2, 1), ("roots", 2, 1)),
    ("mul", Z, ("roots", 4, 2), ("roots", 3, 1)),
    ("mul", Z, ("roots", 7, 1), ("roots", 7, 1)),
    ("mul", Z, ("dense", 5, 2), ("dense", 4, 1)),
    ("mul", Q, ("roots", 3, 1), ("roots", 2, 1)),
    ("mul", Q, ("dense", 3, 1), ("dense", 2, 1)),
    ("mul", F101, ("roots", 5, 3), ("roots", 4, 2)),
    ("mul", F13, ("roots", 5, 2), ("roots", 3, 1)),
    ("mul", Z60, ("roots", 4, 1), ("roots", 3, 2)),
    ("mul", Z12, ("roots", 3, 3), ("roots", 2, 2)),
    ("mul", C5, ("roots", 3, 1), ("roots", 2, 1)),
    ("mul", C7, ("roots", 2, 1), ("roots", 2, 1)),
    ("mul", C8, ("roots", 2, 2), ("roots", 2, 1)),
    ("frob", Z, ("roots", 8, 4), 3),
    ("frob", Z, ("dense", 6, 3), 2),
    ("frob", Z, ("roots", 1, 1), 7),
    ("frob", Q, ("roots", 5, 2), 2),
    ("frob", Q, ("dense", 4, 2), 3),
    ("frob", F101, ("roots", 7, 5), 5),
    ("frob", ("Fp", 31), ("roots", 8, 8), 7),
    ("frob", Z60, ("roots", 6, 2), 3),
    ("frob", Z12, ("roots", 5, 3), 2),
    ("frob", C5, ("roots", 4, 2), 2),
    ("frob", C7, ("roots", 3, 1), 3),
    ("frob", C8, ("roots", 4, 4), 5),
    ("add", Z, ("roots", 8, 6), ("roots", 7, 5)),
    ("add", Z, ("dense", 8, 8), ("dense", 6, 7)),
    ("add", Q, ("roots", 6, 4), ("roots", 5, 3)),
    ("add", Q, ("dense", 5, 5), ("dense", 4, 3)),
    ("add", F101, ("roots", 8, 8), ("roots", 8, 7)),
    ("add", F13, ("roots", 3, 2), ("roots", 4, 2)),
    ("add", Z60, ("roots", 8, 3), ("roots", 6, 6)),
    ("add", Z12, ("roots", 3, 2), ("roots", 3, 2)),
    ("add", C5, ("roots", 4, 3), ("roots", 3, 2)),
    ("add", C7, ("roots", 3, 2), ("roots", 2, 2)),
    ("add", C8, ("roots", 4, 2), ("roots", 3, 2)),
    ("ghost", Z, ("roots", 8, 8), 24),
    ("ghost", Z, ("dense", 7, 5), 20),
    ("ghost", Q, ("roots", 6, 6), 16),
    ("ghost", Q, ("dense", 5, 4), 16),
    ("ghost", F101, ("roots", 8, 7), 24),
    ("ghost", F13, ("roots", 5, 5), 12),
    ("ghost", Z60, ("roots", 7, 3), 20),
    ("ghost", Z12, ("roots", 4, 6), 12),
    ("ghost", C5, ("roots", 4, 4), 12),
    ("ghost", C7, ("roots", 3, 3), 10),
    ("ghost", C8, ("roots", 6, 2), 16),
    ("roundtrip", ("Fp", 7), ("roots", 3, 2), None),
    ("roundtrip", ("Fp", 11), ("roots", 5, 3), None),
    ("roundtrip", ("Fp", 13), ("roots", 6, 6), None),
    ("roundtrip", ("Fp", 31), ("roots", 8, 4), None),
    ("roundtrip", ("Fp", 61), ("roots", 4, 8), None),
    ("roundtrip", ("Fp", 101), ("roots", 8, 8), None),
]


def _root_pool(ring, need: int) -> list:
    """Candidate inverse roots, smallest first, about ``need`` of them.

    Roots of one draw are taken without replacement, so numerator and
    denominator never share a root; a pool barely larger than the draw
    keeps coefficient sizes, and so the cost of an op, nearly the same from
    seed to seed.
    """
    kind = ring[0]
    half = (need + 1) // 2
    if kind == "Z":
        return [s * a for a in range(1, half + 1) for s in (1, -1)]
    if kind == "Q":
        sizes = [Fraction(a, b) for b in range(1, 5) for a in range(1, 5) if math.gcd(a, b) == 1]
        sizes.sort(key=lambda x: (max(x.numerator, x.denominator), x))
        return [s * a for a in sizes[:half] for s in (1, -1)]
    if kind in ("Fp", "Zn"):
        return list(range(1, ring[1]))
    R, n = Ring(ring), ring[1]  # C: the roots of unity +-zeta^k
    return sorted({R.of([s if i == k else 0 for i in range(n)]) for k in range(n) for s in (1, -1)})


def _draw_roots(rng: random.Random, ring, counts) -> list[list]:
    """Distinct roots for each count in ``counts`` (numerator, denominator, ...).

    Over Z[zeta_n] numerator roots are roots of unity and denominator roots
    twice a root of unity.  In every result the roots of the numerator and
    of the denominator then differ in absolute value under each embedding
    (1 or 4 against 2 for a product, 1 against 2 for a sum, 1 against 2^n
    for Frobenius), so no result has a factor common to both parts: the
    cyclotomic normalization, which fails on some such factors (see
    CHANGES.md), is never asked to cancel one.
    """
    if ring[0] == "C":
        pool = _root_pool(ring, 0)
        num = rng.sample(pool, sum(counts[0::2]))
        den = [tuple(2 * v for v in x) for x in rng.sample(pool, sum(counts[1::2]))]
        streams = [iter(num), iter(den)]
        return [[next(streams[i % 2]) for _ in range(c)] for i, c in enumerate(counts)]
    drawn = iter(rng.sample(_root_pool(ring, sum(counts)), sum(counts)))
    return [[next(drawn) for _ in range(c)] for c in counts]


def _draw_dense(rng: random.Random, ring, degree: int) -> list:
    if ring[0] == "Z":
        draw = lambda: rng.randint(-9, 9)
    else:
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    coeffs = [1] + [draw() for _ in range(degree)]
    while coeffs[-1] == 0:
        coeffs[-1] = draw()
    return [Ring(ring).of(c) for c in coeffs]


def _draw_vectors(rng: random.Random, ring, shapes) -> list[dict]:
    """Witt vectors: each with its truth (for the oracles) and parts (for the program).

    Root-built vectors of one op are drawn together, so that no root is
    shared between any two parts.
    """
    R = Ring(ring)
    if shapes[0][0] == "dense":
        return [{"dense": d, "parts": d}
                for d in ((_draw_dense(rng, ring, dn), _draw_dense(rng, ring, dd)) for _, dn, dd in shapes)]
    roots = _draw_roots(rng, ring, [d for _, dn, dd in shapes for d in (dn, dd)])
    pairs = [(roots[2 * i], roots[2 * i + 1]) for i in range(len(shapes))]
    return [{"roots": rs, "parts": tuple(from_roots(R, part) for part in rs)} for rs in pairs]


def _draw_groupring(rng: random.Random, p: int, dn: int, dd: int) -> list:
    """Unit bases mod p with multiplicities: dn of them counted up, dd down."""
    pos = [rng.randrange(1, p) for _ in range(dn)]
    neg = [b for b in (rng.randrange(1, p) for _ in range(dd)) if b not in pos]
    return [(b, 1) for b in pos] + [(b, -1) for b in neg]


# Each slot is drawn this many times per round, so that the latency
# quantiles rest on many independent inputs rather than on one draw each.
WITT_DRAWS = 6


def witt_cases(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for op, ring, shape, extra in WITT_SCHEDULE * WITT_DRAWS:
        case = {"op": op, "ring": ring}
        if op == "roundtrip":
            case["pairs"] = _draw_groupring(rng, ring[1], shape[1], shape[2])
        elif op in ("mul", "add"):
            case["f"], case["g"] = _draw_vectors(rng, ring, [shape, extra])
        else:
            (case["f"],) = _draw_vectors(rng, ring, [shape])
            case["n" if op == "frob" else "N"] = extra
        out.append(case)
    return out


# --------------------------------------------------------------------------
# reciprocity-cli
#
# B = 150 puts level-4q fields with subgroups of up to 148 elements in the
# table.  The table is fixed by B, so the seed does not enter this workload.

RECIPROCITY_BOUND = 150


def reciprocity_cases(seed: int) -> list[dict]:
    argv = ["--format", "json", "--jobs", "2", "reciprocity", "--max-prime", str(RECIPROCITY_BOUND)]
    return [{"argv": argv, "bound": RECIPROCITY_BOUND}]


# --------------------------------------------------------------------------
# bridge-grid
#
# Every subgroup H of (Z/n)^* for n <= N, every prime p < P unramified in
# the field, and the levels m = conductor and the smaller of 2c, 3c prime
# to p.  The grid is fixed; the seed sets the sampling seed of each report.

GRID_LEVEL_BOUND = 40
GRID_PRIME_BOUND = 50
BRIDGE_SAMPLES = 4


def bridge_cases(seed: int) -> list[dict]:
    rng = random.Random(seed)
    primes = sieve(GRID_PRIME_BOUND)
    out = []
    for n in range(1, GRID_LEVEL_BOUND + 1):
        for H in subgroups(n):
            c = conductor(n, H)
            for p in primes:
                if c % p == 0:
                    continue  # ramified
                exp = bridge_expectation(n, H, c, p)
                for m in sorted({c, second_level(c, p)}):
                    out.append({
                        "level": n, "subgroup": sorted(H), "prime": p, "m": m,
                        "seed": rng.randrange(1 << 30), "expect": exp,
                    })
    return out


CASES = {
    "witt-arith": witt_cases,
    "reciprocity-cli": reciprocity_cases,
    "bridge-grid": bridge_cases,
}


def cases(workload: str, seed: int) -> list[dict]:
    return CASES[workload](seed)
