"""The acceptance suites: property- and oracle-based, fully reproducible.

Each suite function takes explicit parameters (grids, sample counts, a
seed), performs exact checks, and returns a SuiteResult with pass/fail,
check counts, and wall time.  run_all drives every suite from one
VerifyConfig; the command line and the test suite both call into here so
they can never drift apart.

All randomness flows from the seed through random.Random; all comparisons
are exact (integers, tuples, cross-multiplied polynomial identities).  The
independent routes the suites compare against come from ``oracles``, which
no other module of the package imports.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .bridge import (
    bridge_compare,
    check_anti_equivariance,
    check_frobenius_equivariance,
    check_galois_equivariance,
    level_reduction_compatible,
)
from .cft import (
    AbelianField,
    ModUnit,
    all_subgroups,
    cyclotomic_field,
    unit_group,
)
from .oracles import _charpoly_frobenius, _charpoly_product, cyclotomic_factor_degrees, series_coefficients
from .orbits import DeningerPointFL, odd_prime_pairs, reciprocity_rows
from .rings import (
    Polynomial,
    RingElement,
    RingSpec,
    euler_phi,
    primes_below,
)
from .witt import (
    GroupRingElement,
    WittVector,
    frobenius,
    galois_fixed_check,
    ghost,
    groupring_to_witt,
    split_counit,
    teichmuller,
    witt_to_groupring,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: int
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: {self.checks} checks, {self.failures} failures, {self.seconds:.2f}s{extra}"


class _Tally:
    """Check and failure counts of one suite, timed from the tally's creation."""

    def __init__(self):
        self.t0 = time.time()
        self.checks = self.failures = 0

    def expect(self, cond: bool) -> None:
        self.checks += 1
        self.failures += not cond

    def result(self, name: str, detail: str = "") -> SuiteResult:
        return SuiteResult(
            name, self.failures == 0, self.checks, self.failures, time.time() - self.t0, detail
        )


@dataclass(frozen=True)
class VerifyConfig:
    """Grid bounds for the acceptance run; the defaults are the full grids."""

    seed: int = 20240901
    witt_samples: int = 200
    descent_samples: int = 100
    cyclotomic_bound: int = 40
    max_prime: int = 50
    reciprocity_prime_bound: int = 100
    equivariance_cases: int = 500
    roundtrip_samples: int = 50

    @classmethod
    def quick(cls) -> "VerifyConfig":
        return cls(
            witt_samples=40,
            descent_samples=20,
            cyclotomic_bound=12,
            max_prime=20,
            reciprocity_prime_bound=30,
            equivariance_cases=60,
            roundtrip_samples=10,
        )


def _random_witt(rng: random.Random, spec: RingSpec) -> WittVector:
    def part() -> Polynomial:
        deg = rng.randint(0, 4)
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(deg)]
        while deg > 0 and coeffs[-1] == 0:
            coeffs[-1] = rng.randint(1, 9) * rng.choice((1, -1))
        return Polynomial.from_ints(spec, coeffs)

    return WittVector.from_polys(part(), part())


# --------------------------------------------------------------------------
# criterion 1: ring laws, direct and through the ghost oracle


def criterion_witt_ring_laws(seed: int, samples: int) -> SuiteResult:
    tally = _Tally()
    rng = random.Random(seed)
    Z = RingSpec.integers()
    vectors = [_random_witt(rng, Z) for _ in range(samples)]
    N = 12
    for i in range(0, samples - 1, 2):
        f, g = vectors[i], vectors[i + 1]
        gf, gg = ghost(f, 3 * N), ghost(g, 3 * N)
        s, p = f + g, f * g
        tally.expect(s == g + f)
        tally.expect(p == g * f)
        gs, gp = ghost(s, N), ghost(p, N)
        tally.expect(
            gs.components == tuple(Z.add(a, b) for a, b in zip(gf.components[:N], gg.components[:N]))
        )
        # the product and Frobenius come from ghost components themselves, so
        # each is also held against the characteristic polynomials: ghosts alone would be circular
        tally.expect(
            p == _charpoly_product(f, g)
            and gp.components == tuple(Z.mul(a, b) for a, b in zip(gf.components[:N], gg.components[:N]))
        )
        n = rng.choice((2, 3))
        Ff = frobenius(n, f)
        tally.expect(
            Ff == _charpoly_frobenius(n, f)
            and ghost(Ff, N).components == tuple(gf.components[n * k - 1] for k in range(1, N + 1))
        )
        tally.expect(frobenius(n, s) == Ff + frobenius(n, g))
        tally.expect(frobenius(n, p) == Ff * frobenius(n, g))
    for i in range(0, samples - 2, 3):
        f, g, h = vectors[i], vectors[i + 1], vectors[i + 2]
        tally.expect((f + g) + h == f + (g + h))
        lhs = (f * g) * h
        rhs = f * (g * h)
        tally.expect(lhs == rhs)
        tally.expect(f * (g + h) == (f * g) + (f * h))
        gf, gg, gh = ghost(f, N), ghost(g, N), ghost(h, N)
        tally.expect(ghost(lhs, N).components == (gf * gg * gh).components)
        tally.expect(
            ghost(f * (g + h), N).components == (gf * (gg + gh)).components
        )
    return tally.result("witt-ring-laws", f"{samples} vectors, ghost N={N}")


# --------------------------------------------------------------------------
# criterion 2: Teichmueller and the splitting counit


def criterion_teichmuller_split(seed: int) -> SuiteResult:
    tally = _Tally()
    rng = random.Random(seed)
    Z = RingSpec.integers()
    for a in range(-5, 6):
        ea = RingElement.of(Z, a)
        tally.expect(split_counit(teichmuller(ea)) == ea)
        for b in range(-5, 6):
            eb = RingElement.of(Z, b)
            tally.expect(teichmuller(ea) * teichmuller(eb) == teichmuller(ea * eb))
    for _ in range(60):
        f, g = _random_witt(rng, Z), _random_witt(rng, Z)
        tally.expect(split_counit(f + g) == split_counit(f) + split_counit(g))
        tally.expect(split_counit(f * g) == split_counit(f) * split_counit(g))
    return tally.result("teichmuller-split")


# --------------------------------------------------------------------------
# criterion 3: descent over cyclotomic coefficient rings


def _random_cyclotomic_witt(rng: random.Random, spec: RingSpec, rational: bool) -> WittVector:
    d = len(spec.zero())

    def payload():
        if rational:
            return spec.from_int(rng.randint(-3, 3))
        return spec.canon(tuple(rng.randint(-2, 2) for _ in range(d)))

    def part() -> Polynomial:
        deg = rng.randint(0, 3)
        coeffs = [spec.one()] + [payload() for _ in range(deg)]
        return Polynomial.from_payloads(spec, coeffs)

    return WittVector.from_polys(part(), part())


def _orbit_product(spec: RingSpec, seed_unit: int) -> WittVector:
    """prod over the units k of (1 - zeta^(seed*k) t): a product over a Galois orbit."""
    n = spec.n
    zeta = spec.canon(tuple(1 if i == 1 else 0 for i in range(len(spec.zero()))))
    num = Polynomial.one(spec)
    for k in unit_group(n):
        power = spec.pow_payload(zeta, seed_unit * k % n)
        num = num * Polynomial.from_payloads(spec, [spec.one(), spec.neg(power)])
    return WittVector.from_polys(num)


def _is_rational_series(f: WittVector) -> bool:
    """Independent oracle: the truncated power series has integer entries.

    Precision deg(num) + deg(den) + 1 decides equality with every
    conjugate, hence membership in the fixed subring.
    """
    K = f.num.degree + f.den.degree + 1
    for c in series_coefficients(f, K):
        if any(v != 0 for v in c[1:]):
            return False
    return True


def criterion_descent(seed: int, per_level: int) -> SuiteResult:
    tally = _Tally()
    rng = random.Random(seed)
    for n in (3, 4, 5):
        spec = RingSpec.cyclotomic(n)
        for i in range(per_level):
            rational = i % 3 == 0
            f = _random_cyclotomic_witt(rng, spec, rational)
            tally.expect(galois_fixed_check(f) == _is_rational_series(f))
        for u in unit_group(n):
            tally.expect(galois_fixed_check(_orbit_product(spec, u)))
    return tally.result("cyclotomic-descent")


# --------------------------------------------------------------------------
# criterion 4: splitting invariants against the factorization oracle


def criterion_split_double_oracle(n_max: int, p_max: int) -> SuiteResult:
    tally = _Tally()
    for n in range(1, n_max + 1):
        F = cyclotomic_field(n)
        fibers = F.fibers
        for p in primes_below(p_max):
            if math.gcd(p, n) != 1:
                continue
            fibers.check(p)
            G, art = fibers.artin(p)
            f = G.element_order(art)
            r = F.degree // f
            tally.expect((f, r) == cyclotomic_factor_degrees(n, p) and f * r == euler_phi(n))
    return tally.result("split-double-oracle", f"n <= {n_max}, p < {p_max}")


# --------------------------------------------------------------------------
# criterion 5: the quadratic reciprocity table


def criterion_reciprocity(prime_bound: int) -> SuiteResult:
    tally = _Tally()
    for row in reciprocity_rows(odd_prime_pairs(prime_bound)):
        tally.expect(row.agree)
    return tally.result("reciprocity-table", f"{tally.checks} ordered pairs of odd primes < {prime_bound}")


# --------------------------------------------------------------------------
# criterion 6: the bridge over the full subfield grid


def second_level(c: int, p: int) -> int:
    """The auxiliary level 2c or 3c, whichever is coprime to p first."""
    for k in (2, 3):
        if math.gcd(p, k * c) == 1:
            return k * c
    raise AssertionError("one of 2c, 3c is coprime to p")  # p > 3 ruled out above


def criterion_bridge_grid(n_max: int, p_max: int, seed: int) -> SuiteResult:
    tally = _Tally()
    for n in range(1, n_max + 1):
        for H in all_subgroups(n):
            F = AbelianField(n, H)
            c = F.conductor
            for p in primes_below(p_max):
                if p in F.ramified:
                    continue
                for m in {c, second_level(c, p)}:
                    tally.expect(bridge_compare(F, p, m, seed=seed, samples=4).match)
    return tally.result("bridge-grid", f"subfields of cyclotomic levels <= {n_max}, p < {p_max}")


# --------------------------------------------------------------------------
# criterion 7: equivariance and level reduction


def criterion_equivariance(seed: int, cases: int) -> SuiteResult:
    tally = _Tally()
    rng = random.Random(seed)
    small_primes = [2, 3, 5, 7, 11, 13]

    def random_point() -> DeningerPointFL:
        p = rng.choice(small_primes)
        while True:
            m = rng.randint(2, 40)
            if math.gcd(m, p) == 1:
                break
        a = rng.choice(unit_group(m))
        n = rng.randint(1, 100)
        return DeningerPointFL(p, ModUnit(a, m), n, rng.randint(1, 3))

    for _ in range(cases):
        x = random_point()
        k = rng.randint(1, 50)
        while k % x.prime == 0:
            k = rng.randint(1, 50)
        tally.expect(check_frobenius_equivariance(x, k))
    for _ in range(cases):
        x = random_point()
        tally.expect(check_galois_equivariance(x, rng.choice(unit_group(x.unit.modulus))))
    for _ in range(cases):
        x = random_point()
        t = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        tally.expect(check_anti_equivariance(x, t))
        tally.expect(check_anti_equivariance(x, Fraction(x.prime)))
    # level-reduction compatibility on a small field grid
    grid = [
        (cyclotomic_field(5), 7, 5, 45),
        (cyclotomic_field(5), 2, 5, 15),
        (cyclotomic_field(8), 3, 8, 40),
        (cyclotomic_field(12), 5, 12, 36),
        (AbelianField(5, frozenset({1, 4})), 11, 5, 15),
        (AbelianField(12, frozenset({1, 11})), 5, 12, 24),
        (AbelianField(7, frozenset({1, 2, 4})), 3, 7, 14),
    ]
    for F, p, m_small, m_big in grid:
        tally.expect(level_reduction_compatible(F, p, m_small, m_big))
    return tally.result("equivariance")


# --------------------------------------------------------------------------
# criterion 8: group-ring roundtrip


def criterion_groupring_roundtrip(seed: int, per_prime: int) -> SuiteResult:
    tally = _Tally()
    rng = random.Random(seed)
    for p in (5, 7, 11):
        spec = RingSpec.prime_field(p)
        for _ in range(per_prime):
            size = rng.randint(0, min(4, p - 1))
            bases = rng.sample(range(1, p), size)
            pairs = [(b, rng.choice([-3, -2, -1, 1, 2, 3])) for b in bases]
            x = GroupRingElement.of(spec, pairs)
            tally.expect(witt_to_groupring(groupring_to_witt(x), 1) == x)
    return tally.result("groupring-roundtrip")


# --------------------------------------------------------------------------
# driver


def run_all(config: VerifyConfig | None = None) -> list[SuiteResult]:
    cfg = config or VerifyConfig()
    return [
        criterion_witt_ring_laws(cfg.seed, cfg.witt_samples),
        criterion_teichmuller_split(cfg.seed + 1),
        criterion_descent(cfg.seed + 2, cfg.descent_samples),
        criterion_split_double_oracle(cfg.cyclotomic_bound, cfg.max_prime),
        criterion_reciprocity(cfg.reciprocity_prime_bound),
        criterion_bridge_grid(cfg.cyclotomic_bound, cfg.max_prime, cfg.seed + 3),
        criterion_equivariance(cfg.seed + 4, cfg.equivariance_cases),
        criterion_groupring_roundtrip(cfg.seed + 5, cfg.roundtrip_samples),
    ]
