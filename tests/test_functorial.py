"""Cross-ring coherence: coefficient maps commute with every Witt operation.

A ring map R -> R' induces a map on rational Witt vectors by acting on
coefficients.  Reducing Z -> Z/n and Z -> F_p before or after an operation
must agree; this holds each operation over Z against the same operation
computed over Z/n or F_p.  Galois conjugation of cyclotomic coefficients
is likewise a ring automorphism and must commute with (+), (x), and the
power operators.
"""

import random

from wittlink.rings import Polynomial, RingElement, RingSpec
from wittlink.witt import (
    WittVector,
    frobenius,
    galois_conjugate,
    ghost,
    split_counit,
    teichmuller,
    witt_add,
    witt_mul,
)

Z = RingSpec.integers()
C5 = RingSpec.cyclotomic(5)


def reduce_witt(f: WittVector, target: RingSpec) -> WittVector:
    num = Polynomial.from_ints(target, f.num.coeffs)
    den = Polynomial.from_ints(target, f.den.coeffs)
    return WittVector.from_polys(num, den)


def random_witt(rng, dmax=3, bound=6):
    def part():
        deg = rng.randint(0, dmax)
        return [1] + [rng.randint(-bound, bound) for _ in range(deg)]

    return WittVector.from_polys(Polynomial.from_ints(Z, part()), Polynomial.from_ints(Z, part()))


def test_reduction_commutes_with_operations():
    rng = random.Random(31)
    targets = [RingSpec.mod_ring(10), RingSpec.mod_ring(12), RingSpec.prime_field(7)]
    for _ in range(25):
        f, g = random_witt(rng), random_witt(rng)
        n = rng.choice((2, 3))
        for target in targets:
            rf, rg = reduce_witt(f, target), reduce_witt(g, target)
            assert reduce_witt(witt_add(f, g), target) == witt_add(rf, rg)
            assert reduce_witt(witt_mul(f, g), target) == witt_mul(rf, rg)
            assert reduce_witt(frobenius(n, f), target) == frobenius(n, rf)


def test_reduction_commutes_with_ghost_and_counit():
    rng = random.Random(32)
    for _ in range(25):
        f = random_witt(rng)
        for target in (RingSpec.mod_ring(9), RingSpec.prime_field(5)):
            rf = reduce_witt(f, target)
            assert ghost(rf, 8).components == tuple(
                target.from_int(c) for c in ghost(f, 8).components
            )
            assert split_counit(rf).payload == target.from_int(split_counit(f).payload)


def zeta(k: int):
    acc = C5.one()
    base = C5.canon((0, 1, 0, 0))
    for _ in range(k % 5):
        acc = C5.mul(acc, base)
    return acc


def test_cyclotomic_teichmuller_products():
    # [zeta^a] (x) [zeta^b] = [zeta^(a+b)]
    for a in range(1, 5):
        for b in range(1, 5):
            ta = teichmuller(RingElement.of(C5, zeta(a)))
            tb = teichmuller(RingElement.of(C5, zeta(b)))
            assert witt_mul(ta, tb) == teichmuller(RingElement.of(C5, zeta(a + b)))


def test_cyclotomic_frobenius_on_roots_of_unity():
    for a in range(1, 5):
        for n in (2, 3, 5, 6):
            f = teichmuller(RingElement.of(C5, zeta(a)))
            assert frobenius(n, f) == teichmuller(RingElement.of(C5, zeta(a * n)))


def test_conjugation_is_witt_ring_automorphism():
    rng = random.Random(33)

    def rand_cyc():
        def part():
            deg = rng.randint(0, 2)
            return [C5.one()] + [
                C5.canon(tuple(rng.randint(-2, 2) for _ in range(4))) for _ in range(deg)
            ]

        return WittVector.from_polys(
            Polynomial.from_payloads(C5, part()), Polynomial.from_payloads(C5, part())
        )

    for _ in range(15):
        f, g = rand_cyc(), rand_cyc()
        for sigma in (2, 3, 4):
            conj = lambda h: galois_conjugate(h, sigma)
            assert conj(witt_add(f, g)) == witt_add(conj(f), conj(g))
            assert conj(witt_mul(f, g)) == witt_mul(conj(f), conj(g))
            assert conj(frobenius(2, f)) == frobenius(2, conj(f))
