"""Rational Witt vectors: ring operations, ghost oracle, group-ring maps, descent."""

import functools
import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from wittlink.errors import DomainViolation, NotSplit, SpecMismatch, UnsupportedRing
from wittlink.rings import Polynomial, RingElement, RingSpec
from wittlink.witt import (
    GhostVector,
    GroupRingElement,
    WittVector,
    frobenius,
    galois_conjugate,
    galois_fixed_check,
    ghost,
    groupring_to_witt,
    split_counit,
    teichmuller,
    witt_add,
    witt_mul,
    witt_neg,
    witt_to_groupring,
)

Z = RingSpec.integers()
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
C5 = RingSpec.cyclotomic(5)


def vec(spec, num, den=(1,)):
    """num/den from integer coefficients, through WittVector.from_polys."""
    return WittVector.from_polys(Polynomial.from_ints(spec, num), Polynomial.from_ints(spec, den))


def w(num, den=(1,)):
    return vec(Z, num, den)


# --------------------------------------------------------------------------
# addition, negation


def test_add_is_series_product():
    assert witt_add(w([1, -2]), w([1, -3])) == w([1, -5, 6])


def test_add_identity():
    f = w([1, 3, -4, 7])
    assert witt_add(f, WittVector.zero(Z)) == f


def test_add_inverse_pair():
    f = w([1, -2])
    assert witt_add(f, w([1], [1, -2])) == WittVector.zero(Z)


def test_neg_is_reciprocal():
    f = w([1, -2])
    assert witt_neg(f) == w([1], [1, -2])
    assert witt_add(f, witt_neg(f)) == WittVector.zero(Z)
    assert witt_neg(witt_neg(f)) == f
    assert witt_neg(WittVector.zero(Z)) == WittVector.zero(Z)


def test_equality_ignores_representation():
    # cross-multiplied equality sees through unreduced parts
    raw = WittVector(Z, Polynomial.from_ints(Z, [1, -5, 6]), Polynomial.from_ints(Z, [1, -3]))
    assert raw == w([1, -2])
    assert raw != w([1, -3])


def test_normalization_reduces_common_factor():
    f = WittVector.from_polys(
        Polynomial.from_ints(Z, [1, -5, 6]), Polynomial.from_ints(Z, [1, -3])
    )
    assert f.num == Polynomial.from_ints(Z, [1, -2]) and f.den.is_one
    Q = RingSpec.rationals()
    g = vec(Q, [1, -5, 6], [1, -3])
    assert g.num == Polynomial.from_ints(Q, [1, -2]) and g.den.is_one
    F7 = RingSpec.prime_field(7)
    h = vec(F7, [1, -5, 6], [1, -3])
    assert h.num == Polynomial.from_ints(F7, [1, -2]) and h.den.is_one


# --------------------------------------------------------------------------
# multiplication


def test_mul_on_lifts():
    assert witt_mul(w([1, -2]), w([1, -3])) == w([1, -6])


def test_mul_degree_two():
    # ghost oracle: (5,13,35,...) * (2,4,8,...) matches (1-4t)(1-6t)
    lhs = witt_mul(w([1, -5, 6]), w([1, -2]))
    assert lhs == w([1, -10, 24])
    gl = ghost(lhs, 3)
    gr = ghost(w([1, -5, 6]), 3) * ghost(w([1, -2]), 3)
    assert gl.components == gr.components


def test_mul_identity_is_teichmuller_one():
    f = w([1, 4, -1, 3], [1, -5])
    assert witt_mul(f, WittVector.one(Z)) == f


def test_mul_with_denominators():
    f = w([1, -2], [1, -3])
    g = w([1, -5], [1, -7])
    prod = witt_mul(f, g)
    # inverse roots: (2 - 3) times (5 - 7) -> (10, 14; 15, 21) with signs
    expected = witt_mul(w([1, -2]), w([1, -5]))
    expected = witt_add(expected, witt_mul(w([1, -3]), w([1, -7])))
    expected = witt_add(expected, witt_neg(witt_mul(w([1, -2]), w([1, -7]))))
    expected = witt_add(expected, witt_neg(witt_mul(w([1, -3]), w([1, -5]))))
    assert prod == expected


# --------------------------------------------------------------------------
# Frobenius


def test_frobenius_on_lift():
    assert frobenius(2, w([1, -3])) == w([1, -9])


def test_frobenius_ghost_shift():
    f = w([1, -5, 6])
    assert frobenius(2, f) == w([1, -13, 36])
    g = ghost(f, 8)
    gf = ghost(frobenius(2, f), 4)
    assert gf.components == tuple(g.components[2 * k - 1] for k in range(1, 5))


def test_frobenius_identity_and_errors():
    f = w([1, 2, 3])
    assert frobenius(1, f) == f
    with pytest.raises(DomainViolation):
        frobenius(0, f)


def test_frobenius_composition():
    f = w([1, -2, 7], [1, 3])
    assert frobenius(2, frobenius(3, f)) == frobenius(6, f)


def test_frobenius_composition_random():
    rng = random.Random(17)
    for _ in range(10):
        f = w(
            [1] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))],
            [1] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))],
        )
        for n in range(1, 6):
            for m in range(1, 6):
                assert frobenius(n, frobenius(m, f)) == frobenius(n * m, f)


# --------------------------------------------------------------------------
# Teichmueller and the counit


def test_teichmuller_values():
    assert teichmuller(RingElement.of(Z, 2)) == w([1, -2])
    assert teichmuller(RingElement.of(Z, 0)) == WittVector.zero(Z)
    assert teichmuller(RingElement.of(Z, 1)) == WittVector.one(Z)


def test_teichmuller_multiplicative():
    for a in range(-5, 6):
        for b in range(-5, 6):
            ta = teichmuller(RingElement.of(Z, a))
            tb = teichmuller(RingElement.of(Z, b))
            assert witt_mul(ta, tb) == teichmuller(RingElement.of(Z, a * b))


def test_split_counit():
    assert split_counit(w([1, -5, 6])).payload == 5
    assert split_counit(WittVector.zero(Z)).payload == 0
    for a in range(-3, 4):
        assert split_counit(teichmuller(RingElement.of(Z, a))).payload == a


# --------------------------------------------------------------------------
# ghost components


def test_ghost_geometric():
    assert ghost(w([1, -2]), 3).components == (2, 4, 8)


def test_ghost_zero():
    assert ghost(WittVector.zero(Z), 3).components == (0, 0, 0)


def test_ghost_newton():
    assert ghost(w([1, -5, 6]), 2).components == (5, 13)


def test_ghost_default_precision_separates():
    f, g = w([1, -2, 5]), w([1, -2, 4])
    assert ghost(f).components != ghost(g).components


@given(st.lists(st.integers(-6, 6), max_size=3), st.lists(st.integers(-6, 6), max_size=3))
@settings(max_examples=50, deadline=None)
def test_ghost_additive(a, b):
    f, g = w([1] + a), w([1] + b)
    gf, gg = ghost(f, 10), ghost(g, 10)
    assert ghost(witt_add(f, g), 10).components == (gf + gg).components


def test_ghost_vectors_refuse_mixed_rings_and_lengths():
    a = GhostVector(Z, (1, 2, 3))
    assert (a + a).components == (2, 4, 6) and (a * a).components == (1, 4, 9)
    for op in (operator.add, operator.mul):
        with pytest.raises(SpecMismatch):
            op(a, GhostVector(F7, (1, 2)))
        with pytest.raises(DomainViolation):
            op(a, GhostVector(Z, (1, 2)))


def test_ghost_vectors_refuse_mixed_rings_and_lengths_under_python_O():
    # bare asserts here once let a Z ghost 1 2 3 plus an F_7 ghost 1 2 return 2 4 under -O
    code = (
        "import operator\n"
        "from wittlink.errors import DomainViolation, SpecMismatch\n"
        "from wittlink.rings import RingSpec\n"
        "from wittlink.witt import GhostVector\n"
        "Z, F7 = RingSpec.integers(), RingSpec.prime_field(7)\n"
        "a = GhostVector(Z, (1, 2, 3))\n"
        "for other, error in ((GhostVector(F7, (1, 2)), SpecMismatch), (GhostVector(Z, (1, 2)), DomainViolation)):\n"
        "    for op in (operator.add, operator.mul):\n"
        "        try:\n"
        "            op(a, other)\n"
        "        except error:\n"
        "            print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "raised\n" * 4), proc.stderr


# --------------------------------------------------------------------------
# group-ring correspondence


def test_groupring_to_witt_examples():
    Q = RingSpec.rationals()
    x = GroupRingElement.of(Q, [(2, 1), (3, 1)])
    assert groupring_to_witt(x) == vec(Q, [1, -5, 6])
    assert groupring_to_witt(GroupRingElement.of(Q, [])) == WittVector.zero(Q)
    assert groupring_to_witt(GroupRingElement.of(Q, [(2, -1)])) == vec(
        Q, [1], [1, -2]
    )


def test_groupring_requires_units():
    from wittlink.errors import NotAUnit

    with pytest.raises(NotAUnit):
        GroupRingElement.of(F5, [(0, 1)])


def test_witt_to_groupring_roots_mod7():
    f = vec(F7, [1, -5, 6])
    assert witt_to_groupring(f).terms == ((2, 1), (3, 1))


def test_witt_to_groupring_lift_of_one():
    assert witt_to_groupring(WittVector.one(F7)).terms == ((1, 1),)


def test_witt_to_groupring_not_split():
    with pytest.raises(NotSplit):
        witt_to_groupring(vec(F5, [1, 1, 1]), 1)


def test_witt_to_groupring_extension_decode():
    f = vec(F5, [1, 1, 1])
    x = witt_to_groupring(f, 2)
    assert x.spec == RingSpec.ext_field(5, 2)
    lifted = WittVector.from_polys(
        Polynomial.from_ints(x.spec, [1, 1, 1]), Polynomial.one(x.spec)
    )
    assert groupring_to_witt(x) == lifted


def test_groupring_map_is_ring_homomorphism():
    # sums go to Witt sums, convolutions to Witt products
    rng = random.Random(41)
    for p in (5, 7):
        spec = RingSpec.prime_field(p)
        for _ in range(15):
            x = GroupRingElement.of(
                spec, [(b, rng.choice([-2, -1, 1, 2])) for b in rng.sample(range(1, p), 2)]
            )
            y = GroupRingElement.of(
                spec, [(b, rng.choice([-2, -1, 1, 2])) for b in rng.sample(range(1, p), 2)]
            )
            assert groupring_to_witt(x + y) == witt_add(groupring_to_witt(x), groupring_to_witt(y))
            assert groupring_to_witt(x * y) == witt_mul(groupring_to_witt(x), groupring_to_witt(y))


def test_roundtrip_random():
    rng = random.Random(11)
    for p in (5, 7, 11):
        spec = RingSpec.prime_field(p)
        for _ in range(20):
            bases = rng.sample(range(1, p), rng.randint(0, 3))
            x = GroupRingElement.of(spec, [(b, rng.choice([-2, -1, 1, 2])) for b in bases])
            assert witt_to_groupring(groupring_to_witt(x)) == x


# --------------------------------------------------------------------------
# Galois descent


def zeta_power(k):
    e = [0, 0, 0, 0]
    e[k % 4] = 1  # valid for exponents < 4 only
    return tuple(e)


def orbit_product():
    num = Polynomial.one(C5)
    for k in (1, 2, 3):
        num = num * Polynomial.from_payloads(C5, [C5.one(), C5.neg(zeta_power(k))])
    # the k = 4 factor: zeta^4 = -1 - z - z^2 - z^3
    num = num * Polynomial.from_payloads(C5, [C5.one(), (1, 1, 1, 1)])
    return WittVector.from_polys(num)


def test_orbit_product_is_rational():
    f = orbit_product()
    assert f == vec(C5, [1, 1, 1, 1, 1])
    assert galois_fixed_check(f)


def test_galois_fixed_examples():
    assert galois_fixed_check(vec(C5, [1, 1, 1, 1, 1]))
    zt = WittVector.from_polys(
        Polynomial.from_payloads(C5, [C5.one(), C5.neg((0, 1, 0, 0))])
    )
    assert not galois_fixed_check(zt)
    assert galois_conjugate(zt, 2) != zt
    assert galois_fixed_check(vec(C5, [1, -4, 7], [1, 2]))


def test_galois_fixed_wrong_ring():
    with pytest.raises(UnsupportedRing):
        galois_fixed_check(w([1, -2]))


def test_series_coefficients():
    from wittlink.oracles import series_coefficients

    f = w([1, -2], [1, -3])
    # (1-2t)/(1-3t) = 1 + t + 3t^2 + 9t^3 + ...
    assert series_coefficients(f, 3) == [1, 1, 3, 9]


# --------------------------------------------------------------------------
# reconstruction oracle: rebuild product/power polynomials from power sums
# over Q by Newton's identities, entirely independent of the characteristic-polynomial path


def _poly_from_power_sums(s, d):
    from fractions import Fraction

    e = [Fraction(1)]
    for k in range(1, d + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * Fraction(s[i - 1])
        e.append(acc / k)
    coeffs = [(-1) ** j * e[j] for j in range(d + 1)]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _random_part(rng, dmax):
    deg = rng.randint(1, dmax)
    c = [1] + [rng.randint(-6, 6) for _ in range(deg - 1)] + [rng.choice([1, 2, 3, -1, -2, -3])]
    return Polynomial.from_ints(Z, c)


def test_mul_matches_newton_reconstruction():
    rng = random.Random(123)
    for _ in range(40):
        a, b = _random_part(rng, 3), _random_part(rng, 3)
        prod = witt_mul(WittVector.from_polys(a), WittVector.from_polys(b))
        d = a.degree * b.degree
        gf = ghost(WittVector.from_polys(a), d)
        gg = ghost(WittVector.from_polys(b), d)
        s = [x * y for x, y in zip(gf.components, gg.components)]
        assert prod.den.is_one
        assert list(prod.num.coeffs) == _poly_from_power_sums(s, d)


def test_frobenius_matches_newton_reconstruction():
    rng = random.Random(124)
    for _ in range(40):
        a = _random_part(rng, 4)
        d = a.degree
        f = WittVector.from_polys(a)
        n = rng.randint(2, 5)
        Ff = frobenius(n, f)
        s = ghost(f, n * d).components
        assert Ff.den.is_one
        assert list(Ff.num.coeffs) == _poly_from_power_sums(
            [s[n * k - 1] for k in range(1, d + 1)], d
        )


# --------------------------------------------------------------------------
# cross-cutting ring laws (small seeded sample; the full run is acceptance)


def test_ring_laws_sample():
    rng = random.Random(3)

    def rnd():
        deg = rng.randint(0, 3)
        num = [1] + [rng.randint(-4, 4) for _ in range(deg)]
        den = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
        return w(num, den)

    for _ in range(12):
        f, g, h = rnd(), rnd(), rnd()
        assert witt_mul(f, g) == witt_mul(g, f)
        assert witt_mul(witt_mul(f, g), h) == witt_mul(f, witt_mul(g, h))
        assert witt_mul(f, witt_add(g, h)) == witt_add(witt_mul(f, g), witt_mul(f, h))
        gf, gg = ghost(f, 10), ghost(g, 10)
        assert ghost(witt_mul(f, g), 10).components == (gf * gg).components


# --------------------------------------------------------------------------
# normalization over Z[zeta_n]: the coprimality probe and the shared route


C8 = RingSpec.cyclotomic(8)


def test_from_polys_cyclotomic_cancels_with_zero_quotient_terms():
    # 1 - t^4 = (1 - t^2)(1 + t^2): the quotient has zero coefficients
    f = WittVector.from_polys(
        Polynomial.from_ints(C8, [1, 0, 0, 0, -1]), Polynomial.from_ints(C8, [1, 0, 1])
    )
    assert f.num == Polynomial.from_ints(C8, [1, 0, -1])
    assert f.den.is_one


def test_mul_cyclotomic_with_cancellation_matches_ghost():
    # f = (1+t)(1-t)(1-z^4 t)/(1+z^4 t), g = (1+z t)(1-z t)/(1-z^2 t) over Z[zeta_5]
    def lin(sign, k):  # 1 + sign * zeta^k * t
        return Polynomial.from_payloads(C5, [C5.one(), C5.canon([0] * k + [sign])])

    f = WittVector.from_polys(lin(1, 0) * lin(-1, 0) * lin(-1, 4), lin(1, 4))
    g = WittVector.from_polys(lin(1, 1) * lin(-1, 1), lin(-1, 2))
    h = witt_mul(f, g)
    assert ghost(h, 12).components == (ghost(f, 12) * ghost(g, 12)).components


def test_probe_primes_carry_roots_of_cyclotomic_polynomials():
    from wittlink.rings import cyclotomic_polynomial
    from wittlink.witt import _probe_primes

    def parts(num, den):
        f = WittVector.from_polys(num, den)
        return f.num, f.den

    for n in range(1, 41):
        phi = cyclotomic_polynomial(n)
        for q, omega in itertools.islice(_probe_primes(n), 3):
            assert q < 2**30
            assert (q - 1) % n == 0
            assert all(q % d for d in range(2, math.isqrt(q) + 1))  # trial division
            assert sum(c * pow(omega, i, q) for i, c in enumerate(phi)) % q == 0
        # a shared factor is never certified coprime, and a coprime pair is kept
        spec = RingSpec.cyclotomic(n)
        common = Polynomial.from_ints(spec, [1, 1])
        x, y = Polynomial.from_ints(spec, [1, -2]), Polynomial.from_ints(spec, [1, 3])
        assert parts(common * x, common * y) == (x, y)
        assert parts(x, y) == (x, y)


# --------------------------------------------------------------------------
# the Newton route against the characteristic polynomials of companion matrices


_ROUTE_RINGS = [
    RingSpec.integers(),
    RingSpec.rationals(),
    RingSpec.prime_field(2),
    RingSpec.prime_field(3),
    RingSpec.mod_ring(4),
    RingSpec.mod_ring(12),
    RingSpec.cyclotomic(3),
    RingSpec.cyclotomic(8),
    RingSpec.ext_field(2, 3),
    RingSpec.ext_field(3, 2),
    RingSpec.ext_field(5, 2),
]


@st.composite
def _part(draw, spec, max_degree):
    """A polynomial over spec with constant term 1 and small coefficients."""
    width = len(spec.zero()) if isinstance(spec.zero(), tuple) else 0
    if width:
        coeff = st.lists(st.integers(-3, 3), min_size=width, max_size=width).map(tuple)
    elif spec.kind == "Q":
        coeff = st.fractions(-5, 5, max_denominator=4)
    else:
        coeff = st.integers(-6, 6)
    tail = draw(st.lists(coeff, max_size=max_degree))
    return Polynomial.from_payloads(spec, [spec.one()] + tail)


@st.composite
def _route_case(draw):
    spec = draw(st.sampled_from(_ROUTE_RINGS))
    return spec, draw(_part(spec, 3)), draw(_part(spec, 3)), draw(st.integers(1, 5))


@given(_route_case())
@settings(max_examples=150, deadline=None)
def test_newton_route_matches_charpoly_route(case):
    # over F_2 and F_3 the product degree D = deg p * deg q often reaches p
    from wittlink.oracles import _power_roots_charpoly, _star_charpoly

    _, p, q, n = case
    assert witt_mul(WittVector.from_polys(p), WittVector.from_polys(q)).num == _star_charpoly(p, q)
    assert frobenius(n, WittVector.from_polys(p)).num == _power_roots_charpoly(p, n)


_ROOT_RINGS = {
    RingSpec.integers(): st.integers(-4, 4),
    RingSpec.rationals(): st.fractions(-3, 3, max_denominator=3),
    F7: st.integers(0, 6),
    RingSpec.ext_field(2, 3): st.tuples(*[st.integers(0, 1)] * 3),
    RingSpec.mod_ring(12): st.integers(0, 11),
    C5: st.tuples(*[st.integers(-2, 2)] * 4),
}


@st.composite
def _roots_case(draw):
    """A ring, two lists of inverse roots (empty ones included) and n <= 5."""
    spec = draw(st.sampled_from(list(_ROOT_RINGS)))
    roots = st.lists(_ROOT_RINGS[spec].map(spec.canon), max_size=3)
    return spec, draw(roots), draw(roots), draw(st.integers(1, 5))


@given(_roots_case())
@settings(max_examples=120, deadline=None)
def test_charpoly_oracles_are_products_over_the_inverse_roots(case):
    # the definition, not a second algorithm: prod (1 - a_i t) star prod (1 - b_j t)
    # is prod (1 - a_i b_j t), and F_n of prod (1 - a_i t) is prod (1 - a_i^n t)
    from wittlink.oracles import _power_roots_charpoly, _star_charpoly

    spec, a, b, n = case

    def part(roots):
        one = Polynomial.one(spec)
        return functools.reduce(
            operator.mul, (Polynomial.from_payloads(spec, [spec.one(), spec.neg(r)]) for r in roots), one
        )

    assert _star_charpoly(part(a), part(b)) == part([spec.mul(x, y) for x in a for y in b])
    assert _power_roots_charpoly(part(a), n) == part([spec.pow_payload(x, n) for x in a])


def test_extension_field_route_needs_no_resultant(monkeypatch):
    # F_q runs on its characteristic-0 lift (g, 0): the Berkowitz loop behind
    # every resultant and characteristic-polynomial oracle is never reached
    from wittlink import oracles

    def unreachable(*args):
        raise AssertionError("an oracle called on the production route")

    monkeypatch.setattr(oracles, "_charpoly", unreachable)
    F9 = RingSpec.ext_field(3, 2)
    x = F9.canon((0, 1))
    f = WittVector.from_polys(
        Polynomial.from_payloads(F9, [F9.one(), x, F9.from_int(2)]),
        Polynomial.from_payloads(F9, [F9.one(), F9.add(x, F9.one())]),
    )
    g = WittVector.from_polys(Polynomial.from_payloads(F9, [F9.one(), F9.from_int(2), F9.mul(x, x), x]))
    N = 16
    gf, gg = ghost(f, 4 * N), ghost(g, N)
    assert ghost(witt_mul(f, g), N).components == (ghost(f, N) * gg).components
    for n in (2, 3, 4):
        assert ghost(frobenius(n, f), N).components == tuple(gf[n * k - 1] for k in range(1, N + 1))


def test_power_sums_of_a_linear_part_reach_large_indices():
    # the recurrence runs only over the part's degree: F_n(1 - 3t) = 1 - 3^n t
    f = w([1, -3])
    assert frobenius(2000, f) == w([1, -(3**2000)])
    F2 = RingSpec.prime_field(2)
    assert frobenius(1000, vec(F2, [1, 1, 1])).num.degree == 2


def _corrupt_newton_rebuild(monkeypatch, above: int) -> None:
    """Add 1 to the leading coefficient of every rebuild of degree > ``above``.

    ``_from_power_sums`` is the one rebuild of the Newton route, for the
    scalar kernel (ints) and the vector kernel (payload vectors) alike.
    """
    from wittlink import witt

    real = witt._from_power_sums

    def wrong(s, R):
        c = real(s, R)
        if len(c) - 1 > above:
            top = c[-1]
            c[-1] = top + 1 if isinstance(top, int) else (top[0] + 1,) + top[1:]
        return c

    monkeypatch.setattr(witt, "_from_power_sums", wrong)


def test_criterion_one_catches_a_wrong_newton_reconstruction(monkeypatch):
    # Corrupt only the coefficients above the suite's ghost precision N = 12.
    # The ghost comparisons cannot see it; the characteristic-polynomial comparison must.
    from wittlink.oracles import _charpoly_product
    from wittlink.verify import criterion_witt_ring_laws

    _corrupt_newton_rebuild(monkeypatch, 12)
    f, g = w([1, 2, -3, 4, 5]), w([1, -1, 2, 7, -2])
    p = witt_mul(f, g)
    assert ghost(p, 12).components == (ghost(f, 12) * ghost(g, 12)).components
    assert p != _charpoly_product(f, g)
    result = criterion_witt_ring_laws(20240901, samples=40)
    assert not result.passed and result.failures > 0


@pytest.mark.parametrize("spec", [RingSpec.cyclotomic(5), RingSpec.ext_field(3, 2)], ids=str)
def test_charpoly_comparison_catches_a_wrong_vector_rebuild(monkeypatch, spec):
    # the same corruption on the vector kernel (Z[zeta_5], and F_9 on its lift):
    # criterion 1's characteristic-polynomial comparison sees it, ghosts to N = 12 do not
    from wittlink.oracles import _charpoly_product

    _corrupt_newton_rebuild(monkeypatch, 12)
    z = spec.canon((0, 1))
    one, two, minus_one = spec.one(), spec.from_int(2), spec.from_int(-1)
    f = WittVector.from_polys(Polynomial.from_payloads(spec, [one, z, two, z, one]))
    g = WittVector.from_polys(Polynomial.from_payloads(spec, [one, minus_one, z, z, z]))
    p = witt_mul(f, g)
    assert ghost(p, 12).components == (ghost(f, 12) * ghost(g, 12)).components
    assert p != _charpoly_product(f, g)


# --------------------------------------------------------------------------
# the Z, Q and F_p normalization against the payload-loop Euclid over Q


def _payload_euclid(num, den):
    """num / g and den / g over a field, g their gcd scaled to constant term 1.

    Runs on ``oracles.poly_gcd_monic`` and ``poly_divmod``, which loop over
    RingSpec payloads, not on the kernel lists of the production route.
    """
    from wittlink.oracles import poly_divmod, poly_gcd_monic

    g = poly_gcd_monic(num, den)
    g = g.scale(num.spec.inv(g.constant_term))
    return poly_divmod(num, g)[0], poly_divmod(den, g)[0]


def _euclid_reference(num, den):
    """num/g and den/g over Q, g their gcd scaled to constant term 1."""
    Q = RingSpec.rationals()
    return _payload_euclid(*(Polynomial.from_payloads(Q, [Fraction(c) for c in x.coeffs]) for x in (num, den)))


def _z_images(a, b):
    """The images of gcd(a, b) mod q that ``_normalize_lists`` feeds the modular gcd over Z."""
    from wittlink.witt import _gcd_mod

    return lambda q, _: _gcd_mod(a, b, q) if a[-1] % q and b[-1] % q else None


def test_modular_gcd_matches_field_euclid():
    # the modular route over Z on its own, below and above the size gate alike
    from wittlink.witt import _divide_out, _modular_gcd

    rng = random.Random(29)

    def part(deg, size):
        c = [1] + [rng.randint(-size, size) for _ in range(deg)]
        c[-1] = c[-1] or 1
        return Polynomial.from_ints(Z, c)

    cases = 0
    # gcd coefficients up to ~2^45 need two probe primes (CRT)
    for size in (9, 2**20, 2**45):
        for _ in range(30):
            g = part(rng.randint(1, 4), size)
            num, den = g * part(rng.randint(0, 5), 9), g * part(rng.randint(0, 5), 9)
            a, b = list(num.coeffs), list(den.coeffs)
            got = _modular_gcd(a, b, 1, _z_images(a, b), _divide_out)
            want = tuple([int(c) for c in x.coeffs] for x in _euclid_reference(num, den))
            assert got == want
            cases += 1
    assert cases == 90


@st.composite
def _integer_parts(draw):
    """Two parts over Z with constant term 1: a drawn common factor (1 for coprime draws) times two cofactors."""
    size = draw(st.sampled_from([9, 2**20, 2**45]))

    def part(max_degree, bound):
        tail = draw(st.lists(st.integers(-bound, bound), max_size=max_degree))
        return Polynomial.from_ints(Z, [1] + tail)

    common = part(4, size) if draw(st.booleans()) else Polynomial.one(Z)
    num, den = common * part(5, draw(st.sampled_from([9, size]))), common * part(5, 9)
    assume(num.degree > 0 and den.degree > 0)
    return num, den


@given(_integer_parts())
@settings(max_examples=150, deadline=None)
def test_integer_normalization_matches_field_euclid(parts):
    # the route _normalize_lists picks over Z: the heuristic gcd at these sizes
    from wittlink.witt import _normalize_lists

    num, den = parts
    got = _normalize_lists(list(num.coeffs), list(den.coeffs), ((), 0))
    assert got == tuple([int(c) for c in x.coeffs] for x in _euclid_reference(*parts))


def _spy_routes(monkeypatch):
    """Record which gcd route over Z each _normalize_lists call takes."""
    from wittlink import witt

    taken = []
    for name in ("_heuristic_gcd", "_modular_gcd"):
        def spy(*args, _real=getattr(witt, name), _name=name):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(witt, name, spy)
    return taken


def test_heuristic_failures_fall_back_to_the_modular_gcd(monkeypatch):
    # an integer gcd that returns h * a(xi) makes every heuristic try fail:
    # G(0) G/G(0) (xi) = h a(xi) with G/G(0) dividing g would need |G(0)| >= |a(xi)| > xi/2
    from wittlink import witt
    from wittlink.witt import _normalize_lists

    rng = random.Random(31)
    taken = _spy_routes(monkeypatch)
    fake = types.SimpleNamespace(gcd=lambda x, y: math.gcd(x, y) * abs(x))
    cases = 0
    for size in (9, 2**20, 2**45):
        for planted in (False, True):
            common = Polynomial.from_ints(Z, [1] + [rng.randint(-size, size) for _ in range(3 * planted)])
            num, den = (common * Polynomial.from_ints(Z, [1] + [rng.randint(-9, 9) or 1 for _ in range(d)]) for d in (3, 2))
            want = tuple([int(c) for c in x.coeffs] for x in _euclid_reference(num, den))
            taken.clear()
            with monkeypatch.context() as m:
                m.setattr(witt, "math", fake)
                got = _normalize_lists(list(num.coeffs), list(den.coeffs), ((), 0))
            assert got == want
            assert taken == ["_heuristic_gcd", "_modular_gcd"]
            cases += 1
    assert cases == 6


def test_a_fractional_gcd_image_is_refused(monkeypatch):
    # digits G = 3 + 3t + 4t^2: the floor of G / G(0), 1 + t + t^2, divides
    # both parts, but G / G(0) is not integral, so the try fails; the gcd is
    # (1 + t + t^2)(1 + 2t).  Later tries get the failing h * a(xi).
    from wittlink import witt
    from wittlink.witt import _heuristic_gcd

    common = Polynomial.from_ints(Z, [1, 1, 1]) * Polynomial.from_ints(Z, [1, 2])
    a, b = (list((common * Polynomial.from_ints(Z, c)).coeffs) for c in ([1, -1], [1, 3]))
    k, xi = 20, 2**20
    images = iter([3 + 3 * xi + 4 * xi**2])
    monkeypatch.setattr(witt, "math", types.SimpleNamespace(gcd=lambda x, y: next(images, math.gcd(x, y) * abs(x))))
    assert _heuristic_gcd(a, b, k) is None


def test_the_size_gate_routes_by_packed_size(monkeypatch):
    # packed size k * (longer length) at xi = 2^k: with |c|_inf = 2^(k-18) for
    # every part, 2 |c|_inf + 2 needs k - 16 bits and the 2^16 margin makes it k
    from wittlink import witt
    from wittlink.witt import _divide_out, _modular_gcd, _normalize_lists

    rng = random.Random(37)
    k = witt.MAX_HEURISTIC_BITS // 50
    top = 2 ** (k - 18)
    taken = _spy_routes(monkeypatch)
    for length, route in ((50, "_heuristic_gcd"), (51, "_modular_gcd")):
        assert (length * k <= witt.MAX_HEURISTIC_BITS) == (route == "_heuristic_gcd")
        a, b = ([1] + [rng.randint(-top, top) for _ in range(length - 2)] + [top] for _ in range(2))
        taken.clear()
        got = _normalize_lists(a, b, ((), 0))
        assert taken == [route]
        assert got == _modular_gcd(a, b, 1, _z_images(a, b), _divide_out)


def _spy_euclid_over_q(monkeypatch):
    """Count the gcds the normalization takes over Q (modulus 0), not modulo a prime."""
    from wittlink import witt

    calls, real = [], witt._dl_gcd

    def spy(a, b, p=0):
        if not p:
            calls.append((a, b))
        return real(a, b, p)

    monkeypatch.setattr(witt, "_dl_gcd", spy)
    return calls


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python -O"])
def test_modular_gcd_refuses_a_constant_term_other_than_one(flags):
    # 2 + t and (2 + t)(1 + t), over Z and over Z[zeta_5]: their gcd scaled to
    # constant term 1, 1 + t/2, is not integral, so no lift ever divides and
    # the search over probe primes once ran without end; a timeout fails it.
    # 1 + t against (2 + t)(1 + t) has one part with constant term 2
    # The Z route of _normalize_lists refuses both before its heuristic gcd
    # runs (the spy would print), and returns no quotient.
    code = (
        "from wittlink import witt\n"
        "from wittlink.rings import cyclotomic_polynomial\n"
        "from wittlink.witt import _cyclotomic_gcd, _divide_out, _gcd_mod, _modular_gcd, _normalize_lists\n"
        "witt._heuristic_gcd = lambda *args: print('heuristic ran')\n"
        "a, b = [2, 1], [2, 3, 1]\n"
        "v = lambda c: [(x, 0, 0, 0) for x in c]\n"
        "for run in (\n"
        "    lambda: _modular_gcd(a, b, 1, lambda q, _: _gcd_mod(a, b, q), _divide_out),\n"
        "    lambda: _modular_gcd([1, 1], b, 1, lambda q, _: _gcd_mod([1, 1], b, q), _divide_out),\n"
        "    lambda: _cyclotomic_gcd(v(a), v(b), 5, cyclotomic_polynomial(5)),\n"
        "    lambda: _normalize_lists(a, b, ((), 0)),\n"
        "    lambda: _normalize_lists([1, 1], b, ((), 0)),\n"
        "):\n"
        "    try:\n"
        "        print('returned', run())\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "raised\n" * 5), proc.stderr


@pytest.mark.parametrize("kind", ["Z", "Q"])
def test_euclid_fallback_reduces_above_the_crt_modulus(monkeypatch, kind):
    # the common factor's coefficients exceed the CRT modulus of two probe
    # primes (about 2^62): the modular route takes more primes, and no gcd
    # over Q runs
    calls = _spy_euclid_over_q(monkeypatch)
    rng = random.Random(kind)
    spec = RingSpec.integers() if kind == "Z" else RingSpec.rationals()
    big = 2**70 + 3

    def coeff(size):
        v = rng.randint(-size, size) or 1
        return v if kind == "Z" else Fraction(v, rng.randint(1, 9))

    def part(deg, size):
        return Polynomial.from_payloads(spec, [spec.one()] + [coeff(size) for _ in range(deg)])

    for deg in (1, 2, 3):
        common = part(deg, big)
        num, den = common * part(2, 9), common * part(3, 9)
        f = WittVector.from_polys(num, den)
        assert not calls, "a gcd over Q ran"
        want_num, want_den = _euclid_reference(num, den)
        assert (f.num.coeffs, f.den.coeffs) == (want_num.coeffs, want_den.coeffs)
        assert f.num.degree == 2 and f.den.degree == 3
        payload = int if kind == "Z" else Fraction
        assert all(type(c) is payload for c in f.num.coeffs + f.den.coeffs)


# --------------------------------------------------------------------------
# the integer kernels over the six public kinds: Z, Q, F_p, Z/n, Z[zeta_n], F_q


_KERNEL_RINGS = [
    RingSpec.integers(),
    RingSpec.rationals(),
    RingSpec.prime_field(2),
    RingSpec.prime_field(7),
    RingSpec.mod_ring(9),
    RingSpec.mod_ring(12),
    RingSpec.cyclotomic(3),
    RingSpec.cyclotomic(8),
    RingSpec.ext_field(2, 3),
    RingSpec.ext_field(3, 2),
]


def _reference_power_sums(spec, p, N):
    """s_1..s_N by Newton's identities on RingSpec ops, one coefficient at a time."""
    c, out = p.coeffs, []
    for k in range(1, N + 1):
        acc = spec.mul(c[k], spec.from_int(k)) if k < len(c) else spec.zero()
        for i in range(1, min(k, len(c))):
            acc = spec.add(acc, spec.mul(c[i], out[k - i - 1]))
        out.append(spec.neg(acc))
    return out


def _assert_payload_type(spec, payload):
    if spec.kind == "Q":
        assert type(payload) is Fraction
    elif spec.kind in ("Fp", "Zn"):
        assert type(payload) is int and 0 <= payload < spec.n
    elif spec.kind == "Z":
        assert type(payload) is int
    else:
        assert type(payload) is tuple and len(payload) == len(spec.zero())
        assert all(type(v) is int for v in payload)
        if spec.k:
            assert all(0 <= v < spec.n for v in payload)


@st.composite
def _kernel_case(draw):
    spec = draw(st.sampled_from(_KERNEL_RINGS))
    f = WittVector.from_polys(draw(_part(spec, 3)), draw(_part(spec, 2)))
    g = WittVector.from_polys(draw(_part(spec, 3)), draw(_part(spec, 2)))
    return spec, f, g, draw(st.integers(2, 4)), draw(st.integers(1, 14))


@given(_kernel_case())
@settings(max_examples=120, deadline=None)
def test_ghost_matches_reference_recurrence(case):
    spec, f, _, _, N = case
    sn, sd = _reference_power_sums(spec, f.num, N), _reference_power_sums(spec, f.den, N)
    want = tuple(spec.sub(a, b) for a, b in zip(sn, sd))
    assert ghost(f, N).components == want


@given(_kernel_case())
@settings(max_examples=120, deadline=None)
def test_results_keep_their_payload_types(case):
    spec, f, g, n, N = case
    for h in (witt_mul(f, g), witt_add(f, g), frobenius(n, f), f * WittVector.one(spec)):
        for payload in h.num.coeffs + h.den.coeffs:
            _assert_payload_type(spec, payload)
    for payload in ghost(f, N).components:
        _assert_payload_type(spec, payload)
    for payload in (f.num * g.den).coeffs:
        _assert_payload_type(spec, payload)


_Q = RingSpec.rationals()


@given(_part(_Q, 3), _part(_Q, 3), _part(_Q, 3))
@settings(max_examples=150, deadline=None)
def test_rational_normalization_matches_field_euclid(common, a, b):
    num, den = common * a, common * b
    f = WittVector.from_polys(num, den)
    got = (f.num, f.den)
    assert got == _euclid_reference(num, den)
    for part in got:
        assert all(type(c) is Fraction for c in part.coeffs)


def test_rational_normalization_runs_on_the_integer_route(monkeypatch):
    # the common factor 1 - t/2 is cancelled by the scaled modular gcd, not the Euclid over Q
    calls = _spy_euclid_over_q(monkeypatch)
    Q = RingSpec.rationals()
    common = Polynomial.from_payloads(Q, [1, Fraction(-1, 2)])
    num = common * Polynomial.from_payloads(Q, [1, Fraction(2, 3), Fraction(5, 7)])
    den = common * Polynomial.from_payloads(Q, [1, Fraction(-3, 4)])
    f = WittVector.from_polys(num, den)
    assert not calls, "Euclid over Q reached"
    assert (f.num, f.den) == _euclid_reference(num, den)
    assert f.num.coeffs == (1, Fraction(2, 3), Fraction(5, 7))
    assert f.den.coeffs == (1, Fraction(-3, 4))
    assert all(type(c) is Fraction for c in f.num.coeffs + f.den.coeffs)


# --------------------------------------------------------------------------
# the Z[zeta_n] normalization: pinned outputs, and the modular route on
# inputs whose Euclid over Q or Q(zeta_n) took seconds to minutes


CYCLOTOMIC_GOLDEN = json.loads(Path(__file__).with_name("cyclotomic_golden.json").read_text())


def _vector_part(spec, rng, deg, size=3):
    """1 + c_1 t + ... + c_deg t^deg with payload vectors of entries in -size..size."""
    tail = [tuple(rng.randint(-size, size) for _ in range(spec.width)) for _ in range(deg)]
    return Polynomial.from_payloads(spec, [spec.one()] + tail)


def _root_of_unity_part(spec, rng, deg):
    """The product of deg factors 1 -+ zeta^k t."""
    out = Polynomial.one(spec)
    for _ in range(deg):
        k, sign = rng.randrange(spec.n), rng.choice((1, -1))
        out = out * Polynomial.from_payloads(spec, [spec.one(), spec.canon([0] * k + [-sign])])
    return out


def _cyclotomic_shared_cases(n):
    """Twelve seeded pairs common * a, common * b over Z[zeta_n].

    The common factor and the cofactors are random vector parts or
    products of 1 -+ zeta^k t, mixed, so that quotients with zero
    coefficients and repeated roots of unity occur.
    """
    spec = RingSpec.cyclotomic(n)
    rng = random.Random(f"shared factors over Z[zeta_{n}]")
    kinds = (_vector_part, _root_of_unity_part)
    for i in range(12):
        common, cofactor = kinds[i % 2], kinds[i // 2 % 2]
        g = common(spec, rng, rng.randint(1, 3))
        yield g * cofactor(spec, rng, rng.randint(0, 3)), g * cofactor(spec, rng, rng.randint(0, 3))


@pytest.mark.parametrize("n", sorted(CYCLOTOMIC_GOLDEN, key=int))
def test_cyclotomic_normalization_golden_digest(n):
    # one SHA-256 per level over the reduced parts, as the Euclid over
    # Q(zeta_n) returned them
    digest = hashlib.sha256()
    for num, den in _cyclotomic_shared_cases(int(n)):
        f = WittVector.from_polys(num, den)
        digest.update(repr((f.num.coeffs, f.den.coeffs)).encode())
    assert digest.hexdigest() == CYCLOTOMIC_GOLDEN[n]


@st.composite
def _cyclotomic_shared_case(draw):
    spec = RingSpec.cyclotomic(draw(st.sampled_from((1, 2, 3, 4, 5, 7, 8, 12))))
    common, a, b = (draw(_part(spec, 2)) for _ in range(3))
    return common * a, common * b


@given(_cyclotomic_shared_case())
@settings(max_examples=80, deadline=None)
def test_cyclotomic_normalization_is_equal_and_coprime(case):
    from wittlink.oracles import poly_resultant

    num, den = case
    f = WittVector.from_polys(num, den)
    assert f.num * den == num * f.den
    assert f.spec.is_one(f.num.constant_term) and f.spec.is_one(f.den.constant_term)
    if f.num.degree > 0 and f.den.degree > 0:
        assert not poly_resultant(f.num, f.den).is_zero


def _spy_field_gcd(monkeypatch):
    """Count the calls of _vector_gcd, the Euclid over F_q on payload-vector lists, with their contexts (m, p)."""
    from wittlink import witt

    calls, real = [], witt._vector_gcd

    def spy(a, b, m, p):
        calls.append((m, p))
        return real(a, b, m, p)

    monkeypatch.setattr(witt, "_vector_gcd", spy)
    return calls


def _digits_part(spec, rng, deg):
    """1 + c_1 t + ... + c_deg t^deg with digits c_k in 1..9."""
    return Polynomial.from_ints(spec, [1] + [rng.randint(1, 9) for _ in range(deg)])


def _assert_reduced_without_gcd_over_q(monkeypatch, num, den, want):
    over_q, field = _spy_euclid_over_q(monkeypatch), _spy_field_gcd(monkeypatch)
    f = WittVector.from_polys(num, den)
    assert not over_q and not field, "a gcd over Q or Q(zeta_n) ran"
    assert (f.num, f.den) == want


def test_integer_common_factor_of_100_bits_takes_no_gcd_over_q(monkeypatch):
    # degree-150 parts sharing a degree-30 factor with 100-bit coefficients:
    # the lift needs four probe primes
    rng = random.Random(30)
    common = Polynomial.from_ints(Z, [1] + [rng.randint(-(2**100), 2**100) for _ in range(30)])
    a, b = _digits_part(Z, rng, 120), _digits_part(Z, rng, 120)
    _assert_reduced_without_gcd_over_q(monkeypatch, common * a, common * b, (a, b))


def test_cyclotomic_common_factor_takes_no_gcd_over_q(monkeypatch):
    # degree-36 parts sharing a degree-12 factor, zeta in every coefficient
    C7 = RingSpec.cyclotomic(7)
    rng = random.Random(12)
    common = _vector_part(C7, rng, 12, 9)
    a, b = _vector_part(C7, rng, 24, 9), _vector_part(C7, rng, 24, 9)
    _assert_reduced_without_gcd_over_q(monkeypatch, common * a, common * b, (a, b))


@pytest.mark.parametrize("n", [3, 5, 12])
def test_cyclotomic_common_factor_above_one_prime(monkeypatch, n):
    # payload entries near 2^70 need the CRT over three probe primes
    spec = RingSpec.cyclotomic(n)
    rng = random.Random(n)
    common = _vector_part(spec, rng, 3, 2**70)
    a, b = _vector_part(spec, rng, 2, 9), _vector_part(spec, rng, 3, 9)
    _assert_reduced_without_gcd_over_q(monkeypatch, common * a, common * b, (a, b))


def test_cli_cyclotomic_literal_with_common_factor_takes_no_gcd_over_q(monkeypatch, capsys):
    # witt add "(P)/(Q)" 1 --ring C7, P and Q of degree 180 sharing a degree-60 factor
    from wittlink.cli import main

    rng = random.Random(7)
    common = _digits_part(Z, rng, 60)
    a, b = _digits_part(Z, rng, 120), _digits_part(Z, rng, 120)
    over_q, field = _spy_euclid_over_q(monkeypatch), _spy_field_gcd(monkeypatch)
    assert main(["witt", "add", f"({common * a})/({common * b})", "1", "--ring", "C7"]) == 0
    assert not over_q and not field, "a gcd over Q or Q(zeta_n) ran"
    assert capsys.readouterr().out == f"({a})/({b})\n"


@pytest.mark.parametrize("spec", _KERNEL_RINGS, ids=str)
def test_newton_kernels_make_no_per_coefficient_ring_calls(monkeypatch, spec):
    # the power sums, the rebuilds and the products of parts run on plain ints or int vectors
    from wittlink import witt

    f = WittVector.from_polys(
        Polynomial.from_ints(spec, [1, 2, -1, 3]), Polynomial.from_ints(spec, [1, -2])
    )
    g = WittVector.from_polys(Polynomial.from_ints(spec, [1, 1, 5]))
    want_mul, want_frob, want_ghost, want_add = witt_mul(f, g), frobenius(3, f), ghost(f, 9), witt_add(f, g)
    kernels = ("_power_sums", "_from_power_sums", "_star", "_power_roots", "_mul_lists")

    def forbid(*args):
        raise AssertionError("RingSpec.add/mul called inside a Newton kernel")

    def guarded(real):
        def run(*args):
            # the kernels take a reduction context (modulus, p), never the ring
            assert not any(isinstance(a, RingSpec) for a in args), f"a RingSpec reached {real.__name__}"
            with monkeypatch.context() as m:
                m.setattr(RingSpec, "add", forbid)
                m.setattr(RingSpec, "mul", forbid)
                return real(*args)

        return run

    for name in kernels:
        monkeypatch.setattr(witt, name, guarded(getattr(witt, name)))
    assert witt_mul(f, g) == want_mul
    assert frobenius(3, f) == want_frob
    assert ghost(f, 9).components == want_ghost.components
    assert witt_add(f, g) == want_add


# --------------------------------------------------------------------------
# the ring operations on kernel lists against the Polynomial route they
# replaced: every star product and power-root part settled into a
# Polynomial, the parts multiplied by Polynomial.__mul__, and the quotient
# reduced by a gcd over the field of fractions (Q, F_p or F_q), by the
# modular gcd with Polynomial division over Z[zeta_n], and not at all over Z/n


def _oracle_lift(*parts):
    """Kernel lists of Polynomial parts, each lifted on its own scale L, as the old route took them."""
    spec = parts[0].spec
    if spec.kind != "Q":
        return [list(p.coeffs) for p in parts] + [1]
    L = math.lcm(*[v.denominator for p in parts for v in p.coeffs])
    return [[v.numerator * L**k // v.denominator for k, v in enumerate(p.coeffs)] for p in parts] + [L]


def _oracle_settle(spec, c, scale):
    if spec.kind == "Q":
        out = [Fraction(v, scale**k) for k, v in enumerate(c)]
    elif spec.p and spec.m:
        out = [tuple(v % spec.p for v in x) for x in c]
    elif spec.p:
        out = [v % spec.p for v in c]
    else:
        out = list(c)
    while out and spec.is_zero(out[-1]):
        out.pop()
    return Polynomial(spec, tuple(out))


def _oracle_power_roots(p, n):
    from wittlink.witt import _from_power_sums, _power_sums

    spec, d = p.spec, p.degree
    if d <= 0 or n == 1:
        return p if d > 0 else Polynomial.one(spec)
    ctx = (spec.m, 0)
    c, L = _oracle_lift(p)
    return _oracle_settle(spec, _from_power_sums(_power_sums(c, n * d, ctx)[n - 1 :: n], ctx), L**n)


def _oracle_star(p, q):
    from wittlink.rings import _dl_mul, _reduce
    from wittlink.witt import _from_power_sums, _power_sums

    spec, D = p.spec, p.degree * q.degree
    ctx = (spec.m, 0)
    (cp, Lp), (cq, Lq) = [_oracle_lift(x) for x in (p, q)]
    sp, sq = _power_sums(cp, D, ctx), _power_sums(cq, D, ctx)
    if spec.m:
        s = [_reduce(_dl_mul(x, y), spec.m, 0) for x, y in zip(sp, sq)]
    else:
        s = list(map(operator.mul, sp, sq))
    return _oracle_settle(spec, _from_power_sums(s, ctx), Lp * Lq)


def _oracle_cyclotomic_gcd(num, den):
    """The old modular gcd over Z[zeta_n]: images at the roots of Phi_n mod q, lifts tested by poly_divmod."""
    from wittlink.oracles import poly_divmod
    from wittlink.witt import _gcd_mod, _modular_gcd, _root_maps

    spec, w = num.spec, num.spec.width

    def images(q, omega):
        evaluate, interpolate = _root_maps(spec.n, q, omega)
        hs = []
        for row in evaluate:
            a = [sum(map(operator.mul, row, c)) % q for c in num.coeffs]
            b = [sum(map(operator.mul, row, c)) % q for c in den.coeffs]
            if not (a[-1] and b[-1]):
                return None
            hs.append(_gcd_mod(a, b, q))
            if len(hs[-1]) == 1:
                return hs[-1] + [0] * (w - 1)
        if any(len(h) != len(hs[0]) for h in hs):
            return None
        return [sum(map(operator.mul, row, col)) % q for col in zip(*hs) for row in interpolate]

    def divide(x, g):  # on reversed parts, with a quotient of constant term 1
        rev = Polynomial(spec, tuple(tuple(g[i - w : i]) for i in range(len(g), 0, -w)))
        quo, rem = poly_divmod(Polynomial(spec, tuple(x[::-1])), rev)
        return None if rem.coeffs else quo.coeffs[::-1]

    return tuple(Polynomial(spec, x) for x in _modular_gcd(num.coeffs, den.coeffs, spec.n, images, divide))


def _oracle_normalize(num, den):
    spec = num.spec
    if num == den:
        return Polynomial.one(spec), Polynomial.one(spec)
    if num.is_one or den.is_one or spec.kind == "Zn":
        return num, den
    if spec.kind == "C":
        return _oracle_cyclotomic_gcd(num, den)
    if spec.kind == "Z":  # over Q, where the gcd scaled to constant term 1 is integral
        a, b = _euclid_reference(num, den)
        return tuple(Polynomial(spec, tuple(int(c) for c in x.coeffs)) for x in (a, b))
    return _payload_euclid(num, den)


def _oracle_vector(num, den):
    return WittVector(num.spec, *_oracle_normalize(num, den))


def _oracle_op(op, f, g, n, terms):
    spec = f.spec
    if op == "from_polys":
        return _oracle_vector(f.num, f.den)
    if op == "add":
        return _oracle_vector(f.num * g.num, f.den * g.den)
    if op == "mul":
        star = _oracle_star
        return _oracle_vector(
            star(f.num, g.num) * star(f.den, g.den), star(f.num, g.den) * star(f.den, g.num)
        )
    if op == "frob":
        return f if n == 1 else _oracle_vector(_oracle_power_roots(f.num, n), _oracle_power_roots(f.den, n))
    num = den = Polynomial.one(spec)
    for payload, mult in terms:
        factor = Polynomial.from_payloads(spec, [spec.one(), spec.neg(payload)])
        for _ in range(abs(mult)):
            if mult > 0:
                num = num * factor
            else:
                den = den * factor
    return _oracle_vector(num, den)


_ORACLE_RINGS = [
    RingSpec.integers(),
    RingSpec.rationals(),
    RingSpec.prime_field(5),
    RingSpec.mod_ring(12),
    RingSpec.cyclotomic(1),
    RingSpec.cyclotomic(2),
    RingSpec.cyclotomic(5),
    RingSpec.cyclotomic(8),
    RingSpec.ext_field(3, 2),
]


def _units(spec):
    """A few units of spec, as payloads."""
    if spec.kind == "Z":
        return [1, -1]
    if spec.kind == "Q":
        return [Fraction(a, b) for a in (-3, -1, 1, 2) for b in (1, 2, 5)]
    if spec.kind == "C":
        return [spec.canon([0] * k + [s]) for k in range(spec.n) for s in (1, -1)]
    if spec.kind == "Fq":
        return [spec.canon(v) for v in itertools.product(range(spec.n), repeat=spec.k) if any(v)]
    return [a for a in range(1, spec.n) if math.gcd(a, spec.n) == 1]


@st.composite
def _oracle_witt(draw, spec):
    """A Witt vector whose parts share a drawn factor; kept as given or reduced by from_polys."""
    common = draw(_part(spec, 2))
    num, den = common * draw(_part(spec, 3)), common * draw(_part(spec, 2))
    return WittVector(spec, num, den) if draw(st.booleans()) else WittVector.from_polys(num, den)


@st.composite
def _oracle_case(draw, spec):
    op = draw(st.sampled_from(["from_polys", "add", "mul", "frob", "groupring"]))
    terms = draw(st.lists(st.tuples(st.sampled_from(_units(spec)), st.integers(-2, 2)), max_size=4))
    return op, draw(_oracle_witt(spec)), draw(_oracle_witt(spec)), draw(st.integers(1, 4)), terms


def _production_op(op, f, g, n, terms):
    if op == "from_polys":
        return WittVector.from_polys(f.num, f.den)
    if op == "add":
        return witt_add(f, g)
    if op == "mul":
        return witt_mul(f, g)
    if op == "frob":
        return frobenius(n, f)
    return groupring_to_witt(GroupRingElement.of(f.spec, terms))


@pytest.mark.parametrize("spec", _ORACLE_RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_ring_operations_match_the_polynomial_route(spec, data):
    op, f, g, n, terms = data.draw(_oracle_case(spec))
    x = GroupRingElement.of(f.spec, terms)
    want = _oracle_op(op, f, g, n, x.terms)

    def forbid(self, other):
        raise AssertionError("Polynomial.__mul__ called between the kernels and normalization")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "__mul__", forbid)
        got = _production_op(op, f, g, n, terms)
    assert (got.spec, got.num, got.den) == (want.spec, want.num, want.den)
    for payload in got.num.coeffs + got.den.coeffs:
        _assert_payload_type(f.spec, payload)


# --------------------------------------------------------------------------
# F_q on the kernel lists: the normalization against the payload-loop Euclid
# in oracles, and the decoder


_EXT_FIELDS = [RingSpec.ext_field(p, k) for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3))]


def _field_part(spec, rng, deg):
    """1 + c_1 t + ... + c_deg t^deg over F_{p^k} with random payload vectors, c_deg nonzero."""
    tail = [tuple(rng.randrange(spec.n) for _ in range(spec.k)) for _ in range(deg)]
    while tail and not any(tail[-1]):
        tail[-1] = tuple(rng.randrange(spec.n) for _ in range(spec.k))
    return Polynomial.from_payloads(spec, [spec.one()] + tail)


@pytest.mark.parametrize("spec", _EXT_FIELDS, ids=str)
def test_extension_field_normalization_matches_the_payload_euclid(spec):
    rng = random.Random(f"planted factors over {spec}")
    for _ in range(15):
        common = _field_part(spec, rng, rng.randint(1, 3))
        num = common * _field_part(spec, rng, rng.randint(0, 4))
        den = common * _field_part(spec, rng, rng.randint(0, 4))
        f = WittVector.from_polys(num, den)
        want = _payload_euclid(num, den)
        assert (f.num, f.den) == want
        assert f.num.degree <= num.degree - common.degree and f.den.degree <= den.degree - common.degree


def test_extension_field_ops_normalize_on_the_lists(monkeypatch):
    # witt_add and witt_mul over F_9 whose results share a planted factor:
    # the gcd runs on the payload-vector lists, with no Polynomial product
    # and no RingSpec payload op between the kernels and the settled result
    F9 = RingSpec.ext_field(3, 2)
    rng = random.Random(9)
    common = _field_part(F9, rng, 2)
    f = WittVector(F9, common * _field_part(F9, rng, 2), _field_part(F9, rng, 1))
    g = WittVector(F9, _field_part(F9, rng, 1), common * _field_part(F9, rng, 1))
    h = WittVector(F9, common * _field_part(F9, rng, 1), common * _field_part(F9, rng, 2))
    calls = _spy_field_gcd(monkeypatch)

    def forbid(*args):
        raise AssertionError("a Polynomial product or a RingSpec payload op ran inside a ring operation")

    for op, x, y in (("add", f, g), ("mul", h, g), ("mul", f, h)):
        want = _oracle_op(op, x, y, 1, ())
        with monkeypatch.context() as m:
            for name in ("mul", "add", "sub", "inv"):
                m.setattr(RingSpec, name, forbid)
            m.setattr(Polynomial, "__mul__", forbid)
            got = _production_op(op, x, y, 1, ())
        assert (got.num, got.den) == (want.num, want.den)
        a, b, c, d = x.num.degree, x.den.degree, y.num.degree, y.den.degree
        unreduced = a + b + c + d if op == "add" else (a + b) * (c + d)
        assert got.num.degree + got.den.degree < unreduced, "the planted factor was not cancelled"
    assert calls and set(calls) == {(F9.m, 3)}


def _splits_nowhere(spec):
    """The first 1 + c_1 t + c_2 t^2, c_2 != 0, with no inverse root in spec, found by evaluating on RingSpec ops."""
    field = [spec.canon(v) for v in itertools.product(range(spec.n), repeat=spec.k)]
    for c1, c2 in itertools.product(field, field[1:]):
        # a is an inverse root iff a^2 + c_1 a + c_2 = 0
        if all(not spec.is_zero(spec.add(spec.mul(spec.add(a, c1), a), c2)) for a in field):
            return Polynomial.from_payloads(spec, [spec.one(), c1, c2])
    raise AssertionError(f"no quadratic without roots over {spec}")


@pytest.mark.parametrize("spec", _EXT_FIELDS[:4], ids=str)
def test_extension_field_decode_round_trip(spec):
    # the last candidate tried, (p-1, ..., p-1), as a root of multiplicity 3
    last = (spec.n - 1,) * spec.k
    rng = random.Random(f"decode over {spec}")
    units = [v for v in itertools.product(range(spec.n), repeat=spec.k) if any(v) and v != last]
    for _ in range(5):
        a, b = rng.sample(units, 2)
        x = GroupRingElement.of(spec, [(last, 3), (a, rng.choice((-2, -1, 1, 2))), (b, -1)])
        assert witt_to_groupring(groupring_to_witt(x)) == x
    assert witt_to_groupring(groupring_to_witt(GroupRingElement.of(spec, [(last, -2)]))).terms == ((last, -2),)
    q = _splits_nowhere(spec)
    linear = Polynomial.from_payloads(spec, [spec.one(), spec.neg(last)])
    for num, den in ((q, Polynomial.one(spec)), (linear * linear, q * linear)):
        with pytest.raises(NotSplit):
            witt_to_groupring(WittVector(spec, num, den))


# --------------------------------------------------------------------------
# the bound on the group-ring decoder's search


def test_decoding_refuses_a_field_above_the_cap_before_searching(monkeypatch):
    from wittlink import witt
    from wittlink.witt import MAX_DECODE_FIELD_SIZE

    def unreachable(poly):
        raise AssertionError("a candidate was tried")

    F = RingSpec.prime_field(4099)  # the least prime above 2^12
    assert F.n > MAX_DECODE_FIELD_SIZE
    f = vec(F, [1, -5])
    monkeypatch.setattr(witt, "_roots_with_multiplicity", unreachable)
    with pytest.raises(DomainViolation, match="limit of 4096 elements"):
        witt_to_groupring(f)
    with pytest.raises(DomainViolation):  # 67^2 > 4096, although 67 alone is below the cap
        witt_to_groupring(vec(RingSpec.prime_field(67), [1, -5]), 2)
    with pytest.raises(DomainViolation):  # a huge degree bound is refused without computing p^k
        witt_to_groupring(vec(F7, [1, -5]), 10**9)
    monkeypatch.undo()
    F4093 = RingSpec.prime_field(4093)  # the largest prime field at the cap still decodes
    x = GroupRingElement.of(F4093, [(4092, 2), (17, -1)])
    assert witt_to_groupring(groupring_to_witt(x)) == x


# --------------------------------------------------------------------------
# the Witt outputs, pinned: one SHA-256 over seeded from_polys, add, mul,
# frob and ghost results on every ring kind, taken before the Newton
# kernels moved to a (modulus, p) reduction context


WITT_DIGEST = json.loads(Path(__file__).with_name("witt_digest_golden.json").read_text())

_DIGEST_RINGS = [
    RingSpec.integers(),
    RingSpec.rationals(),
    RingSpec.prime_field(2),
    RingSpec.prime_field(7),
    RingSpec.prime_field(101),
    RingSpec.mod_ring(12),
    *(RingSpec.cyclotomic(n) for n in (1, 2, 3, 5, 7, 8, 12)),
    RingSpec.ext_field(2, 3),
    RingSpec.ext_field(3, 2),
]


def _digest_coefficient(spec, rng, dens):
    """A random coefficient; over Q a Fraction whose denominator is drawn from dens."""
    if spec.kind == "Q":
        return Fraction(rng.randint(-9, 9), rng.choice(dens))
    if spec.kind in ("C", "Fq"):
        return spec.canon([rng.randint(-3, 3) for _ in range(spec.width)])
    return spec.from_int(rng.randint(-9, 9))


def _digest_part(spec, rng, deg, dens=(1,)):
    """1 + c_1 t + ... + c_deg t^deg with random coefficients, c_deg nonzero."""
    tail = [_digest_coefficient(spec, rng, dens) for _ in range(deg)]
    while tail and spec.is_zero(tail[-1]):
        tail[-1] = _digest_coefficient(spec, rng, dens)
    return Polynomial.from_payloads(spec, [spec.one()] + tail)


def _encode(value):
    """A value with the type name of every entry, so an int where a Fraction was due shows."""
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return [type(value).__name__, str(value)]


def _witt_digest_results():
    """Seeded results over every digest ring: per round a shared-factor from_polys, add, mul, frob and ghost.

    Over Q the numerators draw denominators from (1, 2, 3, 4) and the
    denominators from (1, 5, 7), so the two parts carry different scales.
    """
    for spec in _DIGEST_RINGS:
        rng = random.Random(f"witt digest over {spec}")
        for _ in range(12):
            common = _digest_part(spec, rng, rng.randint(0, 2), (1, 2, 3))
            f = WittVector.from_polys(
                common * _digest_part(spec, rng, rng.randint(0, 3), (1, 2, 3, 4)),
                common * _digest_part(spec, rng, rng.randint(0, 2), (1, 5, 7)),
            )
            g = WittVector.from_polys(
                _digest_part(spec, rng, rng.randint(1, 3), (1, 2, 3, 4)),
                _digest_part(spec, rng, rng.randint(0, 1), (1, 5, 7)),
            )
            yield f
            yield g
            yield witt_add(f, g)
            yield witt_mul(f, g)
            yield frobenius(rng.choice((2, 3, 4, 6)), f)
            yield ghost(g, rng.randint(1, 8))


def test_witt_outputs_golden_digest():
    digest, count = hashlib.sha256(), 0
    for result in _witt_digest_results():
        if isinstance(result, WittVector):
            parts = ["witt", str(result.spec), _encode(result.num.coeffs), _encode(result.den.coeffs)]
        else:
            parts = ["ghost", str(result.spec), _encode(result.components)]
        digest.update(json.dumps(parts).encode())
        count += 1
    assert (count, digest.hexdigest()) == (WITT_DIGEST["results"], WITT_DIGEST["sha256"])
