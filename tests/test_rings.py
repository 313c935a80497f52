"""Coefficient rings: element arithmetic, polynomials, resultants, conjugation."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wittlink.cli import parse_ring
from wittlink.errors import DomainViolation, NotAUnit, SpecMismatch
from wittlink.rings import (
    Polynomial,
    RingElement,
    RingSpec,
    cyclotomic_conjugate_payload,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    factor,
    format_polynomial,
    is_prime,
    primes_below,
    MAX_KERNEL_WIDTH,
    _dl_divmod,
    _dl_gcd,
    _dl_invmod,
    _dl_mul,
    _ext_field_modulus,
    _fused,
    _kernel,
    _reduce,
)
from wittlink.oracles import poly_divmod, poly_gcd_monic, poly_resultant
from wittlink.witt import MAX_DECODE_FIELD_SIZE

Z = RingSpec.integers()
Q = RingSpec.rationals()
Z10 = RingSpec.mod_ring(10)
F7 = RingSpec.prime_field(7)
F8 = RingSpec.ext_field(2, 3)
C5 = RingSpec.cyclotomic(5)


def zpoly(*ints):
    return Polynomial.from_ints(Z, ints)


# --------------------------------------------------------------------------
# primality: trial division by the bases settles n < 41^2, Miller-Rabin the rest


def test_is_prime_matches_sieve():
    primes = set(primes_below(5000))
    assert all(is_prime(n) == (n in primes) for n in range(-3, 5000))


@pytest.mark.parametrize("n", [561, 1681, 1763, 1849, 2047, 41041, 3215031751])
def test_is_prime_rejects_pseudoprimes_and_small_squares(n):
    # 41^2, 41*43, 43^2 sit just past the trial-division shortcut; the rest
    # are Carmichael numbers or strong pseudoprimes to small bases
    assert not is_prime(n)


def _trial_factor(n: int) -> tuple:
    """((prime, exponent), ...) of n by division by every d >= 2 in turn."""
    out, d = [], 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out)


def _trial_divisors(n: int) -> list:
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _trial_phi(n: int) -> int:
    phi, m = 1, n
    for p in range(2, math.isqrt(n) + 1):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            phi *= (p - 1) * p ** (e - 1)
    if m > 1:
        phi *= m - 1
    return phi


def test_factor_divisors_and_phi_match_trial_division():
    for n in range(1, 5001):
        assert factor(n) == _trial_factor(n)
        assert divisors(n) == _trial_divisors(n)
        assert euler_phi(n) == _trial_phi(n)


def test_width_is_the_payload_length():
    assert [s.width for s in (Z, Q, Z10, F7)] == [1, 1, 1, 1]
    for spec in (F8, C5, RingSpec.cyclotomic(35)):
        assert spec.width == len(spec.one()) == len(spec.from_int(3))


# --------------------------------------------------------------------------
# element arithmetic


def test_elem_mul_integers():
    assert (RingElement.of(Z, 2) * RingElement.of(Z, 3)).payload == 6


def test_elem_inv_mod_ring():
    # extended-Euclid oracle: 3 * 7 = 21 = 2*10 + 1
    assert RingElement.of(Z10, 3).inv().payload == 7


def test_elem_inv_non_unit():
    with pytest.raises(NotAUnit):
        RingElement.of(Z10, 2).inv()


def test_elem_spec_mismatch():
    # each operator takes its other operand through RingElement.of, which refuses another ring
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(SpecMismatch):
            getattr(RingElement.of(Z, 1), op)(RingElement.of(F7, 1))


def test_ring_kinds_are_the_six_public_ones():
    from wittlink import rings

    kinds = {v for k, v in vars(rings).items() if k.startswith("_KIND_")}
    assert kinds == {"Z", "Q", "Zn", "Fp", "C", "Fq"}


def test_pow_payload_refuses_a_negative_exponent():
    assert Z.pow_payload(2, 10) == 1024
    assert F7.pow_payload(3, 0) == 1
    with pytest.raises(DomainViolation, match="negative exponent"):
        Z.pow_payload(2, -1)


def test_pow_payload_refuses_a_negative_exponent_under_python_O():
    # a bare assert here once let -1 >> 1 == -1 loop forever under -O
    code = (
        "from wittlink.errors import DomainViolation\n"
        "from wittlink.rings import RingSpec\n"
        "try:\n"
        "    RingSpec.integers().pow_payload(2, -1)\n"
        "except DomainViolation:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_ring_axioms_integers(a, b, c):
    ea, eb, ec = (RingElement.of(Z, v) for v in (a, b, c))
    assert ((ea + eb) + ec).payload == (ea + (eb + ec)).payload
    assert (ea * eb).payload == (eb * ea).payload
    assert (ea * (eb + ec)).payload == (ea * eb + ea * ec).payload


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_ring_axioms_prime_field(a, b, c):
    ea, eb, ec = (RingElement.of(F7, v) for v in (a, b, c))
    assert ((ea + eb) + ec).payload == (ea + (eb + ec)).payload
    assert (ea * (eb + ec)).payload == (ea * eb + ea * ec).payload


@given(
    st.tuples(*([st.integers(-3, 3)] * 4)),
    st.tuples(*([st.integers(-3, 3)] * 4)),
    st.tuples(*([st.integers(-3, 3)] * 4)),
)
@settings(max_examples=40, deadline=None)
def test_ring_axioms_cyclotomic(a, b, c):
    ea, eb, ec = (RingElement.of(C5, v) for v in (a, b, c))
    assert ((ea + eb) + ec) == (ea + (eb + ec))
    assert (ea * eb) == (eb * ea)
    assert (ea * (eb + ec)) == (ea * eb + ea * ec)


# --------------------------------------------------------------------------
# polynomials


def test_poly_mul_example():
    assert zpoly(1, -2) * zpoly(1, -3) == zpoly(1, -5, 6)


def test_poly_mul_identity():
    f = zpoly(1, 4, -2, 7)
    assert f * Polynomial.one(Z) == f


def test_poly_mul_mod2():
    Z2 = RingSpec.mod_ring(2)
    f = Polynomial.from_ints(Z2, [1, 1])
    g = Polynomial.from_ints(Z2, [1, -1])
    assert f * g == Polynomial.from_ints(Z2, [1, 0, 1])


def test_poly_canonical_degree():
    assert zpoly(1, 2, 0, 0).degree == 1
    assert zpoly(0, 0).degree == -1


def test_format_polynomial():
    assert format_polynomial(zpoly(1, -5, 6)) == "1-5t+6t^2"
    assert format_polynomial(zpoly(0)) == "0"
    assert format_polynomial(zpoly(0, 1)) == "t"


C3, C8, F9 = RingSpec.cyclotomic(3), RingSpec.cyclotomic(8), RingSpec.ext_field(3, 2)


@pytest.mark.parametrize(
    "spec, coeffs, text",
    [
        (Z, [0, -1, 2, -1], "-t+2t^2-t^3"),
        (Z10, [3, 9, 0, 1], "3+9t+t^3"),
        (F7, [1, 1, 6], "1+t+6t^2"),
        (Q, [1, Fraction(-1, 2), 0, Fraction(3, 4), 1], "1-1/2t+3/4t^3+t^4"),
        (Q, [0, Fraction(5, 3), -1, Fraction(-7, 2)], "5/3t-t^2-7/2t^3"),
        (C3, [(1, 0), (0, -1), (-3, 0), (1, 1), (1, 0)], "1+(-z)t-3t^2+(1+z)t^3+t^4"),
        (C5, [(0, -1, 0, 0), (-1, 0, 0, 0), (2, 0, 0, 1)], "-z-t+(2+z^3)t^2"),
        (C5, [(-1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 2, 0)], "(-1+z)+(2z^2)t^2"),
        (C5, [], "0"),
        (C8, [(0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -2), (5, 0, 0, 0)], "-t+(-2z^3)t^2+5t^3"),
        (C8, [(2, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, -1, 1, 0)], "2+(z)t+t^2+(-z+z^2)t^3"),
        (F9, [(1, 0), (0, 1), (2, 0), (1, 2)], "1+(w)t+2t^2+(1+2w)t^3"),
        (F9, [(0, 0), (2, 0), (0, 0), (0, 2)], "2t+(2w)t^3"),
        (F8, [(1, 0, 0), (1, 1, 1), (0, 0, 1), (1, 0, 0)], "1+(1+w+w^2)t+(w^2)t^2+t^3"),
    ],
)
def test_format_polynomial_over_every_kind(spec, coeffs, text):
    assert format_polynomial(Polynomial.from_payloads(spec, coeffs)) == text


@pytest.mark.parametrize(
    "spec, value, text",
    [
        (C5, (1, -1, 0, 2), "1-z+2z^3"),
        (C8, (0, 0, -3, 1), "-3z^2+z^3"),
        (F9, (2, 1), "2+w"),
        (Q, Fraction(-3, 4), "-3/4"),
        (Z10, -3, "7"),
    ],
)
def test_element_rendering(spec, value, text):
    assert str(RingElement.of(spec, value)) == text


@pytest.mark.parametrize(
    "specs, text, rep",
    [
        ([Z, RingSpec("Z"), RingSpec("Z", 0, 0), parse_ring("z")], "Z", "RingSpec(kind='Z', n=0, k=0)"),
        ([Q, RingSpec("Q"), parse_ring("Q")], "Q", "RingSpec(kind='Q', n=0, k=0)"),
        ([Z10, RingSpec("Zn", 10), parse_ring("Z10")], "Z/10", "RingSpec(kind='Zn', n=10, k=0)"),
        ([F7, RingSpec("Fp", 7), RingSpec(kind="Fp", n=7), parse_ring("f7")], "F7", "RingSpec(kind='Fp', n=7, k=0)"),
        ([C5, RingSpec("C", 5), parse_ring("C5")], "Z[zeta_5]", "RingSpec(kind='C', n=5, k=0)"),
        ([F9, RingSpec("Fq", 3, 2), RingSpec(kind="Fq", n=3, k=2)], "F3^2", "RingSpec(kind='Fq', n=3, k=2)"),
    ],
)
def test_ring_spec_identity_is_its_kind_and_parameters(specs, text, rep):
    # every way to build a ring gives one spec: equal, with one hash, str and repr
    assert {str(s) for s in specs} == {text}
    assert {repr(s) for s in specs} == {rep}
    assert all(s == specs[0] and hash(s) == hash(specs[0]) for s in specs)


def test_ring_specs_of_different_kinds_differ():
    pairs = [
        (RingSpec.prime_field(3), RingSpec.ext_field(3, 1)),
        (RingSpec.prime_field(7), RingSpec.mod_ring(7)),
        (RingSpec.cyclotomic(1), Z),
        (Z, Q),
    ]
    for a, b in pairs:
        assert a != b and str(a) != str(b)


@given(
    st.sampled_from([7, 101, 0]),
    st.lists(st.integers(-30, 30), max_size=7),
    st.lists(st.integers(-30, 30), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_dense_list_kernel_matches_polynomial(p, a, b):
    # p = 0 is Q; the kernel works on the payload lists of Polynomial
    spec = RingSpec.prime_field(p) if p else Q
    f, g = Polynomial.from_ints(spec, a), Polynomial.from_ints(spec, b)
    if g.is_zero:
        return
    A, B = list(f.coeffs), list(g.coeffs)
    q, r = poly_divmod(f, g)
    dq, dr = _dl_divmod(A, B, p)
    assert (Polynomial.from_payloads(spec, dq), Polynomial.from_payloads(spec, dr)) == (q, r)
    gcd = poly_gcd_monic(f, g)
    assert Polynomial.from_payloads(spec, _dl_gcd(A, B, p)) == gcd
    if g.degree >= 1:
        inv = _dl_invmod(A, B, p)
        if gcd.degree == 0:
            assert poly_divmod(Polynomial.from_payloads(spec, inv) * f, g)[1] == Polynomial.one(spec)
        else:
            assert inv is None


# --------------------------------------------------------------------------
# the F_q modulus: Rabin's test on the dense-list kernel


# the lexicographically least monic irreducible of degree k over F_p, for
# every field of the decoder (k >= 2, p^k <= MAX_DECODE_FIELD_SIZE = 4096)
EXT_FIELD_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1),
    (17, 2): (1, 1, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (29, 2): (1, 1, 1),
    (31, 2): (1, 0, 1),
    (37, 2): (1, 3, 1),
    (41, 2): (1, 1, 1),
    (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1),
    (53, 2): (1, 1, 1),
    (59, 2): (1, 0, 1),
    (61, 2): (1, 5, 1),
}


def test_ext_field_moduli_match_the_table():
    fields = [(p, k) for p in primes_below(MAX_DECODE_FIELD_SIZE + 1) for k in range(2, 13)
              if p**k <= MAX_DECODE_FIELD_SIZE]
    assert {(p, k): _ext_field_modulus(p, k) for p, k in fields} == EXT_FIELD_MODULI


# --------------------------------------------------------------------------
# the payload kernel against the product loop it replaced

# every Z[zeta_n] of the CLI's C<n> rings past width 1, and every F_q of the decoder
KERNEL_CONTEXTS = [(cyclotomic_polynomial(n), 0) for n in range(3, 101)] + [
    (_ext_field_modulus(p, k), p)
    for p in primes_below(MAX_DECODE_FIELD_SIZE + 1)
    for k in range(1, 13)
    if p**k <= MAX_DECODE_FIELD_SIZE
]


def _reference_fused(base, xs, ys, m, p):
    """base + the sum of the _dl_mul products, reduced by _reduce and mod p."""
    acc = list(base)
    for x, y in zip(xs, ys):
        acc = [u + v for u, v in itertools.zip_longest(acc, _dl_mul(x, y), fillvalue=0)]
    return _reduce(acc, m, p)


def _random_sum(rng, w, pairs, bits):
    """A base and `pairs` pairs of width-w vectors, with entries of random sign up to 2^bits.

    A third of the vectors are ints of the ring (no entry past the first),
    which the kernel multiplies on a shortcut.
    """
    vectors = []
    for _ in range(2 * pairs + 1):
        v = [rng.randint(-(2**bits), 2**bits) for _ in range(w)]
        vectors.append(tuple(v if rng.randrange(3) else v[:1] + [0] * (w - 1)))
    return vectors[0], vectors[1 : pairs + 1], vectors[pairs + 1 :]


@given(st.integers(0, 2**64), st.integers(0, 9), st.integers(0, 300))
@settings(max_examples=6, deadline=None)
def test_payload_kernel_matches_the_product_loop(seed, pairs, bits):
    rng = random.Random(seed)
    for m, p in KERNEL_CONTEXTS:
        base, xs, ys = _random_sum(rng, len(m) - 1, pairs, bits)
        assert _fused(base, xs, ys, m, p) == _reference_fused(base, xs, ys, m, p), (m, p)


def test_payload_kernel_past_the_generated_width_takes_the_loop():
    m = cyclotomic_polynomial(101)
    assert len(m) - 1 > MAX_KERNEL_WIDTH
    base, xs, ys = _random_sum(random.Random(101), len(m) - 1, 3, 300)
    for p in (0, 7):
        assert _fused(base, xs, ys, m, p) == _reference_fused(base, xs, ys, m, p)


@pytest.mark.parametrize("m", [[0, 1], (0.5, 1), ("0", 1), (1, 2), (1,), ()])
def test_payload_kernel_refuses_a_modulus_that_is_not_a_monic_int_tuple(m):
    with pytest.raises(TypeError):
        _kernel(m)


# --------------------------------------------------------------------------
# resultants


def test_resultant_linear_linear():
    # Sylvester oracle [[1, -2], [1, -3]] -> det -1; equals g(2) = 2 - 3
    f, g = zpoly(-2, 1), zpoly(-3, 1)
    assert poly_resultant(f, g).payload == -1


def test_resultant_against_constant_one():
    for f in (zpoly(-2, 1), zpoly(2, -1, 0, 1), zpoly(1, 1, 1, 1, 1)):
        assert poly_resultant(f, Polynomial.one(Z)).payload == 1


def test_resultant_shared_root():
    assert poly_resultant(zpoly(-1, 0, 1), zpoly(-1, 1)).payload == 0


def test_resultant_both_zero_rejected():
    with pytest.raises(DomainViolation):
        poly_resultant(Polynomial(Z, ()), Polynomial(Z, ()))


@given(
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_resultant_multiplicative_in_second_argument(a, b, c):
    # monic samples of degree <= 4
    f = Polynomial.from_ints(Z, a + [1])
    g = Polynomial.from_ints(Z, b + [1])
    h = Polynomial.from_ints(Z, c + [1])
    lhs = poly_resultant(f, g * h).payload
    rhs = poly_resultant(f, g).payload * poly_resultant(f, h).payload
    assert lhs == rhs


def _list_mul(a, b, ops):
    out = [ops.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ops.add(out[i + j], ops.mul(x, y))
    return out


def _horner(g, x, ops):
    acc = ops.zero()
    for c in reversed(g):
        acc = ops.add(ops.mul(acc, x), c)
    return acc


_ELEMENTS = {
    Z: st.integers(-5, 5),
    Q: st.fractions(-5, 5, max_denominator=4),
    F7: st.integers(0, 6),
    F8: st.tuples(*[st.integers(0, 1)] * 3),
}


@st.composite
def _resultant_case(draw):
    """A ring's ops, f = c * prod (x - alpha_i), g with a nonzero leading coefficient, c and the alphas."""
    ops = draw(st.sampled_from(list(_ELEMENTS)))
    element = _ELEMENTS[ops]
    nonzero = element.filter(lambda a: not ops.is_zero(a))
    c = draw(nonzero)
    roots = draw(st.lists(element, max_size=3))
    f = [c]
    for alpha in roots:
        f = _list_mul(f, [ops.neg(alpha), ops.one()], ops)
    g = draw(st.lists(element, max_size=3)) + [draw(nonzero)]
    return ops, f, g, c, roots


@given(_resultant_case())
@settings(max_examples=200, deadline=None)
def test_resultant_is_the_product_over_the_roots(case):
    # the definition, not a second algorithm: Res(f, g) = c^deg g * prod g(alpha_i)
    # for f = c * prod (x - alpha_i), over Z, Q, F_7 and F_8
    ops, f, g, c, roots = case
    want = ops.one()
    for _ in range(len(g) - 1):
        want = ops.mul(want, c)
    for alpha in roots:
        want = ops.mul(want, _horner(g, alpha, ops))

    def res(a, b):
        return poly_resultant(Polynomial.from_payloads(ops, a), Polynomial.from_payloads(ops, b)).payload

    fg = res(f, g)
    assert fg == want
    assert res(g, f) == (ops.neg(fg) if len(roots) * (len(g) - 1) % 2 else fg)
    assert res(f, []) == res([], g) == ops.zero()  # against the zero polynomial


# --------------------------------------------------------------------------
# cyclotomic polynomials and conjugation


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def conj(e: RingElement, sigma: int) -> RingElement:
    return RingElement(e.spec, cyclotomic_conjugate_payload(e.spec, e.payload, sigma))


def test_conjugate_identity():
    x = RingElement.of(C5, (0, 1, 0, 0))
    assert conj(x, 1) == x


def test_conjugate_generator():
    assert cyclotomic_conjugate_payload(C5, (0, 1, 0, 0), 2) == (0, 0, 1, 0)


def test_conjugate_cube_reduces():
    # x^3 -> x^6 = x mod Phi_5
    assert cyclotomic_conjugate_payload(C5, (0, 0, 0, 1), 2) == (0, 1, 0, 0)


def test_conjugate_non_unit_sigma():
    with pytest.raises(NotAUnit):
        cyclotomic_conjugate_payload(C5, (0, 1, 0, 0), 5)


@given(
    st.tuples(*([st.integers(-3, 3)] * 4)),
    st.tuples(*([st.integers(-3, 3)] * 4)),
    st.sampled_from([1, 2, 3, 4]),
)
@settings(max_examples=60, deadline=None)
def test_conjugate_is_ring_map(a, b, sigma):
    ea, eb = RingElement.of(C5, a), RingElement.of(C5, b)
    assert conj(ea + eb, sigma) == conj(ea, sigma) + conj(eb, sigma)
    assert conj(ea * eb, sigma) == conj(ea, sigma) * conj(eb, sigma)


@given(
    st.tuples(*([st.integers(-3, 3)] * 4)),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([1, 2, 3, 4]),
)
@settings(max_examples=60, deadline=None)
def test_conjugate_composition(a, sigma, tau):
    e = RingElement.of(C5, a)
    lhs = conj(conj(e, tau), sigma)
    rhs = conj(e, sigma * tau % 5)
    assert lhs == rhs
