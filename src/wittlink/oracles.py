"""Independent routes that the production routes are checked against.

Only ``verify`` and the tests import this module, never a production
module, so an oracle cannot turn into a second production route.

``poly_divmod`` and ``poly_gcd_monic`` divide ``Polynomial``s and take
their gcds in loops over RingSpec payload ops, apart from the ``_dl_*``
kernel and the Witt normalization on kernel lists that they check.

Resultants use the convention

    Res(f, g) = lc(f)^deg(g) * prod of g(alpha) over the roots alpha of f

which equals the determinant of the Sylvester matrix built from deg(g)
rows of f over deg(f) rows of g.  The primary route is a scalar-tracked
subresultant remainder sequence (exact over any integral domain, controls
coefficient growth); a division-free Berkowitz determinant of the
Sylvester matrix backs rings without exact division and serves as an
independent oracle in the tests.  Both routes run over the base ring or
over polynomial rings R[t], which serve only the resultant form of the
Witt product and Frobenius, the oracle of their Newton route: the ops
object they take is the RingSpec itself, or _PolyRingOps, which gives
R[t] the same method names.
"""

from __future__ import annotations

import functools
import math

from .cft import AbelianField, unit_group
from .errors import DomainViolation, NotCoprime, UnsupportedRing
from .rings import (
    Polynomial,
    RingElement,
    RingSpec,
    _dl_divmod,
    _dl_gcd,
    _dl_powmod,
    _dl_sub,
    _dl_trim,
    cyclotomic_polynomial,
    is_prime,
)
from .witt import WittVector

# --------------------------------------------------------------------------
# polynomial division and gcds on RingSpec payloads


def poly_divmod(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Division with remainder, each leading term divided exactly by lc(g).

    Any g != 0 divides over a field; over a domain a leading term that
    lc(g) does not divide raises DomainViolation.
    """
    f._check(g)
    s = f.spec
    if g.is_zero:
        raise DomainViolation("division by the zero polynomial")
    r = list(f.coeffs)
    dg = g.degree
    q = [s.zero()] * max(len(r) - dg, 0)
    while len(r) - 1 >= dg and r:
        coef = s.exact_div(r[-1], g.coeffs[-1])
        shift = len(r) - 1 - dg
        q[shift] = coef
        for i, gc in enumerate(g.coeffs):
            r[i + shift] = s.sub(r[i + shift], s.mul(coef, gc))
        while r and s.is_zero(r[-1]):
            r.pop()
    return Polynomial.from_payloads(s, q), Polynomial(s, tuple(r))


def poly_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f exactly; works over any domain spec."""
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise DomainViolation("inexact polynomial division")
    return q


def poly_gcd_monic(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over a field coefficient ring, by the payload-loop Euclid."""
    if not f.spec.is_field:
        raise UnsupportedRing(f"gcd needs a field, got {f.spec}")
    a, b = f, g
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a.scale(a.spec.inv(a.coeffs[-1]))


# --------------------------------------------------------------------------
# generic resultant machinery over a RingSpec or _PolyRingOps


class _PolyRingOps:
    """Polynomial-over-spec as the coefficient ring R[t], with RingSpec's op names."""

    __slots__ = ("spec",)

    def __init__(self, spec: RingSpec):
        self.spec = spec

    @property
    def is_domain(self):
        return self.spec.is_domain

    def zero(self):
        return Polynomial.zero(self.spec)

    def one(self):
        return Polynomial.one(self.spec)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def exact_div(self, a, b):
        return poly_exact_div(a, b)

    pow_payload = RingSpec.pow_payload  # square-and-multiply through one() and mul()

    def is_zero(self, a):
        return a.is_zero

    def is_one(self, a):
        return a.is_one


def _lp_trim(c: list, ops) -> list:
    while c and ops.is_zero(c[-1]):
        c.pop()
    return c


def _lp_prem(A: list, B: list, ops) -> list:
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A mod B."""
    dA, dB = len(A) - 1, len(B) - 1
    lb = B[-1]
    lb_is_one = ops.is_one(lb)
    r = list(A)
    e = dA - dB + 1
    while r and len(r) - 1 >= dB:
        lr = r[-1]
        shift = len(r) - 1 - dB
        if not lb_is_one:
            r = [ops.mul(lb, c) for c in r]
        for i, bc in enumerate(B):
            r[i + shift] = ops.sub(r[i + shift], ops.mul(lr, bc))
        _lp_trim(r, ops)
        e -= 1
    if e > 0 and not lb_is_one:
        f = ops.pow_payload(lb, e)
        r = [ops.mul(f, c) for c in r]
    return r


def _lp_resultant_prs(A: list, B: list, ops):
    """Resultant by a scalar-tracked subresultant remainder sequence.

    The recursion Res(A, B) = (-1)^(dA dB) lc(B)^(dA - dR - delta*dB)
    Res(B, R) with R = prem(A, B), delta = dA - dB + 1, is tracked through
    exact numerator/denominator scalars, so any exactly-dividing beta may
    rescale the remainders without touching correctness; the classical
    subresultant beta keeps coefficient growth polynomial.
    """
    sign = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2:
            sign = -sign
        A, B = B, A
    if len(B) - 1 == 0:
        res = ops.pow_payload(B[0], len(A) - 1)
        return ops.neg(res) if sign < 0 else res
    num = ops.one()
    den = ops.one()
    psi = None
    prev_gap = None
    prev_lc = None
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        if dB == 0:
            base = ops.pow_payload(B[0], dA)
            break
        lb = B[-1]
        R = _lp_prem(A, B, ops)
        if not R:
            return ops.zero()
        dR = len(R) - 1
        delta = dA - dB + 1
        if (dA * dB) % 2:
            sign = -sign
        e = dA - dR - delta * dB
        if e >= 0:
            num = ops.mul(num, ops.pow_payload(lb, e))
        else:
            den = ops.mul(den, ops.pow_payload(lb, -e))
        # subresultant beta for size control
        gap = dA - dB
        if psi is None:
            beta = ops.one() if (gap + 1) % 2 == 0 else ops.neg(ops.one())
            psi = ops.neg(ops.one())
        else:
            if prev_gap == 0:
                pass  # psi unchanged; only reachable while psi is a sign
            else:
                psi = ops.exact_div(ops.pow_payload(ops.neg(prev_lc), prev_gap), ops.pow_payload(psi, prev_gap - 1))
            beta = ops.neg(ops.mul(prev_lc, ops.pow_payload(psi, gap)))
        prev_gap = gap
        prev_lc = lb
        try:
            R_small = [ops.exact_div(c, beta) for c in R]
            num = ops.mul(num, ops.pow_payload(beta, dB))
            R = R_small
        except DomainViolation:  # pragma: no cover - beta always divides
            pass
        A, B = B, R
    total = ops.mul(num, base)
    res = ops.exact_div(total, den)
    return ops.neg(res) if sign < 0 else res


def _sylvester_matrix(A: list, B: list, ops) -> list[list]:
    m, n = len(A) - 1, len(B) - 1
    dim = m + n
    rows = []
    Ad = list(reversed(A))
    Bd = list(reversed(B))
    zero = ops.zero()
    for i in range(n):
        rows.append([zero] * i + Ad + [zero] * (dim - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + Bd + [zero] * (dim - n - 1 - i))
    return rows


def _berkowitz_det(M: list[list], ops):
    """Division-free determinant (Berkowitz); works over any commutative ring."""
    n = len(M)
    if n == 0:
        return ops.one()
    V = [ops.one(), ops.neg(M[0][0])]
    for r in range(1, n):
        row = M[r][:r]
        col = [M[i][r] for i in range(r)]
        sums = []
        vec = col
        for j in range(r):
            acc = ops.zero()
            for x, y in zip(row, vec):
                acc = ops.add(acc, ops.mul(x, y))
            sums.append(acc)
            if j < r - 1:
                vec = [
                    functools.reduce(
                        ops.add,
                        (ops.mul(M[i][t], vec[t]) for t in range(r)),
                        ops.zero(),
                    )
                    for i in range(r)
                ]
        toep = [ops.one(), ops.neg(M[r][r])] + [ops.neg(s) for s in sums]
        V_new = []
        for i in range(r + 2):
            acc = ops.zero()
            for j in range(len(V)):
                k = i - j
                if 0 <= k < len(toep):
                    acc = ops.add(acc, ops.mul(toep[k], V[j]))
            V_new.append(acc)
        V = V_new
    det = V[n]
    return det if n % 2 == 0 else ops.neg(det)


def _lp_resultant_det(A: list, B: list, ops):
    return _berkowitz_det(_sylvester_matrix(A, B, ops), ops)


def _lp_resultant(A: list, B: list, ops, prs: bool = True):
    """Res(A, B) by the remainder sequence over a domain when prs, else by the determinant."""
    # two constants give 1 on either route: B[0]^0, or the empty Sylvester determinant
    A = _lp_trim(list(A), ops)
    B = _lp_trim(list(B), ops)
    if not A and not B:
        raise DomainViolation("resultant of two zero polynomials")
    if not A or not B:
        return ops.zero()
    if prs and ops.is_domain:
        return _lp_resultant_prs(A, B, ops)
    return _lp_resultant_det(A, B, ops)


def poly_resultant(f: Polynomial, g: Polynomial) -> RingElement:
    """Res(f, g) over the shared coefficient ring.

    Convention: Res(f, g) = lc(f)^deg(g) * product of g over the roots of
    f, the Sylvester determinant with deg(g) rows of f on top.  Returns 0
    when one argument is the zero polynomial; rejects two zeros.
    """
    f._check(g)
    return RingElement(f.spec, _lp_resultant(list(f.coeffs), list(g.coeffs), f.spec))


def poly_resultant_det(f: Polynomial, g: Polynomial) -> RingElement:
    """Sylvester-determinant route; independent cross-check of poly_resultant."""
    f._check(g)
    return RingElement(f.spec, _lp_resultant(f.coeffs, g.coeffs, f.spec, prs=False))


# --------------------------------------------------------------------------
# the Witt product and Frobenius as R[t] resultants (criterion 1)


def _star_polys_resultant(p: Polynomial, q: Polynomial) -> Polynomial:
    """The star product as Res_y(p~, q): the oracle of the Newton route.

    p~(y) = sum p_rev[i] t^(d-i) y^i is monic in y with roots t*a_i, so the
    resultant equals prod q(t*a_i) without any sign correction; q keeps
    constant (t-degree 0) coefficients, which keeps the remainder sequence
    cheap.
    """
    spec = p.spec
    d, e = p.degree, q.degree
    if d <= 0 or e <= 0:
        return Polynomial.one(spec)
    pops = _PolyRingOps(spec)
    zero = spec.zero()
    rev = list(reversed(p.coeffs))  # rev[i] = coefficient of y^i in rev(p)
    A = [Polynomial.from_payloads(spec, [zero] * (d - i) + [rev[i]]) for i in range(d + 1)]
    B = [Polynomial.constant(spec, c) for c in q.coeffs]
    res = _lp_resultant(A, B, pops)
    return _rescale_constant_to_one(res)


def _power_roots_resultant(p: Polynomial, n: int) -> Polynomial:
    """F_n on one part by a resultant: the oracle of the Newton route.

    rev(p) is reduced modulo the monic y^n - u (substituting y^n -> u), a
    small resultant in u finishes, and reversing u-coefficients with the
    sign (-1)^d turns prod (a_i^n - u) into prod (1 - a_i^n t).
    """
    spec = p.spec
    d = p.degree
    if d <= 0:
        return Polynomial.one(spec)
    if n == 1:
        return p
    pops = _PolyRingOps(spec)
    zero = spec.zero()
    rev = list(reversed(p.coeffs))
    # rev(p) mod (y^n - u): y^(q*n + r) contributes u^q to the y^r slot
    width = d // n + 1
    buckets = [[zero] * width for _ in range(min(n, d + 1))]
    for i, c in enumerate(rev):
        buckets[i % n][i // n] = spec.add(buckets[i % n][i // n], c)
    R = [Polynomial.from_payloads(spec, b) for b in buckets]
    B = [Polynomial.from_ints(spec, [0, -1])] + [Polynomial.zero(spec)] * (n - 1) + [
        Polynomial.one(spec)
    ]
    res = _lp_resultant(B, R, pops)  # Res(y^n - u, rev(p) mod (y^n - u))
    if (d * n) % 2:
        res = -res
    g = list(res.coeffs) + [zero] * (d + 1 - len(res.coeffs))
    out = [g[d - m] for m in range(d + 1)]
    if d % 2:
        out = [spec.neg(c) for c in out]
    return _rescale_constant_to_one(Polynomial.from_payloads(spec, out))


def _rescale_constant_to_one(poly: Polynomial) -> Polynomial:
    spec = poly.spec
    c0 = poly.constant_term
    if spec.is_one(c0):
        return poly
    return poly.scale(spec.inv(c0))


def _resultant_product(f: WittVector, g: WittVector) -> WittVector:
    """f (x) g by the R[t][y] resultants, independent of the Newton route."""
    star = _star_polys_resultant
    return WittVector(f.spec, star(f.num, g.num) * star(f.den, g.den), star(f.num, g.den) * star(f.den, g.num))


def _resultant_frobenius(n: int, f: WittVector) -> WittVector:
    return WittVector(f.spec, _power_roots_resultant(f.num, n), _power_roots_resultant(f.den, n))


# --------------------------------------------------------------------------
# class field oracles


def crt_combine(residues) -> tuple[int, int]:
    """Combine (value, modulus) pairs with pairwise coprime moduli."""
    residues = list(residues)
    if not residues:
        raise DomainViolation("nothing to combine")
    value, modulus = residues[0]
    value %= modulus
    for v, m in residues[1:]:
        if math.gcd(modulus, m) != 1:
            raise NotCoprime(f"moduli {modulus} and {m} share a factor")
        inv = pow(modulus, -1, m)
        k = (v - value) * inv % m
        value = value + modulus * k
        modulus *= m
        value %= modulus
    return value, modulus


def ramified_set_via_inertia(F: AbelianField) -> frozenset:
    """Cross-check: p ramifies iff the level-p inertia units leave H."""
    n = F.level
    out = set()
    for p in range(2, n + 1):
        if n % p or not is_prime(p):
            continue
        pe = 1
        while n % (pe * p) == 0:
            pe *= p
        cofactor = n // pe
        inertia = [u for u in unit_group(n) if u % cofactor == 1 % cofactor]
        if any(u not in F.subgroup for u in inertia):
            out.add(p)
    return frozenset(out)


def cyclotomic_factor_degrees(n: int, p: int) -> tuple[int, int]:
    """(f, r) from the distinct-degree factorization of Phi_n over F_p.

    Repeated squaring of x^p modulo Phi_n with gcd extraction, on the
    ``_dl_*`` lists mod p; no full factorization is materialized.
    Independent of the Artin-order route.
    """
    if not is_prime(p):
        raise DomainViolation(f"{p} is not prime")
    if math.gcd(n, p) != 1:
        raise NotCoprime(f"{p} divides the level {n}")
    A = _dl_trim(list(cyclotomic_polynomial(n)), p)
    x = [0, 1]
    shapes: list[tuple[int, int]] = []
    cur = _dl_divmod(x, A, p)[1]
    k = 0
    while len(A) > 1:
        k += 1
        deg = len(A) - 1
        if k > deg // 2 and k > 1:
            shapes.append((deg, 1))
            break
        cur = _dl_powmod(cur, p, A, p)
        g = _dl_gcd(A, _dl_sub(cur, _dl_divmod(x, A, p)[1], p), p)
        if len(g) > 1:
            if (len(g) - 1) % k:
                raise AssertionError(f"a factor of degree {len(g) - 1} in the degree-{k} part of Phi_{n} mod {p}")
            shapes.append((k, (len(g) - 1) // k))
            A = _dl_divmod(A, g, p)[0]
            cur = _dl_divmod(cur, A, p)[1]
    degrees = {f for f, _ in shapes}
    if len(degrees) != 1:
        raise AssertionError(f"mixed factor degrees {shapes} for Phi_{n} mod {p}")
    f = degrees.pop()
    r = sum(count for _, count in shapes)
    return f, r
