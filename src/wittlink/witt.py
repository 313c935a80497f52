"""The ring of rational Witt vectors over an exact coefficient ring.

A rational Witt vector is a rational function num/den over R with
num(0) = den(0) = 1.  Addition is multiplication of rational functions
(identity: the constant 1); the product extends (1-a*t) (x) (1-b*t) =
(1-a*b*t) biadditively and is computed on polynomial parts, never by root
extraction.

Ghost components (power sums of inverse roots, numerator minus
denominator) come from a division-free Newton recurrence; the ghost map
turns Witt (+) and (x) into componentwise + and *.  The product and the
Frobenius operators are computed on that side.  For parts p, q with
inverse-root multisets {a_i}, {b_j}, the star product p x q =
prod (1 - a_i b_j t) is the polynomial of degree deg p * deg q whose
power sums are s_k(p) * s_k(q), and F_n(p) = prod (1 - a_i^n t) the one
whose power sums are s_nk(p).  Newton's identities rebuild each from its
power sums, dividing by k exactly in characteristic 0: over Z and
Z[zeta_n] directly, over F_p, Z/n and F_q on lifts to Z or Z[x]/(g) with g
read over Z (the coefficients are universal integer polynomials in the
inputs, and no k need be invertible mod p or n), reduced at the end.
``witt_mul`` computes each of the four parts' power sums once, to its
degree times the larger degree of the other vector's parts, and the four
star products read slices of them.

The kernels take a reduction context (m, p), never a RingSpec: the vector
modulus m (Phi_n over Z[zeta_n], g over F_q = F_p[x]/(g), () on the scalar
rings and on C1, C2, whose width-1 payloads are ints) and the prime p, or n
over Z/n, or 0.  Every ring operation runs on kernel lists from one
``_lift`` to one ``_settle``.  ``_lift`` takes the two parts of an operand
together (all four for a sum): Q as p(Lt) in Z[t], L the lcm of their
denominators, so s_k(p) = s_k(p(Lt)) / L^k.  The star products and F_n
rebuild on (m, 0), the characteristic-0 lift, and are reduced mod p; the
ghost map runs on (m, p), reducing inside the recurrence.  Each sum of
payload-vector products in them is one ``rings._fused`` call: the
straight-line kernel generated once per modulus up to width 96, and a
product loop past it.  Parts multiply on the lists by
``rings._mul_lists`` in (m, p), the kernel behind
``Polynomial.__mul__``.  ``_from_kernel`` normalizes on the lists, and
``_settle`` builds the only Fractions and the result's parts once.

Criterion 1 holds both routes against the characteristic polynomials of
companion matrices in ``oracles``.

Equality never relies on normal forms: f == g iff
f.num * g.den == g.num * f.den, valid because denominators with constant
term 1 are power-series units.

Normalization divides num and den by their gcd scaled to constant term 1.
Over Z and Q (scaled by t -> Lt) parts that pack into at most
MAX_HEURISTIC_BITS bits take the heuristic gcd GCDHEU: one integer gcd h
of the parts evaluated at xi = 2^k, with xi >= 2 min(|num|_inf,
|den|_inf) + 2, whose symmetric xi-adic digits give a polynomial G.  That
bound is the proof: a constant G shows the parts coprime, and a G / G(0)
with integer coefficients is the gcd once it divides both parts exactly.
Larger parts, and parts on which a few tries at wider xi fail, take the
modular gcd, which Z[zeta_n] always takes: gcds modulo primes q = 1 (mod
n), at each root of Phi_n mod q, are interpolated, combined by CRT and
lifted until the lift divides both parts.  No gcd is taken over Q or
Q(zeta_n).  The gcd is integral (Gauss's lemma), so the quotients are;
both routes refuse parts whose constant term is not 1.  Over F_p the gcd
is taken on int lists mod p, over F_q on payload-vector lists mod (g, p),
both before the one ``_settle``; over Z/n the parts are left as given.
The group-ring decoder searches F_q on the same lists: a is an inverse
root of a part when 1 - a*t divides it exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainViolation, NotSplit, SpecMismatch, UnsupportedRing
from .cft import subgroup_generators, unit_group
from .rings import (
    Polynomial,
    RingElement,
    RingSpec,
    _KIND_C,
    _KIND_FP,
    _KIND_Q,
    _KIND_ZN,
    _dl_divmod,
    _dl_gcd,
    _dl_invmod,
    _dl_trim,
    _fused,
    _mul_lists,
    conjugate_polynomial,
    cyclotomic_polynomial,
    is_prime,
)

# --------------------------------------------------------------------------
# normalization helpers


# n -> the pairs (q, omega) found so far, q ascending; one list per level n
# (C<n> stops at 100), as long as the most probes one gcd took
_PROBES: dict[int, list] = {}


def _probe_primes(n: int):
    """Primes q = 1 (mod n) above 2^29, ascending and without end, each with a root omega of Phi_n mod q.

    zeta -> omega is then a ring map Z[zeta_n] -> F_q; for n = 1 it is the
    reduction Z -> F_q.  The first primes lie below 2^30, so every residue
    of the modular gcd and of its Euclid is one 30-bit digit of a Python
    int.  The pairs found are kept for later callers.
    """
    found = _PROBES.setdefault(n, [])
    for i in itertools.count():
        if i == len(found):
            phi = cyclotomic_polynomial(n)
            q = found[-1][0] + n if found else (2**29 // n + 1) * n + 1
            while not is_prime(q):
                q += n
            for a in itertools.count(2):
                # a^((q-1)/n) has order dividing n; a root of Phi_n iff exactly n
                r = pow(a, (q - 1) // n, q)
                if sum(c * pow(r, k, q) for k, c in enumerate(phi)) % q == 0:
                    found.append((q, r))
                    break
        yield found[i]


@functools.lru_cache(maxsize=None)  # one pair of matrices per (n, q, omega) that _PROBES holds
def _root_maps(n: int, q: int, omega: int) -> tuple[list, list]:
    """Evaluation at the roots r of Phi_n mod q (the omega^u, u prime to n), and its inverse.

    Row k of the first matrix holds the powers of r_k: it maps a payload
    vector to its image under zeta -> r_k.  Row i of the second holds
    coefficient i of each Lagrange polynomial (Phi_n / (x - r_k)) / (its value at r_k).
    """
    phi = cyclotomic_polynomial(n)
    roots = [pow(omega, u, q) for u in range(1, n + 1) if math.gcd(u, n) == 1]
    evaluate = [[pow(r, i, q) for i in range(len(phi) - 1)] for r in roots]
    basis = []
    for r, powers in zip(roots, evaluate):
        L = _dl_divmod(phi, [-r, 1], q)[0]
        scale = pow(sum(map(operator.mul, L, powers)), -1, q)
        basis.append([v * scale % q for v in L])
    return evaluate, [list(row) for row in zip(*basis)]


def _gcd_mod(a: list, b: list, p: int) -> list:
    """gcd(a, b) mod the prime p, scaled to constant term 1 (nonzero, as a(0) = 1)."""
    g = _dl_gcd(a, b, p)
    inv = pow(g[0], -1, p)
    return [c * inv % p for c in g]


def _divide_out(a: list, g: list, ctx: tuple = ((), 0)) -> list | None:
    """a / g when g, with g(0) = 1, divides a exactly in the context ctx = (m, p), else None.

    Series division, q_k = a_k - sum_{i >= 1} g_i q_(k-i); exact iff the terms past the quotient vanish.
    """
    m, p = ctx
    dq, q = len(a) - len(g) + 1, []
    ng = [[-v for v in x] for x in g] if m else None
    for k, x in enumerate(a):
        t = min(k, len(g) - 1)
        if m:
            r = _fused(x, ng[t:0:-1], q[k - t :], m, p)
        else:
            r = x - sum(map(operator.mul, g[t:0:-1], q[k - t :]))
            r = r % p if p else r
        if k < dq:
            q.append(r)
        elif any(r) if m else r:
            return None
    return q


def _modular_gcd(a, b, n: int, images, divide) -> tuple:
    """a / g and b / g for g = gcd(a, b) over Z[zeta_n] (Z for n = 1), scaled to g(0) = 1.

    g is integral: the reversed parts are monic.  ``images(q, omega)``
    gives g's image mod q as flattened coefficient vectors, or None for a
    prime of no use; with both leading coefficients nonzero mod q its
    degree is at least deg g, so a constant image proves a and b coprime
    and a larger degree marks an unlucky prime.  The images of least degree
    are combined by CRT and lifted to symmetric residues until ``divide``
    divides both parts by the lift: a common divisor of that degree is g
    (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 6).  Parts whose
    constant term is not 1 are refused: g scaled to g(0) = 1 need not be
    integral for them, and then no lift would ever divide.
    """
    w = len(cyclotomic_polynomial(n)) - 1
    if any(c[0] not in (1, (1,) + (0,) * (w - 1)) for c in (a, b)):  # the int or the vector one
        raise AssertionError("the modular gcd needs parts with constant term 1")
    g, m = [], 1
    for q, omega in _probe_primes(n):
        h = images(q, omega)
        if h is None or (g and len(h) > len(g)):
            continue
        if len(h) == w:
            return a, b
        if not g or len(h) < len(g):
            g, m = h, q
        else:
            u = pow(m, -1, q)
            g = [x + m * ((y - x) * u % q) for x, y in zip(g, h)]
            m *= q
        lift = [c - m if 2 * c > m else c for c in g]
        qa = divide(a, lift)
        qb = None if qa is None else divide(b, lift)
        if qb is not None:
            return qa, qb


# Largest packed size, k * (length of the longer part) bits at xi = 2^k,
# that takes the heuristic gcd over Z; larger parts take the modular gcd.
# CPython's integer gcd is quadratic in the bit length, the modular gcd's
# Euclid mod q in the degree.  On the coprime parts of witt mul (P0/P1) x
# (P2/P3), P_i of degree d with digits 1-9, the heuristic took 31 ms
# against 47 ms at d = 18 (1.5 * 10^5 bits), 82-102 against 92-102 ms at
# d = 20 (2.2 * 10^5) and 240-320 against 160-200 ms at d = 24 (3.8 * 10^5);
# at d = 35, the cap of MAX_PRODUCT_DEGREE, the parts pack into 1.2 * 10^6
# bits.  On random coprime parts the heuristic wins below about 300-bit
# coefficients and loses above, at every size; at this size it took 27-71
# ms (best of three, Python 3.11, one core of a shared 2-core Intel Xeon
# host).
MAX_HEURISTIC_BITS = 150_000
# Tries of the heuristic gcd before the modular gcd takes over, each at a
# wider xi.  A try fails only when the integer gcd(a(xi), b(xi)) / g(xi)
# puts a digit of h past xi / 2.
_HEURISTIC_TRIES = 3


def _heuristic_gcd(a: list, b: list, k: int) -> tuple | None:
    """a / g and b / g for g = gcd(a, b) over Z, scaled to g(0) = 1, by GCDHEU from xi = 2^k; None when every try fails.

    Both parts are packed at xi, h = gcd(a(xi), b(xi)) is one integer gcd,
    and G is read off the symmetric xi-adic digits of h (Char, Geddes and
    Gonnet, J. Symbolic Comput. 7 (1989) 31-48).  Parts with constant term
    1 are primitive, and every root of a lies below 1 + |a|_inf in absolute
    value, so for xi >= 2 min(|a|_inf, |b|_inf) + 2 a divisor c of g of
    positive degree has |c(xi)| > xi / 2, past every digit of h: a constant
    G proves the parts coprime, and a G / G(0) with integer coefficients
    that divides both parts exactly is g (c(xi) divides G(0)).
    """
    for _ in range(_HEURISTIC_TRIES):
        xa = xb = 0
        for c in reversed(a):
            xa = (xa << k) + c
        for c in reversed(b):
            xb = (xb << k) + c
        h, xi, G = math.gcd(xa, xb), 1 << k, []
        while h:  # digits in (-xi/2, xi/2]
            d = h & (xi - 1)
            d -= xi if 2 * d > xi else 0
            G.append(d)
            h = (h - d) >> k
        if len(G) == 1:
            return a, b
        g0 = G[0]
        if g0 and not any(c % g0 for c in G):
            g = [c // g0 for c in G]
            qa = _divide_out(a, g)
            qb = None if qa is None else _divide_out(b, g)
            if qb is not None:
                return qa, qb
        k += k // 2


def _normalize_lists(a: list, b: list, ctx: tuple) -> tuple[list, list]:
    """a / g, b / g for kernel lists with constant term 1, g = gcd(a, b) in the context ctx = (m, p).

    Over F_p and F_q (p > 0) the gcd is taken on the lists mod p.  Over Z
    (ctx = ((), 0)) parts whose constant term is not 1 are refused first.
    Parts that pack into at most MAX_HEURISTIC_BITS bits at xi = 2^k, 2^16
    times the least power of 2 at or above 2 min(|a|_inf, |b|_inf) + 2,
    take the heuristic gcd; larger parts, and parts on which every
    heuristic try fails, take the modular gcd.
    """
    m, p = ctx
    if p:
        g = _vector_gcd(a, b, m, p) if m else _gcd_mod(a, b, p)
        if len(g) == 1:
            return a, b
        return _divide_out(a, g, ctx), _divide_out(b, g, ctx)
    if a[0] != 1 or b[0] != 1:
        raise AssertionError("the gcd over Z needs parts with constant term 1")
    # 2^16 past the bound: at the bound itself one first try in ten failed on random parts
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length() + 16
    if k * max(len(a), len(b)) <= MAX_HEURISTIC_BITS:
        out = _heuristic_gcd(a, b, k)
        if out is not None:
            return out

    def images(q, _):
        if a[-1] % q and b[-1] % q:
            return _gcd_mod(a, b, q)

    return _modular_gcd(a, b, 1, images, _divide_out)


def _vector_gcd(a: list, b: list, m: tuple, p: int) -> list:
    """gcd(a, b) over F_q = F_p[x]/(m) on payload-vector lists, scaled to constant term 1 (nonzero, as a(0) = 1).

    Euclid with each divisor made monic: each product of payloads is
    reduced once mod (m, p), and inverses come from ``_dl_invmod``.
    """
    zero = (0,) * (len(m) - 1)

    def scale(c, v):  # c / v for a nonzero payload v
        u = _dl_invmod(list(v), m, p)
        u = tuple(u + [0] * (len(zero) - len(u)))
        return [_fused(zero, (x,), (u,), m, p) for x in c]

    while b:
        b, r = scale(b, b[-1]), list(a)
        for top in range(len(a) - 1, len(b) - 2, -1):  # r -= r_top * t^(top - deg b) * b
            lead = [-v for v in r.pop()]
            for i, y in enumerate(b[:-1], top - len(b) + 1):
                r[i] = _fused(r[i], (lead,), (y,), m, p)
        while r and not any(r[-1]):
            r.pop()
        a, b = b, r
    return scale(a, a[0])


def _cyclotomic_gcd(a: list, b: list, n: int, m: tuple) -> tuple[list, list]:
    """The modular gcd over Z[zeta_n] on payload-vector lists: images at each root of Phi_n mod q, interpolated."""
    w = len(m) - 1

    def images(q, omega):
        evaluate, interpolate = _root_maps(n, q, omega)
        hs = []
        for row in evaluate:
            x = [sum(map(operator.mul, row, c)) % q for c in a]
            y = [sum(map(operator.mul, row, c)) % q for c in b]
            if not (x[-1] and y[-1]):
                return None
            hs.append(_gcd_mod(x, y, q))
            if len(hs[-1]) == 1:
                return hs[-1] + [0] * (w - 1)
        if any(len(h) != len(hs[0]) for h in hs):
            return None  # unlucky at some root
        return [sum(map(operator.mul, row, col)) % q for col in zip(*hs) for row in interpolate]

    def divide(x, g):
        return _divide_out(x, [tuple(g[i : i + w]) for i in range(0, len(g), w)], (m, 0))

    return _modular_gcd(a, b, n, images, divide)


def _from_kernel(spec: RingSpec, a: list, b: list, L: int) -> "WittVector":
    """The WittVector with kernel parts a/b at scale L, normalized on the lists and settled once.

    Parts equal to each other or to 1 need no gcd; over Z/n the parts are
    kept as given.  Both parts keep constant term 1, so the result skips
    ``_check_parts``.
    """
    m, p = ctx = _ctx(spec)
    if a == b:
        a = b = a[:1]
    elif len(a) > 1 and len(b) > 1 and spec.kind != _KIND_ZN:
        # Q enters scaled by one t -> Lt for both parts, which commutes with taking gcds
        a, b = _cyclotomic_gcd(a, b, spec.n, m) if m and not p else _normalize_lists(a, b, ctx)
    out = object.__new__(WittVector)
    out.__dict__.update(spec=spec, num=_settle(spec, a, L), den=_settle(spec, b, L))
    return out


# --------------------------------------------------------------------------
# WittVector


def _check_parts(spec: RingSpec, num: Polynomial, den: Polynomial) -> None:
    """Refuse parts over another ring, or without constant term 1."""
    if num.spec != spec or den.spec != spec:
        raise SpecMismatch("polynomial parts disagree with the ring")
    if not spec.is_one(num.constant_term) or not spec.is_one(den.constant_term):
        raise DomainViolation("numerator and denominator need constant term 1")


@dataclass(frozen=True, eq=False)
class WittVector:
    """An element of the rational Witt ring, stored as num/den."""

    spec: RingSpec
    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        _check_parts(self.spec, self.num, self.den)

    # ---------------------------------------------------------- builders
    @classmethod
    def from_polys(cls, num: Polynomial, den: Polynomial | None = None) -> "WittVector":
        """num/den reduced by _from_kernel; WittVector(spec, num, den) keeps the parts as given."""
        spec = num.spec
        if den is None:
            den = Polynomial.one(spec)
        _check_parts(spec, num, den)  # the gcd routes assume both constant terms are 1
        return _from_kernel(spec, *_lift(spec, num.coeffs, den.coeffs))

    @classmethod
    def zero(cls, spec: RingSpec) -> "WittVector":
        """Additive identity: the constant power series 1."""
        return cls(spec, Polynomial.one(spec), Polynomial.one(spec))

    @classmethod
    def one(cls, spec: RingSpec) -> "WittVector":
        """Multiplicative identity: the Teichmueller lift 1 - t."""
        return cls(spec, Polynomial.from_ints(spec, [1, -1]), Polynomial.one(spec))

    # ---------------------------------------------------------- equality
    def __eq__(self, other) -> bool:
        if not isinstance(other, WittVector):
            return NotImplemented
        if self.spec != other.spec:
            return False
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is by cross-multiplication, not by parts

    def _check(self, other: "WittVector") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"mixed rings {self.spec} and {other.spec}")

    def __add__(self, other: "WittVector") -> "WittVector":
        return witt_add(self, other)

    def __neg__(self) -> "WittVector":
        return witt_neg(self)

    def __sub__(self, other: "WittVector") -> "WittVector":
        return witt_add(self, witt_neg(other))

    def __mul__(self, other: "WittVector") -> "WittVector":
        return witt_mul(self, other)

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"WittVector({self})"


# --------------------------------------------------------------------------
# ring operations


def witt_add(f: WittVector, g: WittVector) -> WittVector:
    """f (+) g: the product of the underlying power series, on the four parts lifted together."""
    f._check(g)
    spec = f.spec
    m, p = _ctx(spec)
    fn, fd, gn, gd, L = _lift(spec, f.num.coeffs, f.den.coeffs, g.num.coeffs, g.den.coeffs)
    return _from_kernel(spec, _mul_lists(fn, gn, m, p), _mul_lists(fd, gd, m, p), L)


def witt_neg(f: WittVector) -> WittVector:
    """Additive inverse: the reciprocal series, again rational."""
    return WittVector(f.spec, f.den, f.num)


def _ctx(spec: RingSpec) -> tuple:
    """spec's reduction context (m, p), without a width-1 modulus: Z[x]/(x -+ 1) is Z, so C1, C2 run on ints."""
    m = spec.m
    return (m if len(m) > 2 else (), spec.p)


def _lift(spec: RingSpec, *parts) -> list:
    """The coefficient sequences of the parts as the kernels take them, then their common scale L.

    Over Q the parts enter as p(Lt) in Z[t], L the lcm of every denominator
    of every part: the inverse roots of p(Lt) are L times those of p, so
    s_k(p) = s_k(p(Lt)) / L^k.  Every other kind enters as its payloads
    (lifts in [0, n) over F_p and Z/n, width-1 vectors as their entry), with L = 1.
    """
    if spec.kind == _KIND_Q:
        L = math.lcm(*[v.denominator for p in parts for v in p])
        Lk = list(itertools.accumulate([L] * max(map(len, parts)), operator.mul, initial=1))  # L^k
        return [[v.numerator * s // v.denominator for v, s in zip(p, Lk)] for p in parts] + [L]
    if len(spec.m) == 2:
        return [[v for (v,) in p] for p in parts] + [1]
    return [list(p) for p in parts] + [1]


def _settle(spec: RingSpec, c: list, scale: int) -> Polynomial:
    """The polynomial over spec with kernel coefficients c: the one exit of the kernels.

    Over Q, c_k is divided by scale^k (a Fraction is built only here); over
    F_p, Z/n and F_q the lifts are reduced mod n or p, and over C1 and C2
    each int becomes a width-1 vector again.
    """
    if spec.kind == _KIND_Q:
        out, sk = [], 1
        for v in c:
            out.append(Fraction(v, sk))
            sk *= scale
    else:
        out = _reduce_list(list(c), _ctx(spec))
        if len(spec.m) == 2:
            out = [(v,) for v in out]
    while out and spec.is_zero(out[-1]):
        out.pop()
    return Polynomial(spec, tuple(out))


def _reduce_list(c: list, ctx: tuple) -> list:
    """The kernel list c reduced into ctx = (m, p) (in place for scalars), trailing zero scalars dropped."""
    m, p = ctx
    if m and p:
        return [tuple([v % p for v in x]) for x in c]
    return _dl_trim(c, p)


def _power_sums(c: list, N: int, ctx: tuple) -> list:
    """s_1..s_N for the inverse roots of 1 + c_1 t + ... + c_d t^d in the context ctx = (m, p).

    Newton's identities, division-free: with c_k = 0 for k > d,
    s_k = -(k*c_k + sum_{i <= min(k-1, d)} c_i s_{k-i}), O(N*d) products.
    With no vector modulus m the payloads are ints, reduced mod p at every
    step when p > 0.  Otherwise they are int vectors, and each s_k is
    accumulated unreduced and reduced once mod (m, p).
    """
    m, p = ctx
    d = len(c) - 1
    out = []
    if not m:
        crev = c[:0:-1]  # c_d, ..., c_1 against s_{k-d}, ..., s_{k-1}
        for k in range(1, N + 1):
            if k <= d:  # c_{k-1}, ..., c_1 against s_1, ..., s_{k-1}
                acc = k * c[k] + sum(map(operator.mul, c[k - 1 : 0 : -1], out))
            else:
                acc = sum(map(operator.mul, crev, out[k - 1 - d :]))
            out.append(-acc % p if p else -acc)
        return out
    zero = (0,) * (len(m) - 1)
    nc = [[-v for v in x] for x in c]  # negated, so each s_k comes out reduced
    for k in range(1, N + 1):
        t = min(k - 1, d)
        base = [k * v for v in nc[k]] if k <= d else zero
        out.append(_fused(base, nc[t:0:-1], out[k - 1 - t :], m, p))
    return out


def _from_power_sums(s: list, ctx: tuple) -> list:
    """Coefficients 1, c_1, ..., c_D in the context ctx = (m, 0) with power sums s_1..s_D.

    The one rebuild of the Newton route.  Newton's identities solved for
    c_k: c_k = -(s_k + sum_{i<k} c_i s_{k-i}) / k.  The division is exact
    in characteristic 0 (Z, or Z[x]/(m), a free Z-module on its power
    basis, so it divides entry by entry, after one reduction of the
    accumulated sum).
    """
    m = ctx[0]
    if not m:
        c = [1]
        for k in range(1, len(s) + 1):
            c.append(-(s[k - 1] + sum(map(operator.mul, c[k - 1 : 0 : -1], s))) // k)
        return c
    c = [(1,) + (0,) * (len(m) - 2)]
    for k in range(1, len(s) + 1):
        c.append(tuple([-v // k for v in _fused(s[k - 1], c[k - 1 : 0 : -1], s, m, 0)]))
    return c


def _power_roots(c: list, n: int, ctx: tuple) -> list:
    """The kernel list with inverse roots {a^n} for a over c, in the context ctx = (m, p).

    Its power sums are s_n(c), s_2n(c), ..., s_dn(c); Newton's identities
    rebuild it on the characteristic-0 lift (m, 0), reduced mod p at the end.
    """
    d = len(c) - 1
    if not d:
        return c
    lift = (ctx[0], 0)
    return _reduce_list(_from_power_sums(_power_sums(c, n * d, lift)[n - 1 :: n], lift), ctx)


def _star(a: tuple, b: tuple, ctx: tuple) -> list:
    """The kernel list of the star product of two parts, each given as (degree, power sums on the lift).

    Each part's power sums reach depth >= deg p * deg q; a constant part
    gives the constant 1.  The rebuild runs on (m, 0) and is reduced mod p.
    """
    (d, sp), (e, sq) = a, b
    D = d * e
    m = ctx[0]
    if m:
        zero = (0,) * (len(m) - 1)
        s = [_fused(zero, (x,), (y,), m, 0) for x, y in zip(sp[:D], sq[:D])]
    else:
        s = list(map(operator.mul, sp[:D], sq[:D]))
    return _reduce_list(_from_power_sums(s, (m, 0)), ctx)


def witt_mul(f: WittVector, g: WittVector) -> WittVector:
    """f (x) g: the biadditive extension of (1-at)(x)(1-bt) = (1-abt).

    Each vector's two parts are lifted together, at one scale, and each of
    the four parts has its power sums computed once, to its degree times
    the larger degree of the other vector's parts, on the
    characteristic-0 lift; the four star products read slices of them.
    """
    f._check(g)
    spec = f.spec
    m, p = ctx = _ctx(spec)
    *fs, Lf = _lift(spec, f.num.coeffs, f.den.coeffs)
    *gs, Lg = _lift(spec, g.num.coeffs, g.den.coeffs)
    df, dg = max(f.num.degree, f.den.degree), max(g.num.degree, g.den.degree)
    n1, d1 = [(len(c) - 1, _power_sums(c, (len(c) - 1) * dg, (m, 0))) for c in fs]
    n2, d2 = [(len(c) - 1, _power_sums(c, (len(c) - 1) * df, (m, 0))) for c in gs]
    num = _mul_lists(_star(n1, n2, ctx), _star(d1, d2, ctx), m, p)
    den = _mul_lists(_star(n1, d2, ctx), _star(d1, n2, ctx), m, p)
    return _from_kernel(spec, num, den, Lf * Lg)


def frobenius(n: int, f: WittVector) -> WittVector:
    """F_n: raise every inverse root to the n-th power; F_1 is the identity."""
    if n < 1:
        raise DomainViolation(f"Frobenius index must be >= 1, got {n}")
    if n == 1:
        return f
    spec = f.spec
    ctx = _ctx(spec)
    a, b, L = _lift(spec, f.num.coeffs, f.den.coeffs)
    return _from_kernel(spec, _power_roots(a, n, ctx), _power_roots(b, n, ctx), L**n)


def teichmuller(a: RingElement) -> WittVector:
    """The multiplicative lift a -> 1 - a*t."""
    spec = a.spec
    return WittVector(
        spec,
        Polynomial.from_payloads(spec, [spec.one(), spec.neg(a.payload)]),
        Polynomial.one(spec),
    )


def split_counit(f: WittVector) -> RingElement:
    """The splitting f -> -f'(0) of the Teichmueller lift; a ring map to R."""
    spec = f.spec
    dn = f.num.coefficient(1)
    dd = f.den.coefficient(1)
    return RingElement(spec, spec.sub(dd, dn))


# --------------------------------------------------------------------------
# ghost components


@dataclass(frozen=True)
class GhostVector:
    """First N power-sum coordinates of a Witt vector (exact payloads)."""

    spec: RingSpec
    components: tuple

    def _check(self, other: "GhostVector") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"mixed rings {self.spec} and {other.spec}")
        if len(self.components) != len(other.components):
            raise DomainViolation(f"ghost vectors of lengths {len(self)} and {len(other)}")

    def __add__(self, other: "GhostVector") -> "GhostVector":
        self._check(other)
        s = self.spec
        return GhostVector(s, tuple(s.add(a, b) for a, b in zip(self.components, other.components)))

    def __mul__(self, other: "GhostVector") -> "GhostVector":
        self._check(other)
        s = self.spec
        return GhostVector(s, tuple(s.mul(a, b) for a, b in zip(self.components, other.components)))

    def __getitem__(self, i: int):
        return self.components[i]

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return " ".join(self.spec.render(c) for c in self.components)


def default_ghost_precision(f: WittVector) -> int:
    """Enough components to separate Witt vectors of the given degrees."""
    return 2 * (f.num.degree + f.den.degree) + 4


def ghost(f: WittVector, N: int | None = None) -> GhostVector:
    """First N ghost components, the series -t f'(t)/f(t), exactly."""
    if N is None:
        N = default_ghost_precision(f)
    if N < 1:
        raise DomainViolation("ghost precision must be >= 1")
    spec = f.spec
    m, _ = ctx = _ctx(spec)  # F_p, Z/n and F_q reduce mod p inside the recurrence
    cn, cd, L = _lift(spec, f.num.coeffs, f.den.coeffs)
    sn, sd = _power_sums(cn, N, ctx), _power_sums(cd, N, ctx)
    sub = (lambda x, y: tuple(map(operator.sub, x, y))) if m else operator.sub
    # s_k(num) - s_k(den) is the coefficient of t^k in -t f'/f, whose constant term is 0
    series = _settle(spec, [(0,) * (len(m) - 1) if m else 0, *map(sub, sn, sd)], L)
    return GhostVector(spec, tuple(map(series.coefficient, range(1, N + 1))))


# --------------------------------------------------------------------------
# group-ring correspondence

# The decoder tries every element of F_{p^k} as an inverse root.  At this
# size a degree-8 part whose root comes last takes 0.17 s over F_2^12 and
# 0.05-0.06 s over F_7^4 and F_61^2 (a division by 1 - a*t on payload vectors
# per candidate), and 3 ms over F_4093 (best of three); F_2^16 took 6.5 s
# in one run (Python 3.11, one core of a shared 2-core Intel Xeon host).
MAX_DECODE_FIELD_SIZE = 2**12


@dataclass(frozen=True)
class GroupRingElement:
    """Finite multiset of unit bases with integer multiplicities."""

    spec: RingSpec
    terms: tuple  # ((payload, multiplicity), ...) sorted, no zeros

    @classmethod
    def of(cls, spec: RingSpec, pairs) -> "GroupRingElement":
        combined: dict = {}
        for base, mult in pairs:
            payload = spec.canon(base if not isinstance(base, RingElement) else base.payload)
            combined[payload] = combined.get(payload, 0) + int(mult)
        terms = []
        for payload, mult in combined.items():
            if mult == 0:
                continue
            spec.inv(payload)  # raises NotAUnit for non-units
            terms.append((payload, mult))
        terms.sort(key=operator.itemgetter(0))  # by payload
        return cls(spec, tuple(terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.spec != other.spec:
            raise SpecMismatch("mixed group rings")
        return GroupRingElement.of(self.spec, list(self.terms) + list(other.terms))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution: (sum n_a a)(sum m_b b) = sum n_a m_b (ab)."""
        if self.spec != other.spec:
            raise SpecMismatch("mixed group rings")
        pairs = [
            (self.spec.mul(a, b), na * mb)
            for a, na in self.terms
            for b, mb in other.terms
        ]
        return GroupRingElement.of(self.spec, pairs)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{m}*[{self.spec.render(b)}]" if m != 1 else f"[{self.spec.render(b)}]")
            for b, m in self.terms
        )


def groupring_to_witt(x: GroupRingElement) -> WittVector:
    """sum n_a * a  ->  prod (1 - a t)^(n_a), negative powers to the denominator."""
    spec = x.spec
    m, p = _ctx(spec)
    one = spec.one()
    *factors, L = _lift(spec, (one,), *[(one, spec.neg(payload)) for payload, _ in x.terms])
    parts = [factors[0]] * 2  # num, den
    for factor, (_, mult) in zip(factors[1:], x.terms):
        for _ in range(abs(mult)):
            parts[mult < 0] = _mul_lists(parts[mult < 0], factor, m, p)
    return _from_kernel(spec, *parts, L)


def _roots_with_multiplicity(c, spec: RingSpec) -> list[tuple[object, int]] | None:
    """The inverse roots, with multiplicity, of the part with coefficients c over the finite field spec.

    Exhaustive search: over F_p on the reversed part by ``_prime_field_roots``,
    over F_q on payload vectors, where a is an inverse root when 1 - a*t
    divides the part exactly (``_divide_out``).  None when the part does not
    split into linear factors there.
    """
    if len(c) <= 1:
        return []
    if spec.kind == _KIND_FP:
        return _prime_field_roots(c[::-1], spec.n)
    found, one, ctx = [], spec.one(), (spec.m, spec.p)
    for a in itertools.product(range(spec.n), repeat=spec.k):
        factor, mult = [one, tuple([-v for v in a])], 0
        while any(a) and (q := _divide_out(c, factor, ctx)) is not None:  # 1 - a*t divides no constant
            c, mult = q, mult + 1
        if mult:
            found.append((a, mult))
            if len(c) == 1:
                return found
    return None


def _prime_field_roots(rev: list, p: int) -> list[tuple[int, int]] | None:
    """Roots with multiplicity of the monic rev (ascending ints mod p), or None.

    One Horner pass per candidate a evaluates rev(a) mod p; only at a root
    does a second pass keep its partial sums, the quotient rev / (x - a)
    (synthetic division).  None when rev does not split into linear
    factors over F_p.
    """
    found = []
    for a in range(1, p):  # rev(0) = lc of the part, a unit
        mult = 0
        while len(rev) > 1:
            acc = 0
            for c in reversed(rev):
                acc = (acc * a + c) % p
            if acc:
                break
            quo = []
            for c in reversed(rev):
                acc = (acc * a + c) % p
                quo.append(acc)
            quo.pop()
            rev = quo[::-1]
            mult += 1
        if mult:
            found.append((a, mult))
        if len(rev) == 1:
            return found
    return None


def witt_to_groupring(f: WittVector, splitting_degree_bound: int = 1) -> GroupRingElement:
    """Decode a Witt vector over F_p into its inverse-root multiset.

    Roots are searched exhaustively in F_{p^k} for k = 1..bound (each k uses
    a fixed irreducible modulus found by sieve; decoding fixes a single k).
    Raises NotSplit when the parts do not split by the bound, and
    DomainViolation, before any search, when the largest field searched has
    more than MAX_DECODE_FIELD_SIZE elements.  The result ring is
    PrimeField(p) when k = 1 and the internal extension field otherwise.
    """
    spec = f.spec
    if spec.kind != _KIND_FP and not spec.k:  # F_p or F_q
        raise UnsupportedRing("group-ring decoding runs over prime fields")
    if splitting_degree_bound < 1:
        raise DomainViolation("splitting degree bound must be >= 1")
    p = spec.n
    # an extension-field vector only decodes in its own field: padding
    # coefficients is not a homomorphism between different degrees
    top = spec.k or splitting_degree_bound
    # p >= 2, so a degree above the cap's bit length already exceeds it
    if top > MAX_DECODE_FIELD_SIZE.bit_length() or p**top > MAX_DECODE_FIELD_SIZE:
        raise DomainViolation(
            f"decoding searches F_{p}^{top}, "
            f"more than the limit of {MAX_DECODE_FIELD_SIZE} elements"
        )
    ks = [spec.k] if spec.k else range(1, top + 1)
    for k in ks:
        target, parts = spec, (f.num.coeffs, f.den.coeffs)
        if k > 1 and not spec.k:  # the F_p coefficients as payload vectors of F_{p^k}
            target = RingSpec.ext_field(p, k)
            parts = [[(c,) + (0,) * (k - 1) for c in x] for x in parts]
        rn, rd = (_roots_with_multiplicity(x, target) for x in parts)
        if rn is None or rd is None:
            continue
        pairs = [(b, m) for b, m in rn] + [(b, -m) for b, m in rd]
        return GroupRingElement.of(target, pairs)
    raise NotSplit(
        f"parts do not split into linear factors over F_{p}^k for k <= {splitting_degree_bound}"
    )


# --------------------------------------------------------------------------
# Galois descent


def galois_conjugate(f: WittVector, sigma: int) -> WittVector:
    """Apply the coefficient automorphism x -> x^sigma to both parts."""
    return WittVector(
        f.spec, conjugate_polynomial(f.num, sigma), conjugate_polynomial(f.den, sigma)
    )


def galois_fixed_check(f: WittVector) -> bool:
    """True iff every generator of (Z/n)^* fixes f as a Witt vector.

    By descent this holds exactly when f lies in the image of the rational
    Witt ring of the fixed subring.
    """
    if f.spec.kind != _KIND_C:
        raise UnsupportedRing("the descent check runs over cyclotomic rings")
    for sigma in subgroup_generators(f.spec.n, unit_group(f.spec.n)):
        if galois_conjugate(f, sigma) != f:
            return False
    return True

