"""Exact coefficient rings and polynomial arithmetic.

Every ring element is a plain payload interpreted through a RingSpec:

    Z         arbitrary-precision int
    Q         fractions.Fraction (lowest terms, positive denominator)
    Zn        int in [0, n), n >= 2 (composite allowed, no general division)
    Fp        int in [0, p), p prime
    C(n)      tuple of deg(Phi_n) ints: a residue mod the n-th cyclotomic
              polynomial Phi_n, i.e. an element of Z[x]/Phi_n(x).  It
              inverts by an inverse mod Phi_n over Q, kept when
              integral.
    Fq(p, k)  tuple of k ints mod p: a residue mod a fixed irreducible
              polynomial of degree k over F_p.  This is the internal
              extension point used by the group-ring decoder; the public
              surface needs only the first five.

Each RingSpec carries its reduction context as ``spec.m`` and ``spec.p``:
the monic vector modulus m and the modulus p of the entries, 0 in
characteristic 0.  It is (Phi_n, 0) over Z[zeta_n], (g, p) over F_q and
((), n) over the scalar rings (n = 0 over Z and Q).  The payload ops read
only (m, p), with one branch for vectors (m nonempty) and one for scalars,
each reducing mod p when p > 0; the kind itself is read where the rings
really differ (naming, Q's Fractions, units over Z and Z[zeta_n]).
The fused sum of products ``_fused`` takes (m, p), never a
RingSpec; so do the Witt kernels, which run the product on (m, 0), the
characteristic-0 lift.  Every product of payload vectors goes through
``_fused``, which runs the modulus's ``_kernel``: one straight-line
function, generated once per modulus m of width up to MAX_KERNEL_WIDTH
(96), that sums the products of its pairs of vectors and reduces the sum
once mod m through a constant table of x^r mod m.  Wider moduli, which
only library callers can build, take a loop over ``_dl_mul`` and the
reduction ``_reduce``, which is ``_dl_rem`` padded to the width.

Polynomials are dense tuples of payloads, constant term first, with no
trailing zero coefficients.  Underneath, every list-level polynomial
operation (residues mod Phi_n or the F_q modulus, inverses, the gcds of
the Witt normalization, Rabin's test for the F_q modulus) runs on one
dense-list kernel, the ``_dl_*`` functions, over Q or over F_p.
``_mul_lists`` is the one product of coefficient lists in a context
(m, p), serving ``Polynomial.__mul__`` and the Witt ring operations alike:
``_dl_mul`` for scalars; for vectors one ``_fused`` call per output
coefficient.  No floating point appears anywhere.  Division and gcds of
``Polynomial``s, resultants and the other cross-checks live in
``oracles``, which this module never imports.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainViolation, NotAUnit, SpecMismatch, UnsupportedRing

# --------------------------------------------------------------------------
# small number theory helpers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24.

    Trial division by the bases comes first; it settles every n < 41^2,
    since a composite below 1681 has a prime factor at most 37.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 1681:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    """All primes strictly below ``bound`` (simple sieve)."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n >= 1 by trial division: ((prime, exponent), ...), ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(n))


# --------------------------------------------------------------------------
# dense coefficient lists: the one list-level polynomial kernel
#
# Polynomials as ascending lists of ints or Fractions.  The modulus p = 0
# means exact arithmetic over Q; a prime p means F_p, with results reduced
# into [0, p).  Dividing by a leading coefficient of +-1 keeps ints as ints,
# so Z[x] arithmetic modulo a monic polynomial never leaves the integers.


def _dl_trim(c: list, p: int = 0) -> list:
    """Reduce mod p (when p > 0) and drop trailing zeros, in place."""
    if p:
        c[:] = [v % p for v in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _dl_inv(c, p: int = 0):
    """Inverse of a nonzero scalar; +-1 is its own inverse, as an int."""
    if p:
        return pow(c, -1, p)
    return c if c in (1, -1) else 1 / Fraction(c)


def _dl_sub(a: list, b: list, p: int = 0) -> list:
    return _dl_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)], p)


def _dl_mul(a: list, b: list, p: int = 0) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _dl_trim(out, p)


def _dl_divmod(a: list, b: list, p: int = 0) -> tuple[list, list]:
    """Quotient and remainder of a by b; b is trimmed and nonzero."""
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = _dl_rem(list(a), b, p, q)
    return _dl_trim(q), r  # q's entries are reduced already


def _dl_rem(r: list, b: list, p: int = 0, q: list | None = None) -> list:
    """r mod b, computed in place on r (b trimmed and nonzero); the quotient goes into q when given."""
    inv = _dl_inv(b[-1], p)
    db = len(b) - 1
    while len(r) > db:
        coef = r.pop() * inv  # the leading term cancels exactly
        if p:
            coef %= p
        if coef:
            shift = len(r) - db
            if q is not None:
                q[shift] = coef
            for i in range(db):
                r[shift + i] -= coef * b[i]
    return _dl_trim(r, p)


def _dl_powmod(a: list, e: int, m: list, p: int = 0) -> list:
    """a^e modulo m (trimmed, nonzero) by repeated squaring."""
    result, base = [1], _dl_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _dl_divmod(_dl_mul(result, base, p), m, p)[1]
        base = _dl_divmod(_dl_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def _dl_gcd(a: list, b: list, p: int = 0) -> list:
    """Monic gcd; [] when both arguments are zero."""
    a, b = _dl_trim(list(a), p), _dl_trim(list(b), p)
    while b:
        a, b = b, _dl_rem(a, b, p)  # a is this loop's own list
    if not a:
        return a
    inv = _dl_inv(a[-1], p)
    return _dl_trim([c * inv for c in a], p)


def _dl_invmod(a: list, m: list, p: int = 0) -> list | None:
    """Inverse of a modulo m (trimmed, nonzero), or None when gcd(a, m) != 1."""
    r0, r1 = _dl_trim(list(m), p), _dl_divmod(a, m, p)[1]
    s0, s1 = [], [1]
    while r1:
        quo, r2 = _dl_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r2, s1, _dl_sub(s0, _dl_mul(quo, s1, p), p)
    if len(r0) != 1:
        return None
    inv = _dl_inv(r0[0], p)
    return _dl_trim([c * inv for c in s0], p)


@functools.lru_cache(maxsize=None)  # one per level n: C<n> and its divisors stop at 100, verify-all at --cyclotomic-bound
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, computed exactly.

    Phi_1 = x - 1; for n > 1, Phi_n = (x^n - 1) / prod of Phi_d over the
    proper divisors d of n.  Cached; safe for concurrent reads since the
    cache only ever inserts values.
    """
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly, rem = _dl_divmod(poly, cyclotomic_polynomial(d))
        if rem:
            raise AssertionError(f"Phi_{d} does not divide the quotient for Phi_{n}")
    return tuple(poly)


@functools.lru_cache(maxsize=None)  # one per (p, k): the decoder's fields F_p^k have at most 2^12 elements
def _ext_field_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p.

    Rabin's test: h of degree k is irreducible iff h divides x^(p^k) - x
    and is coprime to x^(p^(k/r)) - x for every prime r dividing k.
    """
    if k == 1:
        return (0, 1)
    x = [0, 1]
    rs = [r for r in range(2, k + 1) if k % r == 0 and is_prime(r)]
    for tail in itertools.product(range(p), repeat=k):
        if tail[0] == 0:
            continue
        h = list(tail) + [1]
        if _dl_powmod(x, p**k, h, p) == x and all(
            len(_dl_gcd(h, _dl_sub(_dl_powmod(x, p ** (k // r), h, p), x, p), p)) == 1 for r in rs
        ):
            return tuple(h)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _reduce(c: list, m: tuple, p: int) -> tuple:
    """c modulo the monic modulus m (and mod p when p > 0) by ``_dl_rem``, padded to the width len(m) - 1."""
    w = len(m) - 1
    r = _dl_rem(list(c), m, p)
    return tuple(r + [0] * (w - len(r)))


# Widest modulus that gets a generated kernel.  The CLI's C<n> rings stop
# at level 100, so at width phi(97) = 96, and the F_q decoder at width 12.
# A generated kernel's source grows as w^2: w = 96 took 40-60 ms and 12 MB
# of peak memory to compile, once (Python 3.11, shared Intel Xeon host).
MAX_KERNEL_WIDTH = 96


@functools.lru_cache(maxsize=None)  # one per modulus: width at most 96 over the CLI's C<n> rings, 12 over F_q
def _kernel(m: tuple):
    """The sum of products of payload vectors modulo the monic m, as one function of (base, xs, ys).

    It returns the w = len(m) - 1 entries of base + the sum of x * y over
    the pairs of xs and ys, each of width w, reduced mod m over Z; the
    caller reduces mod p.  Up to MAX_KERNEL_WIDTH the function is generated
    once per modulus as straight-line code: each pair unpacks into locals
    and adds into the 2w - 1 convolution sums (w products, not w^2, when
    one side has no terms past its constant one), and the sums fold into
    the result through the constant table x^r mod m.  Wider moduli take
    the product loop of ``_dl_mul`` and ``_reduce``, whose memory does not
    grow as w^2.  The generated source holds only names and integer
    literals from m: a modulus that is not a monic tuple of ints is
    refused when its kernel would be built (an equal modulus met later
    finds the cached kernel, whatever the types of its entries).
    """
    if type(m) is not tuple or len(m) < 2 or m[-1] != 1 or any(type(v) is not int for v in m):
        raise TypeError(f"a payload kernel needs a monic modulus given as a tuple of ints, not {m!r}")
    w = len(m) - 1
    if w > MAX_KERNEL_WIDTH:
        return functools.partial(_loop_kernel, m)
    table = {r: _reduce([0] * r + [1], m, 0) for r in range(w, 2 * w - 1)}  # x^r mod m
    out = []
    for i in range(w):  # entry i: b_i + c_i + the sum over r >= w of (x^r mod m)_i * c_r
        expr = f"b{i} + c{i}"
        for r, row in table.items():
            if v := row[i]:
                coef = "" if abs(v) == 1 else f"{abs(v)} * "
                expr += f" {'-' if v < 0 else '+'} {coef}c{r}"
        out.append(expr)
    xs, ys = (", ".join(f"{v}{i}" for i in range(w)) for v in "xy")
    conv = [
        f"            c{k} += " + " + ".join(f"x{i} * y{k - i}" for i in range(max(0, k - w + 1), min(k, w - 1) + 1))
        for k in range(2 * w - 1)
    ]
    # a side with no terms past its constant one (an int of the ring) takes w products
    body = conv if w == 1 else [
        f"        if not ({' or '.join(f'x{i}' for i in range(1, w))}):",
        *[f"            c{k} += x0 * y{k}" for k in range(w)],
        f"        elif not ({' or '.join(f'y{i}' for i in range(1, w))}):",
        *[f"            c{k} += x{k} * y0" for k in range(w)],
        "        else:",
        *conv,
    ]
    source = "\n".join(
        [
            "def kernel(base, xs, ys):",
            "    " + " = ".join(f"c{k}" for k in range(2 * w - 1)) + " = 0",
            f"    for ({xs},), ({ys},) in zip(xs, ys):",
            *body,
            f"    {', '.join(f'b{i}' for i in range(w))}, = base",
            f"    return ({', '.join(out)},)",
        ]
    )
    namespace = {}
    exec(compile(source, f"<payload kernel of width {w}>", "exec"), {"__builtins__": {"zip": zip}}, namespace)
    return namespace["kernel"]


def _loop_kernel(m: tuple, base, xs, ys) -> tuple:
    """``_kernel``'s route past MAX_KERNEL_WIDTH: each product by ``_dl_mul``, the sum reduced once."""
    acc = list(base) + [0] * (len(m) - 2)
    for a, b in zip(xs, ys):
        for j, v in enumerate(_dl_mul(a, b)):
            acc[j] += v
    return _reduce(acc, m, 0)


def _fused(base, xs, ys, m: tuple, p: int) -> tuple:
    """base + the sum of x * y over paired payload vectors, reduced mod (m, p).

    base and every x and y have the width w = len(m) - 1; the sum is
    reduced mod m once, by the modulus's ``_kernel``, then mod p when p > 0.
    """
    out = _kernel(m)(base, xs, ys)
    return tuple([v % p for v in out]) if p else out


def _mul_lists(a, b, m: tuple, p: int) -> list:
    """The product of two coefficient lists in the reduction context (m, p), trimmed.

    Over payload vectors, output coefficient j is one ``_fused`` call over
    its window of pairs a_i, b_(j-i).  ``Polynomial.__mul__`` and the Witt
    ring operations both multiply here.
    """
    if not m:
        return _dl_mul(a, b, p)
    zero, rb, top = (0,) * (len(m) - 1), b[::-1], len(b) - 1
    out = []
    for j in range(len(a) + len(b) - 1):
        lo, hi = max(0, j - top), min(j, len(a) - 1)
        out.append(_fused(zero, a[lo : hi + 1], rb[top - j + lo : top - j + hi + 1], m, p))
    while out and not any(out[-1]):
        out.pop()
    return out


# --------------------------------------------------------------------------
# RingSpec

_KIND_Z = "Z"
_KIND_Q = "Q"
_KIND_ZN = "Zn"
_KIND_FP = "Fp"
_KIND_C = "C"
_KIND_FQ = "Fq"


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of an exact coefficient ring; all element ops live here.

    Payloads are plain Python values (see module docstring); RingSpec
    methods operate on payloads so the polynomial layer stays allocation
    light.  RingElement wraps a payload for the public element API.

    ``m`` and ``p``, the reduction context, are derived from the kind and
    its parameters at construction; they take no part in equality, hashing
    or repr.
    """

    kind: str
    n: int = 0
    k: int = 0
    m: tuple = field(init=False, repr=False, compare=False)
    p: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == _KIND_C:
            m = cyclotomic_polynomial(self.n)
        elif self.kind == _KIND_FQ:
            m = _ext_field_modulus(self.n, self.k)
        else:
            m = ()
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", 0 if self.kind == _KIND_C else self.n)

    # ---------------------------------------------------------- factories
    @classmethod
    def integers(cls) -> "RingSpec":
        return cls(_KIND_Z)

    @classmethod
    def rationals(cls) -> "RingSpec":
        return cls(_KIND_Q)

    @classmethod
    def mod_ring(cls, n: int) -> "RingSpec":
        if n < 2:
            raise DomainViolation(f"modulus must be >= 2, got {n}")
        return cls(_KIND_ZN, n)

    @classmethod
    def prime_field(cls, p: int) -> "RingSpec":
        if not is_prime(p):
            raise DomainViolation(f"{p} is not prime")
        return cls(_KIND_FP, p)

    @classmethod
    def cyclotomic(cls, n: int) -> "RingSpec":
        if n < 1:
            raise DomainViolation(f"cyclotomic level must be >= 1, got {n}")
        return cls(_KIND_C, n)

    @classmethod
    def ext_field(cls, p: int, k: int) -> "RingSpec":
        if not is_prime(p):
            raise DomainViolation(f"{p} is not prime")
        if k < 1:
            raise DomainViolation(f"extension degree must be >= 1, got {k}")
        return cls(_KIND_FQ, p, k)

    # ---------------------------------------------------------- structure
    @property
    def is_field(self) -> bool:
        return self.kind in (_KIND_Q, _KIND_FP, _KIND_FQ)

    @property
    def width(self) -> int:
        """Length of a payload vector: phi(n) over Z[zeta_n], k over F_{p^k}, 1 over the scalar rings."""
        return max(len(self.m) - 1, 1)

    def __str__(self) -> str:
        if self.kind == _KIND_Z:
            return "Z"
        if self.kind == _KIND_Q:
            return "Q"
        if self.kind == _KIND_ZN:
            return f"Z/{self.n}"
        if self.kind == _KIND_FP:
            return f"F{self.n}"
        if self.kind == _KIND_C:
            return f"Z[zeta_{self.n}]"
        return f"F{self.n}^{self.k}"

    # ------------------------------------------------------- payload ops
    def _vector(self, entries) -> tuple:
        """The payload vector of the given entries, reduced mod p when p > 0."""
        p = self.p
        return tuple([v % p for v in entries]) if p else tuple(entries)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, v: int):
        return self.canon((v,) if self.m else v)

    def canon(self, payload):
        """Canonical form of a raw payload; validates shape."""
        if self.m:
            return _reduce([int(v) for v in payload], self.m, self.p)
        if self.kind == _KIND_Q:
            return Fraction(payload)
        return int(payload) % self.p if self.p else int(payload)

    def add(self, a, b):
        if self.m:
            return self._vector(map(operator.add, a, b))
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        if self.m:
            return self._vector(map(operator.sub, a, b))
        return (a - b) % self.p if self.p else a - b

    def neg(self, a):
        if self.m:
            return self._vector(map(operator.neg, a))
        return -a % self.p if self.p else -a

    def mul(self, a, b):
        if self.m:
            return _fused((0,) * self.width, (a,), (b,), self.m, self.p)
        return a * b % self.p if self.p else a * b

    def inv(self, a):
        if self.kind == _KIND_Z:
            if a in (1, -1):
                return a
            raise NotAUnit(f"{a} is not a unit in Z")
        if self.p and not self.m:
            if math.gcd(a, self.p) != 1:
                raise NotAUnit(f"{a} is not a unit mod {self.p}")
            return pow(a, -1, self.p)
        if self.is_zero(a):
            raise NotAUnit("0 is not a unit")
        if not self.m:
            return 1 / a
        inv = _dl_invmod(a, self.m, self.p)  # never None: the moduli are irreducible
        if self.kind == _KIND_C:  # the inverse in Q(zeta_n), a unit when integral
            inv = _integral(inv)
            if inv is None:
                raise NotAUnit(f"{self.render(a)} is not a unit in {self}")
        return tuple(inv + [0] * (self.width - len(inv)))

    def pow_payload(self, a, e: int):
        if e < 0:
            raise DomainViolation(f"negative exponent {e}")
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        return not any(a) if self.m else a == 0

    def is_one(self, a) -> bool:
        return a == self.one()

    def render(self, a) -> str:
        if self.m:
            return _render_int_vector(a, "w" if self.p else "z")
        return str(a)


def _integral(c: list) -> list | None:
    """c as ints when every entry (an int or a Fraction) is integral, else None."""
    if any(v.denominator != 1 for v in c):
        return None
    return [int(v) for v in c]


def _render_int_vector(vec, var: str) -> str:
    terms = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            coef = "" if c == 1 else ("-" if c == -1 else str(c))
            power = var if i == 1 else f"{var}^{i}"
            terms.append(f"{coef}{power}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


# --------------------------------------------------------------------------
# RingElement


@dataclass(frozen=True)
class RingElement:
    """A single ring element: a payload tagged with its RingSpec."""

    spec: RingSpec
    payload: object

    @classmethod
    def of(cls, spec: RingSpec, value) -> "RingElement":
        if isinstance(value, RingElement):
            if value.spec != spec:
                raise SpecMismatch(f"element of {value.spec} used in {spec}")
            return value
        if isinstance(value, int):
            return cls(spec, spec.from_int(value))
        return cls(spec, spec.canon(value))

    def __add__(self, other):
        other = RingElement.of(self.spec, other)
        return RingElement(self.spec, self.spec.add(self.payload, other.payload))

    def __sub__(self, other):
        other = RingElement.of(self.spec, other)
        return RingElement(self.spec, self.spec.sub(self.payload, other.payload))

    def __mul__(self, other):
        other = RingElement.of(self.spec, other)
        return RingElement(self.spec, self.spec.mul(self.payload, other.payload))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.spec, self.spec.neg(self.payload))

    def inv(self) -> "RingElement":
        return RingElement(self.spec, self.spec.inv(self.payload))

    @property
    def is_zero(self) -> bool:
        return self.spec.is_zero(self.payload)

    @property
    def is_one(self) -> bool:
        return self.spec.is_one(self.payload)

    def __str__(self) -> str:
        return self.spec.render(self.payload)


# --------------------------------------------------------------------------
# Polynomial


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; coefficients are payloads, ascending."""

    spec: RingSpec
    coeffs: tuple

    # ---------------------------------------------------------- builders
    @classmethod
    def from_payloads(cls, spec: RingSpec, seq) -> "Polynomial":
        c = [spec.canon(v) for v in seq]
        while c and spec.is_zero(c[-1]):
            c.pop()
        return cls(spec, tuple(c))

    @classmethod
    def from_ints(cls, spec: RingSpec, ints) -> "Polynomial":
        return cls.from_payloads(spec, [spec.from_int(v) for v in ints])

    @classmethod
    def one(cls, spec: RingSpec) -> "Polynomial":
        return cls(spec, (spec.one(),))

    # ---------------------------------------------------------- structure
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.spec.is_one(self.coeffs[0])

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.spec.zero()

    @property
    def constant_term(self):
        return self.coefficient(0)

    def _check(self, other: "Polynomial") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"mixed rings {self.spec} and {other.spec}")

    # ---------------------------------------------------------- arithmetic
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        s = self.spec
        out = [
            s.add(self.coefficient(i), other.coefficient(i))
            for i in range(max(len(self.coeffs), len(other.coeffs)))
        ]
        while out and s.is_zero(out[-1]):
            out.pop()
        return Polynomial(s, tuple(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        s = self.spec
        return Polynomial(s, tuple(s.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The coefficient lists multiply on ``_mul_lists`` in the ring's context (m, p)."""
        self._check(other)
        s = self.spec
        out = _mul_lists(self.coeffs, other.coeffs, s.m, s.p)
        if s.kind == _KIND_Q:  # a coefficient no product reached is still the int 0
            out = [v if type(v) is Fraction else Fraction(v) for v in out]
        return Polynomial(s, tuple(out))

    def scale(self, payload) -> "Polynomial":
        s = self.spec
        out = [s.mul(payload, c) for c in self.coeffs]
        while out and s.is_zero(out[-1]):
            out.pop()
        return Polynomial(s, tuple(out))

    def __str__(self) -> str:
        return format_polynomial(self)


# --------------------------------------------------------------------------
# Galois action on cyclotomic coefficients


def cyclotomic_conjugate_payload(spec: RingSpec, payload, sigma: int):
    """Image of a payload under the coefficient automorphism x -> x^sigma mod Phi_n."""
    if spec.kind != _KIND_C:
        raise UnsupportedRing(f"conjugation lives on cyclotomic rings, not {spec}")
    n = spec.n
    if math.gcd(sigma, n) != 1:
        raise NotAUnit(f"{sigma} is not a unit mod {n}")
    sigma %= n
    if n == 1:
        return spec.canon(payload)
    out = [0] * ((len(payload) - 1) * sigma + 1)
    for i, c in enumerate(payload):
        if c:
            out[i * sigma] += c
    return spec.canon(out)


def conjugate_polynomial(f: Polynomial, sigma: int) -> Polynomial:
    """Apply the cyclotomic conjugation coefficientwise."""
    return Polynomial.from_payloads(
        f.spec, [cyclotomic_conjugate_payload(f.spec, c, sigma) for c in f.coeffs]
    )


# --------------------------------------------------------------------------
# rendering


def format_polynomial(f: Polynomial) -> str:
    """Render ascending, integer-style sign merging: ``1-5t+6t^2``.

    A vector coefficient with no terms in z (or w) prints as its constant
    entry; any other is parenthesized, except as a constant term with no
    inner sign.
    """
    s = f.spec
    out = ""
    for i, c in enumerate(f.coeffs):
        if s.is_zero(c):
            continue
        power = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        if s.m and any(c[1:]):
            body = s.render(c)
            if i or "+" in body or "-" in body[1:]:
                body = f"({body})"
            sign, term = "+", body + power
        else:
            v = c[0] if s.m else c
            sign, mag = ("-", -v) if v < 0 else ("+", v)
            term = ("" if i and mag == 1 else str(mag)) + power
        if out:
            out += sign + term
        else:
            out = "-" + term if sign == "-" else term
    return out or "0"
