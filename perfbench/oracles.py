"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports wittlink: every expected value is computed from the
known make-up of the generated inputs (inverse-root multisets, dense
coefficients, subgroups enumerated here) with arithmetic written for this
file alone.

Coefficient rings are described by a tuple ``(kind,)`` or ``(kind, n)``
with kind one of ``Z``, ``Q``, ``Zn``, ``Fp``, ``C``; elements are ``int``
(Z, Zn, Fp), ``Fraction`` (Q) or a tuple of ``phi(n)`` ints (C, a residue
modulo the n-th cyclotomic polynomial).  Polynomials are lists of
elements, constant term first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# --------------------------------------------------------------------------
# integers


def sieve(bound: int) -> list[int]:
    """Primes strictly below ``bound``."""
    flags = [True] * max(bound, 2)
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(max(bound - 1, 1)) + 1):
        if flags[i]:
            for j in range(i * i, bound, i):
                flags[j] = False
    return [i for i in range(bound) if flags[i]]


def units(n: int) -> list[int]:
    """(Z/n)^* as residues; the one-element group {0} when n = 1."""
    return [0] if n == 1 else [u for u in range(1, n) if math.gcd(u, n) == 1]


def squares_mod(p: int) -> set[int]:
    """Nonzero squares modulo p, by brute force."""
    return {x * x % p for x in range(1, p)}


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as ascending integer coefficients: x^n - 1 over the Phi_d, d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _int_exact_div_monic(num, list(cyclotomic(d)))
    return tuple(num)


def _int_exact_div_monic(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    if any(a):
        raise ValueError("inexact division by a cyclotomic polynomial")
    return q


# --------------------------------------------------------------------------
# coefficient rings


class Ring:
    """Arithmetic in one of the five coefficient rings the benchmark drives."""

    def __init__(self, desc):
        self.kind = desc[0]
        self.n = desc[1] if len(desc) > 1 else 0
        if self.kind == "C":
            self.phi = list(cyclotomic(self.n))
            self.width = len(self.phi) - 1

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def of(self, v):
        """Canonical element from an int, a Fraction or a coefficient vector."""
        if self.kind == "Z":
            return int(v)
        if self.kind == "Q":
            return Fraction(v)
        if self.kind in ("Zn", "Fp"):
            return int(v) % self.n
        vec = list(v) if isinstance(v, (list, tuple)) else [int(v)]
        return self._reduce(vec)

    def _reduce(self, vec):
        vec = list(vec)
        d = self.width
        for i in range(len(vec) - 1, d - 1, -1):
            c = vec[i]
            if c:
                for j, pj in enumerate(self.phi):
                    vec[i - d + j] -= c * pj
        vec = vec[:d] + [0] * (d - len(vec))
        return tuple(vec)

    def add(self, a, b):
        if self.kind == "C":
            return tuple(x + y for x, y in zip(a, b))
        s = a + b
        return s % self.n if self.kind in ("Zn", "Fp") else s

    def neg(self, a):
        if self.kind == "C":
            return tuple(-x for x in a)
        return (-a) % self.n if self.kind in ("Zn", "Fp") else -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "C":
            out = [0] * (2 * self.width - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return self._reduce(out)
        s = a * b
        return s % self.n if self.kind in ("Zn", "Fp") else s

    def pow(self, a, e: int):
        out = self.one()
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def is_zero(self, a) -> bool:
        return not any(a) if self.kind == "C" else a == 0


# --------------------------------------------------------------------------
# polynomials over a Ring


def trim(R: Ring, p: list) -> list:
    p = list(p)
    while p and R.is_zero(p[-1]):
        p.pop()
    return p


def pmul(R: Ring, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [R.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if R.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    return trim(R, out)


def from_roots(R: Ring, roots) -> list:
    """prod (1 - a t) over the multiset ``roots``."""
    out = [R.one()]
    for a in roots:
        out = pmul(R, out, [R.one(), R.neg(a)])
    return out


def power_sums(R: Ring, p: list, count: int) -> list:
    """s_1..s_count of the inverse roots of p (p(0) = 1), by Newton's identities."""
    coef = lambda i: p[i] if i < len(p) else R.zero()
    out = []
    for k in range(1, count + 1):
        acc = R.mul(coef(k), R.of(k))
        for i in range(1, k):
            acc = R.add(acc, R.mul(coef(i), out[k - i - 1]))
        out.append(R.neg(acc))
    return out


def root_power_sums(R: Ring, roots, count: int) -> list:
    """sum a^k over the multiset for k = 1..count."""
    sums = [R.zero()] * count
    for a in roots:
        x = R.one()
        for k in range(count):
            x = R.mul(x, a)
            sums[k] = R.add(sums[k], x)
    return sums


def same_rational(R: Ring, n1: list, d1: list, n2: list, d2: list) -> bool:
    """n1/d1 == n2/d2 as power series, decided by cross-multiplication."""
    return trim(R, pmul(R, n1, d2)) == trim(R, pmul(R, n2, d1))


# --------------------------------------------------------------------------
# expected Witt results
#
# A Witt vector's truth is either {"roots": (num_roots, den_roots)} or
# {"dense": (num_coeffs, den_coeffs)}; results are checked as num/den pairs.


def parts(R: Ring, truth: dict) -> tuple[list, list]:
    if "roots" in truth:
        return tuple(from_roots(R, rs) for rs in truth["roots"])
    return tuple(trim(R, [R.of(c) for c in part]) for part in truth["dense"])


def ghost_of(R: Ring, truth: dict, count: int) -> list:
    """First ``count`` ghost components: numerator minus denominator power sums."""
    if "roots" in truth:
        sn, sd = (root_power_sums(R, rs, count) for rs in truth["roots"])
    else:
        sn, sd = (power_sums(R, part, count) for part in parts(R, truth))
    return [R.sub(a, b) for a, b in zip(sn, sd)]


def _degrees(truth: dict) -> tuple[int, int]:
    if "roots" in truth:
        return tuple(len(rs) for rs in truth["roots"])
    return tuple(len(part) - 1 for part in truth["dense"])


def _check_by_ghost(R, result, expected_ghost_fn, expected_degrees) -> bool:
    """Compare power sums up to the degree that forces equality of the rationals.

    If result = n/d and the true value has parts of degree <= (a, b), the
    two agree once their log-derivatives agree through degree
    max(deg n + b, a + deg d): the cross-multiplied difference has no
    higher terms.
    """
    num, den = result
    a, b = expected_degrees
    count = max(len(num) - 1 + b, a + len(den) - 1, 1)
    got = [R.sub(x, y) for x, y in zip(power_sums(R, num, count), power_sums(R, den, count))]
    return got == expected_ghost_fn(count)


def check_mul(R: Ring, f: dict, g: dict, result) -> bool:
    if "roots" in f and "roots" in g:
        (fn, fd), (gn, gd) = f["roots"], g["roots"]
        star = lambda xs, ys: [R.mul(x, y) for x in xs for y in ys]
        num = from_roots(R, star(fn, gn) + star(fd, gd))
        den = from_roots(R, star(fn, gd) + star(fd, gn))
        return same_rational(R, result[0], result[1], num, den)
    (fa, fb), (ga, gb) = _degrees(f), _degrees(g)
    expected = lambda count: [
        R.mul(x, y) for x, y in zip(ghost_of(R, f, count), ghost_of(R, g, count))
    ]
    return _check_by_ghost(R, result, expected, (fa * ga + fb * gb, fa * gb + fb * ga))


def check_frobenius(R: Ring, n: int, f: dict, result) -> bool:
    if "roots" in f:
        num, den = (from_roots(R, [R.pow(a, n) for a in rs]) for rs in f["roots"])
        return same_rational(R, result[0], result[1], num, den)
    expected = lambda count: ghost_of(R, f, n * count)[n - 1 :: n]
    return _check_by_ghost(R, result, expected, _degrees(f))


def check_add(R: Ring, f: dict, g: dict, result) -> bool:
    (fn, fd), (gn, gd) = parts(R, f), parts(R, g)
    return same_rational(R, result[0], result[1], pmul(R, fn, gn), pmul(R, fd, gd))


def check_ghost(R: Ring, f: dict, result: list) -> bool:
    return list(result) == ghost_of(R, f, len(result))


def groupring_terms(p: int, pairs) -> dict:
    """Combined multiplicities of a multiset of units mod p, zeros dropped."""
    out: dict = {}
    for base, mult in pairs:
        out[base % p] = out.get(base % p, 0) + mult
    return {b: m for b, m in out.items() if m}


# --------------------------------------------------------------------------
# abelian fields


def closure(n: int, gens) -> frozenset:
    """The subgroup of (Z/n)^* generated by ``gens``."""
    if n == 1:
        return frozenset({0})
    group = {1}
    todo = [1]
    while todo:
        a = todo.pop()
        for g in gens:
            b = a * g % n
            if b not in group:
                group.add(b)
                todo.append(b)
    return frozenset(group)


def subgroups(n: int) -> list[frozenset]:
    """Every subgroup of (Z/n)^*, grown from {1} one generator at a time."""
    U = units(n)
    found = {closure(n, [])}
    todo = list(found)
    while todo:
        H = todo.pop()
        for u in U:
            if u not in H:
                K = closure(n, list(H) + [u])
                if K not in found:
                    found.add(K)
                    todo.append(K)
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def conductor(n: int, H: frozenset) -> int:
    """Least c | n such that every unit that is 1 mod c lies in H."""
    for c in range(1, n + 1):
        if n % c == 0 and all(u in H for u in units(n) if u % c == 1 % c):
            return c
    raise AssertionError("n itself always qualifies")


def frobenius_order(c: int, Hc: frozenset, p: int) -> int:
    """Order of p in (Z/c)^* / Hc."""
    if c == 1:
        return 1
    k, x = 1, p % c
    while x not in Hc:
        x = x * p % c
        k += 1
    return k


def second_level(c: int, p: int) -> int:
    """The smaller of 2c, 3c that is prime to p."""
    return 2 * c if math.gcd(p, 2 * c) == 1 else 3 * c


def bridge_expectation(n: int, H: frozenset, c: int, p: int) -> dict:
    """Splitting shape and monodromy coset rep of p, unramified in the field (n, H) of conductor c."""
    Hc = frozenset(h % c for h in H) if c > 1 else frozenset({0})
    degree = len(units(n)) // len(H)
    f = frobenius_order(c, Hc, p)
    rep = min(p * h % c for h in Hc) if c > 1 else 0
    return {"conductor": c, "r": degree // f, "f": f, "rep": rep}
