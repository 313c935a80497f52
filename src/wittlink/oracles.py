"""Independent routes that the production routes are checked against.

Only ``verify`` and the tests import this module, never a production
module, so an oracle cannot turn into a second production route.

``poly_divmod`` and ``poly_gcd_monic`` divide ``Polynomial``s and take
their gcds in loops over RingSpec payload ops, apart from the ``_dl_*``
kernel and the Witt normalization on kernel lists that they check.

One division-free Berkowitz loop, ``_charpoly``, gives det(I - t*M) of a
square matrix over any commutative ring, on RingSpec payload ops.  It
serves two routes.  Resultants use the convention

    Res(f, g) = lc(f)^deg(g) * prod of g(alpha) over the roots alpha of f

which equals the determinant of the Sylvester matrix built from deg(g)
rows of f over deg(f) rows of g, read off the characteristic polynomial.
The Witt product and Frobenius, the oracle of their Newton route, are
characteristic polynomials of companion matrices (Almkvist): a part
p = prod (1 - a_i t) is det(I - t*C_p), so the star product is that of
the Kronecker product C_p (x) C_q and F_n(p) that of C_p^n.

``series_coefficients`` expands a Witt vector as a power series, the
independent route of the descent check.
"""

from __future__ import annotations

import functools
import math

from .cft import AbelianField, unit_group
from .errors import DomainViolation, NotCoprime, UnsupportedRing
from .rings import (
    Polynomial,
    RingElement,
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
    """Division with remainder by a g whose leading coefficient is a unit.

    Each leading term is multiplied by the inverse of lc(g); a lc(g) that
    is not a unit raises NotAUnit.
    """
    f._check(g)
    s = f.spec
    if g.is_zero:
        raise DomainViolation("division by the zero polynomial")
    r = list(f.coeffs)
    dg = g.degree
    inv = s.inv(g.coeffs[-1])
    q = [s.zero()] * max(len(r) - dg, 0)
    while len(r) - 1 >= dg and r:
        coef = s.mul(r[-1], inv)
        shift = len(r) - 1 - dg
        q[shift] = coef
        for i, gc in enumerate(g.coeffs):
            r[i + shift] = s.sub(r[i + shift], s.mul(coef, gc))
        while r and s.is_zero(r[-1]):
            r.pop()
    return Polynomial.from_payloads(s, q), Polynomial(s, tuple(r))


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
# characteristic polynomials on RingSpec payloads


def _dot(xs, ys, ops):
    """sum x*y over the pairs of two nonempty payload sequences."""
    return functools.reduce(ops.add, map(ops.mul, xs, ys))


def _charpoly(M: list[list], ops) -> list:
    """det(I - t*M), ascending, by Berkowitz's division-free recursion.

    The Berkowitz vector of M: exact over any commutative ring, and
    ``[one]`` for the 0 x 0 matrix.
    """
    V = [ops.one()]
    for r in range(len(M)):
        # the leading r x r block, the row and column that border it
        A = [M[i][:r] for i in range(r)]
        row, vec = M[r][:r], [M[i][r] for i in range(r)]
        toep = [ops.one(), ops.neg(M[r][r])]
        for j in range(r):
            if j:
                vec = [_dot(a, vec, ops) for a in A]
            toep.append(ops.neg(_dot(row, vec, ops)))
        # the lower-triangular Toeplitz matrix of toep applied to V
        V = [_dot(toep[i::-1], V, ops) for i in range(r + 2)]
    return V


def _lp_trim(c: list, ops) -> list:
    while c and ops.is_zero(c[-1]):
        c.pop()
    return c


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


def _lp_resultant(A: list, B: list, ops):
    """Res(A, B) as the determinant (-1)^n V[n] of the n x n Sylvester matrix."""
    # two constants give 1: the empty Sylvester determinant
    A = _lp_trim(list(A), ops)
    B = _lp_trim(list(B), ops)
    if not A and not B:
        raise DomainViolation("resultant of two zero polynomials")
    if not A or not B:
        return ops.zero()
    V = _charpoly(_sylvester_matrix(A, B, ops), ops)
    n = len(V) - 1
    return V[n] if n % 2 == 0 else ops.neg(V[n])


def poly_resultant(f: Polynomial, g: Polynomial) -> RingElement:
    """Res(f, g) over the shared coefficient ring.

    Convention: Res(f, g) = lc(f)^deg(g) * product of g over the roots of
    f, the Sylvester determinant with deg(g) rows of f on top.  Returns 0
    when one argument is the zero polynomial; rejects two zeros.
    """
    f._check(g)
    return RingElement(f.spec, _lp_resultant(f.coeffs, g.coeffs, f.spec))


# --------------------------------------------------------------------------
# the Witt product and Frobenius as characteristic polynomials (criterion 1)


def _companion(p: Polynomial) -> list[list]:
    """The d x d matrix C with det(I - t*C) = p for p = 1 + c_1 t + ... + c_d t^d.

    Ones on the subdiagonal and -c_(d-i) down the last column: its
    eigenvalues are p's inverse roots.
    """
    s, d = p.spec, p.degree
    C = [[s.zero()] * d for _ in range(d)]
    for i in range(d):
        if i:
            C[i][i - 1] = s.one()
        C[i][d - 1] = s.neg(p.coeffs[d - i])
    return C


def _matmul(A: list[list], B: list[list], ops) -> list[list]:
    cols = list(zip(*B))
    return [[_dot(row, col, ops) for col in cols] for row in A]


def _star_charpoly(p: Polynomial, q: Polynomial) -> Polynomial:
    """prod (1 - a_i b_j t) as det(I - t*(C_p (x) C_q)): the oracle of the Newton route.

    The Kronecker product of the companion matrices has the eigenvalues
    a_i * b_j, the Witt product of Almkvist's tensor product.
    """
    s = p.spec
    K = [[s.mul(a, b) for a in ra for b in rb] for ra in _companion(p) for rb in _companion(q)]
    return Polynomial.from_payloads(s, _charpoly(K, s))


def _power_roots_charpoly(p: Polynomial, n: int) -> Polynomial:
    """F_n(p) = prod (1 - a_i^n t) as det(I - t*C_p^n): the oracle of the Newton route.

    C_p^n is taken by repeated squaring, n >= 1.
    """
    s = p.spec
    C = P = _companion(p)
    for bit in bin(n)[3:]:
        P = _matmul(P, P, s)
        if bit == "1":
            P = _matmul(P, C, s)
    return Polynomial.from_payloads(s, _charpoly(P, s))


def _charpoly_product(f: WittVector, g: WittVector) -> WittVector:
    """f (x) g by characteristic polynomials, independent of the Newton route."""
    star = _star_charpoly
    return WittVector(f.spec, star(f.num, g.num) * star(f.den, g.den), star(f.num, g.den) * star(f.den, g.num))


def _charpoly_frobenius(n: int, f: WittVector) -> WittVector:
    return WittVector(f.spec, _power_roots_charpoly(f.num, n), _power_roots_charpoly(f.den, n))


# --------------------------------------------------------------------------
# the power series of a Witt vector (criterion 3)


def series_coefficients(f: WittVector, N: int) -> list:
    """Power-series coefficients of f through t^N (constant term included).

    Denominator inversion is division-free because den(0) = 1.
    """
    spec = f.spec
    inv = [spec.one()]
    for k in range(1, N + 1):
        acc = spec.zero()
        for i in range(1, k + 1):
            acc = spec.add(acc, spec.mul(f.den.coefficient(i), inv[k - i]))
        inv.append(spec.neg(acc))
    out = []
    for k in range(N + 1):
        acc = spec.zero()
        for i in range(0, k + 1):
            acc = spec.add(acc, spec.mul(f.num.coefficient(i), inv[k - i]))
        out.append(acc)
    return out


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
