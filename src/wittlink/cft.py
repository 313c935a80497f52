"""Finite-level class field theory for abelian extensions of Q.

An abelian field F is presented by a level n and a subgroup H of (Z/n)^*:
F is the subfield of the n-th cyclotomic field fixed by H, and its Galois
group over Q is the quotient (Z/n)^*/H.  Everything downstream (Artin
cosets, splitting shapes, fibers) is finite quotient-group arithmetic,
and this module owns it, each group fact in one routine:
_order(m, g, H), the order of the unit g modulo H read off Carmichael's
lambda(m) as factored by rings.factor; _adjoin, the coset step <S, g> of
Dimino's method, which subgroup_generated folds over generators,
subgroup_generators grows one closure with and all_subgroups applies to
every subgroup found.  QuotientUnitGroup (cached by quotient_group, and by
cyclic_quotient for (Z/m)^*/<g> on g mod m) holds the canonical least
coset representatives, built in one ascending pass.  Level 1 presents Q
itself with the one-element unit group (0,), the residue of 1 mod 1.
cyclic_quotient finds <g> by its order among the cyclic subgroups it has
already built, and walks the powers of g only for a subgroup not seen
before.

An AbelianField computes its degree, conductor, presentation at the
conductor and ramified set once, on first read.

The splitting shape (f, r) of an unramified prime p comes from the order
of its Artin coset in the quotient group, which orbits.FieldFibers
presents; this module holds no polynomial code.  Its oracle, a
distinct-degree factorization of Phi_n over F_p, lives in ``oracles``.

A level that p divides is refused by check_coprime, with one message;
_check_prime_to_level checks primality first and then calls it, for
linking_hom, the infinite-level fiber and the flow-side points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainViolation, NotCoprime
from .rings import divisors, euler_phi, factor, is_prime

# --------------------------------------------------------------------------
# elementary pieces


def euler_criterion(q: int, p: int) -> int:
    """(q|p) for a p the caller has already checked to be an odd prime."""
    q %= p
    if q == 0:
        return 0
    e = pow(q, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def _check_level(n: int) -> None:
    if n < 1:
        raise DomainViolation(f"level must be >= 1, got {n}")


@functools.lru_cache(maxsize=None)  # one tuple per level asked for; unbounded (ROADMAP item 1)
def unit_group(n: int) -> tuple[int, ...]:
    """Units mod n, sorted.  unit_group(1) is the trivial group (0,)."""
    _check_level(n)
    if n == 1:
        return (0,)
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


def _adjoin(n: int, S: frozenset, g: int) -> frozenset:
    """<S, g> for a subgroup S of (Z/n)^* and a unit g.

    With g^k the first power of g in S, it is the union of the cosets
    S*g^i, i < k: Dimino's step, a plain power walk while S is trivial.
    """
    g %= n
    if math.gcd(g, n) != 1:
        raise NotCoprime(f"{g} is not a unit mod {n}")
    powers, x = [1], g
    while x not in S:
        powers.append(x)
        x = x * g % n
    return frozenset(s * h % n for h in powers for s in S)


def subgroup_generated(n: int, gens) -> frozenset:
    """Smallest multiplicatively closed subset of (Z/n)^* containing 1 and gens."""
    _check_level(n)
    return functools.reduce(functools.partial(_adjoin, n), gens, frozenset({1 % n}))


def subgroup_generators(n: int, H) -> list[int]:
    """Greedy generators of H <= (Z/n)^*: each member not yet generated, ascending.

    Raises DomainViolation as soon as the generated subgroup leaves H, so
    a subset of units that is not multiplicatively closed is rejected.
    """
    H = frozenset(H)
    gens: list[int] = []
    closure = frozenset({1 % n})
    for u in sorted(H):
        if u in closure:
            continue
        gens.append(u)
        closure = _adjoin(n, closure, u)
        if not closure <= H:
            raise DomainViolation("subgroup is not multiplicatively closed")
        if len(closure) == len(H):
            break
    return gens


class QuotientUnitGroup:
    """(Z/m)^* modulo a subgroup, with canonical (least) coset reps.

    canon_table maps each unit residue mod m to its rep.  canon reduces
    and checks its argument; a caller holding unit residues may index the
    table directly.
    """

    __slots__ = ("modulus", "subgroup", "reps", "canon_table")

    def __init__(self, modulus: int, subgroup: frozenset):
        self.modulus = modulus
        self.subgroup = subgroup
        # units ascend, so the first one not yet in the table is the least of its coset
        canon: dict[int, int] = {}
        reps = []
        for u in unit_group(modulus):
            if u in canon:
                continue
            reps.append(u)
            for h in subgroup:
                canon[u * h % modulus] = u
        self.reps = tuple(reps)
        self.canon_table = canon

    @property
    def order(self) -> int:
        return len(self.reps)

    def canon(self, u: int) -> int:
        u %= self.modulus
        if u not in self.canon_table:
            raise DomainViolation(f"{u} is not a unit mod {self.modulus}")
        return self.canon_table[u]

    def mul(self, a: int, b: int) -> int:
        return self.canon_table[a * b % self.modulus]

    def element_order(self, a: int) -> int:
        """The order of the class of a, which must divide the group order (the degree, for a Galois group)."""
        f = _order(self.modulus, a, self.subgroup)
        if self.order % f:
            raise AssertionError(f"an element order {f} that does not divide the group order {self.order}")
        return f

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientUnitGroup)
            and self.modulus == other.modulus
            and self.subgroup == other.subgroup
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.subgroup))

    def __repr__(self) -> str:
        return f"QuotientUnitGroup(mod {self.modulus}, |G| = {self.order})"


@functools.lru_cache(maxsize=None)  # one table per (modulus, subgroup) asked for; unbounded (ROADMAP item 1)
def quotient_group(modulus: int, subgroup: frozenset) -> QuotientUnitGroup:
    return QuotientUnitGroup(modulus, subgroup)


def cyclic_quotient(m: int, g: int) -> QuotientUnitGroup:
    """(Z/m)^*/<g>, cached on g mod m."""
    return _cyclic_quotient(m, g % m if m else g)


# (m, d) -> the quotients of (Z/m)^* by the cyclic subgroups of order d built
# so far; a short list, since (Z/m)^* need not be cyclic.  Unbounded (ROADMAP item 1)
_cyclic_quotients: dict[tuple[int, int], list[QuotientUnitGroup]] = {}


@functools.lru_cache(maxsize=None)  # one quotient per (m, g mod m) asked for; unbounded (ROADMAP item 1)
def _cyclic_quotient(m: int, g: int) -> QuotientUnitGroup:
    _check_level(m)  # before _order and the (m, d) lists cache anything for it
    # a subgroup of order ord(g) that contains g is <g>
    seen = _cyclic_quotients.setdefault((m, _order(m, g, frozenset({1 % m}))), [])
    for G in seen:
        if g in G.subgroup:
            return G
    G = quotient_group(m, subgroup_generated(m, [g]))
    seen.append(G)
    return G


@functools.lru_cache(maxsize=None)  # one per modulus of a quotient table whose orders are taken
def _carmichael(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Carmichael's lambda(m), the exponent of (Z/m)^*, and its factorization."""
    lam = 1
    for p, e in factor(m):
        lam = math.lcm(lam, 2 ** (e - 2) if p == 2 and e > 2 else p ** (e - 1) * (p - 1))
    return lam, factor(lam)


def _order(m: int, g: int, H) -> int:
    """The order of the unit g mod m modulo the subgroup H of (Z/m)^*.

    Cohen, GTM 138, Alg. 1.4.3 against lambda(m), with x in H for x == 1:
    each q^v exactly dividing lambda(m) is put back at most v times, so an
    H that is not a subgroup raises AssertionError rather than looping.
    """
    g %= m
    if math.gcd(g, m) != 1:
        raise NotCoprime(f"{g} is not a unit mod {m}")
    e, primes = _carmichael(m)
    for q, v in primes:
        e //= q**v
        x = pow(g, e, m)
        for _ in range(v):
            if x in H:
                break
            x = pow(x, q, m)
            e *= q
        if x not in H:
            raise AssertionError(f"no power of {g} with exponent dividing lambda({m}) lies in H: not a subgroup")
    return e


@dataclass(frozen=True)
class ModUnit:
    """A unit residue: the level-m truncation of a prime-to-m idele class."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainViolation(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)
        if math.gcd(self.value, self.modulus) != 1:
            raise NotCoprime(f"{self.value} is not a unit mod {self.modulus}")

    def mul(self, other: "ModUnit | int") -> "ModUnit":
        v = other.value if isinstance(other, ModUnit) else other
        return ModUnit(self.value * v % self.modulus, self.modulus)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


def check_coprime(p: int, m: int) -> None:
    """Raise NotCoprime when the prime p divides the level m."""
    if math.gcd(p, m) != 1:
        raise NotCoprime(f"{p} divides the level {m}")


def _check_prime_to_level(p: int, m: int) -> None:
    """Raise unless p is a prime not dividing the level m; primality is checked first."""
    if not is_prime(p):
        raise DomainViolation(f"{p} is not prime")
    check_coprime(p, m)


def linking_hom(p: int, m: int) -> ModUnit:
    """Level-m truncation of the diagonal image of p in the prime-to-p units."""
    _check_prime_to_level(p, m)
    return ModUnit(p % m, m)


# --------------------------------------------------------------------------
# abelian fields


@dataclass(frozen=True)
class AbelianField:
    """Subfield of the level-n cyclotomic field fixed by H <= (Z/n)^*.

    Its facts are set on first read, outside the dataclass fields that eq, hash and repr read.
    """

    level: int
    subgroup: frozenset
    label: str = ""

    def __post_init__(self):
        units = set(unit_group(self.level))
        H = set(self.subgroup)
        if not H or not H.issubset(units):
            raise DomainViolation("subgroup members must be units at the level")
        if 1 % self.level not in H:
            raise DomainViolation("subgroup must contain the identity")
        subgroup_generators(self.level, self.subgroup)

    @functools.cached_property
    def degree(self) -> int:
        return euler_phi(self.level) // len(self.subgroup)

    @functools.cached_property
    def conductor(self) -> int:
        """Least c | level with the reduction kernel inside H; 1 encodes Q."""
        H, units = self.subgroup, unit_group(self.level)
        return next(c for c in divisors(self.level) if all(u in H for u in units if u % c == 1 % c))

    @functools.cached_property
    def at_conductor(self) -> "AbelianField":
        """The same field presented at its conductor level; the field itself when already there."""
        c = self.conductor
        return self if c == self.level else AbelianField(c, frozenset(u % c for u in self.subgroup), self.label)

    @functools.cached_property
    def ramified(self) -> frozenset:
        """Primes ramified in the field: exactly the prime divisors of the conductor."""
        return frozenset(p for p, _ in factor(self.conductor))

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.degree == 1:
            return "Q"
        if len(self.subgroup) == 1:
            return f"Q(mu_{self.level})"
        return f"level {self.level} subgroup {sorted(self.subgroup)}"

    def __str__(self) -> str:
        return self.describe()


def rationals_field() -> AbelianField:
    return AbelianField(1, frozenset({0}), label="Q")


def cyclotomic_field(n: int) -> AbelianField:
    _check_level(n)
    return AbelianField(n, frozenset({1 % n}), label=f"Q(mu_{n})")


def abelian_field(level: int, subgroup_elements) -> AbelianField:
    _check_level(level)
    return AbelianField(level, frozenset(e % level for e in subgroup_elements))


@functools.lru_cache(maxsize=None)  # one field per odd prime q; the CLI's reciprocity table takes q < 2,000
def quadratic_field_subgroup(q: int) -> AbelianField:
    """Q(sqrt(q)) for an odd prime q, as a kernel-of-character subgroup.

    Level q with the squares when q = 1 mod 4; level 4q with the kernel of
    a -> (a|q) * (-1)^((a-1)/2) when q = 3 mod 4 (the character of the
    discriminant 4q).  Validated against the Legendre symbol through the
    reciprocity suite rather than trusted.
    """
    if q == 2 or not is_prime(q):
        raise DomainViolation(f"{q} must be an odd prime")
    half = (q - 1) // 2  # Euler's criterion: (u|q) = 1 iff u^half = 1 mod q
    if q % 4 == 1:
        H = frozenset(u for u in unit_group(q) if pow(u, half, q) == 1)
        return AbelianField(q, H, label=f"Q(sqrt({q}))")
    level = 4 * q
    H = frozenset(
        u for u in unit_group(level) if (pow(u, half, q) == 1) == (u % 4 == 1)
    )
    return AbelianField(level, H, label=f"Q(sqrt({q}))")


# --------------------------------------------------------------------------
# cosets


@dataclass(frozen=True)
class Coset:
    """A coset of H in (Z/m)^*, stored by its least member."""

    modulus: int
    subgroup: frozenset
    rep: int

    def __str__(self) -> str:
        return f"{self.rep}*H mod {self.modulus}"


# --------------------------------------------------------------------------
# subgroup enumeration (acceptance grids)


def all_subgroups(n: int) -> tuple[frozenset, ...]:
    """Every subgroup of (Z/n)^*, as frozensets: {1} and every unit adjoined to each subgroup found."""
    subs = {frozenset({1 % n})}
    todo = list(subs)
    while todo:
        S = todo.pop()
        for u in unit_group(n):
            joined = _adjoin(n, S, u)
            if joined not in subs:
                subs.add(joined)
                todo.append(joined)
    return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))
