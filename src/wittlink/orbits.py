"""Finite-level models of closed orbits, packets, and mapping tori.

A mapping torus here is a finite abelian group G (a quotient of a unit
group (Z/m)^*, the cft.QuotientUnitGroup that every Galois-group
computation shares; quotient_group is re-exported from here) together
with a monodromy element and a base prime p: it
models G x_{p^Z} R_+, the suspension whose flow crosses the base circle of
length log p by multiplying the fiber coordinate with the monodromy.  Its
connected components are the orbits of the cyclic group generated by the
monodromy, each a circle of length f*log(p) where f is the monodromy
order.  Circle lengths are carried exactly as the pair (p, f); a float
rendering exists only for display.

Two constructions produce tori:

  * the covering-side fiber over the base circle of p: group (Z/n)^*/H
    with monodromy the Artin coset of p;
  * the flow-side packet over a prime of residue degree f: group
    (Z/m)^*/<p^f> with monodromy the class of p, at any auxiliary level m
    coprime to p; it and the closed-orbit labels (Z/m)^*/<p> are the one
    cached cft.cyclic_quotient.

The packet fiber over the closed-orbit labels pushes the level-m data
through the restriction character onto the Galois quotient and
orbit-enumerates there, once for every label; the covering side
computes the same (r, f) shape by order arithmetic at the field's own
level.  Their agreement over a grid of fields and primes is the
structural consistency this package exists to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation, EqualPrimes, NotCoprime, SpecMismatch
from .cft import (
    AbelianField,
    ModUnit,
    QuotientUnitGroup,
    artin_symbol,
    at_conductor,
    conductor,
    cyclic_quotient,
    euler_criterion,
    quadratic_field_subgroup,
    quotient_group,
    split_invariants,
)
from .rings import is_prime, primes_below

# --------------------------------------------------------------------------
# mapping tori and decompositions


@dataclass(frozen=True)
class MappingTorus:
    """Finite model of G x_{p^Z} R_+ with a distinguished monodromy."""

    group: QuotientUnitGroup
    monodromy: int
    base_prime: int
    field: AbelianField | None = None
    closed_orbits: bool = True

    @property
    def level(self) -> int:
        return self.group.modulus

    @property
    def base_length(self) -> tuple[int, int]:
        """The base circle length log(p), stored exactly as (p, 1)."""
        return (self.base_prime, 1)

    def __str__(self) -> str:
        return (
            f"torus over {self.group!r}, monodromy {self.monodromy}, base prime {self.base_prime}"
        )


@dataclass(frozen=True)
class FiberDecomposition:
    """Connected components of a mapping torus: r circles covering with degree f."""

    components: tuple  # tuple of member tuples, sorted by least member
    covering_degree: int
    count: int
    base_prime: int
    closed: bool = True

    @property
    def circle_length(self) -> tuple[int, int]:
        """Exact component length f*log(p) as the pair (p, f)."""
        return (self.base_prime, self.covering_degree)

    def circle_length_display(self) -> float:
        """Float rendering, display only; never used in comparisons."""
        return self.covering_degree * math.log(self.base_prime)

    def length_fields(self) -> dict:
        """The component length as report fields: exact (p, f) and the display float to 6 places."""
        return {
            "circle_length": {"prime": self.base_prime, "exponent": self.covering_degree},
            "circle_length_display": round(self.circle_length_display(), 6),
        }

    @property
    def representatives(self) -> tuple:
        return tuple(c[0] for c in self.components)


def decompose(T: MappingTorus) -> FiberDecomposition:
    """Orbits of the cyclic group generated by the monodromy.

    Multiplication by a group element acts freely, so every orbit has size
    equal to the monodromy order f and there are |G|/f of them.
    """
    G = T.group
    f = G.element_order(T.monodromy)
    seen: set[int] = set()
    comps = []
    for r in G.reps:
        if r in seen:
            continue
        orbit = [r]
        cur = G.mul(r, T.monodromy)
        while cur != r:
            orbit.append(cur)
            cur = G.mul(cur, T.monodromy)
        if len(orbit) != f:
            raise AssertionError(f"an orbit of size {len(orbit)} under a monodromy of order {f}")
        members = tuple(sorted(orbit))
        seen.update(orbit)
        comps.append(members)
    comps.sort()
    return FiberDecomposition(
        components=tuple(comps),
        covering_degree=f,
        count=len(comps),
        base_prime=T.base_prime,
        closed=T.closed_orbits,
    )


# --------------------------------------------------------------------------
# the two sides


def cc_fiber(F: AbelianField, p: int) -> MappingTorus:
    """Covering-side fiber over the base circle of p: Gal(F/Q) with the Artin monodromy."""
    art = artin_symbol(F, p)  # raises on ramified p
    pres = F if art.modulus == F.level else at_conductor(F)
    G = quotient_group(pres.level, pres.subgroup)
    return MappingTorus(G, G.canon(art.rep), p, field=pres)


def cc_fiber_infinite_level(p: int, m: int) -> MappingTorus:
    """Level-m truncation of the fiber over every field unramified at p.

    Group (Z/m)^* with monodromy p mod m.  The flow orbits of the object
    this truncates are lines rather than circles, recorded by the
    closed_orbits flag.
    """
    if not is_prime(p):
        raise DomainViolation(f"{p} is not prime")
    if math.gcd(p, m) != 1:
        raise NotCoprime(f"{p} divides the level {m}")
    G = quotient_group(m, frozenset({1 % m}))
    return MappingTorus(G, G.canon(p), p, field=None, closed_orbits=False)


def deninger_packet(F: AbelianField, p: int, m: int) -> MappingTorus:
    """Flow-side packet over a prime of F above p, truncated at level m.

    Group (Z/m)^*/<p^f mod m> (f the residue degree of p in F) with
    monodromy the class of p: the norm subgroup is divided out, crossing
    the base circle multiplies by p.
    """
    if math.gcd(p, m) != 1:
        raise NotCoprime(f"{p} divides the level {m}")
    f = split_invariants(F, p).residue_degree  # raises on ramified p
    G = cyclic_quotient(m, pow(p, f, m))
    return MappingTorus(G, G.canon(p), p, field=F)


@dataclass(frozen=True)
class ClosedOrbitLabel:
    """Index of one closed orbit in the base packet: a class mod <p> at level m."""

    base_class: int
    prime: int
    level: int


def closed_orbit_labels(p: int, m: int) -> list[ClosedOrbitLabel]:
    """All closed-orbit labels of the level-m base packet over p."""
    if math.gcd(p, m) != 1:
        raise NotCoprime(f"{p} divides the level {m}")
    return [ClosedOrbitLabel(r, p, m) for r in cyclic_quotient(m, p).reps]


def packet_fibers(T: MappingTorus) -> FiberDecomposition:
    """Components of the full covering fiber, shared by every closed-orbit label.

    The level-m points of the packet over one label form a single
    monodromy orbit per sheet; the sheets are indexed by the cosets of the
    Artin class in the Galois quotient.  Pushing the packet data through
    the restriction character (reduction mod the conductor) and
    orbit-enumerating there yields r components of size f, each a circle
    of length f*log(p), carried exactly.  The pushed torus is decomposed
    once; one pass over the packet then checks that the points over each
    label land in a single component and that every label is reached.
    """
    if T.field is None:
        raise DomainViolation("fiber labels apply to packets attached to a field")
    F, p, m = T.field, T.base_prime, T.level
    c = conductor(F)
    if m % c:
        raise DomainViolation(
            f"level {m} is not a multiple of the conductor {c}; the character is undefined"
        )
    # push through the restriction character onto the Galois quotient
    pres = at_conductor(F)
    Ggal = quotient_group(pres.level, pres.subgroup)
    pushed = MappingTorus(Ggal, Ggal.canon(T.monodromy), p, field=pres)
    dec = decompose(pushed)
    component_of = {r: i for i, comp in enumerate(dec.components) for r in comp}
    # the level-m points over each label all land in a single component
    Glab = cyclic_quotient(m, p)
    lab, gal = Glab.canon_table, Ggal.canon_table
    landed: dict[int, set] = {}  # label -> components its points land in
    for g in T.group.reps:
        landed.setdefault(lab[g], set()).add(component_of[gal[g % c]])
    if len(landed) != Glab.order or any(len(hit) != 1 for hit in landed.values()):
        raise AssertionError("a closed-orbit label is missed or split across components")
    return dec


def packet_fiber_over_label(T: MappingTorus, label: ClosedOrbitLabel) -> FiberDecomposition:
    """Components of the full covering fiber over one closed-orbit label.

    The fiber is the same over every label; see packet_fibers.
    """
    if T.field is None:
        raise DomainViolation("fiber labels apply to packets attached to a field")
    if label.level != T.level or label.prime != T.base_prime:
        raise SpecMismatch("label level/prime do not match the packet")
    return packet_fibers(T)


# --------------------------------------------------------------------------
# flow-side points


@dataclass(frozen=True)
class DeningerPointFL:
    """Finite-level point datum (p; a mod m; scale n) with p-part budget e.

    Two points (a, n) and (a', n') are equivalent iff n' = n*p^k and
    a' = p^k * a mod m for some integer k.
    """

    prime: int
    unit: ModUnit
    scale: int
    p_exponent_budget: int = 1

    def __post_init__(self):
        if not is_prime(self.prime):
            raise DomainViolation(f"{self.prime} is not prime")
        if math.gcd(self.prime, self.unit.modulus) != 1:
            raise NotCoprime(
                f"point level {self.unit.modulus} must be coprime to the prime {self.prime}"
            )
        if self.scale < 1:
            raise DomainViolation(f"scale must be a positive integer, got {self.scale}")
        if self.p_exponent_budget < 1:
            raise DomainViolation("the p-part budget must be >= 1")

    @property
    def is_normalized(self) -> bool:
        return self.scale % self.prime != 0

    def __str__(self) -> str:
        return f"(p={self.prime}, a={self.unit}, n={self.scale})"


def normalize_point(x: DeningerPointFL) -> DeningerPointFL:
    """Canonical representative: all p factors moved out of the scale."""
    n, v = x.scale, 0
    while n % x.prime == 0:
        n //= x.prime
        v += 1
    if v == 0:
        return x
    a = x.unit.mul(pow(x.prime, -v, x.unit.modulus))
    return DeningerPointFL(x.prime, a, n, x.p_exponent_budget)


@dataclass(frozen=True)
class ReciprocityRow:
    """One row of the quadratic-reciprocity component-count table."""

    p: int
    q: int
    legendre: int
    cc_count: int
    deninger_count: int
    agree: bool


def odd_prime_pairs(bound: int) -> list[tuple[int, int]]:
    """The ordered pairs (p, q) of distinct odd primes below bound, p-major."""
    odd = [p for p in primes_below(bound) if p > 2]
    return [(p, q) for p in odd for q in odd if p != q]


def reciprocity_row(p: int, q: int) -> ReciprocityRow:
    """Component counts over p for the quadratic field of q, both routes.

    Contract: both counts equal 2 iff (q|p) = +1, and both equal 1
    otherwise.
    """
    for v in (p, q):
        if v == 2 or not is_prime(v):
            raise DomainViolation(f"{v} must be an odd prime")
    if p == q:
        raise EqualPrimes(f"need distinct primes, got {p} twice")
    F = quadratic_field_subgroup(q)
    leg = euler_criterion(q, p)  # p is validated above
    cc = decompose(cc_fiber(F, p))
    den = packet_fibers(deninger_packet(F, p, conductor(F)))
    expected = 2 if leg == 1 else 1
    agree = cc.count == den.count == expected
    return ReciprocityRow(p, q, leg, cc.count, den.count, agree)
