"""Finite-level models of closed orbits, packets, and mapping tori.

A mapping torus here is a finite abelian group G (a quotient of a unit
group (Z/m)^*, the cft.QuotientUnitGroup that every Galois-group
computation shares, built by cft.quotient_group) together with a
monodromy element and a base prime p: it models G x_{p^Z} R_+, the
suspension whose flow crosses the base circle of length log p by
multiplying the fiber coordinate with the monodromy.  Its connected
components are the orbits of the cyclic group generated by the
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

packet_fibers pushes the level-m packet data through the restriction
character onto the Galois quotient, orbit-enumerates there once and
checks every closed-orbit label against that one decomposition; the
covering side computes the same (r, f) shape by order arithmetic at the
field's own level.  Their agreement over a grid of fields and primes is
the structural consistency this package exists to check.

The packet, the closed-orbit labels and the infinite-level fiber take
their check that p is a prime not dividing the level m from cft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainViolation, EqualPrimes, NotCoprime
from .cft import (
    AbelianField,
    ModUnit,
    QuotientUnitGroup,
    _check_prime_to_level,
    artin_symbol,
    at_conductor,
    check_unramified,
    conductor,
    cyclic_quotient,
    euler_criterion,
    quadratic_field_subgroup,
    quotient_group,
    ramified_set,
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

    @property
    def level(self) -> int:
        return self.group.modulus

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

    def circle_length_display(self) -> float:
        """Float rendering, display only; never used in comparisons."""
        return self.covering_degree * math.log(self.base_prime)

    def length_fields(self) -> dict:
        """The component length as report fields: exact (p, f) and the display float to 6 places."""
        return {
            "circle_length": {"prime": self.base_prime, "exponent": self.covering_degree},
            "circle_length_display": round(self.circle_length_display(), 6),
        }


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
    this truncates are lines rather than circles.
    """
    _check_prime_to_level(p, m)
    G = quotient_group(m, frozenset({1 % m}))
    return MappingTorus(G, G.canon(p), p)


def deninger_packet(F: AbelianField, p: int, m: int) -> MappingTorus:
    """Flow-side packet over a prime of F above p, truncated at level m.

    Group (Z/m)^*/<p^f mod m> (f the residue degree of p in F) with
    monodromy the class of p: the norm subgroup is divided out, crossing
    the base circle multiplies by p.
    """
    _check_prime_to_level(p, m)
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
    _check_prime_to_level(p, m)
    return [ClosedOrbitLabel(r, p, m) for r in cyclic_quotient(m, p).reps]


def packet_fibers(T: MappingTorus) -> FiberDecomposition:
    """Components of the full covering fiber, shared by every closed-orbit label.

    The level-m points of the packet over one label form a single
    monodromy orbit per sheet; the sheets are indexed by the cosets of the
    Artin class in the Galois quotient.  Pushing the packet data through
    the restriction character (reduction mod the conductor) and
    orbit-enumerating there yields r components of size f, each a circle
    of length f*log(p), carried exactly.  The pushed torus is decomposed
    once; one landing pass over the packet then checks that the points
    over each label land in a single component and that every label is
    reached.
    """
    if T.field is None:
        raise DomainViolation("fiber labels apply to packets attached to a field")
    F, p, m = T.field, T.base_prime, T.level
    c = conductor(F)
    if m % c:
        raise DomainViolation(
            f"level {m} is not a multiple of the conductor {c}; the character is undefined"
        )
    pres = at_conductor(F)
    gal = quotient_group(pres.level, pres.subgroup)
    dec, component_of = _pushed_fibers(gal, T.monodromy, p, pres)
    _land(T.group, cyclic_quotient(m, p), gal, component_of)
    return dec


def _pushed_fibers(gal: QuotientUnitGroup, monodromy: int, p: int, field: AbelianField):
    """The packet's monodromy pushed through the restriction character onto gal, decomposed.

    Returns the decomposition and the index of the component each Galois
    element lies in.
    """
    dec = decompose(MappingTorus(gal, gal.canon(monodromy), p, field=field))
    return dec, {r: i for i, comp in enumerate(dec.components) for r in comp}


def _land(packet: QuotientUnitGroup, labels: QuotientUnitGroup, gal: QuotientUnitGroup,
          component_of: dict) -> None:
    """The landing pass: the level-m points over each label all land in one component.

    Every packet point goes to its closed-orbit label and, reduced mod the
    Galois level, to its pushed component; a label missed or split across
    components raises AssertionError, under python -O too.
    """
    c = gal.modulus
    lab, canon = labels.canon_table, gal.canon_table
    landed: dict[int, int] = {}  # label -> the component its first point landed in
    for g in packet.reps:
        k = component_of[canon[g % c]]
        if landed.setdefault(lab[g], k) != k:
            raise AssertionError(f"the points over the closed-orbit label {lab[g]} land in two components")
    if len(landed) != labels.order:
        raise AssertionError("a closed-orbit label is missed")


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


class ReciprocityRow(NamedTuple):
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


def reciprocity_rows(pairs) -> list[ReciprocityRow]:
    """Component counts over p for the quadratic field of q, both routes, for each pair (p, q).

    Contract: both counts equal 2 iff (q|p) = +1, and both equal 1
    otherwise.  Each distinct prime is checked on the first row it appears
    in, and each field's Galois data is built on its first row; both live
    only as long as this call.
    """
    tables: dict[int, _FieldTable] = {}
    odd_primes: set[int] = set()
    rows = []
    for p, q in pairs:
        if p not in odd_primes or q not in odd_primes:
            for v in (p, q):
                if v == 2 or not is_prime(v):
                    raise DomainViolation(f"{v} must be an odd prime")
                odd_primes.add(v)
        if p == q:
            raise EqualPrimes(f"need distinct primes, got {p} twice")
        table = tables.get(q)
        if table is None:
            table = tables[q] = _FieldTable(quadratic_field_subgroup(q))
        leg = euler_criterion(q, p)  # p is validated above
        cc, den = table.counts(p)
        expected = 2 if leg == 1 else 1
        rows.append(ReciprocityRow(p, q, leg, cc, den, cc == den == expected))
    return rows


def reciprocity_row(p: int, q: int) -> ReciprocityRow:
    """One row of reciprocity_rows."""
    return reciprocity_rows([(p, q)])[0]


class _FieldTable:
    """One field's Galois data and per-side decompositions, for the rows of one table.

    The covering side takes the order f of the Artin coset, checks that it
    divides the degree and decomposes Gal(F/Q) under the coset; the flow
    side builds the packet (Z/m)^*/<p^f>, pushes its monodromy onto the
    Galois group and lands every packet point.  Each side keeps its own
    memo, keyed on the Galois element it decomposes under; the flow side
    never reads the covering side's.
    """

    def __init__(self, F: AbelianField):
        self.field = at_conductor(F)
        self.gal = quotient_group(self.field.level, self.field.subgroup)
        self.ramified = ramified_set(self.field)
        self.covering: dict[int, tuple[int, int]] = {}  # Artin coset -> (order f, component count)
        self.flow: dict[int, tuple] = {}  # pushed monodromy -> (component count, component index)

    def counts(self, p: int) -> tuple[int, int]:
        """(covering-side, flow-side) component counts over the odd prime p."""
        if p in self.ramified:
            check_unramified(self.field, p)  # raises RamifiedPrime
        gal, F, m = self.gal, self.field, self.field.level
        art = gal.canon_table[p % m]
        covering = self.covering.get(art)
        if covering is None:
            f = gal.element_order(art)
            if gal.order % f:
                raise AssertionError(f"an Artin order {f} that does not divide the degree {gal.order}")
            covering = self.covering[art] = (f, decompose(MappingTorus(gal, art, p, field=F)).count)
        f, cc = covering
        packet = cyclic_quotient(m, pow(p, f, m))
        monodromy = packet.canon_table[p % m]
        pushed = gal.canon_table[monodromy]
        if pushed not in self.flow:
            dec, component_of = _pushed_fibers(gal, monodromy, p, F)
            self.flow[pushed] = (dec.count, component_of)
        count, component_of = self.flow[pushed]
        _land(packet, cyclic_quotient(m, p), gal, component_of)
        return cc, count
