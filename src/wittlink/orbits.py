"""Finite-level models of closed orbits, packets, and mapping tori.

A mapping torus here is a finite abelian group G (a quotient of a unit
group (Z/m)^*, the cft.QuotientUnitGroup that every Galois-group
computation shares, built by cft.quotient_group) together with a
monodromy element: over the base circle of a prime p it models
G x_{p^Z} R_+, the suspension whose flow crosses the circle of length
log p by multiplying the fiber coordinate with the monodromy.
decompose(G, monodromy) finds its connected components, the orbits of
the cyclic group generated by the monodromy, each a circle of length
f*log(p) where f is the monodromy order.  Circle lengths are carried
exactly as the pair (p, f); a float rendering exists only for display.

Two constructions produce tori:

  * the covering-side fiber over the base circle of p: group (Z/n)^*/H
    with monodromy the Artin coset of p;
  * the flow-side packet over a prime of residue degree f: group
    (Z/m)^*/<p^f> with monodromy the class of p, at any auxiliary level m
    coprime to p; it and the closed-orbit labels (Z/m)^*/<p> are the one
    cached cft.cyclic_quotient.

FieldFibers assembles both sides of one field over a prime, each step
once, and is the one place that presents Gal(F/Q) for a prime: at the
field's own level when p does not divide it, else at F.at_conductor.  The
covering side decomposes that quotient under the Artin coset; the flow
side pushes the level-m packet data through the restriction character
onto the Galois quotient at the conductor, orbit-enumerates there once
and checks every closed-orbit label against that one decomposition.
Their agreement over a grid of fields and primes is the structural
consistency this package exists to check.  The field owns its one
FieldFibers, F.fibers, so each Galois class is decomposed once per field.

The infinite-level fiber and the flow-side points take their check that
p is a prime not dividing the level m from cft._check_prime_to_level;
FieldFibers.check refuses such a level through the same
cft.check_coprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainViolation, EqualPrimes, RamifiedPrime
from .cft import (
    AbelianField,
    ModUnit,
    QuotientUnitGroup,
    _check_level,
    _check_prime_to_level,
    check_coprime,
    cyclic_quotient,
    euler_criterion,
    quadratic_field_subgroup,
    quotient_group,
)
from .rings import is_prime, primes_below

# --------------------------------------------------------------------------
# mapping tori and decompositions


@dataclass(frozen=True)
class FiberDecomposition:
    """Connected components of a mapping torus: r circles covering with degree f.

    The components do not depend on the base prime p, only their length
    f*log(p) does, so the lengths take p.
    """

    components: tuple  # tuple of member tuples, sorted by least member
    covering_degree: int
    count: int

    def circle_length_display(self, p: int) -> float:
        """Float rendering, display only; never used in comparisons."""
        return self.covering_degree * math.log(p)

    def length_fields(self, p: int) -> dict:
        """The component length over p as report fields: exact (p, f) and the display float to 6 places."""
        return {
            "circle_length": {"prime": p, "exponent": self.covering_degree},
            "circle_length_display": round(self.circle_length_display(p), 6),
        }


def decompose(G: QuotientUnitGroup, monodromy: int) -> FiberDecomposition:
    """Orbits of the cyclic group generated by the monodromy on G.

    Multiplication by a group element acts freely, so every orbit has size
    equal to the monodromy order f and there are |G|/f of them.
    """
    f = G.element_order(monodromy)
    seen: set[int] = set()
    comps = []
    for r in G.reps:
        if r in seen:
            continue
        orbit = [r]
        cur = G.mul(r, monodromy)
        while cur != r:
            orbit.append(cur)
            cur = G.mul(cur, monodromy)
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
    )


# --------------------------------------------------------------------------
# the two sides


def cc_fiber_infinite_level(p: int, m: int) -> tuple[QuotientUnitGroup, int]:
    """Level-m truncation of the fiber over every field unramified at p: (group, monodromy).

    Group (Z/m)^* with monodromy p mod m.  The flow orbits of the object
    this truncates are lines rather than circles.
    """
    _check_prime_to_level(p, m)
    G = quotient_group(m, frozenset({1 % m}))
    return G, G.canon(p)


class FieldFibers:
    """Both fibers of one abelian field F over its unramified primes, each step once.

    The one assembly of the comparison and the one presentation of the
    Frobenius.  Its owner is F: every caller reads the one F.fibers, so
    the memos last as long as F, and a CLI run, one call, keeps no more
    than before.  Its steps:

      * check: p is a prime outside F.ramified, each level a multiple of
        F.conductor (so that the restriction character exists) prime to p;
      * artin: Gal(F/Q) and the Artin coset of p in it, at the field's own
        level when p does not divide it, else at the conductor;
      * covering: that group decomposed under the Artin coset;
      * packet: the flow-side packet (Z/m)^*/<p^f> with monodromy the class
        of p, at any level m prime to p, where f is the order of the Artin
        coset, which divides the degree;
      * flow: the packet's monodromy pushed through the restriction
        character (reduction mod the conductor) onto Gal(F/Q), decomposed
        there, and the landing pass of every packet point.

    Gal(F/Q) at the own level and at the conductor are each built on first
    use, so a step builds only the table it reads.  Each memo is keyed on
    the Galois element it decomposes under or takes the order of: one per
    Artin coset on the covering side, one per pushed monodromy on the flow
    side: at most one entry per Galois class, of at most deg F residues.
    The flow side reads only the order f, never the covering side's
    decomposition.  check and the landing pass run on every call, never
    memoized; the steps after check take p and m as checked.
    """

    own = gal = None  # Gal(F/Q) at the own level and at the conductor; _galois builds each on first use

    def __init__(self, F: AbelianField):
        self.field = F
        self.orders: dict[int, int] = {}  # Artin coset at the conductor -> its order f
        self.covering_sides: dict[tuple, tuple] = {}  # (level, Artin coset) -> (group, coset, decomposition)
        self.flow_sides: dict[int, tuple] = {}  # pushed monodromy -> (decomposition, component index)

    def _galois(self, name: str) -> QuotientUnitGroup:
        """Build Gal(F/Q) as the attribute name: own at the field's own level, gal at the conductor.

        A plain attribute, not a property, so that a per-row read costs no descriptor call.
        """
        pres = self.field if name == "own" else self.field.at_conductor
        G = quotient_group(pres.level, pres.subgroup)
        setattr(self, name, G)
        return G

    def check(self, p: int, *levels: int) -> None:
        """Refuse p unless it is a prime unramified in F, then each level unless it is positive, the conductor divides it and p does not."""
        if not is_prime(p):
            raise DomainViolation(f"{p} is not prime")
        F = self.field
        if p in F.ramified:
            raise RamifiedPrime(f"{p} ramifies in {F.describe()} (ramified set {sorted(F.ramified)})")
        c = F.conductor
        for m in levels:
            if m % c:
                raise DomainViolation(f"level {m} must be a multiple of the conductor {c}")
            check_coprime(p, m)
            _check_level(m)

    def artin(self, p: int) -> tuple[QuotientUnitGroup, int]:
        """(Gal(F/Q), the Artin coset of p): at the field's own level when p does not divide it, else at the conductor."""
        if self.field.level % p:
            G = self.own or self._galois("own")
        else:
            G = self.gal or self._galois("gal")
        return G, G.canon_table[p % G.modulus]

    def covering(self, p: int) -> tuple:
        """(group, Artin coset, decomposition) of the covering side over p."""
        G, art = self.artin(p)
        side = self.covering_sides.get((G.modulus, art))
        if side is None:
            side = self.covering_sides[G.modulus, art] = (G, art, decompose(G, art))
        return side

    def packet(self, p: int, m: int) -> tuple[QuotientUnitGroup, int]:
        """The level-m packet (Z/m)^*/<p^f> and its monodromy, the class of p."""
        gal = self.gal or self._galois("gal")  # f is read where the flow side lands: at the conductor
        art = gal.canon_table[p % gal.modulus]
        f = self.orders.get(art)
        if f is None:
            f = self.orders[art] = gal.element_order(art)
        G = cyclic_quotient(m, pow(p, f, m))
        return G, G.canon_table[p % m]

    def flow(self, p: int, m: int) -> tuple[int, FiberDecomposition]:
        """(pushed monodromy, decomposition) of the flow side over p at level m.

        The level-m points of the packet over one closed-orbit label form a
        single monodromy orbit per sheet, and the sheets are indexed by the
        cosets of the Artin class: the pushed torus has r components of size
        f.  It is decomposed once per pushed monodromy; the landing pass then
        checks that the points over each label land in one component and
        that every label is reached.
        """
        packet, monodromy = self.packet(p, m)
        gal = self.gal or self._galois("gal")
        pushed = gal.canon_table[monodromy % gal.modulus]
        side = self.flow_sides.get(pushed)
        if side is None:
            dec = decompose(gal, pushed)
            side = self.flow_sides[pushed] = (dec, {r: i for i, comp in enumerate(dec.components) for r in comp})
        _land(packet, cyclic_quotient(m, p), gal, side[1])
        return pushed, side[0]


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
        _check_prime_to_level(self.prime, self.unit.modulus)
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
    in, once per call; each row reads its field's own fibers, which last
    as long as the cached quadratic field.  A field's level is q or 4q,
    its conductor, so an odd p != q is unramified and prime to it, and
    the flow side is read at that level.
    """
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
        fibers = quadratic_field_subgroup(q).fibers
        leg = euler_criterion(q, p)  # p is validated above
        cc = fibers.covering(p)[2].count
        den = fibers.flow(p, fibers.field.level)[1].count
        expected = 2 if leg == 1 else 1
        rows.append(ReciprocityRow(p, q, leg, cc, den, cc == den == expected))
    return rows
