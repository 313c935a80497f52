"""The comparison map from flow-side points to finite-adele residues.

A normalized point (p; a mod m'; n) restricts its character to roots of
unity: the prime-to-p exponent is a*n (the character normalization fixes
the exponent of the reference character to 1), and the p-power component
vanishes because reduction modulo a prime over p kills the p-power roots
of unity.  At level p^e * m' this is the residue

    psi(p; a; n)  =  CRT(0 mod p^e,  a*n mod m').

The two-modulus CRT has the closed form P * (a*n * P^-1 mod m') with
P = p^e and P^-1 mod m' taken once per call; oracles.crt_combine is its
oracle.

The map is checked to commute with inverse-root powering (exponent k
multiplies the residue by k), with the Galois action (sigma, passed as
the unit the cyclotomic character gives zeta -> zeta^sigma, multiplies
the residue by sigma), and to be flow-anti-equivariant: multiplying the
flow coordinate by an exact positive rational t corresponds to
multiplying the archimedean coordinate on the adele side by 1/t, with one
full positive loop (t = p) transporting the fiber coordinate by the
inverse monodromy on both sides.

psi and the three checks run on plain integer pairs (a, n) at a level
given once as (P, P^-1 mod m', m'), through one kernel, _psi_residue.
psi_level and the public checks validate and normalize their point, then
call the kernels; bridge_compare draws its sample pairs directly.

bridge_compare reads both sides of the fiber over a prime from one
orbits.FieldFibers, which also makes its refusals: component counts and
covering degrees on both sides and the monodromy coset pushed through the
restriction character, with every closed-orbit label checked against a
single decomposition of the pushed torus.  The report adds the vanishing
p-part of psi on sample points and randomized equivariance runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainViolation, NotCoprime
from .cft import AbelianField, Coset, unit_group
from .orbits import DeningerPointFL, FiberDecomposition, FieldFibers, normalize_point

# --------------------------------------------------------------------------
# the level map


@dataclass(frozen=True)
class FiniteAdeleFL:
    """A level p^e * m' residue whose p-part is forced to vanish."""

    modulus: int
    residue: int
    prime: int
    p_exponent: int

    def __post_init__(self):
        if not (0 <= self.residue < self.modulus):
            raise DomainViolation("residue out of range")

    @property
    def zero_part(self) -> int:
        return self.prime**self.p_exponent

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus} (p-part 0 mod {self.zero_part})"


def psi_level(x: DeningerPointFL, p_exponent: int | None = None) -> FiniteAdeleFL:
    """The finite-adele residue of a normalized point.

    Rejects non-normalized scales (p | n): at a fixed level the map is
    well-defined only on canonical representatives of the fiber relation.
    """
    if not x.is_normalized:
        raise DomainViolation("apply normalize_point first: the scale carries a p factor")
    e = x.p_exponent_budget if p_exponent is None else p_exponent
    if e < 1:
        raise DomainViolation("p-exponent must be >= 1")
    m2 = x.unit.modulus
    P = x.prime**e
    residue = _psi_residue(P, _inverse_mod(P, m2), m2, x.unit.value, x.scale)
    return FiniteAdeleFL(P * m2, residue, x.prime, e)


def _inverse_mod(P: int, m: int) -> int:
    """P^-1 mod m for the closed-form CRT of psi_level."""
    if math.gcd(P, m) != 1:
        raise NotCoprime(f"moduli {P} and {m} share a factor")
    return pow(P, -1, m)


# --------------------------------------------------------------------------
# the integer kernels: psi and the three checks on (a, n) pairs at a level
# given as P = p^e, inv = P^-1 mod m' and m'.  Callers validate once: p is
# prime, gcd(p, m') = 1, e >= 1, and n is prime to p (a normalized scale).


def _psi_residue(P: int, inv: int, m2: int, a: int, n: int) -> int:
    """psi(p; a; n) = P * (a*n * P^-1 mod m'), which is 0 when m' = 1."""
    return P * (a * n * inv % m2)


def _frobenius_ok(P: int, inv: int, m2: int, a: int, n: int, k: int) -> bool:
    """Scaling n by k multiplies the residue by k, compared mod P * m'."""
    M = P * m2
    return _psi_residue(P, inv, m2, a, n * k) % M == k * _psi_residue(P, inv, m2, a, n) % M


def _galois_ok(P: int, inv: int, m2: int, a: int, n: int, sigma: int) -> bool:
    """Moving a to a*sigma multiplies the residue by sigma, compared mod P * m'."""
    M = P * m2
    return _psi_residue(P, inv, m2, a * sigma % m2, n) % M == sigma * _psi_residue(P, inv, m2, a, n) % M


def _anti_ok(p: int, P: int, inv: int, m2: int, a: int, n: int, num: int, den: int) -> bool:
    """The anti-equivariance check for the flow t = num/den > 0 (need not be reduced).

    The two transports are computed apart, so a wrong one on either side
    makes the sides disagree; at m' = 1 both sides are 0.
    """
    flowed = _psi_residue(P, inv, m2, a * _flow_transport(p, num, den, m2) % m2, n)
    moved = _adele_transport(p, den, num, m2) * _psi_residue(P, inv, m2, a, n)
    return flowed % m2 == moved % m2


def _flow_transport(p: int, num: int, den: int, m2: int) -> int:
    """p^-j mod m', j = v_p(num/den) the net p-power crossings of the flow by num/den."""
    j = 0
    while num % p == 0:
        num //= p
        j += 1
    while den % p == 0:
        den //= p
        j -= 1
    return pow(p, -j, m2)


def _adele_transport(p: int, num: int, den: int, m2: int) -> int:
    """p^v mod m', v = v_p(num/den) the valuation of the archimedean coordinate num/den."""
    v = 0
    for x, step in ((num, 1), (den, -1)):
        while x % p == 0:
            x //= p
            v += step
    return pow(p, v, m2)


# --------------------------------------------------------------------------
# equivariance checks (exact; False is a verification failure, not an error)


def _level(x: DeningerPointFL) -> tuple[int, int, int]:
    """(P, P^-1 mod m', m') of a validated point at its own p-part budget."""
    P = x.prime**x.p_exponent_budget
    m2 = x.unit.modulus
    return P, _inverse_mod(P, m2), m2


def check_frobenius_equivariance(x: DeningerPointFL, k: int) -> bool:
    """Scaling the point by k multiplies the residue by k (prime-to-p part)."""
    if k < 1 or math.gcd(k, x.prime) != 1:
        raise DomainViolation("the scaling index must be positive and prime to p")
    x = normalize_point(x)
    return _frobenius_ok(*_level(x), x.unit.value, x.scale, k)


def check_galois_equivariance(x: DeningerPointFL, sigma: int) -> bool:
    """Acting by the unit sigma on the unit coordinate multiplies the residue by sigma."""
    m2 = x.unit.modulus
    if m2 > 1 and math.gcd(sigma, m2) != 1:
        raise DomainViolation(f"{sigma} is not a unit mod {m2}")
    x = normalize_point(x)
    return _galois_ok(*_level(x), x.unit.value, x.scale, sigma)


def check_anti_equivariance(x: DeningerPointFL, t) -> bool:
    """Flow by t on one side matches flow by 1/t on the other, exactly.

    The archimedean coordinates invert through the bridge.  The flow side
    transports the unit a -> a * p^-j by the net p-power crossings
    j = v_p(t), the adele side the residue -> p^(v_p(1/t)) * residue mod m'
    by the valuation of the inverted coordinate 1/t.
    """
    if not isinstance(t, Fraction):
        t = Fraction(t)
    if t.numerator <= 0:
        raise DomainViolation("flow increments are positive rationals")
    x = normalize_point(x)
    return _anti_ok(x.prime, *_level(x), x.unit.value, x.scale, t.numerator, t.denominator)


# --------------------------------------------------------------------------
# the structural comparison


@dataclass(frozen=True)
class BridgeReport:
    """Side-by-side fiber structure over one prime, plus the psi conditions."""

    field_label: str
    prime: int
    level: int
    conductor: int
    deninger_side: FiberDecomposition
    cc_side: FiberDecomposition
    deninger_monodromy: Coset
    cc_monodromy: Coset
    monodromy_match: bool
    psi_zero_ok: bool
    psi_samples: tuple  # ((unit, residue, modulus), ...)
    equivariance_checks: tuple  # ((name, bool), ...)
    anti_equivariance: bool

    @property
    def match(self) -> bool:
        return (
            self.deninger_side.count == self.cc_side.count
            and self.deninger_side.covering_degree == self.cc_side.covering_degree
            and self.monodromy_match
            and self.psi_zero_ok
            and all(ok for _, ok in self.equivariance_checks)
            and self.anti_equivariance
        )

    def to_dict(self) -> dict:
        def side(d: FiberDecomposition) -> dict:
            return {
                "count": d.count,
                "covering_degree": d.covering_degree,
                "components": [list(c) for c in d.components],
                **d.length_fields(self.prime),
            }

        return {
            "field": self.field_label,
            "prime": self.prime,
            "level": self.level,
            "conductor": self.conductor,
            "deninger": side(self.deninger_side),
            "cc": side(self.cc_side),
            "deninger_monodromy": {
                "rep": self.deninger_monodromy.rep,
                "modulus": self.deninger_monodromy.modulus,
            },
            "cc_monodromy": {
                "rep": self.cc_monodromy.rep,
                "modulus": self.cc_monodromy.modulus,
            },
            "monodromy_match": self.monodromy_match,
            "psi_zero_ok": self.psi_zero_ok,
            "psi_samples": [list(s) for s in self.psi_samples],
            "equivariance": {name: ok for name, ok in self.equivariance_checks},
            "anti_equivariance": self.anti_equivariance,
            "character_unit": 1,  # chosen normalization of the reference character
            "match": self.match,
        }


def bridge_compare(
    F: AbelianField,
    p: int,
    m: int,
    *,
    seed: int = 0,
    samples: int = 20,
    p_exponent: int = 1,
) -> BridgeReport:
    """Compare the fiber structure over p computed along both routes.

    The covering side decomposes Gal(F/Q) under the Artin monodromy at the
    field's own level (at the conductor when p divides it); the flow side builds the level-m packet and pushes
    it through the character, checking every closed-orbit label; the
    report also verifies the vanishing p-part of psi and randomized
    equivariance at this (p, m).
    """
    fibers = FieldFibers(F)
    fibers.check(p, m)
    if p_exponent < 1:
        raise DomainViolation("the p-part budget must be >= 1")

    _, art, cc = fibers.covering(p)
    pushed, den = fibers.flow(p, m)  # checks every closed-orbit label in one pass
    gal = fibers.gal  # built by flow
    c, H = gal.modulus, gal.subgroup
    cc_mono = Coset(c, H, gal.canon_table[art % c])  # the Artin coset, read at the conductor
    den_mono = Coset(c, H, pushed)

    # psi and the checks run on (a, n) pairs at the one level P * m; the
    # draw order (each point, then its k, sigma or flow t) fixes the report
    # for a seed
    P = p**p_exponent
    M = P * m
    inv = _inverse_mod(P, m)
    rng = random.Random(seed)
    units = unit_group(m)
    pool = list(units) if len(units) <= samples else rng.sample(list(units), samples)
    psi_samples = []
    psi_zero_ok = True
    for a in pool:
        residue = _psi_residue(P, inv, m, a, 1)
        psi_zero_ok &= residue % P == 0
        psi_samples.append((a, residue, M))

    def random_point() -> tuple[int, int]:
        a = rng.choice(units)
        n = rng.randint(1, 60)
        while n % p == 0:
            n = rng.randint(1, 60)
        return a, n

    ks = [k for k in range(1, 30) if k % p]
    frob_ok = all(_frobenius_ok(P, inv, m, *random_point(), rng.choice(ks)) for _ in range(samples))
    galois_ok = all(_galois_ok(P, inv, m, *random_point(), rng.choice(units)) for _ in range(samples))
    anti_ok = all(
        _anti_ok(p, P, inv, m, *random_point(), rng.randint(1, 40), rng.randint(1, 40))
        for _ in range(samples)
    ) and all(_anti_ok(p, P, inv, m, *random_point(), p, 1) for _ in range(3))

    return BridgeReport(
        field_label=F.describe(),
        prime=p,
        level=m,
        conductor=c,
        deninger_side=den,
        cc_side=cc,
        deninger_monodromy=den_mono,
        cc_monodromy=cc_mono,
        monodromy_match=cc_mono == den_mono,
        psi_zero_ok=psi_zero_ok,
        psi_samples=tuple(psi_samples),
        equivariance_checks=(("frobenius", frob_ok), ("galois", galois_ok)),
        anti_equivariance=anti_ok,
    )


def level_reduction_compatible(F: AbelianField, p: int, m_small: int, m_big: int) -> bool:
    """Level-m_big data reduces to level-m_small data under residue reduction.

    Both levels must be multiples of the conductor and coprime to p with
    m_small | m_big.  Checks that the flow side pushes the same monodromy
    coset onto the same component shape at both levels, and reduction of
    psi residues on every unit of the big level.
    """
    if m_big % m_small:
        raise DomainViolation(f"{m_small} does not divide {m_big}")
    fibers = FieldFibers(F)
    fibers.check(p, m_big, m_small)
    # the pushed monodromy and its decomposition; each flow call lands its level's packet
    if fibers.flow(p, m_big) != fibers.flow(p, m_small):
        return False
    P = p  # p-part budget 1
    inv_big, inv_small = _inverse_mod(P, m_big), _inverse_mod(P, m_small)
    M_small = P * m_small
    for a in unit_group(m_big):
        r_big = _psi_residue(P, inv_big, m_big, a, 1)
        r_small = _psi_residue(P, inv_small, m_small, a % m_small, 1)
        if r_big % M_small != r_small:
            return False
    return True
