"""The comparison map: residues, equivariance, structural reports."""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wittlink.bridge import (
    _inverse_mod,
    bridge_compare,
    check_anti_equivariance,
    check_frobenius_equivariance,
    check_galois_equivariance,
    level_reduction_compatible,
    psi_level,
)
from wittlink.cft import (
    AbelianField,
    ModUnit,
    all_subgroups,
    at_conductor,
    conductor,
    cyclotomic_field,
    quadratic_field_subgroup,
    ramified_set,
    rationals_field,
    unit_group,
)
from wittlink.errors import DomainViolation, NotCoprime, RamifiedPrime
from wittlink.oracles import crt_combine
from wittlink.orbits import DeningerPointFL, normalize_point
from wittlink.rings import primes_below
from wittlink.verify import second_level


# --------------------------------------------------------------------------
# the level map


def test_psi_examples():
    r = psi_level(DeningerPointFL(3, ModUnit(2, 5), 1, 2))
    assert (r.residue, r.modulus) == (27, 45)
    r = psi_level(DeningerPointFL(3, ModUnit(2, 5), 2, 2))
    assert (r.residue, r.modulus) == (9, 45)
    r = psi_level(DeningerPointFL(3, ModUnit(1, 5), 1, 1))
    assert (r.residue, r.modulus) == (6, 15)


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(1, 120),
    st.integers(1, 3),
    st.data(),
)
def test_psi_closed_form_matches_crt(p, m2, e, data):
    # the closed form P * (a*n * P^-1 mod m') against the generic CRT
    m2 = m2 * p + 1 if m2 % p == 0 else m2
    a = data.draw(st.sampled_from(unit_group(m2)))
    n = data.draw(st.integers(1, 500).filter(lambda n: n % p))
    r = psi_level(DeningerPointFL(p, ModUnit(a, m2), n, e))
    assert (r.residue, r.modulus) == crt_combine([(0, p**e), (a * n % m2, m2)])


def test_psi_crt_rejects_shared_factors():
    with pytest.raises(NotCoprime):
        psi_level(DeningerPointFL(3, ModUnit(2, 6), 1))
    with pytest.raises(NotCoprime):
        _inverse_mod(9, 6)


def test_psi_rejects_unnormalized():
    with pytest.raises(DomainViolation):
        psi_level(DeningerPointFL(3, ModUnit(2, 5), 9))


def test_psi_p_part_vanishes():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        m = rng.choice([m for m in range(2, 50) if math.gcd(m, p) == 1])
        a = rng.choice(unit_group(m))
        x = normalize_point(DeningerPointFL(p, ModUnit(a, m), rng.randint(1, 99), rng.randint(1, 3)))
        r = psi_level(x)
        assert r.residue % r.zero_part == 0
        assert r.residue % (r.modulus // r.zero_part) == (x.unit.value * x.scale) % m


def test_psi_well_defined_on_classes():
    # equivalent points normalize to the same representative, hence equal residues
    x = DeningerPointFL(3, ModUnit(2, 5), 1, 2)
    y = DeningerPointFL(3, ModUnit(2 * 3 % 5, 5), 3, 2)
    assert psi_level(normalize_point(x)) == psi_level(normalize_point(y))


# --------------------------------------------------------------------------
# equivariance


def test_frobenius_equivariance_examples():
    assert check_frobenius_equivariance(DeningerPointFL(3, ModUnit(2, 5), 1), 2)
    assert check_frobenius_equivariance(DeningerPointFL(3, ModUnit(1, 5), 1), 5)
    with pytest.raises(DomainViolation):
        check_frobenius_equivariance(DeningerPointFL(3, ModUnit(1, 5), 1), 3)


def test_galois_equivariance_examples():
    x = DeningerPointFL(3, ModUnit(2, 5), 1)
    assert check_galois_equivariance(x, 1)
    assert check_galois_equivariance(x, 3)  # exponent 6 = 1 = 3*2 mod 5
    with pytest.raises(DomainViolation):
        check_galois_equivariance(x, 5)


def test_anti_equivariance_examples():
    x = DeningerPointFL(3, ModUnit(2, 5), 1)
    assert check_anti_equivariance(x, 1)
    assert check_anti_equivariance(x, 3)  # one full loop
    assert check_anti_equivariance(x, Fraction(9, 2))
    with pytest.raises(DomainViolation):
        check_anti_equivariance(x, Fraction(-1, 2))


def test_equivariance_random_suite():
    rng = random.Random(9)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        m = rng.choice([m for m in range(2, 40) if math.gcd(m, p) == 1])
        x = DeningerPointFL(p, ModUnit(rng.choice(unit_group(m)), m), rng.randint(1, 60))
        k = rng.choice([k for k in range(1, 30) if k % p])
        assert check_frobenius_equivariance(x, k)
        assert check_galois_equivariance(x, rng.choice(unit_group(m)))
        assert check_anti_equivariance(x, Fraction(rng.randint(1, 30), rng.randint(1, 30)))


def _anti_equivariance_oracle(x: DeningerPointFL, t) -> bool:
    """check_anti_equivariance as it was on Fractions, kept as the oracle."""
    t = Fraction(t)
    if t.numerator <= 0:
        raise DomainViolation("flow increments are positive rationals")
    x = normalize_point(x)
    u = Fraction(1)
    flowed = t * u
    if 1 / flowed != (1 / t) * (1 / u):
        return False
    j = 0
    num, den = t.numerator, t.denominator
    while num % x.prime == 0:
        num //= x.prime
        j += 1
    while den % x.prime == 0:
        den //= x.prime
        j -= 1
    m2 = x.unit.modulus
    base = psi_level(x)
    if m2 == 1:
        return True
    transported_unit = x.unit.mul(pow(x.prime, -j, m2))
    lhs = psi_level(DeningerPointFL(x.prime, transported_unit, x.scale, x.p_exponent_budget))
    rhs = pow(x.prime, -j, m2) * base.residue % m2
    return lhs.residue % m2 == rhs


@st.composite
def _points_and_flows(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 60).filter(lambda m: math.gcd(m, p) == 1))
    x = DeningerPointFL(
        p,
        ModUnit(draw(st.sampled_from(unit_group(m))), m),
        draw(st.integers(1, 10**4)),
        draw(st.integers(1, 3)),
    )
    k = draw(st.integers(0, 6))
    a = draw(st.integers(1, 10**6))
    b = draw(st.integers(1, 10**6))
    t = draw(
        st.sampled_from(
            [p**k, Fraction(p**k), Fraction(a, b * p**k), Fraction(a * p**k, b), Fraction(a, b), a]
        )
    )
    return x, t


@given(_points_and_flows())
def test_anti_equivariance_matches_fraction_oracle(case):
    x, t = case
    assert check_anti_equivariance(x, t) is _anti_equivariance_oracle(x, t) is True


@pytest.mark.parametrize("side", ["_flow_transport", "_adele_transport"])
def test_anti_equivariance_catches_a_wrong_transport_on_one_side(monkeypatch, side):
    # the two sides are computed apart: moving one transport by + 1 must fail
    # the check for every flow, including t = 1 and one full loop t = p
    from wittlink import bridge

    right = getattr(bridge, side)
    monkeypatch.setattr(bridge, side, lambda p, num, den, m2: right(p, num, den, m2) + 1)
    x = DeningerPointFL(3, ModUnit(2, 5), 1)
    for t in (1, 3, Fraction(9, 2), Fraction(2, 27)):
        assert not check_anti_equivariance(x, t)


@given(st.sampled_from([0, -3, Fraction(-1, 2), Fraction(0, 7)]))
def test_anti_equivariance_rejects_nonpositive_flows_like_the_oracle(t):
    x = DeningerPointFL(3, ModUnit(2, 5), 1)
    for check in (check_anti_equivariance, _anti_equivariance_oracle):
        with pytest.raises(DomainViolation, match="positive rationals"):
            check(x, t)


# --------------------------------------------------------------------------
# reports


def test_bridge_decomposes_the_flow_side_once(monkeypatch):
    # Q(mu_5) at level 15 over p = 11: four closed-orbit labels, one
    # flow-side decomposition.  The covering side decomposes the same torus
    # (11 = 1 mod 5), so the calls are told apart by the step that makes them
    import sys

    from wittlink import orbits
    from wittlink.cft import cyclic_quotient

    assert cyclic_quotient(15, 11).order >= 3
    calls = []
    original = orbits.decompose

    def counted(G, monodromy):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(G, monodromy)

    monkeypatch.setattr(orbits, "decompose", counted)
    r = bridge_compare(cyclotomic_field(5), 11, 15)
    assert calls.count("flow") == 1 and r.match


def test_one_report_checks_its_prime_once(capsys, monkeypatch):
    # a bridge report checks that p is prime once and decomposes once per
    # side; so does the flow-side monodromy table with its label fibers
    from wittlink import bridge, cft, cli, orbits, rings

    checked, decomposed = [], []
    is_prime, decompose = rings.is_prime, orbits.decompose

    def counted_is_prime(n):
        checked.append(n)
        return is_prime(n)

    def counted_decompose(G, monodromy):
        decomposed.append((G, monodromy))
        return decompose(G, monodromy)

    for module in (rings, cft, orbits, bridge, cli):
        if hasattr(module, "is_prime"):
            monkeypatch.setattr(module, "is_prime", counted_is_prime)
    monkeypatch.setattr(orbits, "decompose", counted_decompose)
    assert bridge_compare(cyclotomic_field(5), 7, 45).match
    assert (checked, len(decomposed)) == ([7], 2)

    checked.clear()
    argv = ["monodromy", "--side", "deninger", "--quadratic", "5", "--prime", "11", "--level", "15"]
    assert cli.main(argv) == 0 and "fiber over each of" in capsys.readouterr().out
    assert checked.count(11) == 1


def test_bridge_quadratic_split():
    r = bridge_compare(quadratic_field_subgroup(5), 11, 5)
    assert (r.cc_side.count, r.deninger_side.count) == (2, 2)
    assert (r.cc_side.covering_degree, r.deninger_side.covering_degree) == (1, 1)
    assert r.cc_monodromy.rep in r.cc_monodromy.subgroup and r.monodromy_match
    assert r.match


def test_bridge_cyclotomic():
    r = bridge_compare(cyclotomic_field(5), 7, 45)
    assert (r.cc_side.count, r.deninger_side.count) == (1, 1)
    assert (r.cc_side.covering_degree, r.deninger_side.covering_degree) == (4, 4)
    assert r.cc_monodromy.rep == 2
    assert r.match


def test_bridge_base_field():
    for p in (3, 7, 13):
        r = bridge_compare(rationals_field(), p, 10 if p != 5 else 12)
        assert r.match
        assert r.cc_side.count == 1 and r.cc_side.covering_degree == 1


def test_bridge_above_the_conductor():
    # Q(sqrt(5)) presented at level 15: both sides are computed separately
    F = AbelianField(15, frozenset({1, 4, 11, 14}), label="Q(sqrt(5))")
    G = at_conductor(F)
    assert (G.level, G.subgroup, G.label) == (5, frozenset({1, 4}), "Q(sqrt(5))")
    assert at_conductor(G) is G
    assert at_conductor(AbelianField(15, F.subgroup)).label == ""
    for p, m in ((11, 5), (7, 15), (2, 15)):
        r = bridge_compare(F, p, m)
        assert r.cc_side is not r.deninger_side
        assert r.cc_side == r.deninger_side and r.match


def test_bridge_rejects_bad_levels():
    with pytest.raises(RamifiedPrime):
        bridge_compare(cyclotomic_field(5), 5, 45)
    with pytest.raises(DomainViolation):
        bridge_compare(cyclotomic_field(5), 7, 9)  # not a conductor multiple
    with pytest.raises(NotCoprime):
        bridge_compare(cyclotomic_field(5), 7, 35)


def test_bridge_report_dict_is_exact():
    r = bridge_compare(quadratic_field_subgroup(5), 11, 5)
    doc = r.to_dict()
    floats = [k for k, v in doc["cc"].items() if isinstance(v, float)]
    assert floats == ["circle_length_display"]
    assert doc["match"] is True
    assert doc["psi_samples"]
    for _, residue, modulus in doc["psi_samples"]:
        assert residue % 11 == 0 and modulus == 55


def test_bridge_checks_catch_a_wrong_psi_kernel(monkeypatch):
    # a psi that drops the scale n still passes the Galois and flow checks,
    # which never change n, but scaling by k no longer multiplies by k
    from wittlink import bridge

    assert bridge_compare(cyclotomic_field(5), 7, 45).match
    monkeypatch.setattr(bridge, "_psi_residue", lambda P, inv, m2, a, n: P * (a * inv % m2))
    r = bridge_compare(cyclotomic_field(5), 7, 45)
    assert dict(r.equivariance_checks) == {"frobenius": False, "galois": True}
    assert not r.match and not r.to_dict()["match"]


def test_bridge_rejects_a_zero_p_exponent_before_any_draw(monkeypatch):
    from types import SimpleNamespace

    from wittlink import bridge

    def refuse(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(bridge, "random", SimpleNamespace(Random=refuse))
    monkeypatch.setattr(bridge.FieldFibers, "covering", refuse)
    monkeypatch.setattr(bridge.FieldFibers, "flow", refuse)
    for e in (0, -1):
        with pytest.raises(DomainViolation, match="p-part budget"):
            bridge_compare(cyclotomic_field(5), 7, 45, p_exponent=e)


def test_level_reduction_compatibility():
    assert level_reduction_compatible(quadratic_field_subgroup(5), 11, 5, 15)
    assert level_reduction_compatible(cyclotomic_field(5), 7, 5, 45)
    assert level_reduction_compatible(cyclotomic_field(8), 3, 8, 40)
    with pytest.raises(DomainViolation):
        level_reduction_compatible(cyclotomic_field(5), 7, 5, 12)


# --------------------------------------------------------------------------
# golden digests: one SHA-256 per level of every report over the subfield
# grid (every subgroup, every unramified p < 30, levels {c, second_level}),
# as the code without the bridge fast paths printed them

BRIDGE_GOLDEN = json.loads(Path(__file__).with_name("bridge_golden.json").read_text())


def bridge_level_digest(n: int, samples: int = 4, p_exponent: int = 1) -> str:
    reports = []
    for H in all_subgroups(n):
        F = AbelianField(n, H)
        c = conductor(F)
        for p in primes_below(30):
            if p in ramified_set(F):
                continue
            for m in sorted({c, second_level(c, p)}):
                report = bridge_compare(F, p, m, seed=0, samples=samples, p_exponent=p_exponent)
                reports.append(report.to_dict())
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n", range(1, 21))
def test_bridge_golden_digest(n):
    assert bridge_level_digest(n) == BRIDGE_GOLDEN[str(n)]


# the same grid at the CLI's default sample count and at p-part budget 2,
# captured before psi and the checks ran on integer pairs


@pytest.mark.parametrize("key, samples, p_exponent", [("samples=20", 20, 1), ("p_exponent=2", 4, 2)])
@pytest.mark.parametrize("n", range(1, 13))
def test_bridge_golden_digest_wider_grid(n, key, samples, p_exponent):
    assert bridge_level_digest(n, samples, p_exponent) == BRIDGE_GOLDEN[f"{key}/{n}"]
