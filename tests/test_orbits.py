"""Mapping tori, packets, fiber decompositions, flow-side points."""

import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wittlink import orbits
from wittlink.cft import (
    AbelianField,
    ModUnit,
    cyclotomic_field,
    linking_hom,
    quadratic_field_subgroup,
    quotient_group,
    rationals_field,
    unit_group,
)
from wittlink.errors import (
    DomainViolation,
    EqualPrimes,
    NotCoprime,
    RamifiedPrime,
)
from wittlink.orbits import (
    DeningerPointFL,
    FieldFibers,
    cc_fiber_infinite_level,
    decompose,
    normalize_point,
    odd_prime_pairs,
    reciprocity_rows,
)
from wittlink.rings import is_prime


# --------------------------------------------------------------------------
# covering-side fibers


def test_cc_fiber_cyclotomic():
    G, monodromy, dec = FieldFibers(cyclotomic_field(5)).covering(7)
    assert G.order == 4
    assert monodromy == 2
    assert (dec.count, dec.covering_degree) == (1, 4)


def test_cc_fiber_base_field():
    G, monodromy, _ = FieldFibers(rationals_field()).covering(7)
    assert G.order == 1
    assert monodromy == G.canon(1)


def test_cc_fiber_quadratic_split_prime():
    G, monodromy, _ = FieldFibers(quadratic_field_subgroup(5)).covering(11)
    assert G.order == 2
    assert monodromy == G.canon(1)


def test_cc_fiber_ramified_rejected():
    with pytest.raises(RamifiedPrime):
        FieldFibers(cyclotomic_field(5)).check(5)


def test_cc_fiber_infinite_level():
    G, monodromy = cc_fiber_infinite_level(3, 5)
    assert G.order == 4 and monodromy == 3
    assert cc_fiber_infinite_level(7, 5)[1] == 2
    with pytest.raises(NotCoprime):
        cc_fiber_infinite_level(3, 6)


# --------------------------------------------------------------------------
# flow-side packets


def test_deninger_packet_base_field():
    G, _ = FieldFibers(rationals_field()).packet(7, 5)
    assert G.order == 1  # <7 mod 5> = <2> is everything


def test_deninger_packet_cyclotomic_level9():
    G, monodromy = FieldFibers(cyclotomic_field(5)).packet(7, 9)
    assert {u for u in unit_group(9) if u in G} == {1, 4, 7}  # <7^4 mod 9> = <7>
    assert G.order == 2
    assert monodromy == G.canon(7)


def test_deninger_packet_identity_monodromy():
    G, monodromy = FieldFibers(rationals_field()).packet(11, 5)
    assert G.order == 4
    assert monodromy == G.canon(1)


def test_deninger_packet_errors():
    # every route to a prime-to-level datum checks primality before
    # coprimality with the level, and refuses a level p divides in one message
    routes = (cc_fiber_infinite_level, linking_hom, FieldFibers(rationals_field()).check,
              lambda p, m: DeningerPointFL(p, ModUnit(1, m), 1))
    for route in routes:
        with pytest.raises(NotCoprime, match="^3 divides the level 6$"):
            route(3, 6)
        for p, m in ((4, 5), (4, 6), (0, 5)):
            with pytest.raises(DomainViolation, match=f"^{p} is not prime$"):
                route(p, m)
    with pytest.raises(RamifiedPrime):
        FieldFibers(cyclotomic_field(5)).check(5, 7)


# --------------------------------------------------------------------------
# decomposition


def test_decompose_transitive():
    dec = decompose(*cc_fiber_infinite_level(2, 5))
    assert dec.count == 1 and dec.covering_degree == 4
    assert dec.components == ((1, 2, 3, 4),)
    assert dec.length_fields(2)["circle_length"] == {"prime": 2, "exponent": 4}


def test_decompose_identity_monodromy():
    dec = decompose(*FieldFibers(rationals_field()).packet(11, 5))
    assert dec.count == 4 and dec.covering_degree == 1


_WRONG_ORDER = (
    "from wittlink import cft\n"
    "from wittlink.cft import cyclotomic_field, rationals_field\n"
    "from wittlink.orbits import FieldFibers, decompose\n"
    "tori = (FieldFibers(cyclotomic_field(5)).covering(7)[:2], FieldFibers(rationals_field()).packet(11, 5))\n"
    "real = cft._order\n"
    "cft._order = lambda m, g, H: real(m, g, H) + 1\n"
    "raised = 0\n"
    "for T in tori:\n"
    "    try:\n"
    "        decompose(*T)\n"
    "    except AssertionError:\n"
    "        raised += 1\n"
    "print(raised)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python -O"])
def test_decompose_checks_every_orbit_against_the_order(flags):
    # a wrong order is caught on the identity's orbit too: the order is not
    # read off the walk that builds the orbits; the second torus has an
    # identity monodromy, so each of its orbits is a single point
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", _WRONG_ORDER], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "2\n"), proc.stderr


def test_decompose_swap():
    G = quotient_group(5, frozenset({1, 4}))
    dec = decompose(G, G.canon(2))
    assert dec.count == 1 and dec.covering_degree == 2


def test_decompose_generator_invariance():
    # the orbit partition depends only on the subgroup the monodromy generates
    G = quotient_group(13, frozenset({1}))
    ref = decompose(G, G.canon(2))  # 2 has order 12 mod 13
    for k in (5, 7, 11):  # units mod 12
        alt = decompose(G, G.canon(pow(2, k, 13)))
        assert alt.components == ref.components


def _suspension_components_union_find(group_elems, mult, monodromy, steps=3):
    """Component count of the literal suspension: points (g, k) on a
    discretized base circle glued by the monodromy; independent of the
    orbit-enumeration route."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    pts = [(g, k) for g in group_elems for k in range(steps)]
    for p in pts:
        parent[p] = p
    for g in group_elems:
        for k in range(steps - 1):
            union((g, k), (g, k + 1))
        union((g, steps - 1), (mult(g, monodromy), 0))
    return len({find(p) for p in pts})


def test_decompose_matches_union_find_suspension():
    from wittlink.cft import all_subgroups
    from wittlink.rings import primes_below

    for n in (5, 8, 12, 15):
        for H in all_subgroups(n):
            F = AbelianField(n, H)
            for p in primes_below(14):
                if p in F.ramified:
                    continue
                G, monodromy, dec = FieldFibers(F).covering(p)
                assert dec.count == _suspension_components_union_find(G.reps, G.mul, monodromy)


def test_component_sizes_match_artin_order():
    # the covering side's (f, r) against the distinct-degree factorization
    # of Phi_n over F_p; n is the conductor of each of these fields
    from wittlink.oracles import cyclotomic_factor_degrees
    from wittlink.rings import primes_below

    for n in (5, 7, 8, 12, 15):
        for p in primes_below(30):
            F = cyclotomic_field(n)
            if p in F.ramified:
                continue
            dec = FieldFibers(F).covering(p)[2]
            assert (dec.covering_degree, dec.count) == cyclotomic_factor_degrees(n, p)
            assert dec.covering_degree * dec.count == F.degree


# --------------------------------------------------------------------------
# flow-side points


def test_normalize_point_example():
    x = DeningerPointFL(3, ModUnit(2, 5), 9)
    y = normalize_point(x)
    assert (y.unit.value, y.scale) == (3, 1)  # 2 * 3^-2 = 2 * 4 = 8 = 3 mod 5


def test_normalize_point_noop_and_idempotent():
    x = DeningerPointFL(3, ModUnit(1, 5), 2)
    assert normalize_point(x) == x
    y = DeningerPointFL(3, ModUnit(2, 5), 45)
    assert normalize_point(normalize_point(y)) == normalize_point(y)


def test_normalize_respects_equivalence():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        m = rng.choice([m for m in range(3, 40) if math.gcd(m, p) == 1])
        a = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        n = rng.randint(1, 50)
        k = rng.randint(0, 4)
        x = DeningerPointFL(p, ModUnit(a, m), n)
        y = DeningerPointFL(p, ModUnit(a * pow(p, k, m) % m, m), n * p**k)
        assert normalize_point(x) == normalize_point(y)


def test_point_validation():
    with pytest.raises(NotCoprime):
        DeningerPointFL(5, ModUnit(1, 10), 1)
    with pytest.raises(DomainViolation):
        DeningerPointFL(5, ModUnit(1, 3), 0)


# --------------------------------------------------------------------------
# fibers over closed-orbit labels


def test_label_fiber_split_prime():
    fib = FieldFibers(quadratic_field_subgroup(5)).flow(11, 5)[1]
    assert fib.count == 2 and fib.covering_degree == 1


def test_label_fiber_inert_prime():
    fib = FieldFibers(quadratic_field_subgroup(5)).flow(7, 5)[1]
    assert fib.count == 1 and fib.covering_degree == 2
    assert fib.length_fields(7)["circle_length"] == {"prime": 7, "exponent": 2}


def test_label_fiber_base_field():
    fib = FieldFibers(rationals_field()).flow(7, 5)[1]
    assert fib.count == 1 and fib.covering_degree == 1


def test_label_fiber_mismatch_rejected():
    # the restriction character needs the level to be a multiple of the conductor
    with pytest.raises(DomainViolation, match="^level 7 must be a multiple of the conductor 5$"):
        FieldFibers(quadratic_field_subgroup(5)).check(3, 7)


def test_packet_fibers_is_every_label_fiber():
    # the one fiber over the labels at level 15 is the fiber at the conductor level 5
    fib = FieldFibers(cyclotomic_field(5)).flow(11, 15)[1]
    assert (fib.count, fib.covering_degree) == (4, 1)
    assert FieldFibers(cyclotomic_field(5)).flow(11, 5)[1] == fib


def test_packet_fibers_rejects_a_label_split_across_components(monkeypatch):
    # a wrong packet monodromy (1 in place of 19) makes the pushed components
    # singletons, so the points 1 and 4 over one label land apart
    monkeypatch.setattr(FieldFibers, "packet", lambda self, p, m: (quotient_group(15, frozenset({1})), 1))
    with pytest.raises(AssertionError, match="land in two components"):
        FieldFibers(cyclotomic_field(5)).flow(19, 15)


def test_packet_fibers_rejects_a_label_split_across_components_under_python_O():
    # the check is the flow side's own, so it must survive python -O
    code = (
        "from wittlink.cft import cyclotomic_field, quotient_group\n"
        "from wittlink.orbits import FieldFibers\n"
        "FieldFibers.packet = lambda self, p, m: (quotient_group(15, frozenset({1})), 1)\n"
        "try:\n"
        "    FieldFibers(cyclotomic_field(5)).flow(19, 15)\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr


def test_label_fiber_matches_cc_routes():
    # each side's (r, f) over cyclotomic fields against the oracle, the
    # distinct-degree factorization of Phi_c over F_p at the conductor c;
    # at level 10, 2 is unramified and divides the level
    from wittlink.oracles import cyclotomic_factor_degrees
    from wittlink.rings import primes_below

    for n in (1, 3, 5, 7, 8, 9, 10, 12, 15, 16, 20, 21):
        F = cyclotomic_field(n)
        c = F.conductor
        for p in primes_below(30):
            if c % p == 0:
                continue
            f, r = cyclotomic_factor_degrees(c, p)
            assert FieldFibers(F).covering(p)[2].count == r
            for m in (c, 3 * c if math.gcd(p, 3 * c) == 1 else 2 * c):
                if math.gcd(p, m) != 1:
                    continue
                fib = FieldFibers(F).flow(p, m)[1]
                assert (fib.count, fib.covering_degree) == (r, f)


# --------------------------------------------------------------------------
# reciprocity rows


def test_reciprocity_rows():
    row = reciprocity_rows([(11, 5)])[0]
    assert (row.legendre, row.cc_count, row.deninger_count, row.agree) == (1, 2, 2, True)
    row = reciprocity_rows([(7, 5)])[0]
    assert (row.legendre, row.cc_count, row.deninger_count, row.agree) == (-1, 1, 1, True)


def test_reciprocity_rejects():
    with pytest.raises(EqualPrimes):
        reciprocity_rows([(5, 5)])[0]
    with pytest.raises(DomainViolation):
        reciprocity_rows([(2, 5)])[0]
    with pytest.raises(DomainViolation):
        reciprocity_rows([(9, 5)])[0]
    with pytest.raises(EqualPrimes):
        reciprocity_rows([(3, 5), (5, 5)])
    with pytest.raises(DomainViolation, match="9 must be an odd prime"):
        reciprocity_rows([(3, 5), (9, 5)])


def _per_row_check(p: int, q: int) -> None:
    """The checks every row made on both its primes before each prime was checked once per table."""
    for v in (p, q):
        if v == 2 or not is_prime(v):
            raise DomainViolation(f"{v} must be an odd prime")
    if p == q:
        raise EqualPrimes(f"need distinct primes, got {p} twice")


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [(9, 5), (5, 9), (2, 7), (7, 2), (7, 7), (2, 2), (15, 15)], ids=str)
def test_checking_each_prime_once_changes_no_error(at, bad):
    valid = odd_prime_pairs(30)
    i = {"first": 0, "middle": len(valid) // 2, "last": len(valid)}[at]
    with pytest.raises(DomainViolation) as expected:
        _per_row_check(*bad)
    with pytest.raises(DomainViolation) as got:
        reciprocity_rows(valid[:i] + [bad] + valid[i:])
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_reciprocity_table_lands_once_per_row(monkeypatch):
    calls = []
    real = orbits._land

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orbits, "_land", counted)
    rows = reciprocity_rows(odd_prime_pairs(100))
    assert len(calls) == len(rows) == 552


def test_reciprocity_table_is_its_rows():
    # every row of one call over the pairs below 100, against the listed
    # squares mod p: both counts are 2 when q is a square mod p, else 1
    pairs = odd_prime_pairs(100)
    table = reciprocity_rows(pairs)
    assert len(table) == len(pairs)
    for (p, q), row in zip(pairs, table):
        square = q % p in {a * a % p for a in range(1, p)}
        leg, count = (1, 2) if square else (-1, 1)
        assert row == (p, q, leg, count, count, True)


@pytest.fixture
def fresh_quadratic_fields(monkeypatch):
    """Quadratic fields cached for this test only: the shared ones keep their fibers, so a
    counted or broken decompose would not run on them, and a broken one would stay in them."""
    monkeypatch.setattr(orbits, "quadratic_field_subgroup",
                        functools.lru_cache(maxsize=None)(quadratic_field_subgroup.__wrapped__))


def test_reciprocity_table_decomposes_each_field_at_most_four_times(monkeypatch, fresh_quadratic_fields):
    # two Artin cosets on the covering side and two pushed monodromies on
    # the flow side per quadratic field; one pair per row would make two
    calls = []
    real = orbits.decompose

    def counted(G, monodromy):
        calls.append(G.modulus)
        return real(G, monodromy)

    monkeypatch.setattr(orbits, "decompose", counted)
    pairs = odd_prime_pairs(150)
    rows = reciprocity_rows(pairs)
    fields = {q for _, q in pairs}
    assert len(rows) == 1122 and len(fields) == 34
    assert len(calls) <= 4 * len(fields)
    assert all(calls.count(m) <= 4 for m in set(calls))


def test_reciprocity_table_rejects_a_label_split_across_components(monkeypatch, fresh_quadratic_fields):
    # decompose under the identity in place of the monodromy: the pushed
    # components become singletons, so the points over one label of the
    # row (3, 5), where 3 is not a square mod 5, land apart
    real = orbits.decompose
    monkeypatch.setattr(orbits, "decompose", lambda G, monodromy: real(G, G.canon(1)))
    with pytest.raises(AssertionError, match="land in two components"):
        reciprocity_rows([(3, 5)])


def test_reciprocity_table_rejects_a_label_split_across_components_under_python_O():
    # the same broken decompose; the landing check must survive python -O
    code = (
        "from wittlink import orbits\n"
        "real = orbits.decompose\n"
        "orbits.decompose = lambda G, monodromy: real(G, G.canon(1))\n"
        "try:\n"
        "    orbits.reciprocity_rows([(3, 5)])\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr
