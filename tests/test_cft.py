"""Class field data: symbols, fields, conductors, splitting, CRT."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from wittlink import cft
from wittlink.cft import (
    AbelianField,
    ModUnit,
    QuotientUnitGroup,
    all_subgroups,
    at_conductor,
    conductor,
    cyclic_quotient,
    cyclotomic_field,
    legendre,
    linking_hom,
    quadratic_field_subgroup,
    quotient_group,
    ramified_set,
    rationals_field,
    subgroup_generated,
    subgroup_generators,
    unit_group,
)
from wittlink.errors import DomainViolation, NotCoprime, RamifiedPrime
from wittlink.oracles import crt_combine, cyclotomic_factor_degrees, ramified_set_via_inertia
from wittlink.orbits import FieldFibers
from wittlink.rings import euler_phi, primes_below


# --------------------------------------------------------------------------
# legendre / linking / unit groups


def test_legendre_values():
    assert legendre(5, 11) == 1  # 4^2 = 16 = 5 mod 11
    assert legendre(3, 7) == -1  # squares mod 7: {1, 2, 4}
    assert legendre(7, 7) == 0


def test_legendre_square_enumeration_oracle():
    for p in (3, 5, 7, 11, 13):
        squares = {a * a % p for a in range(1, p)}
        for q in range(1, p):
            assert legendre(q, p) == (1 if q in squares else -1)


def test_legendre_rejects_even_prime():
    with pytest.raises(DomainViolation):
        legendre(3, 2)


def test_linking_hom():
    assert linking_hom(3, 20) == ModUnit(3, 20)
    assert linking_hom(7, 10) == ModUnit(7, 10)
    with pytest.raises(NotCoprime):
        linking_hom(3, 6)


def test_linking_level_compatibility():
    for p in (3, 7, 11):
        for m in (20, 40, 60):
            if math.gcd(p, m) != 1:
                continue
            for d in (2, 4, 5, 10, 20):
                if m % d == 0 and math.gcd(p, d) == 1:
                    assert linking_hom(p, m).reduce(d) == linking_hom(p, d)


def test_unit_group():
    assert unit_group(5) == (1, 2, 3, 4)
    assert unit_group(1) == (0,)
    assert unit_group(12) == (1, 5, 7, 11)


def test_subgroup_generated():
    assert subgroup_generated(5, [4]) == frozenset({1, 4})
    assert subgroup_generated(5, []) == frozenset({1})
    assert subgroup_generated(5, [2]) == frozenset({1, 2, 3, 4})
    with pytest.raises(NotCoprime):
        subgroup_generated(10, [5])


def _bfs_closure(n, gens):
    """Breadth-first closure of {1} under multiplication by each generator."""
    closure, frontier = {1 % n}, {1 % n}
    while frontier:
        frontier = {a * g % n for a in frontier for g in gens} - closure
        closure |= frontier
    return frozenset(closure)


@given(st.integers(1, 300), st.lists(st.integers(-10**6, 10**6), max_size=4))
@settings(max_examples=300, deadline=None)
def test_coset_closure_matches_breadth_first_closure(n, gens):
    if any(math.gcd(g, n) != 1 for g in gens):
        with pytest.raises(NotCoprime):
            subgroup_generated(n, gens)
        return
    assert subgroup_generated(n, gens) == _bfs_closure(n, [g % n for g in gens])


@given(st.integers(1, 300), st.integers(-10**6, 10**6))
@settings(max_examples=200, deadline=None)
def test_cyclic_quotient_is_the_quotient_by_the_generated_subgroup(m, g):
    if math.gcd(g, m) != 1:
        return
    G = cyclic_quotient(m, g)
    assert G is cyclic_quotient(m, g % m + m)  # cached on g mod m
    assert G is quotient_group(m, subgroup_generated(m, [g]))


def test_order_keyed_cyclic_quotient_is_the_generated_subgroup():
    # with the lists cleared, each (m, d) walks its first subgroup and
    # reuses it for every later unit that generates it
    cft._cyclic_quotient.cache_clear()
    cft._cyclic_quotients.clear()
    for m in range(1, 301):
        generated = set()
        for g in unit_group(m):
            S = subgroup_generated(m, [g])
            assert cft._order(m, g, frozenset({1 % m})) == len(S)
            assert cyclic_quotient(m, g).subgroup == S
            generated.add(S)
        walked = [G.subgroup for (n, _), seen in cft._cyclic_quotients.items() if n == m for G in seen]
        assert sorted(walked, key=sorted) == sorted(generated, key=sorted)


def _walked_order(G: QuotientUnitGroup, a: int) -> int:
    """The order of a's coset by walking its powers to the identity coset."""
    a = G.canon(a)
    k, cur = 1, a
    while cur != G.canon(1):
        cur = G.mul(cur, a)
        k += 1
    return k


def test_order_is_the_walked_order_of_every_unit():
    for m in range(1, 301):
        trivial = frozenset({1 % m})
        G = quotient_group(m, trivial)
        for g in unit_group(m):
            assert cft._order(m, g, trivial) == _walked_order(G, g)


def test_order_modulo_every_subgroup_is_the_walked_order():
    for m in range(1, 61):
        for H in all_subgroups(m):
            G = quotient_group(m, H)
            for g in unit_group(m):
                assert cft._order(m, g, H) == G.element_order(g) == _walked_order(G, g)
                assert G.element_order(G.canon(g)) == _walked_order(G, g)


def test_order_refuses_a_non_unit_and_a_set_that_is_not_a_subgroup():
    with pytest.raises(NotCoprime, match="^4 is not a unit mod 10$"):
        cft._order(10, 14, frozenset({1}))
    with pytest.raises(DomainViolation, match="^6 is not a unit mod 9$"):
        quotient_group(9, frozenset({1})).element_order(6)
    # neither set holds 1, so no power of 3 lands in it; the loop is bounded
    for H in (frozenset(), frozenset({3})):
        with pytest.raises(AssertionError, match="not a subgroup"):
            cft._order(7, 3, H)


def _min_of_coset_table(m: int, H: frozenset) -> tuple[tuple, dict]:
    """(reps, canon_table) of (Z/m)^*/H with each coset built as a set and labelled by its least member."""
    canon, reps = {}, []
    for u in unit_group(m):
        if u in canon:
            continue
        coset = {u * h % m for h in H}
        rep = min(coset)
        reps.append(rep)
        for v in coset:
            canon[v] = rep
    return tuple(sorted(reps)), canon


def test_one_pass_quotient_table_matches_the_min_of_coset_build():
    for m in range(1, 61):
        for H in all_subgroups(m):
            G = QuotientUnitGroup(m, H)
            assert (G.reps, G.canon_table) == _min_of_coset_table(m, H)


def test_crt_combine():
    assert crt_combine([(0, 9), (2, 5)]) == (27, 45)
    assert crt_combine([(3, 7)]) == (3, 7)
    with pytest.raises(NotCoprime):
        crt_combine([(1, 4), (1, 6)])


# --------------------------------------------------------------------------
# fields, conductors, ramification


def test_quadratic_fields():
    q5 = quadratic_field_subgroup(5)
    assert (q5.level, q5.subgroup) == (5, frozenset({1, 4}))
    q13 = quadratic_field_subgroup(13)
    assert q13.level == 13
    assert q13.subgroup == frozenset({1, 3, 4, 9, 10, 12})
    q3 = quadratic_field_subgroup(3)
    assert (q3.level, q3.subgroup) == (12, frozenset({1, 11}))
    with pytest.raises(DomainViolation):
        quadratic_field_subgroup(2)
    with pytest.raises(DomainViolation):
        quadratic_field_subgroup(9)


def test_quadratic_field_reciprocity_consistency():
    # the character-kernel construction must reproduce the Legendre symbol
    # through the Artin map on 20 unramified primes
    for q in (3, 5, 7, 11, 13):
        F = quadratic_field_subgroup(q)
        count = 0
        for p in primes_below(200):
            if p == 2 or p == q:
                continue
            G, art = FieldFibers(F).artin(p)
            assert (art in G.subgroup) == (legendre(q, p) == 1)
            count += 1
            if count >= 20:
                break


def test_subgroup_validation():
    with pytest.raises(DomainViolation):
        AbelianField(5, frozenset({1, 2}))  # not closed
    with pytest.raises(DomainViolation):
        AbelianField(5, frozenset({2, 3}))  # missing identity


def _pairwise_closed(n, H):
    """The closure check AbelianField used to run: every product of two members."""
    return all(a * b % n in H for a in H for b in H)


@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(unit_group(n))), st.booleans())
    )
)
@settings(max_examples=300, deadline=None)
def test_subgroup_check_matches_pairwise_closure(case):
    n, drawn, close = case
    H = frozenset(drawn | {1 % n})
    if close:  # half the draws are subgroups, which must be accepted
        H = subgroup_generated(n, H)
    if _pairwise_closed(n, H):
        assert AbelianField(n, H).subgroup == H
    else:
        with pytest.raises(DomainViolation, match="not multiplicatively closed"):
            AbelianField(n, H)


def _greedy_unit_generators(n):
    """Each unit not yet generated, ascending, until the span is all of (Z/n)^*."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    gens, span = [], {1 % n}
    for u in units:
        if u in span:
            continue
        gens.append(u)
        while True:
            grown = span | {a * g % n for a in span for g in gens}
            if grown == span:
                break
            span = grown
        if len(span) == len(units):
            break
    return gens


def test_subgroup_generators_of_unit_groups():
    for n in range(1, 61):
        assert subgroup_generators(n, unit_group(n)) == _greedy_unit_generators(n)


def test_conductor_examples():
    assert conductor(AbelianField(5, frozenset(unit_group(5)))) == 1
    assert conductor(AbelianField(5, frozenset({1, 4}))) == 5
    assert conductor(AbelianField(10, frozenset({1}))) == 5
    assert conductor(rationals_field()) == 1


def test_at_conductor_re_presentation():
    F = AbelianField(10, frozenset({1}))
    G = at_conductor(F)
    assert G.level == 5 and G.subgroup == frozenset({1})
    assert G.degree == F.degree


def test_ramified_sets():
    assert ramified_set(cyclotomic_field(5)) == frozenset({5})
    assert ramified_set(rationals_field()) == frozenset()
    assert ramified_set(cyclotomic_field(12)) == frozenset({2, 3})


def test_ramified_two_routes_agree():
    fields = [
        cyclotomic_field(5),
        cyclotomic_field(12),
        cyclotomic_field(8),
        quadratic_field_subgroup(3),
        quadratic_field_subgroup(7),
        AbelianField(10, frozenset({1})),
        AbelianField(24, frozenset({1, 23})),
        rationals_field(),
    ]
    for F in fields:
        assert ramified_set(F) == ramified_set_via_inertia(F)


# --------------------------------------------------------------------------
# Artin cosets and splitting, as FieldFibers presents them


def _split_shape(F: AbelianField, p: int) -> tuple[int, int, int]:
    """(f, r, norm) of p in F, as the field split command reads them: f is the Artin coset's order."""
    fibers = FieldFibers(F)
    fibers.check(p)
    G, art = fibers.artin(p)
    f = G.element_order(art)
    return f, F.degree // f, p**f


def test_artin_coset_examples():
    G, art = FieldFibers(cyclotomic_field(5)).artin(7)
    assert art == 2 and G.element_order(art) == 4
    for F in (cyclotomic_field(5), quadratic_field_subgroup(5)):
        G, art = FieldFibers(F).artin(11)
        assert art in G.subgroup


def test_artin_coset_ramified_rejected():
    with pytest.raises(RamifiedPrime):
        FieldFibers(cyclotomic_field(5)).check(5)
    with pytest.raises(RamifiedPrime):
        _split_shape(cyclotomic_field(5), 5)


def test_artin_coset_level_with_unramified_divisor():
    # p = 2 divides the level 10 but not the conductor 5
    F = AbelianField(10, frozenset({1}))
    G, art = FieldFibers(F).artin(2)
    assert G.modulus == 5 and art == 2


def test_artin_depends_only_on_conductor_class():
    fibers = FieldFibers(cyclotomic_field(7))
    for p, q in ((11, 53), (3, 17), (5, 19)):
        assert p % 7 == q % 7
        assert fibers.artin(p) == fibers.artin(q)


def test_split_shape_examples():
    assert _split_shape(cyclotomic_field(5), 7) == (4, 1, 2401)
    assert _split_shape(cyclotomic_field(5), 11)[:2] == (1, 4)
    assert _split_shape(rationals_field(), 7)[:2] == (1, 1)


def test_split_times_count_is_degree():
    for n in range(1, 16):
        for H in all_subgroups(n):
            F = AbelianField(n, H)
            for p in primes_below(30):
                if p in ramified_set(F):
                    continue
                f, r, _ = _split_shape(F, p)
                assert f * r == F.degree


def test_cyclotomic_factor_degrees_examples():
    assert cyclotomic_factor_degrees(5, 7) == (4, 1)
    assert cyclotomic_factor_degrees(5, 11) == (1, 4)
    assert cyclotomic_factor_degrees(1, 7) == (1, 1)
    with pytest.raises(NotCoprime):
        cyclotomic_factor_degrees(10, 5)


def test_split_double_oracle_small_grid():
    for n in range(1, 16):
        F = cyclotomic_field(n)
        for p in primes_below(20):
            if math.gcd(n, p) != 1:
                continue
            f, r, _ = _split_shape(F, p)
            assert (f, r) == cyclotomic_factor_degrees(n, p)
            assert f * r == euler_phi(n)


# --------------------------------------------------------------------------
# subgroup lattice and cosets


def test_all_subgroups():
    assert {frozenset(s) for s in all_subgroups(5)} == {
        frozenset({1}),
        frozenset({1, 4}),
        frozenset({1, 2, 3, 4}),
    }
    assert len(all_subgroups(12)) == 5  # (Z/12)^* = C2 x C2
    for s in all_subgroups(24):
        F = AbelianField(24, s)  # validates closure
        assert euler_phi(24) % len(s) == 0


def _cyclic_join_closure(n: int) -> set:
    """Every subgroup of (Z/n)^*: the cyclic subgroups, closed under joins."""
    cyclics = {subgroup_generated(n, [u]) for u in unit_group(n)}
    cyclics.add(frozenset({1 % n}))
    subs = set(cyclics)
    changed = True
    while changed:
        changed = False
        for s in list(subs):
            for c in cyclics:
                joined = subgroup_generated(n, list(s | c))
                if joined not in subs:
                    subs.add(joined)
                    changed = True
    return subs


def test_all_subgroups_is_the_closure_of_cyclic_joins():
    for n in range(1, 61):
        subs = all_subgroups(n)
        assert len(set(subs)) == len(subs)
        assert set(subs) == _cyclic_join_closure(n)


def test_coset_order():
    H = frozenset({1})
    assert quotient_group(5, H).element_order(2) == _walked_order(quotient_group(5, H), 2) == 4
    assert quotient_group(5, frozenset({1, 4})).element_order(4) == 1
    assert quotient_group(1, frozenset({0})).element_order(0) == 1


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_linking_matches_reduction(p, m):
    if math.gcd(p, m) != 1:
        return
    assert linking_hom(p, m).value == p % m
