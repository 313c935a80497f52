"""Acceptance criteria, one test per criterion, exact tolerances.

Each test runs the corresponding suite at its full stated grid, prints one
PASS/FAIL line, and enforces the stated runtime budget.  All comparisons
inside the suites are exact; there are no numeric tolerances to tune.
"""

from wittlink.verify import (
    VerifyConfig,
    criterion_bridge_grid,
    criterion_descent,
    criterion_equivariance,
    criterion_groupring_roundtrip,
    criterion_reciprocity,
    criterion_split_double_oracle,
    criterion_teichmuller_split,
    criterion_witt_ring_laws,
)

CFG = VerifyConfig()


def _report(result, budget=None):
    print(result.line())
    assert result.passed, result.line()
    if budget is not None:
        assert result.seconds < budget, f"{result.name} exceeded {budget}s: {result.seconds:.2f}s"


def test_criterion_1_witt_ring_laws():
    # >= 200 random vectors, coefficients |c| <= 9, degrees <= 4, ghost N = 12,
    # direct and ghost-oracle equality, runtime < 30 s
    _report(criterion_witt_ring_laws(CFG.seed, samples=200), budget=30)


def test_criterion_2_teichmuller_split():
    # [a](x)[b] = [ab] and counit([a]) = a for a, b in -5..5; counit is a ring map
    _report(criterion_teichmuller_split(CFG.seed + 1))


def test_criterion_3_descent():
    # n in {3, 4, 5}, 100 random vectors each: fixed-check iff integer series;
    # orbit products always pass
    _report(criterion_descent(CFG.seed + 2, per_level=100))


def test_criterion_4_split_double_oracle():
    # all n <= 40, primes p < 50 coprime to n: order route == factorization
    # route and f*r = phi(n); runtime < 20 s
    _report(criterion_split_double_oracle(n_max=40, p_max=50), budget=20)


def test_criterion_5_reciprocity_table():
    # every ordered pair of distinct odd primes < 100 (552 rows): counts are
    # 2/2 iff (q|p) = +1 else 1/1, zero disagreements; runtime < 60 s
    _report(criterion_reciprocity(prime_bound=100), budget=60)


def test_criterion_6_bridge_grid():
    # every subgroup of (Z/n)^* for n <= 40, every unramified p < 50, levels
    # {conductor, smallest coprime multiple}: full report match; runtime < 120 s
    _report(criterion_bridge_grid(n_max=40, p_max=50, seed=CFG.seed + 3), budget=120)


def test_criterion_7_equivariance():
    # >= 500 randomized cases per equivariance plus level-reduction pairs
    _report(criterion_equivariance(CFG.seed + 4, cases=500))


def test_criterion_8_groupring_roundtrip():
    # p in {5, 7, 11}, 50 random unit multisets each: decode(encode(x)) == x
    _report(criterion_groupring_roundtrip(CFG.seed + 5, per_prime=50))


def test_seed_variation_keeps_verdicts():
    # exact arithmetic: changing the seed changes samples, never verdicts
    from wittlink.verify import run_all

    import dataclasses

    quick = VerifyConfig.quick()
    a = run_all(quick)
    b = run_all(dataclasses.replace(quick, seed=quick.seed + 999))
    assert [(r.name, r.passed) for r in a] == [(r.name, r.passed) for r in b]
    assert all(r.passed for r in a)
