"""Hand-checked tests of the benchmark's oracles, inputs and tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

Z = oracles.Ring(("Z",))


def roots(num, den=()):
    return {"roots": (list(num), list(den))}


class WittOracleTest(unittest.TestCase):
    def test_star_of_two_teichmuller_lifts(self):
        # (1 - 2t) (x) (1 - 3t) = 1 - 6t
        self.assertTrue(oracles.check_mul(Z, roots([2]), roots([3]), ([1, -6], [1])))
        self.assertFalse(oracles.check_mul(Z, roots([2]), roots([3]), ([1, -5], [1])))

    def test_star_with_denominators(self):
        # ((1-2t)/(1-3t)) (x) (1-5t) = (1-10t)/(1-15t), also when not reduced
        f, g = roots([2], [3]), roots([5])
        self.assertTrue(oracles.check_mul(Z, f, g, ([1, -10], [1, -15])))
        self.assertTrue(oracles.check_mul(Z, f, g, ([1, -11, 10], [1, -16, 15])))

    def test_frobenius_and_ghost(self):
        self.assertTrue(oracles.check_frobenius(Z, 2, roots([3], [2]), ([1, -9], [1, -4])))
        self.assertTrue(oracles.check_ghost(Z, roots([2], [3]), [2 - 3, 4 - 9, 8 - 27]))
        self.assertFalse(oracles.check_ghost(Z, roots([2], [3]), [-1, -5, -18]))

    def test_dense_parts_checked_through_newton_sums(self):
        dense = {"dense": ([1, -5, 6], [1])}  # inverse roots 2 and 3
        self.assertEqual(oracles.power_sums(Z, [1, -5, 6], 3), [5, 13, 35])
        self.assertTrue(oracles.check_mul(Z, dense, roots([1], [-1]), ([1, -5, 6], [1, 5, 6])))
        self.assertFalse(oracles.check_mul(Z, dense, roots([1], [-1]), ([1, -5, 6], [1, 5, 7])))
        self.assertTrue(oracles.check_frobenius(Z, 2, dense, ([1, -13, 36], [1])))
        self.assertFalse(oracles.check_frobenius(Z, 2, dense, ([1, -13, 35], [1])))

    def test_sum_is_the_series_product(self):
        self.assertTrue(oracles.check_add(Z, roots([2]), roots([3], [2]), ([1, -3], [1])))

    def test_finite_rings_reduce_mod_n(self):
        Z12 = oracles.Ring(("Zn", 12))
        self.assertTrue(oracles.check_mul(Z12, roots([5]), roots([7]), ([1, -35 % 12], [1])))

    def test_cyclotomic_arithmetic(self):
        self.assertEqual(oracles.cyclotomic(12), (1, 0, -1, 0, 1))
        C5 = oracles.Ring(("C", 5))
        zeta = C5.of([0, 1])
        self.assertEqual(C5.pow(zeta, 5), C5.one())
        self.assertEqual(C5.of([0, 0, 0, 0, 1]), (-1, -1, -1, -1))

    def test_rational_roots(self):
        Q = oracles.Ring(("Q",))
        half = Fraction(1, 2)
        self.assertTrue(oracles.check_mul(Q, roots([half]), roots([4]), ([1, -2], [1])))

    def test_groupring_terms_combine(self):
        self.assertEqual(oracles.groupring_terms(7, [(3, 1), (10, 1), (2, -1)]), {3: 2, 2: -1})


class FieldOracleTest(unittest.TestCase):
    def test_level_5_field_presented_at_level_20(self):
        self.assertEqual(oracles.conductor(20, frozenset({1, 11})), 5)

    def test_subgroup_counts(self):
        self.assertEqual(len(oracles.subgroups(8)), 5)  # (Z/2)^2
        self.assertEqual(len(oracles.subgroups(7)), 4)  # cyclic of order 6
        self.assertEqual(oracles.subgroups(1), [frozenset({0})])

    def test_gaussian_field_splitting(self):
        # Q(i) = level 4, H = {1}: 5 splits, 3 stays inert
        H = frozenset({1})
        self.assertEqual(oracles.bridge_expectation(4, H, 4, 5), {"conductor": 4, "r": 2, "f": 1, "rep": 1})
        self.assertEqual(oracles.bridge_expectation(4, H, 4, 3), {"conductor": 4, "r": 1, "f": 2, "rep": 3})

    def test_squares_and_sieve(self):
        self.assertEqual(oracles.squares_mod(7), {1, 2, 4})
        self.assertEqual(oracles.sieve(20), [2, 3, 5, 7, 11, 13, 17, 19])
        self.assertEqual(oracles.second_level(5, 2), 15)


class WorkloadTest(unittest.TestCase):
    def test_seed_fixes_values_not_shape(self):
        a, b = workloads.cases("witt-arith", 1), workloads.cases("witt-arith", 2)
        self.assertEqual(repr(a), repr(workloads.cases("witt-arith", 1)))
        self.assertNotEqual(repr(a), repr(b))
        self.assertEqual([(c["op"], c["ring"]) for c in a], [(c["op"], c["ring"]) for c in b])

    def test_roots_of_one_vector_are_distinct(self):
        for case in workloads.cases("witt-arith", 3):
            for key in ("f", "g"):
                if "roots" in case.get(key, {}):
                    num, den = case[key]["roots"]
                    self.assertFalse(set(num) & set(den))

    def test_bridge_grid_skips_ramified_primes(self):
        cases = workloads.cases("bridge-grid", 1)
        self.assertTrue(all(c["expect"]["conductor"] % c["prime"] for c in cases))
        self.assertEqual(len(cases), 7726)


class TracerTest(unittest.TestCase):
    def test_self_time_and_counts(self):
        t = Tracer()

        def leaf():
            return sum(range(2000))

        inner = t.wrap(leaf, "rings.leaf")

        def outer():
            return inner() + inner()

        top = t.wrap(outer, "witt.outer", root=True)
        top()
        agg = t.aggregates()
        self.assertEqual(agg["rings.leaf"][0], 2)
        self.assertEqual(agg["witt.outer"][0], 1)
        calls, incl, self_s = agg["witt.outer"]
        self.assertAlmostEqual(incl, self_s + agg["rings.leaf"][1], places=9)

    def test_install_wraps_cross_module_bindings_and_uninstall_restores(self):
        import wittlink.cli  # noqa: F401
        from wittlink import orbits, witt

        original = orbits.is_prime
        from_polys = witt.WittVector.__dict__["from_polys"]
        t = Tracer()
        t.install()
        try:
            self.assertGreater(t.bindings, 0)
            self.assertIsNot(orbits.is_prime, original)
            orbits.is_prime(7)
            self.assertEqual(t.aggregates()["rings.is_prime"][0], 1)
        finally:
            t.uninstall()
        self.assertIs(orbits.is_prime, original)
        self.assertIs(witt.WittVector.__dict__["from_polys"], from_polys)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        runs = [{"best": [0.1, 0.3, None, 0.4]}, {"best": [0.2, 0.2, None, 0.5]}]
        self.assertEqual(run.fastest(runs), [0.1, 0.2, 0.4])
        e2e = run.end_to_end([0.1, 0.2, 0.3, 0.4], 2048, 0.5)
        self.assertEqual(e2e["ops_per_s"]["value"], 4.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v["unit"] for k, v in e2e.items()})
        trace = {"aggregates": {}, "cache": {"hits": 3, "misses": 1}}
        layer = run.per_layer([1.0, 1.0], [1.5, 1.5], trace)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v["unit"] for k, v in layer.items()})
        self.assertEqual(layer["cache.hit_ratio"]["value"], 0.75)
        self.assertEqual(layer["trace.overhead"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
