"""Tests of the benchmark's reference answers and of every check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each check must accept the right answer and reject a wrong one.
"""

import unittest
from fractions import Fraction

import reference as ref
import run


def concrete(value):
    """An answer text as formatExactAnswer renders a concrete rational."""
    return "%s (~%f)" % (value, float(value))


def regions(values):
    return "\n".join("%s: %s" % (region, concrete(value))
                     for region, value in values.items())


class GossipChainTest(unittest.TestCase):
    def test_reproduces_paper_k4(self):
        self.assertEqual(ref.gossip_expected_infected(4, exact=True),
                         Fraction(94, 27))
        self.assertEqual(ref.gossip_expected_infected(4, exact=True),
                         ref.GOSSIP4)

    def test_float_agrees_with_exact(self):
        for k in (4, 6, 9):
            self.assertAlmostEqual(ref.gossip_expected_infected(k),
                                   float(ref.gossip_expected_infected(k, True)),
                                   places=12)

    def test_table1_sizes(self):
        self.assertAlmostEqual(ref.gossip_expected_infected(20), 15.9051,
                               places=4)
        self.assertAlmostEqual(ref.gossip_expected_infected(30), 23.9085,
                               places=4)


class ClosedFormTest(unittest.TestCase):
    def test_chain(self):
        # reliability30.bay: 7 diamonds, p = 1/1000.
        self.assertEqual(ref.chain_reliability(7, Fraction(1, 1000)),
                         Fraction(127552671440279916013999,
                                  128000000000000000000000))
        self.assertEqual(ref.chain_reliability(1, Fraction(1, 2)),
                         Fraction(3, 4))

    def test_ring(self):
        self.assertEqual(ref.ring_reliability(3, Fraction(1, 10)),
                         Fraction(81, 100))
        self.assertEqual(ref.ring_reliability(1, Fraction(1, 10)), 1)


class ParseTest(unittest.TestCase):
    def test_concrete(self):
        self.assertEqual(ref.parse_concrete("94/27 (~3.481481)"),
                         Fraction(94, 27))
        self.assertEqual(ref.parse_concrete("1 (~1.000000)"), 1)
        self.assertIsNone(ref.parse_concrete("94/27"))
        self.assertIsNone(ref.parse_concrete(regions(ref.FIGURE3)))

    def test_regions(self):
        self.assertEqual(ref.parse_regions(regions(ref.FIGURE3)), ref.FIGURE3)
        self.assertIsNone(ref.parse_regions("94/27 (~3.481481)"))
        doubled = regions(ref.FIGURE3) + "\n" + regions(ref.FIGURE3)
        self.assertIsNone(ref.parse_regions(doubled))


class CheckRejectsWrongAnswersTest(unittest.TestCase):
    def test_rational(self):
        self.assertEqual(ref.check_rational(concrete(Fraction(94, 27)),
                                            ref.GOSSIP4), [])
        self.assertTrue(ref.check_rational(concrete(Fraction(94, 28)),
                                           ref.GOSSIP4))
        self.assertTrue(ref.check_rational("unsupported: x", ref.GOSSIP4))

    def test_figure2_one_digit_off(self):
        wrong = ref.FIGURE2 + Fraction(1, 67706637778944)
        self.assertTrue(ref.check_rational(concrete(wrong), ref.FIGURE2))

    def test_regions(self):
        self.assertEqual(ref.check_regions(regions(ref.FIGURE3), ref.FIGURE3),
                         [])
        names = list(ref.FIGURE3)
        swapped = dict(ref.FIGURE3)
        swapped[names[0]], swapped[names[2]] = (ref.FIGURE3[names[2]],
                                                ref.FIGURE3[names[0]])
        self.assertTrue(ref.check_regions(regions(swapped), ref.FIGURE3))
        missing = dict(list(ref.FIGURE3.items())[:2])
        self.assertTrue(ref.check_regions(regions(missing), ref.FIGURE3))

    def smc(self, value, se=0.1, survivors=1000):
        return {"value": value, "stderr": se, "survivors": survivors,
                "particles": 1000}

    def test_smc(self):
        want = ref.gossip_expected_infected(30)
        self.assertEqual(ref.check_smc(self.smc(want + 0.45), want), [])
        self.assertTrue(ref.check_smc(self.smc(want + 0.6), want))
        self.assertTrue(ref.check_smc(self.smc(want - 0.6), want))
        self.assertTrue(ref.check_smc(self.smc(want, survivors=999), want))
        self.assertTrue(ref.check_smc(self.smc(want, se=0.0), want))

    def test_sum_to_one(self):
        parts = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        self.assertEqual(ref.check_sum_to_one([concrete(p) for p in parts]),
                         [])
        parts[2] += Fraction(1, 10**12)
        self.assertTrue(ref.check_sum_to_one([concrete(p) for p in parts]))

    def test_three_digits(self):
        self.assertEqual(ref.check_three_digits(concrete(Fraction(152, 1000)),
                                                "0.152"), [])
        self.assertEqual(ref.check_three_digits(concrete(Fraction(1523, 10000)),
                                                "0.152"), [])
        self.assertTrue(ref.check_three_digits(concrete(Fraction(153, 1000)),
                                               "0.152"))

    def bayes(self, posterior, like_bad, like_good, bad_answer=1,
              good_answer=0):
        return ref.check_bayes(
            concrete(posterior),
            {"text": concrete(Fraction(bad_answer)), "ok_mass": str(like_bad)},
            {"text": concrete(Fraction(good_answer)), "ok_mass": str(like_good)},
            ref.LOADBALANCING_PRIOR_BAD)

    def test_bayes(self):
        lb, lg = Fraction(3, 1000), Fraction(2, 1000)
        right = Fraction(1, 10) * lb / (Fraction(1, 10) * lb
                                        + Fraction(9, 10) * lg)
        self.assertEqual(self.bayes(right, lb, lg), [])
        self.assertTrue(self.bayes(right + Fraction(1, 10**9), lb, lg))
        self.assertTrue(self.bayes(right, lg, lb))
        self.assertTrue(self.bayes(right, lb, lg, bad_answer=0))
        self.assertTrue(self.bayes(right, lb, lg, good_answer=1))


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, make in run.WORKLOADS.items():
            self.assertEqual(make(7), make(7), name)

    def test_every_check_names_a_query(self):
        for name, make in run.WORKLOADS.items():
            w = make(3)
            ids = {q[0] for q in w["queries"] + w.get("after", [])}
            for _, checked, _ in w["checks"]:
                self.assertTrue(set(checked) <= ids, name)

    def test_checks_report_missing_answers(self):
        w = run.exact_paper(0)
        self.assertTrue(ref.check_answers(w["checks"], {}))


if __name__ == "__main__":
    unittest.main()
