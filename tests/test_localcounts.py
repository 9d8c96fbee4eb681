"""Local zero counts modulo p and p^2, and the Euler products."""

import math
import time
from fractions import Fraction

import pytest

from polydensity import (
    HypothesisViolationError,
    MultiPoly,
    count_zeros_mod,
    euler_product,
    fixed_prime_divisors,
    joint_euler_factor,
    parse_polynomial,
    prime_euler_factor,
    primes_upto,
    residue_histogram,
    squarefree_euler_factor,
)
from polydensity import localcounts
from polydensity.counting import BudgetExceededError


def brute_zeros(f, m):
    n = f.n_vars
    count = 0
    coords = [0] * n
    total = m**n
    for idx in range(total):
        v = idx
        for i in range(n):
            coords[i] = v % m
            v //= m
        if f.evaluate_mod(coords, m) == 0:
            count += 1
    return count


FOUR_SQUARES = "x1^2 + x2^2 + x3^2 + x4^2"


class TestResidueHistogram:
    @pytest.mark.parametrize(
        "text, work",
        [
            # one distinct block swept once, two convolutions
            ("x1^2 + x2^2 + x3^2", 101 + 2 * 101**2),
            ("x1^2 + 2x2^2 + 3x3^2", 3 * 101 + 2 * 101**2),
            # a two-variable block sweeps 101^2 residues
            ("x1x2 + x3^2", 101**2 + 101 + 101**2),
            ("x1x2x3 + 1", 101**3),
        ],
        ids=["equal-blocks", "distinct-blocks", "two-variable-block", "one-block"],
    )
    def test_budget_counts_swept_residues(self, monkeypatch, text, work):
        f = parse_polynomial(text, 3)
        monkeypatch.setattr(localcounts, "RESIDUE_BUDGET", work)
        expected = residue_histogram(f, 101)
        monkeypatch.setattr(localcounts, "RESIDUE_BUDGET", work - 1)
        with pytest.raises(BudgetExceededError, match=f"{work} residues"):
            residue_histogram(f, 101)
        assert expected.sum() == 101**3

    def test_int64_overflow_refused(self):
        # 3^40 residues fit the budget after the block split, but the
        # counts of 3^40 points would overflow int64
        f = parse_polynomial(" + ".join(f"x{i}^2" for i in range(1, 41)), 40)
        with pytest.raises(BudgetExceededError, match="overflow int64"):
            residue_histogram(f, 3)

    def test_four_squares_pinned(self):
        f = parse_polynomial(FOUR_SQUARES, 4)
        assert count_zeros_mod(f, 2) == 8
        for p in map(int, primes_upto(47)[1:]):
            assert count_zeros_mod(f, p) == p**3 + p**2 - p


class TestCountZerosMod:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_sum_of_two_squares_mod_p(self, p):
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert count_zeros_mod(f, p) == brute_zeros(f, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_mod_p_squared_matches_brute(self, p):
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert count_zeros_mod(f, p * p) == brute_zeros(f, p * p)

    def test_mixed_poly_mod_p_squared(self):
        f = parse_polynomial("x1^3 - x2 + 4", 2)
        for p in (2, 3, 5):
            assert count_zeros_mod(f, p * p) == brute_zeros(f, p * p)

    def test_univariate(self):
        f = parse_polynomial("x1^2 + 1", 1)
        assert count_zeros_mod(f, 5) == 2  # roots 2, 3
        assert count_zeros_mod(f, 7) == 0
        assert count_zeros_mod(f, 25) == brute_zeros(f, 25)

    @pytest.mark.parametrize("p", [60017, 99991])
    def test_mod_p_squared_past_int64_squares(self, p):
        # x1 = 0 is the one root mod p and it is singular; f(0) = -p^2, so
        # its whole fiber of p lifts are roots mod p^2.  Residues mod p^2
        # square past 2^63 here, so an int64 evaluation of f miscounts.
        f = parse_polynomial(f"x1^2 - {p * p}", 1)
        assert count_zeros_mod(f, p * p) == p

    def test_p_squared_sweeps_blocks_not_grid(self, monkeypatch):
        # the singular roots of x1^2 + x2^2 come from each block's critical
        # set, x = 0, so about 4p points are evaluated, not the p^2 of F_p^2
        f = parse_polynomial("x1^2 + x2^2", 2)
        p = 1009
        evaluated = []
        real = MultiPoly.evaluate_array

        def counted(self, coords, modulus=None):
            values = real(self, coords, modulus)
            evaluated.append(values.size)
            return values

        monkeypatch.setattr(MultiPoly, "evaluate_array", counted)
        # p = 1 mod 4: 2p - 1 roots mod p, of which (0, 0) is singular
        # and lifts to all p^2 points of its fiber
        assert count_zeros_mod(f, p * p) == (2 * p - 2) * p + p * p
        assert sum(evaluated) <= 10 * p

    def test_non_prime_power_rejected(self):
        f = parse_polynomial("x1", 1)
        with pytest.raises(ValueError):
            count_zeros_mod(f, 6)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(localcounts, "RESIDUE_BUDGET", 10**4)
        f = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
        with pytest.raises(BudgetExceededError):
            count_zeros_mod(f, 101)

    def test_budget_counts_critical_combinations(self):
        # x^23 = x^p has gradient 23 x^22 = 0 mod 23 and takes 23 distinct
        # values mod 23^2, so the singular roots are combined from 23^9 =
        # 1.8e12 tuples of critical values; the histogram itself is cheap.
        # The refusal takes milliseconds; the generous time bound only
        # catches a run of the tuple loop, which runs far longer
        f = parse_polynomial(" + ".join(f"x{i}^23" for i in range(1, 10)), 9)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=f"{23**9} residues"):
            squarefree_euler_factor(f, 23)
        assert time.perf_counter() - start < 30.0

    def test_lemma_degree_bound(self):
        # N_p <= deg(f) * p^(n-1) for content-1 polynomials
        polys = [
            parse_polynomial("x1^2 + x2^2", 2),
            parse_polynomial("x1^3 - x2 + 1", 2),
            parse_polynomial("x1x2 - 3", 2),
        ]
        for f in polys:
            d = f.degree
            for p in (2, 3, 5, 7, 11, 13):
                assert count_zeros_mod(f, p) <= d * p ** (f.n_vars - 1)

    def test_reduction_bound(self):
        # every solution mod p^2 reduces to one mod p
        f = parse_polynomial("x1^2 + x2^2", 2)
        for p in (2, 3, 5, 7):
            n_p = count_zeros_mod(f, p)
            n_p2 = count_zeros_mod(f, p * p)
            assert n_p2 <= n_p * p**f.n_vars


class TestFixedPrimeDivisors:
    def test_classic_fixed_divisor(self):
        # x^2 + x + 2 is always even
        f = parse_polynomial("x1^2 + x1 + 2", 1)
        assert fixed_prime_divisors(f) == {2}

    def test_multivariate_fixed_divisor(self):
        f = parse_polynomial("x1^2 + x1 + 2x2", 2)
        assert fixed_prime_divisors(f) == {2}

    def test_no_fixed_divisor(self):
        assert fixed_prime_divisors(parse_polynomial("x1^2 + x2^2", 2)) == set()
        assert fixed_prime_divisors(parse_polynomial("x1", 1)) == set()

    def test_matches_vanishing_euler_factor(self):
        polys = [
            parse_polynomial("x1^2 + x1 + 2", 1),
            parse_polynomial("x1^2 + x2^2", 2),
            parse_polynomial("x1^3 + x1 + 3", 1),
        ]
        for f in polys:
            fixed = fixed_prime_divisors(f)
            zero_factors = {
                p for p in (2, 3) if prime_euler_factor(f, p) == 0
            }
            assert fixed == zero_factors


class TestEulerFactors:
    def test_prime_factor_formula(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        factor = prime_euler_factor(f, 3)
        # N_3 = 1: (1 - 1/9) / (1 - 1/3) = 4/3
        assert factor == Fraction(4, 3)

    def test_linear_prime_factor_is_one(self):
        f = parse_polynomial("x1", 1)
        for p in (2, 3, 5, 97):
            assert prime_euler_factor(f, p) == 1

    def test_squarefree_factor_formula(self):
        f = parse_polynomial("x1", 1)
        for p in (2, 3, 5):
            # N_{p^2} = 1 zero among p^2 residues
            assert squarefree_euler_factor(f, p) == 1 - Fraction(
                1, p * p
            )

    def test_joint_factor_twin_primes(self):
        f1 = parse_polynomial("x1", 1)
        f2 = parse_polynomial("x1 + 2", 1)
        assert joint_euler_factor([f1, f2], 2) == 2
        # odd p: (1 - 2/p)/(1 - 1/p)^2
        for p in (3, 5, 7):
            expected = (1 - Fraction(2, p)) / (1 - Fraction(1, p)) ** 2
            assert joint_euler_factor([f1, f2], p) == expected


class TestEulerProduct:
    def test_squarefree_univariate_is_zeta_2_inverse(self):
        f = parse_polynomial("x1", 1)
        est = euler_product(f, "squarefree", cutoff=10**4)
        assert abs(est.value - 6 / math.pi**2) < 1e-4
        assert est.tail_bound < 1e-3

    def test_prime_mode_gated_without_margin(self):
        f = parse_polynomial("x1", 1)
        with pytest.raises(HypothesisViolationError):
            euler_product(f, "prime", cutoff=100, sigma=0)
        est = euler_product(f, "prime", cutoff=100, sigma=0, force=True)
        assert est.value_exact == 1
        assert est.heuristic

    def test_prime_mode_allowed_with_margin(self):
        f = parse_polynomial("x1^2 + x2^2 + x3^2 + x4^2", 4)
        est = euler_product(f, "prime", cutoff=50, sigma=0)
        assert 0 < est.value < 2
        assert not est.heuristic

    def test_partial_products_cauchy(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        small = euler_product(f, "squarefree", cutoff=50)
        for cutoff in (100, 200, 400):
            larger = euler_product(f, "squarefree", cutoff=cutoff)
            assert abs(larger.value - small.value) <= small.tail_bound
        g = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
        small = euler_product(g, "squarefree", cutoff=30)
        larger = euler_product(g, "squarefree", cutoff=100)
        assert abs(larger.value - small.value) <= small.tail_bound

    def test_four_squares_exact_value_pinned(self):
        f = parse_polynomial(FOUR_SQUARES, 4)
        est = euler_product(f, "prime", 48, sigma=0)
        assert est.value_exact == Fraction(
            131936036612513382531072000, 162139622078364740433577733
        )

    def test_exact_value_tracks_float(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        est = euler_product(f, "squarefree", cutoff=200)
        assert abs(float(est.value_exact) - est.value) < 1e-15

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            euler_product(parse_polynomial("x1", 1), "nonsense", cutoff=10)

    def test_modes_are_those_of_verify(self):
        f = parse_polynomial("x1", 1)
        for mode in ("prime-density", "squarefree-density"):
            with pytest.raises(ValueError, match="unknown mode"):
                euler_product(f, mode, cutoff=10)
        with pytest.raises(ValueError, match="single polynomial"):
            euler_product([f, parse_polynomial("x1 + 2", 1)], "prime", cutoff=10)

    def test_prime_factor_is_the_joint_factor_of_one_polynomial(self):
        f = parse_polynomial(FOUR_SQUARES, 4)
        for p in (2, 3, 5, 7):
            assert prime_euler_factor(f, p) == joint_euler_factor([f], p)
        prime = euler_product(f, "prime", 48, sigma=0)
        joint = euler_product([f], "joint", 48, sigma=0)
        assert prime.value_exact == joint.value_exact


class TestDelignePointCountBound:
    def test_nonsingular_forms_obey_density_decay(self):
        # |N_p/p^n - 1/p| <= C p^{-(n-sigma)/2}: fit C on p <= 11 (x2 margin,
        # since the normalized deviations approach their sup from below),
        # check on 13 <= p <= 97
        forms = [
            parse_polynomial("x1^2 + x2^2", 2),
            parse_polynomial("x1^2 + x1x2 + x2^2", 2),
            parse_polynomial("x1^3 + x2^3", 2),
        ]
        import numpy as np

        from polydensity import primes_upto

        for f in forms:
            n = f.n_vars
            e = n / 2  # sigma = 0 on these forms
            c = 0.0
            for p in map(int, primes_upto(11)):
                dev = abs(count_zeros_mod(f, p) / p**n - 1 / p)
                c = max(c, dev * p**e)
            c *= 2.0
            for p in map(int, primes_upto(97)):
                if p < 13:
                    continue
                dev = abs(count_zeros_mod(f, p) / p**n - 1 / p)
                assert dev <= c * p**-e, (f.to_string(), p, dev, c)
