"""Complete exponential sums, the g/G functions, and the identity checks."""

import cmath
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from polydensity import (
    Box,
    ExpSumTable,
    big_g,
    big_g_from_definition,
    complete_exp_sum,
    g_local,
    is_prime,
    is_squarefree,
    observatory_check,
    orthogonality_count,
    parse_polynomial,
    q_alpha,
    s_alpha,
    t_f,
    w_alpha,
)
from polydensity import expsums


def brute_exp_sum(f, a, q):
    n = f.n_vars
    total = 0j
    coords = [0] * n
    for idx in range(q**n):
        v = idx
        for i in range(n):
            coords[i] = v % q
            v //= q
        total += cmath.exp(2j * math.pi * a * f.evaluate_mod(coords, q) / q)
    return total


class TestCompleteExpSum:
    def test_matches_brute_force(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        for a, q in [(1, 3), (2, 5), (3, 7), (5, 12), (7, 16)]:
            got = complete_exp_sum(f, a, q)
            assert abs(got - brute_exp_sum(f, a, q)) < 1e-9

    def test_gauss_sum_magnitude(self):
        # |sum e(a x^2 / p)| = sqrt(p) for odd p, a coprime
        f = parse_polynomial("x1^2", 1)
        for p in (3, 5, 7, 11, 13):
            assert abs(abs(complete_exp_sum(f, 1, p)) - math.sqrt(p)) < 1e-9

    def test_q_one(self):
        f = parse_polynomial("x1", 1)
        assert complete_exp_sum(f, 0, 1) == 1

    def test_non_coprime_rejected(self):
        f = parse_polynomial("x1", 1)
        with pytest.raises(ValueError):
            complete_exp_sum(f, 2, 4)

    def test_trivial_bound(self):
        f = parse_polynomial("x1^3 - x1 + 1", 1)
        for q in range(2, 30):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert abs(complete_exp_sum(f, a, q)) <= q ** f.n_vars + 1e-9

    def test_conjugate_symmetry(self):
        f = parse_polynomial("x1^2 + 3x2", 2)
        for q in (5, 7, 9):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    s1 = complete_exp_sum(f, q - a, q)
                    s2 = complete_exp_sum(f, a, q)
                    assert abs(s1 - s2.conjugate()) < 1e-9

    def test_table_matches_single_sums(self):
        f = parse_polynomial("x1^2 + x2", 2)
        table = ExpSumTable.build(f, 12)
        assert sorted(table.values) == [a for a in range(12) if math.gcd(a, 12) == 1]
        for a, v in table.values.items():
            assert abs(v - complete_exp_sum(f, a, 12)) < 1e-9


class TestTf:
    def test_q_one(self):
        assert t_f(parse_polynomial("x1", 1), 1) == 1.0

    def test_matches_direct(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        for q in (2, 3, 4, 6, 9, 12):
            direct = sum(
                abs(complete_exp_sum(f, a, q))
                for a in range(q)
                if math.gcd(a, q) == 1
            ) / q ** f.n_vars
            assert abs(t_f(f, q) - direct) < 1e-9

    def test_no_budget_beyond_the_histogram(self):
        # q^n * phi(q) is 2.16e9 at q = 300 and 2.35e10 at q = 403, far past
        # the default budget of 1e8; one histogram of q^n residues and one
        # FFT do the work.  Every S_{a,300} vanishes, since 4 | 300 and
        # S_{a,4} = 0 for this cubic; 403 = 13 * 31 has no such factor.
        f = parse_polynomial("x1^3 + 2x2^3 + 3x3^3", 3)
        for q in (300, 403):
            table = ExpSumTable.build(f, q)
            expected = sum(abs(v) for v in table.values.values()) / q**3
            assert abs(t_f(f, q) - expected) <= 1e-12 * expected
        assert expected > 0.1

    def test_multiplicative(self):
        f = parse_polynomial("x1^3 + 2x1", 1)
        for q1, q2 in [(3, 4), (5, 9), (7, 8), (11, 6)]:
            assert abs(t_f(f, q1 * q2) - t_f(f, q1) * t_f(f, q2)) < 1e-8

    def test_deligne_prime_bound(self):
        # T_f(p) <= C p^{1-(n-sigma)/2} on nonsingular forms, C fit at p=3
        # with x4 margin
        from polydensity import primes_upto

        for text, n in [("x1^2 + x2^2", 2), ("x1^2 + x1x2 + x2^2", 2)]:
            f = parse_polynomial(text, n)
            e = 1 - n / 2
            c = 4.0 * t_f(f, 3) / 3**e
            for p in map(int, primes_upto(97)):
                assert t_f(f, p) <= c * p**e

    def test_prime_power_bound(self):
        # |S_{a,p^k}| <= C_k p^{(k-1)n + sigma} for k = 2, 3
        for text, n in [("x1^2 + x2^2", 2), ("x1^3 + x2", 2)]:
            f = parse_polynomial(text, n)
            for k in (2, 3):
                c_k = 4.0
                for p in (2, 3, 5):
                    q = p**k
                    for a in range(1, q):
                        if math.gcd(a, q) == 1:
                            bound = c_k * p ** ((k - 1) * n)  # sigma = 0
                            assert abs(complete_exp_sum(f, a, q)) <= bound


class TestGFunctions:
    def test_g_spot_values(self):
        assert g_local(1, 1) == 1
        for p in (2, 3, 5):
            assert g_local(p, 1) == Fraction(1) / (p * (1 - Fraction(1, p * p)))
            assert g_local(p * p, p * p) == 0

    def test_big_g_prime_values(self):
        for p in (2, 3, 5, 7):
            expected = -Fraction(1, p * p) / (1 - Fraction(1, p * p))
            assert big_g(p) == expected
            assert big_g(p * p) == expected

    def test_big_g_cube_free_support(self):
        assert big_g(8) == 0
        assert big_g(27) == 0
        assert big_g(24) == 0  # 8 | 24

    def test_big_g_multiplicative(self):
        for q1, q2 in [(4, 9), (2, 25), (3, 49), (12, 25)]:
            assert big_g(q1 * q2) == big_g(q1) * big_g(q2)

    def test_defining_sum_agrees_exactly(self):
        for q in range(1, 2001):
            assert big_g(q) == big_g_from_definition(q)

    def test_dirichlet_series_euler_product(self):
        # multiplicativity: sum over q of G(q) factors as
        # prod over p of (1 + G(p) + G(p^2))
        from polydensity import primes_upto

        total = sum((float(big_g(q)) for q in range(2, 5000)), 1.0)
        product = 1.0
        for p in map(int, primes_upto(200)):
            product *= float(1 + big_g(p) + big_g(p * p))
        assert abs(total - product) < 1e-3


class TestTrigPolys:
    def setup_method(self):
        self.f = parse_polynomial("x1^2 + x2^2", 2)
        self.box = Box([(1, 2), (1, 2)])

    def test_s_at_zero_counts_lattice(self):
        for P in (1, 2, 5):
            got = s_alpha(self.f, self.box, P, 0.0)
            assert abs(got - (P + 1) ** 2) < 1e-9

    def test_s_matches_brute(self):
        P, alpha = 3, 0.37
        brute = sum(
            cmath.exp(2j * math.pi * alpha * (x * x + y * y))
            for x in range(3, 7)
            for y in range(3, 7)
        )
        assert abs(s_alpha(self.f, self.box, P, alpha) - brute) < 1e-9

    def test_s_refuses_values_past_int64(self):
        # x1^5 reaches 3.2e21 on [10^4, 2*10^4]; int64 would wrap silently
        f = parse_polynomial("x1^5", 1)
        with pytest.raises(ArithmeticError):
            s_alpha(f, Box([(1, 2)]), 10**4, 0.1)

    def test_w_at_zero_counts_primes(self):
        # the lattice values at P=2 lie in the certified window [8, 32]
        from polydensity import primes_in_interval

        got = w_alpha(self.f, self.box, 2, 0.0)
        assert abs(got - len(primes_in_interval(8, 32))) < 1e-9

    def test_q_at_zero_counts_squarefree(self):
        from polydensity import squarefree_table

        got = q_alpha(self.f, self.box, 2, 0.0)
        # the lattice values at P=2 lie in the certified window [8, 32]
        table = squarefree_table(33)
        assert abs(got - int(table[8:33].sum())) < 1e-9

    def test_w_and_q_windows_follow_the_constant(self):
        # x1 + 1000 on [2, 3] at P = 10 takes the values 1020..1030, which
        # a window from the top-degree part x1 alone, [10, 60], misses
        f = parse_polynomial("x1 + 1000", 1)
        box = Box([(2, 3)])
        values = range(1020, 1031)
        alpha = 0.37
        w = sum(cmath.exp(2j * math.pi * alpha * v) for v in values if is_prime(v))
        q = sum(cmath.exp(2j * math.pi * alpha * v) for v in values if is_squarefree(v))
        assert abs(w_alpha(f, box, 10, alpha) - w) < 1e-9
        assert abs(q_alpha(f, box, 10, alpha) - q) < 1e-9

    def test_q_interval_signs_and_empty(self):
        from polydensity.expsums import q_alpha_interval

        # square-free m != 0 in [-10, 10]: +-1, +-2, +-3, +-5, +-6, +-7, +-10
        assert abs(q_alpha_interval(-10, 10, 0.0) - 14) < 1e-9
        assert q_alpha_interval(0, 0, 0.3) == 0j
        assert q_alpha_interval(5, 4, 0.3) == 0j


class TestIdentityChecks:
    def test_orthogonality_p1(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        assert orthogonality_count(f, box, 1) == 3

    def test_orthogonality_univariate_interval(self):
        # f = x1 on [2,3] at P=10: primes in [20, 30] are 23, 29
        f = parse_polynomial("x1", 1)
        assert orthogonality_count(f, Box([(2, 3)]), 10) == 2

    def test_orthogonality_empty_lattice(self):
        f = parse_polynomial("x1", 1)
        box = Box([(Fraction(1, 10), Fraction(2, 10))])
        assert orthogonality_count(f, box, 1) == 0

    def test_orthogonality_matches_direct_count(self):
        from polydensity import count_values

        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        with mock.patch.object(
            expsums, "_smooth_length", wraps=expsums._smooth_length
        ) as lengths:
            for P in (1, 2, 3, 5, 8):
                direct = count_values(f, box, P, mode="prime").count
                assert orthogonality_count(f, box, P) == direct
        # the half-spectrum fold has a Nyquist term only at even lengths
        parities = {expsums._smooth_length(*c.args) % 2 for c in lengths.call_args_list}
        assert parities == {0, 1}

    @pytest.mark.parametrize(
        "text, n, axes, P, primes",
        [
            ("x1 + 1000", 1, [(2, 3)], 10, 1),
            ("x1^2 + x2^2 + 1000", 2, [(1, 2), (1, 2)], 5, 6),
            ("x1^2 + x2^2 - 7", 2, [(1, 2), (1, 2)], 3, 2),
        ],
    )
    def test_orthogonality_with_constant_term(self, text, n, axes, P, primes):
        # the W-interval [P^d min(f0) / 2, 2 P^d max(f0)] of the first two
        # misses every value, which the constant shifts above it
        from polydensity import count_values

        f, box = parse_polynomial(text, n), Box(axes)
        assert count_values(f, box, P, mode="prime").count == primes
        assert orthogonality_count(f, box, P) == primes

    def test_orthogonality_length_fits_value_window(self):
        # the values fill [80000, 320000]; the W-interval [40000, 640000]
        # took length 648000
        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        with mock.patch.object(
            expsums, "_smooth_length", wraps=expsums._smooth_length
        ) as lengths:
            assert orthogonality_count(f, box, 200) == 4242
        assert [c.args for c in lengths.call_args_list] == [(240001,)]
        assert expsums._smooth_length(240001) == 243000

    def test_orthogonality_memory_is_one_chunk(self):
        # 41^4 lattice values; held all at once they peaked at 64.7 MiB
        f = parse_polynomial("x1 + x2 + x3 + x4", 4)
        box = Box([(1, 2)] * 4)
        tracemalloc.start()
        try:
            count = orthogonality_count(f, box, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 511856
        assert peak < 16 * 2**20

    def test_observatory_identity(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        for p in (2, 3, 5, 7, 11, 13):
            lhs, rhs = observatory_check(f, p)
            assert abs(lhs - rhs) < 1e-6 * p**2

    def test_observatory_mismatch_raises(self, monkeypatch):
        import polydensity.expsums

        monkeypatch.setattr(
            polydensity.expsums, "_spectrum", lambda hist: np.zeros(len(hist))
        )
        f = parse_polynomial("x1^2 + x2^2", 2)
        with pytest.raises(ArithmeticError):
            observatory_check(f, 5)

    def test_observatory_counts(self):
        from polydensity import count_zeros_mod

        f = parse_polynomial("x1^3 - x2 + 1", 2)
        p = 7
        lhs, rhs = observatory_check(f, p)
        assert rhs == -(p**2) + p * count_zeros_mod(f, p)
