"""Interval certification, quadrature, and the archimedean integrals."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest

from polydensity import (
    Box,
    CertificationError,
    PositivityError,
    certify_above,
    integrate_box,
    interval_eval,
    laurent_expansion,
    li_f,
    li_joint,
    log_moment,
    oscillatory_integral,
    parse_polynomial,
    value_range,
)
from polydensity import integrals, intervals, poly, quadrature


class TestIntervals:
    def test_interval_eval_encloses_samples(self):
        f = parse_polynomial("x1^2 - 3x1x2 + x2^3", 2)
        intervals = [(Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1))]
        lo, hi = interval_eval(f, intervals)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = Fraction(rng.integers(-100, 201), 100)
            y = Fraction(rng.integers(0, 101), 100)
            val = x * x - 3 * x * y + y**3
            assert lo <= val <= hi

    def test_even_power_enclosure_tight(self):
        f = parse_polynomial("x1^2", 1)
        lo, hi = interval_eval(f, [(Fraction(-2), Fraction(3))])
        assert lo == 0 and hi == 9

    def test_certify_positive(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert certify_above(f, Box([(1, 2), (1, 2)]), 0)

    def test_certify_positive_despite_cancellation(self):
        # x^2 - 2x + 2 = (x-1)^2 + 1 > 0; naive enclosure on [0,2] straddles 0
        f = parse_polynomial("x1^2 - 2x1 + 2", 1)
        assert certify_above(f, Box([(0, 2)]), 0)

    def test_certify_refutes(self):
        f = parse_polynomial("x1^2 - 2", 1)
        with pytest.raises(PositivityError):
            certify_above(f, Box([(1, 2)]), 0)

    def test_certify_budget(self):
        # zero at an endpoint: refuted at the box corner at once
        with pytest.raises(PositivityError, match="f = 0 <= 0 at a box corner"):
            certify_above(parse_polynomial("x1^2", 1), Box([(0, 1)]), 0)
        # zero at 1/3, which no dyadic corner reaches: can never be
        # certified strictly above, nor refuted
        f = parse_polynomial("(3x1 - 1)^2", 1)
        with mock.patch.object(intervals, "BISECTION_BUDGET", 100):
            with pytest.raises(CertificationError):
                certify_above(f, Box([(0, 1)]), 0)

    def test_value_range_brackets_extrema(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        lo, hi = value_range(f, Box([(1, 2), (1, 2)]))
        assert lo <= 2 and hi >= 8
        assert lo >= 1 and hi <= 16

    def test_value_range_exact_at_root_enclosure(self):
        # the circle-method supports and phase grids read this range
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert value_range(f, Box([(1, 2), (1, 2)])) == (2, 8)

    def test_value_range_evaluation_count(self):
        f = parse_polynomial("x1^4 - 3x1^2x2^2 + x2^4 + x1", 2)
        box = Box([(1, 2), (1, 3)])
        with mock.patch.object(
            intervals, "interval_eval", wraps=intervals.interval_eval
        ) as counted:
            lo, hi = value_range(f, box)
        assert counted.call_count <= 2000
        # min -18 at (2, sqrt 6), max 56 at (1, 3)
        assert -19 < lo <= -18 and 56 <= hi < 57


class TestQuadrature:
    def test_polynomial_exact(self):
        result = integrate_box(lambda g: g[0] ** 4, [(0.0, 1.0)], 1e-12)
        assert abs(result.value - 0.2) < 1e-12

    def test_2d_separable(self):
        result = integrate_box(
            lambda g: np.sin(g[0]) * np.cos(g[1]),
            [(0.0, math.pi), (0.0, math.pi / 2)],
            1e-10,
        )
        assert abs(result.value - 2.0) < 1e-9

    def test_complex_integrand(self):
        result = integrate_box(
            lambda g: np.exp(2j * np.pi * 3.0 * g[0]), [(0.0, 1.0)], 1e-12
        )
        assert abs(result.value) < 1e-10

    def test_budget_reported(self):
        # the last round may pass the budget by one pair of children
        for bounds, budget in (([(0.0, 1.0)], 2000), ([(0.0, 1.0)] * 2, 20000)):
            n = len(bounds)
            result = integrate_box(
                lambda g: np.sin(50.0 * g[0]) / (g[0] + 1e-3),
                bounds,
                1e-16,
                max_evaluations=budget,
            )
            assert not result.converged
            assert result.evaluations <= budget + 2 * (7**n + 11**n)


class TestBatchedRefinement:
    """The five circle-method integrals I(B; gamma) of x1^2 + x2^2 on
    [1, 2]^2 at the benchmark's seed-0 gammas."""

    GAMMAS = (0.0, 0.5, 3.0, 10.0, 14.0)

    def setup_method(self):
        self.f0 = parse_polynomial("x1^2 + x2^2", 2)
        self.box = Box([(1, 2), (1, 2)])

    def traced(self, gamma):
        """(result, points of each integrand call)."""
        sizes = []

        def counted(func, *args, **kwargs):
            def wrapped(grids):
                sizes.append(math.prod(np.broadcast_shapes(*(g.shape for g in grids))))
                return func(grids)

            return quadrature.integrate_box(wrapped, *args, **kwargs)

        with mock.patch.object(integrals, "integrate_box", counted):
            result = oscillatory_integral(self.f0, self.box, gamma)
        return result, sizes

    def test_evaluation_counts(self):
        counts = [
            oscillatory_integral(self.f0, self.box, gamma).evaluations
            for gamma in self.GAMMAS
        ]
        assert counts == [170, 2040, 48960, 506600, 1002320]

    def test_one_call_per_rule_and_round(self):
        # one cell at a time took 11792 integrand calls
        result, sizes = self.traced(14.0)
        assert result.converged and result.evaluations == 1002320
        assert sum(sizes) == result.evaluations
        assert len(sizes) <= 24

    def test_calls_stay_within_chunk(self):
        whole, _ = self.traced(3.0)
        with mock.patch.object(poly, "RESIDUE_CHUNK", 1000):
            chunked, sizes = self.traced(3.0)
        assert max(sizes) <= 1000
        assert len(sizes) > 24
        assert chunked == whole


class TestOscillatoryIntegral:
    def setup_method(self):
        self.f0 = parse_polynomial("x1^2 + x2^2", 2)
        self.box = Box([(1, 2), (1, 2)])

    def test_gamma_zero_is_volume(self):
        r = oscillatory_integral(self.f0, self.box, 0.0)
        assert abs(r.value - 1.0) < 1e-10

    def test_univariate_linear_closed_form(self):
        f = parse_polynomial("x1", 1)
        box = Box([(1, 2)])
        for gamma in (0.5, 1.75, -4.0, 12.5):
            got = oscillatory_integral(f, box, gamma).value
            exact = (
                cmath.exp(4j * math.pi * gamma) - cmath.exp(2j * math.pi * gamma)
            ) / (2j * math.pi * gamma)
            assert abs(got - exact) < 1e-8

    def test_triangle_inequality(self):
        for gamma in (0.3, 2.0, 17.0):
            r = oscillatory_integral(self.f0, self.box, gamma)
            assert abs(r.value) <= 1.0 + 1e-9

    def test_conjugate_symmetry(self):
        r_pos = oscillatory_integral(self.f0, self.box, 1.3)
        r_neg = oscillatory_integral(self.f0, self.box, -1.3)
        assert abs(r_pos.value - r_neg.value.conjugate()) < 1e-10

    def test_decay_in_gamma(self):
        # oscillatory decay <= C Q^{-(n-sigma)/(2^(d-1)(d-1))}, C fit at
        # Q=10 with x4 margin; univariate so the phase is fully resolvable
        f0 = parse_polynomial("x1^2", 1)
        box = Box([(1, 2)])
        e = -0.5
        rng = np.random.default_rng(5)

        def peak(Q):
            return max(
                abs(oscillatory_integral(f0, box, g).value)
                for g in rng.uniform(Q, 2 * Q, size=5)
            )

        c = 4.0 * peak(10) / 10**e
        for Q in (100, 1000):
            assert peak(Q) <= c * Q**e

    def test_inhomogeneous_rejected(self):
        from polydensity import PolynomialError

        with pytest.raises(PolynomialError):
            oscillatory_integral(
                parse_polynomial("x1^2 + 1", 1), Box([(1, 2)]), 1.0
            )


class TestLiF:
    def test_univariate_matches_logarithmic_sum(self):
        # li_f for f = x1 on [2,3] is the integral of dt/log t over [2P, 3P]
        f = parse_polynomial("x1", 1)
        box = Box([(2, 3)])
        P = 1000
        r = li_f(f, box, P)
        xs = np.linspace(2 * P, 3 * P, 200001)
        trapz = np.trapezoid(1.0 / np.log(xs), xs)
        assert abs(r.value - trapz) < 1e-5 * trapz

    def test_positivity_precondition(self):
        f = parse_polynomial("x1^2 - 9", 1)  # top part x1^2 is fine...
        g = parse_polynomial("x1^2 - x1x2", 2)  # top part vanishes on diag
        with pytest.raises((PositivityError, CertificationError)):
            li_f(g, Box([(1, 2), (1, 2)]), 100)

    def test_joint_reduces_to_single(self):
        f = parse_polynomial("x1", 1)
        box = Box([(2, 3)])
        single = li_f(f, box, 500)
        joint = li_joint([f], box, 500)
        assert abs(single.value - joint.value) < 1e-6 * single.value

    def test_single_is_joint_of_one(self):
        # Li_f(3 * [9/25, 1]) for f = x1 is li(3) - li(27/25)
        f = parse_polynomial("x1", 1)
        box = Box([("9/25", 1)])
        single = li_f(f, box, 3)
        assert single.value == li_joint([f], box, 3).value
        exact = float(mpmath.li(3) - mpmath.li(mpmath.mpf(27) / 25))
        assert abs(single.value - exact) <= single.abs_error_estimate

    def test_joint_certifies_against_exact_p(self):
        # f0(P t) = 2.6 t drops to 1 at t = 1/2.6 > 9/25: the integrand
        # passes through log f = 0, so the box must be refused
        f = parse_polynomial("x1", 1)
        box = Box([("9/25", 1)])
        with pytest.raises(PositivityError):
            li_joint([f], box, 2.6)
        with pytest.raises(PositivityError):
            li_f(f, box, 2.6)

    def test_scaling_dominates(self):
        # li_f ~ vol(B) P^n / (d log P): ratio stabilizes near 1 as P grows
        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        ratios = []
        for P in (10**3, 10**4, 10**5):
            r = li_f(f, box, P)
            lead = P**2 / (2 * math.log(P))
            ratios.append(r.value / lead)
        assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
        assert abs(ratios[-1] - 1) < 0.15


class TestLaurent:
    def test_moments(self):
        # J(1) for f0 = x1^2 on [1,2] is integral of 2 log t dt = 2(2log2 - 1)
        f0 = parse_polynomial("x1^2", 1)
        r = log_moment(f0, Box([(1, 2)]), 1)
        assert abs(r.value - 2 * (2 * math.log(2) - 1)) < 1e-9
        r0 = log_moment(f0, Box([(1, 2)]), 0)
        assert r0.value == 1.0

    def test_agreement_with_li(self):
        f = parse_polynomial("x1^2", 1)
        box = Box([(1, 2)])
        li = li_f(f, box, 1000)
        for K in (2, 4, 8):
            value, bound = laurent_expansion(f, box, 1000, K)
            assert abs(value - li.value) <= bound + li.abs_error_estimate

    def test_tail_shrinks_with_k(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        box = Box([(1, 2), (1, 2)])
        _, b2 = laurent_expansion(f, box, 10**4, 2)
        _, b6 = laurent_expansion(f, box, 10**4, 6)
        assert b6 < b2

    def test_small_p_rejected(self):
        f = parse_polynomial("x1^2", 1)
        with pytest.raises(ValueError):
            laurent_expansion(f, Box([(1, 2)]), 7, 4)  # log 7 < 2
