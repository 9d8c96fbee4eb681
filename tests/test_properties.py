"""Randomized invariant checks for the algebraic core."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydensity import (
    Box,
    ExpSumTable,
    MultiPoly,
    certify_above,
    complete_exp_sum,
    count_values,
    count_zeros_mod,
    integrate_box,
    is_prime,
    is_prime_certified,
    is_squarefree,
    parse_polynomial,
    residue_histogram,
    value_range,
)
from polydensity import counting, intervals, poly
from polydensity.intervals import CertificationError, PositivityError


@st.composite
def polynomials(draw, max_vars=3, max_degree=4, max_terms=5, max_coeff=20):
    n = draw(st.integers(1, max_vars))
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(n)
        )
        coeff = draw(
            st.integers(-max_coeff, max_coeff).filter(lambda c: c != 0)
        )
        terms[exps] = coeff
    return MultiPoly(n, terms)


@st.composite
def separable_polynomials(draw):
    """g1 + g2 in disjoint sets of variables, interleaved in random order."""
    g1 = draw(polynomials(max_vars=2, max_degree=3))
    g2 = draw(polynomials(max_vars=3 - g1.n_vars, max_degree=3))
    n = g1.n_vars + g2.n_vars
    order = draw(st.permutations(range(n)))
    shifted = [(e + (0,) * g2.n_vars, c) for e, c in g1.terms.items()]
    shifted += [((0,) * g1.n_vars + e, c) for e, c in g2.terms.items()]
    terms: dict = {}
    for exps, coeff in shifted:
        key = tuple(exps[j] for j in order)
        terms[key] = terms.get(key, 0) + coeff
    assume(any(terms.values()))
    return MultiPoly(n, terms)


@st.composite
def low_degree_polynomials(draw, n, max_degree=4, max_terms=5, max_coeff=20):
    """Nonconstant polynomials in ``n`` variables of total degree at most
    ``max_degree``."""
    monomials = [
        e for e in itertools.product(range(max_degree + 1), repeat=n)
        if sum(e) <= max_degree
    ]
    lead = draw(st.sampled_from(monomials[1:]))
    rest = draw(st.lists(st.sampled_from(monomials), max_size=max_terms - 1))
    coeffs = st.integers(-max_coeff, max_coeff).filter(lambda c: c != 0)
    return MultiPoly(n, {e: draw(coeffs) for e in [lead, *rest]})


def polynomial_tuples(k):
    """``k`` polynomials of :func:`low_degree_polynomials` in one ``n <= 3``."""
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(*[low_degree_polynomials(n)] * k)
    )


def brute_histogram(f, q):
    values = [
        f.evaluate_mod(x, q) for x in itertools.product(range(q), repeat=f.n_vars)
    ]
    return np.bincount(values, minlength=q)


small_primes = st.sampled_from([2, 3, 5, 7, 11])


class TestPolynomialInvariants:
    @given(polynomials())
    def test_print_parse_round_trip(self, f):
        assert parse_polynomial(f.to_string(), f.n_vars) == f

    @given(polynomials(), st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    def test_evaluation_is_ring_homomorphism(self, f, point):
        x = point[: f.n_vars]
        g = f + f
        h = f * f
        v = f.evaluate_int(x)
        assert g.evaluate_int(x) == 2 * v
        assert h.evaluate_int(x) == v * v

    @given(polynomials(), st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    @example(parse_polynomial("-17*x1^3*x2^4*x3^4-1", 3), [25, 29, 15])
    def test_array_matches_integer_evaluation(self, f, point):
        x = point[: f.n_vars]
        grids = [np.array([c], dtype=object) for c in x]
        assert f.evaluate_array(grids)[0] == f.evaluate_int(x)

    @given(polynomials(), small_primes, st.lists(st.integers(0, 200), min_size=3, max_size=3))
    def test_modular_evaluation_consistent(self, f, p, point):
        x = point[: f.n_vars]
        assert f.evaluate_mod(x, p) == f.evaluate_int(x) % p

    @given(polynomials())
    def test_top_degree_part_idempotent_homogeneous(self, f):
        top = f.top_degree_part()
        assert top.is_homogeneous()
        assert top.degree == f.degree
        assert top.top_degree_part() == top

    @given(polynomials(), st.integers(2, 7))
    def test_homogeneous_scaling(self, f, lam):
        top = f.top_degree_part()
        d = top.degree
        point = list(range(1, top.n_vars + 1))
        scaled = [lam * c for c in point]
        assert top.evaluate_int(scaled) == lam**d * top.evaluate_int(point)

    @given(polynomials(), st.integers(1, 12))
    def test_content_scales_with_constant(self, f, c):
        for k in (c, -c):
            scaled = MultiPoly(f.n_vars, {(0,) * f.n_vars: k}) * f
            assert scaled.content() == c * f.content()

    @given(polynomials(), st.lists(st.integers(-30, 30), min_size=3, max_size=3))
    def test_abs_bound_dominates(self, f, point):
        x = point[: f.n_vars]
        radii = [abs(c) for c in x]
        assert abs(f.evaluate_int(x)) <= f.abs_bound(radii)


class TestLocalCountInvariants:
    @settings(deadline=None)
    @given(polynomials(max_vars=2, max_degree=3), small_primes)
    def test_count_mod_p_in_range(self, f, p):
        n_p = count_zeros_mod(f, p)
        assert 0 <= n_p <= p**f.n_vars
        if f.content() % p != 0:
            assert n_p <= f.degree * p ** (f.n_vars - 1)

    @settings(deadline=None, max_examples=30)
    @given(polynomials(max_vars=2, max_degree=3), st.sampled_from([2, 3, 5]))
    def test_lifting_bound(self, f, p):
        n_p = count_zeros_mod(f, p)
        n_p2 = count_zeros_mod(f, p * p)
        assert n_p2 <= n_p * p**f.n_vars
        assert n_p2 == brute_histogram(f, p * p)[0]


    def test_every_modulus_matches_brute_force(self):
        f = parse_polynomial("x1*x3^2 + 2x2^3 - 1", 3)
        assert [v for v, _ in f.variable_blocks()[1]] == [(0, 2), (1,)]
        for q in range(2, 31):
            assert np.array_equal(residue_histogram(f, q), brute_histogram(f, q))

    @settings(deadline=None, max_examples=40)
    @given(polynomials(), st.integers(2, 30))
    def test_residue_histogram_matches_brute_force(self, f, q):
        assert np.array_equal(residue_histogram(f, q), brute_histogram(f, q))

    @settings(deadline=None, max_examples=40)
    @given(separable_polynomials(), st.integers(2, 30))
    def test_separable_histogram_matches_brute_force(self, f, q):
        assert np.array_equal(residue_histogram(f, q), brute_histogram(f, q))


class TestExpSumInvariants:
    @settings(deadline=None, max_examples=40)
    @given(polynomials(max_vars=2, max_degree=3), st.integers(1, 20))
    def test_trivial_bound(self, f, q):
        for a in range(q):
            if math.gcd(a, q) == 1:
                assert abs(complete_exp_sum(f, a, q)) <= q**f.n_vars + 1e-6


    @settings(deadline=None, max_examples=25)
    @given(polynomials(max_vars=2, max_degree=3))
    def test_spectrum_matches_defining_sum(self, f):
        for q in range(1, 31):
            values = np.array(
                [
                    f.evaluate_mod(x, q)
                    for x in itertools.product(range(q), repeat=f.n_vars)
                ]
            )
            table = ExpSumTable.build(f, q)
            for a, s_aq in table.values.items():
                exact = np.sum(np.exp(2j * math.pi * a * values / q))
                assert abs(s_aq - exact) <= 1e-9 * q**f.n_vars


class TestArithmeticInvariants:
    @given(st.integers(1, 10**6))
    def test_squarefree_sign_symmetric(self, m):
        assert is_squarefree(m) == is_squarefree(-m)

    @given(st.integers(2, 10**6))
    def test_prime_implies_squarefree(self, m):
        verdict, certified = is_prime_certified(m)
        assert certified
        if verdict:
            assert is_squarefree(m)

    @given(st.integers(2, 10**4))
    def test_square_never_squarefree(self, m):
        assert not is_squarefree(m * m)


@st.composite
def lattice_boxes(draw, n):
    """Boxes inside [-1, 1]^n and a scale P <= 2, so that every value of a
    polynomials() draw stays below 5 * 20 * 2^12 in absolute value."""
    intervals = []
    for _ in range(n):
        a = draw(st.fractions(-1, 1, max_denominator=4))
        b = draw(st.fractions(a, 1, max_denominator=4))
        intervals.append((a, b))
    return Box(intervals), draw(st.integers(1, 2))


class TestCountingInvariants:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(-50, 10**6), st.integers(0, 2000), st.booleans())
    @example(0, 2000, False)
    @example(1, 50, True)
    @example(2, 0, False)
    @example(0, 0, True)
    def test_window_sieve_matches_value_tests(self, lo, width, squarefree):
        hi = lo + width
        bits = counting._sieve_bools(lo, hi, squarefree)
        table = np.unpackbits(bits, count=width + 1, bitorder="little")
        test = is_squarefree if squarefree else is_prime
        assert [bool(v) for v in table] == [test(m) for m in range(lo, hi + 1)]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(-300, 10**6), st.integers(0, 400), st.booleans())
    @example(-200, 400, False)
    @example(-63, 130, True)
    @example(3, 200, True)
    @example(0, 0, False)
    def test_segmented_sieve_matches_value_tests(self, lo, width, squarefree):
        hi = lo + width
        test = is_squarefree if squarefree else is_prime
        expected = [m for m in range(lo, hi + 1) if test(m)]
        with mock.patch.object(counting, "_SEGMENT", 64):
            bits = counting._sieve_bools(lo, hi, squarefree)
            members = counting._members(lo, hi, squarefree)
        table = np.unpackbits(bits, bitorder="little")
        assert len(bits) == -(-(width + 1) // 8)
        assert np.flatnonzero(table).tolist() == [m - lo for m in expected]
        assert members.tolist() == expected

    @settings(deadline=None, max_examples=60)
    @given(
        polynomials(),
        st.sampled_from(["prime", "squarefree", "joint"]),
        st.booleans(),
        st.integers(1, 5),
        st.data(),
    )
    def test_table_path_matches_per_value_path(self, f, mode, negate, shift, data):
        if negate:
            f = -f
        box, P = data.draw(lattice_boxes(f.n_vars))
        polys = f
        if mode == "joint":
            polys = [f, f + MultiPoly(f.n_vars, {(0,) * f.n_vars: shift})]
        table = count_values(polys, box, P, mode)
        with mock.patch.object(counting, "TABLE_LIMIT", 0):
            per_value = count_values(polys, box, P, mode)
        assert (table.count, table.lattice_points) == (
            per_value.count,
            per_value.lattice_points,
        )

    @settings(deadline=None, max_examples=60)
    @given(polynomials(), st.booleans(), st.data())
    def test_lattice_values_inside_certified_window(self, f, squarefree, data):
        box, P = data.draw(lattice_boxes(f.n_vars))
        ranges = box.lattice_ranges(P)
        assume(all(len(r) for r in ranges))
        lo, hi = counting._value_window(f, ranges, squarefree)
        for x in itertools.product(*ranges):
            v = f.evaluate_int(x)
            assert lo <= (abs(v) if squarefree else v) <= hi


class TestGridChunks:
    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(0, 7)), min_size=1, max_size=4
        ),
        st.integers(1, 30),
    )
    @example([(0, 7), (-3, 0), (2, 5)], 4)
    @example([(-5, 7)], 1)
    @example([(2**63 - 3, 5), (-(2**63) - 2, 4)], 6)
    def test_chunks_cover_grid_once_in_c_order(self, axes, limit):
        ranges = [range(start, start + size) for start, size in axes]
        with mock.patch.object(poly, "RESIDUE_CHUNK", limit):
            chunks = list(poly.grid_chunks(ranges))
        points = []
        for start, coords in chunks:
            assert len(coords) == len(ranges)
            grid = np.broadcast_arrays(*coords)
            assert start == len(points)
            assert 0 < grid[0].size <= limit
            points.extend(zip(*(g.ravel().tolist() for g in grid)))
        assert points == list(itertools.product(*ranges))


@st.composite
def boxes_and_samples(draw, n):
    """A box inside [-2, 2]^n with quarter endpoints, and rational sample
    points in it: every corner, the midpoint and a few random points."""
    axes = []
    for _ in range(n):
        a = draw(st.fractions(-2, 2, max_denominator=4))
        b = draw(st.fractions(a, 2, max_denominator=4))
        axes.append((a, b))
    points = list(itertools.product(*axes))
    points.append(tuple((a + b) / 2 for a, b in axes))
    for _ in range(draw(st.integers(0, 4))):
        points.append(
            tuple(draw(st.fractions(a, b, max_denominator=16)) for a, b in axes)
        )
    return Box(axes), points


def exact_value(f, point):
    total = Fraction(0)
    for exps, coeff in f.terms.items():
        term = Fraction(coeff)
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


@st.composite
def box_integrands(draw):
    """A box inside [-1, 1]^n, n <= 3, and the terms {exponents: (re, im)}
    of a polynomial of degree <= 13 per axis with integer or Gaussian
    integer coefficients, which both tensor rules integrate exactly."""
    n = draw(st.integers(1, 3))
    gaussian = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = tuple(draw(st.integers(0, 13)) for _ in range(n))
        imag = draw(st.integers(-20, 20)) if gaussian else 0
        terms[exps] = (draw(st.integers(-20, 20)), imag)
    axes = []
    for _ in range(n):
        a = draw(st.fractions(-1, 1, max_denominator=8))
        axes.append((a, draw(st.fractions(a, 1, max_denominator=8))))
    return terms, axes


class TestQuadratureInvariants:
    @settings(deadline=None, max_examples=60)
    @given(box_integrands(), st.integers(1, 4))
    def test_polynomials_integrate_exactly(self, drawn, pre_subdivisions):
        terms, axes = drawn

        def integrand(grids):
            total = 0.0
            for exps, (re, im) in terms.items():
                term = complex(re, im) if im else float(re)
                for x, e in zip(grids, exps):
                    term = term * x**e
                total = total + term
            return total

        exact = [Fraction(0), Fraction(0)]
        for exps, coeffs in terms.items():
            volume = Fraction(1)
            for (a, b), e in zip(axes, exps):
                volume *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
            for part, c in enumerate(coeffs):
                exact[part] += c * volume
        result = integrate_box(
            integrand,
            [(float(a), float(b)) for a, b in axes],
            1e-9,
            pre_subdivisions=pre_subdivisions,
        )
        assert result.converged
        assert result.evaluations == pre_subdivisions ** len(axes) * (
            7 ** len(axes) + 11 ** len(axes)
        )
        assert abs(result.value - complex(*map(float, exact))) <= 1e-9


class TestBisectionInvariants:
    """Soundness holds whenever the bisection stops, so each example draws
    a small budget: it keeps the examples fast and also exercises the
    budget-exhausted return of value_range."""

    @settings(deadline=None, max_examples=60)
    @given(polynomials(), st.integers(1, 200), st.data())
    def test_value_range_brackets_samples(self, f, budget, data):
        box, points = data.draw(boxes_and_samples(f.n_vars))
        with mock.patch.object(intervals, "BISECTION_BUDGET", budget):
            lo, hi = value_range(f, box)
        for point in points:
            assert lo <= exact_value(f, point) <= hi

    @settings(deadline=None, max_examples=60)
    @given(polynomials(), st.integers(1, 200), st.data())
    def test_certify_never_passes_a_low_sample(self, f, budget, data):
        box, points = data.draw(boxes_and_samples(f.n_vars))
        values = [exact_value(f, point) for point in points]
        # a sample value itself (the least first, where f meets the
        # threshold), or an integer near the range
        threshold = data.draw(
            st.sampled_from(sorted(values)) | st.integers(-40, 40).map(Fraction)
        )
        with mock.patch.object(intervals, "BISECTION_BUDGET", budget):
            try:
                certified = certify_above(f, box, threshold)
            except (PositivityError, CertificationError):
                return
        assert certified and min(values) > threshold


class TestLineCertificates:
    """A line certificate only ever says yes, and never wrongly."""

    @settings(deadline=None, max_examples=80)
    @given(polynomial_tuples(3))
    def test_products_never_certified(self, polys):
        g, h, k = polys
        assert not poly.certify_irreducible(g * h)
        assert not poly.certify_separable(g * g * h)
        assert not poly.certify_coprime(g * h, g * k)

    @settings(deadline=None, max_examples=80)
    @given(polynomial_tuples(2))
    @example((parse_polynomial("x1^2 + x2^2 + 1", 2), parse_polynomial("x1 - 2x2", 2)))
    def test_settled_verdicts_agree_with_sympy(self, polys):
        f, g = polys
        expr = f.primitive_part().to_sympy()
        if poly.certify_irreducible(f):
            _, factors = sympy.factor_list(expr)
            assert [m for base, m in factors if not base.is_number] == [1]
        if poly.certify_separable(f):
            common = expr
            for x in expr.free_symbols:
                common = sympy.gcd(common, sympy.diff(expr, x))
            assert common.is_number
        if poly.certify_coprime(f, g):
            assert sympy.gcd(f.to_sympy(), g.to_sympy()).is_number
