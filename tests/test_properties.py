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
    fixed_prime_divisors,
    integrate_box,
    is_prime,
    is_prime_certified,
    is_squarefree,
    orthogonality_count,
    oscillatory_integral,
    parse_polynomial,
    primes_upto,
    residue_histogram,
    s_alpha,
    value_range,
)
from polydensity import counting, expsums, integrals, intervals, poly, quadrature
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


@st.composite
def forms_mod_p2(draw):
    """Separable and non-separable forms in at most 3 variables, some with a
    variable in no monomial and some with a constant term."""
    f = draw(st.one_of(separable_polynomials(), polynomials(max_degree=3)))
    terms = f.terms
    n = f.n_vars
    if n < 3 and draw(st.booleans()):
        k = draw(st.integers(0, n))
        terms = {e[:k] + (0,) + e[k:]: c for e, c in terms.items()}
        n += 1
    zero = (0,) * n
    terms[zero] = terms.get(zero, 0) + draw(st.integers(-20, 20))
    assume(any(terms.values()))
    return MultiPoly(n, terms)


def brute_histogram(f, q):
    values = [
        f.evaluate_mod(x, q) for x in itertools.product(range(q), repeat=f.n_vars)
    ]
    return np.bincount(values, minlength=q)


@st.composite
def block_forms(draw):
    """Forms of one degree in at most 4 variables, whose terms fall in
    random groups of the variables; some variables are in no group, and
    groups of one size may share their terms, so that blocks repeat."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    groups = [[i for i in range(n) if labels[i] == g] for g in range(3)]
    coeffs = st.integers(-3, 3).filter(lambda c: c != 0)
    shared: dict[int, dict] = {}
    repeat = draw(st.booleans())
    terms = {}
    for group in filter(None, groups):
        local = [
            e for e in itertools.product(range(d + 1), repeat=len(group))
            if sum(e) == d
        ]
        picked = draw(st.lists(st.sampled_from(local), min_size=1, max_size=3))
        own = {e: draw(coeffs) for e in picked}
        own = shared.setdefault(len(group), own) if repeat else own
        for e, c in own.items():
            exps = [0] * n
            for i, k in zip(group, e):
                exps[i] = k
            terms[tuple(exps)] = c
    assume(terms)
    return MultiPoly(n, terms)


small_primes = st.sampled_from([2, 3, 5, 7, 11])
#: int64 coordinates within 64 of +-2^15, +-2^31 or +-2^62, where values of
#: polynomials() draws cross 2^62
near_int64_edges = st.builds(
    lambda edge, sign, offset: sign * edge + offset,
    st.sampled_from([2**15, 2**31, 2**62]),
    st.sampled_from([1, -1]),
    st.integers(-64, 64),
)


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

    @settings(deadline=None)
    @given(
        polynomials(),
        st.lists(
            st.lists(near_int64_edges, min_size=3, max_size=3), min_size=1, max_size=4
        ),
        st.none() | st.integers(2, 2**40),
    )
    @example(parse_polynomial("x1^2", 1), [[2**32 + 14] * 3], 2**32 + 15)
    @example(parse_polynomial("x1^2", 1), [[2**31 - 1] * 3, [-(2**31)] * 3], None)
    def test_array_exact_across_int64_boundary(self, f, points, modulus):
        points = [x[: f.n_vars] for x in points]
        coords = [np.array(column, dtype=np.int64) for column in zip(*points)]
        got = f.evaluate_array(coords, modulus).tolist()
        if modulus is None:
            assert got == [f.evaluate_int(x) for x in points]
        else:
            assert got == [f.evaluate_mod(x, modulus) for x in points]

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


@st.composite
def fixed_divisor_candidates(draw):
    """Content-1 polynomials in at most 3 variables with exponents up to 12,
    built so that a small prime p often divides every value: pairs
    c x^a - c x^b where b shifts an exponent e >= 1 of a by a multiple of
    p - 1 (Fermat: x^(e + p - 1) = x^e on F_p), multiples of p, and maybe
    one free term that breaks the pattern."""
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    monomials = st.tuples(*[st.integers(0, 12)] * n)
    terms = {}

    def add(exps, c):
        terms[exps] = terms.get(exps, 0) + c

    for _ in range(draw(st.integers(0, 3))):
        a = draw(monomials)
        i = draw(st.integers(0, n - 1))
        e = a[i] + (p - 1) * draw(st.integers(1, 3))
        if a[i] >= 1 and e <= 12:
            c = draw(st.integers(-5, 5))
            add(a, c)
            add(a[:i] + (e,) + a[i + 1 :], -c)
    for _ in range(draw(st.integers(0, 3))):
        add(draw(monomials), p * draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        add(draw(monomials), draw(st.integers(-20, 20)))
    terms = {e: c for e, c in terms.items() if c}
    assume(terms)
    content = math.gcd(*terms.values())
    return MultiPoly(n, {e: c // content for e, c in terms.items()})


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

    @settings(deadline=None, max_examples=60)
    @given(forms_mod_p2(), st.sampled_from([2, 3, 5, 7]))
    @example(parse_polynomial("x1^2 + x2^2 + x3^2", 3), 2)
    @example(parse_polynomial("x1^3 + x2^3 + 1", 2), 3)
    @example(parse_polynomial("x1^3 - x2^3 + 3x3^3", 3), 3)
    @example(parse_polynomial("x1*x2 + x3^2 - 4", 3), 5)
    @example(parse_polynomial("x2^2 + 7", 3), 7)
    @example(parse_polynomial("49", 2), 7)
    def test_count_mod_p2_matches_brute_force(self, f, p):
        # p = 2 on squares and p = 3 on cubes: every point of a block is
        # critical, so the whole block's values are combined; 5-point
        # chunks fold a block's critical values over several chunks
        q = p * p
        grid = np.meshgrid(*[np.arange(q)] * f.n_vars, indexing="ij", sparse=True)
        zeros = np.count_nonzero(f.evaluate_array(grid, modulus=q) == 0)
        assert count_zeros_mod(f, q) == zeros
        with mock.patch.object(poly, "RESIDUE_CHUNK", 5):
            assert count_zeros_mod(f, q) == zeros


    @settings(deadline=None, max_examples=100)
    @given(fixed_divisor_candidates())
    @example(parse_polynomial("x1^3 - x1", 1))
    @example(parse_polynomial("x1^12 - x1^2", 1))
    @example(parse_polynomial("x1^2 x2^7 - x1^8 x2 + 2", 2))
    def test_fixed_divisors_match_zero_counts(self, f):
        # p divides every value iff f vanishes on all p^n residues; every
        # fixed divisor of a content-1 polynomial is at most its degree
        swept = {
            p
            for p in map(int, primes_upto(f.degree))
            if count_zeros_mod(f, p) == p**f.n_vars
        }
        assert fixed_prime_divisors(f) == swept

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


class TestSigmaInvariants:
    @settings(deadline=None, max_examples=40)
    @given(block_forms())
    @example(parse_polynomial("(x1 - x2)^2 + x3^2", 3))
    @example(parse_polynomial("x1^2", 2))
    @example(parse_polynomial("x1^3 + x2^3 + x3^3 + x4^3", 4))
    @example(parse_polynomial("x1x2 + x3x4", 4))
    def test_block_counts_match_whole_gradient(self, f0):
        # p^free times the blocks' common-zero counts equals the common
        # zeros of the whole gradient over F_p^n, also where p divides a
        # partial's coefficient (x^3 at p = 3); 5-point chunks split sweeps
        grad = [g for g in f0.gradient() if g is not None]
        primes = [3, 5, 7]
        brute = [
            sum(
                all(g.evaluate_mod(x, p) == 0 for g in grad)
                for x in itertools.product(range(p), repeat=f0.n_vars)
            )
            for p in primes
        ]
        assert poly._gradient_zero_counts(f0, primes) == brute
        with mock.patch.object(poly, "RESIDUE_CHUNK", 5):
            assert poly._gradient_zero_counts(f0, primes) == brute


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
    @given(st.one_of(st.integers(-10, 10**4), st.integers(10**4, 10**12)))
    @example(2046)
    @example(2047)
    @example(1373653)
    @example(25326001)
    @example(3215031751)
    @example(2152302898747)
    def test_graded_bases_match_sympy(self, m):
        assert is_prime_certified(m) == (sympy.isprime(m), True)

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


def plain_crossing_out(lo, hi, squarefree):
    """Prime or square-free table of [lo, hi] by crossing out multiples of
    each prime p <= sqrt(max |m|) one at a time, padded with False to a
    whole number of bytes as the packed sieve stores it."""
    width = hi - lo
    root = math.isqrt(max(abs(lo), abs(hi)))
    expected = np.zeros(-(-(width + 1) // 8) * 8, dtype=bool)
    expected[: width + 1] = True
    for p in (p for p in range(2, root + 1) if is_prime(p)):
        step = p * p if squarefree else p
        first = lo + (-lo) % step
        if not squarefree:
            first = max(first, p * p)  # p itself is prime
        expected[first - lo : width + 1 : step] = False
    if squarefree and lo <= 0 <= hi:
        expected[-lo] = False
    if not squarefree:
        expected[: max(0, min(2 - lo, width + 1))] = False
    return expected


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
        # the members are read 64 table entries at a time, across slice ends,
        # by _set_entries and by the Q sum alike
        hi = lo + width
        test = is_squarefree if squarefree else is_prime
        expected = [m for m in range(lo, hi + 1) if test(m)]
        bits = counting._sieve_bools(lo, hi, squarefree)
        with mock.patch.object(poly, "RESIDUE_CHUNK", 64):
            members = counting._set_entries(bits, lo)
            q = expsums.q_alpha_interval(lo, hi, 0.1) if squarefree else 0j
        table = np.unpackbits(bits, bitorder="little")
        assert len(bits) == -(-(width + 1) // 8)
        assert np.flatnonzero(table).tolist() == [m - lo for m in expected]
        assert members.tolist() == expected
        if squarefree:
            want = sum(np.exp(2j * np.pi * 0.1 * m) for m in expected)
            assert abs(q - want) < 1e-9 * (width + 1)

    @settings(deadline=None, max_examples=40)
    @given(
        st.one_of(
            st.sampled_from([0, 1, 2, 7]),
            st.integers(-(10**4), 10**9),
            st.integers(10**8 - 10**6, 10**8 + 10**6),
        ),
        st.one_of(st.integers(44_101, 200_000), st.integers(10**5, 10**6)),
        st.booleans(),
    )
    @example(0, 44_101, True)
    @example(1, 88_203, False)
    @example(2, 10**6 + 3, True)
    @example(7, 10**5 + 1, False)
    @example(10**8, 10**6 - 1, True)
    @example(10**8 + 1, 10**5 + 6, False)
    def test_packed_writer_matches_members(self, lo, width, squarefree):
        # windows past one wheel period; near 10^8 the base primes fall on
        # both sides of the split between strided ANDs and ufunc.at rounds.
        # The unpacked table is 8 * len(bits) long, so padding bits must be 0
        hi = lo + width - 1
        bits = counting._sieve_bools(lo, hi, squarefree)
        expected = plain_crossing_out(lo, hi, squarefree)
        table = np.unpackbits(bits, bitorder="little")
        assert len(bits) == -(-width // 8)
        assert np.array_equal(table.view(bool), expected)
        members = counting._set_entries(bits, lo)
        assert np.array_equal(members, lo + np.flatnonzero(expected))

    @settings(deadline=None, max_examples=60)
    @given(
        st.one_of(
            st.integers(-(10**6), 10**6),
            st.builds(
                lambda k, d: k * 44100 + d, st.integers(-20, 20), st.integers(-9, 9)
            ),
        ),
        st.one_of(st.integers(0, 300), st.integers(44101, 100000)),
        st.booleans(),
    )
    @example(-10, 20, False)
    @example(-7, 0, False)
    @example(0, 10, False)
    @example(44100 * 3 - 5, 10, True)
    @example(-50000, 100000, True)
    @example(0, 44099, True)
    @example(0, 0, True)
    def test_wheel_matches_plain_crossing_out(self, lo, width, squarefree):
        # windows with negative lo and across wheel period ends
        hi = lo + width
        table = np.unpackbits(counting._sieve_bools(lo, hi, squarefree), bitorder="little")
        assert np.array_equal(table.view(bool), plain_crossing_out(lo, hi, squarefree))

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


@st.composite
def symmetric_counts(draw):
    """(polys, box, k, unequal, mode): ``k`` copies of one block form in one
    or two variables (a two-variable block has an ``x1 x2`` term), with a
    constant, maybe a distinct one-variable block and a free variable, in a
    drawn variable order, on unit-scale integer intervals at most 3 points
    wide that are equal across the copies unless ``unequal`` widens the
    last copy's first axis.  In joint mode the partner is the form plus a
    constant, so every copy stays exchangeable."""
    s = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4 if s == 1 else 2))
    coeffs = st.integers(-3, 3).filter(lambda c: c != 0)
    monomials = [(d,) for d in range(1, 4)] if s == 1 else [
        (1, 0), (0, 1), (2, 0), (0, 2), (2, 1), (1, 2)
    ]
    block = {(1,) * s: draw(coeffs)} if s == 2 else {}
    for e in draw(st.lists(st.sampled_from(monomials), max_size=2, unique=True)):
        block[e] = draw(coeffs)
    if not block:
        block[(draw(st.integers(1, 3)),)] = draw(coeffs)
    extra = draw(st.booleans())
    free = draw(st.integers(0, 1))
    n = s * k + extra + free
    order = draw(st.permutations(range(n)))
    terms = {(0,) * n: draw(st.integers(-5, 5))}
    for copy in range(k + extra):
        for e, c in (block.items() if copy < k else {(1,): 2, (3,): 1}.items()):
            exps = [0] * n
            for j, power in enumerate(e):
                exps[order[copy * s + j]] = power
            terms[tuple(exps)] = c
    f = MultiPoly(n, terms)
    corners = [draw(st.integers(-3, 3)) for _ in range(n)]
    widths = [draw(st.integers(0, 2)) for _ in range(n)]
    for copy in range(1, k):
        for j in range(s):
            corners[copy * s + j], widths[copy * s + j] = corners[j], widths[j]
    unequal = k > 1 and draw(st.booleans())
    if unequal:
        widths[(k - 1) * s] += 1
    axes = [None] * n
    for i in range(n):
        axes[order[i]] = (corners[i], corners[i] + widths[i])
    mode = draw(st.sampled_from(["prime", "squarefree", "joint"]))
    shift = MultiPoly(n, {(0,) * n: draw(st.integers(1, 4))})
    polys = [f, f + shift] if mode == "joint" else [f]
    return polys, Box(axes), k, unequal, mode


def brute_count(polys, box, P, mode):
    """(count, undecided) over every lattice point, one value test each."""
    count = unknown = 0
    for x in itertools.product(*box.lattice_ranges(P)):
        values = [f.evaluate_int(x) for f in polys]
        if mode == "squarefree":
            try:
                count += counting.is_squarefree(values[0])
            except counting.SquarefreeUnknownError:
                unknown += 1
        else:
            count += all(v > 1 and is_prime(v) for v in values)
    return count, unknown


def pair_layout_points(n, limit):
    """Points the orbit layout evaluates for two exchangeable one-axis
    blocks of n points each: tiles of ``side`` rows right of the diagonal
    band, each row group's band in chunks of at most ``limit // n`` rows
    that start at their first row's column."""
    side = math.isqrt(limit)
    outer = min(max(1, limit // min(side, n)), side)
    span = max(1, limit // n)
    points = 0
    for A in range(0, n, outer):
        B = min(n, A + outer)
        points += (B - A) * (n - B)
        a = A
        while a < B:
            b = min(B, a + max(1, limit // (B - a)), a + span)
            points += (b - a) * (B - a)
            a = b
    return points


def evaluated_points(polys, box, P, mode):
    """(result, points evaluated per polynomial) of one ``count_values``."""
    sizes = []
    real = MultiPoly.evaluate_array

    def record(f, coords, modulus=None):
        values = real(f, coords, modulus)
        sizes.append(values.size)
        return values

    with mock.patch.object(MultiPoly, "evaluate_array", record):
        result = count_values(polys, box, P, mode)
    return result, sum(sizes) // len(polys)


class TestOrbitCounting:
    @settings(deadline=None, max_examples=80)
    @given(symmetric_counts(), st.integers(1, 40))
    def test_orbit_count_matches_brute_force(self, case, limit):
        polys, box, k, unequal, mode = case
        brute = brute_count(polys, box, 1, mode)
        with mock.patch.object(poly, "RESIDUE_CHUNK", limit):
            table, evaluated = evaluated_points(polys, box, 1, mode)
            with mock.patch.object(counting, "TABLE_LIMIT", 0):
                per_value = count_values(polys, box, 1, mode)
        lattice_points = box.lattice_point_count(1)
        for got in (table, per_value):
            assert (got.count, got.unknown_values) == brute
            assert got.lattice_points == lattice_points
        assert evaluated <= lattice_points
        if k == 1 or (k == 2 and unequal):
            assert evaluated == lattice_points

    def test_non_invariant_joint_partner_evaluates_every_point(self):
        polys = [parse_polynomial("x1 + x2", 2), parse_polynomial("x1 + 2x2", 2)]
        box = Box([(0, 20)] * 2)
        with mock.patch.object(poly, "RESIDUE_CHUNK", 3 * 21):
            result, evaluated = evaluated_points(polys, box, 1, "joint")
            assert evaluated == 21 * 21
            assert (result.count, result.unknown_values) == brute_count(
                polys, box, 1, "joint"
            )
            # an invariant pair folds: x1 + x2 and x1 + x2 + 2.  Rows go in
            # groups of 7, whose bands go in chunks of 3, 3 and 1 rows; a
            # 3-row chunk masks the 3 points below its corner's diagonal
            polys = [polys[0], polys[0] + parse_polynomial("2", 2)]
            result, evaluated = evaluated_points(polys, box, 1, "joint")
            assert evaluated == pair_layout_points(21, 3 * 21) == 21 * 22 // 2 + 6 * 3
            assert (result.count, result.unknown_values) == brute_count(
                polys, box, 1, "joint"
            )

    def test_diagonal_four_squares_evaluates_one_point_per_multiset(self):
        f = parse_polynomial("x1^2 + x2^2 + x3^2 + x4^2", 4)
        box = Box([(1, 2)] * 4)
        result, evaluated = evaluated_points([f], box, 4, "prime")
        # one chunk: the 35 sorted triples (x1, x2, x3) times the columns
        # of x4, all five of them since the first row's largest entry is 4
        assert evaluated == 35 * 5
        assert (result.count, result.unknown_values) == brute_count([f], box, 4, "prime")

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from(["prime", "squarefree", "joint"]), st.integers(-9, 9))
    def test_exchangeable_pair_past_int64(self, mode, c):
        # object coordinates near 2^63; x1 + x2 - 2^64 stays in [-40, 40]
        f = parse_polynomial(f"x1 + x2 - {2**64} + {c}", 2)
        polys = [f, f + parse_polynomial("2", 2)] if mode == "joint" else [f]
        box = Box([(2**63 - 20, 2**63 + 20)] * 2)
        with mock.patch.object(poly, "RESIDUE_CHUNK", 3 * 41):
            result, evaluated = evaluated_points(polys, box, 1, mode)
            with mock.patch.object(counting, "TABLE_LIMIT", 0):
                per_value = count_values(polys, box, 1, mode)
        assert evaluated == pair_layout_points(41, 3 * 41) < 41 * 41
        brute = brute_count(polys, box, 1, mode)
        assert (result.count, result.unknown_values) == brute
        assert (per_value.count, per_value.unknown_values) == brute

    @settings(deadline=None, max_examples=40)
    @given(st.sets(st.integers(0, 60), max_size=12), st.integers(0, 3))
    def test_undecided_values_weighted_like_the_plain_path(self, undecided, shift):
        # per-value path with a stub that cannot decide the chosen values
        f = parse_polynomial(f"x1^2 + x2^2 + {shift}", 2)
        box = Box([(0, 5)] * 2)
        real = counting.is_squarefree

        def stub(m):
            if m in undecided:
                raise counting.SquarefreeUnknownError(f"stub {m}")
            return real(m)

        with mock.patch.object(counting, "is_squarefree", stub), mock.patch.object(
            counting, "TABLE_LIMIT", 0
        ):
            folded = count_values(f, box, 1, "squarefree")
            with mock.patch.object(counting, "_exchangeable_group", lambda *a: []):
                plain = count_values(f, box, 1, "squarefree")
            brute = brute_count([f], box, 1, "squarefree")
        assert (folded.count, folded.unknown_values) == brute
        assert (plain.count, plain.unknown_values) == brute


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
        for coords in chunks:
            assert len(coords) == len(ranges)
            grid = np.broadcast_arrays(*coords)
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


def homogeneous_forms(draw, variables, n, degree):
    """A nonzero form of ``degree`` in ``n`` variables whose monomials use
    only ``variables``, with coefficients in [-2, 2]."""
    monomials = [
        e
        for e in itertools.product(range(degree + 1), repeat=n)
        if sum(e) == degree and all(e[i] == 0 for i in range(n) if i not in variables)
    ]
    picked = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3))
    coeffs = st.integers(-2, 2).filter(lambda c: c != 0)
    return {e: draw(coeffs) for e in picked}


@st.composite
def oscillatory_cases(draw, separable):
    """(form, box, gamma): a form of degree <= 3 in n <= 3 variables that
    splits into several variable blocks or leaves a variable free
    (``separable``) or has one block holding every variable (otherwise), a
    rational box inside [-1, 1]^n and |gamma| <= 5.  The phase swing
    |gamma| (max f - min f) stays at most 12, which keeps the whole-box
    reference cheap."""
    n = draw(st.integers(1 if not separable else 2, 3))
    degree = draw(st.integers(1, 3))
    if separable:
        # each variable gets a block label; label 0 leaves it free
        labels = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        terms = {}
        for label in sorted(set(labels) - {0}):
            block = {i for i, l in enumerate(labels) if l == label}
            terms.update(homogeneous_forms(draw, block, n, degree))
        assume(terms)
    else:
        terms = homogeneous_forms(draw, set(range(n)), n, degree)
    f0 = MultiPoly(n, terms)
    blocks = f0.variable_blocks()[1]
    assume((len(blocks) == 1 and len(blocks[0][0]) == n) != separable)
    axes = []
    for _ in range(n):
        a = draw(st.fractions(-1, 1, max_denominator=4))
        axes.append((a, draw(st.fractions(a, 1, max_denominator=4))))
    box = Box(axes)
    gamma = draw(st.floats(-5, 5, allow_nan=False))
    lo, hi = value_range(f0, box)
    assume(abs(gamma) * float(hi - lo) <= 12)
    return f0, box, gamma


def whole_box_integral(f0, box, gamma):
    """I(B; gamma) by one integrate_box call over the whole box, with the
    pre-subdivision rule of oscillatory_integral."""
    lo, hi = value_range(f0, box)
    per_axis = max(1, math.ceil(abs(gamma) * float(hi - lo) / 2.5))
    per_axis = min(per_axis, max(1, math.floor(40_000 ** (1.0 / f0.n_vars))))
    return integrate_box(
        lambda grids: np.exp(2j * np.pi * gamma * f0.evaluate_array(grids)),
        [(float(a), float(b)) for a, b in box.intervals],
        integrals.OSCILLATORY_TOL,
        pre_subdivisions=per_axis,
        max_evaluations=20_000_000,
    )


@st.composite
def orthogonality_cases(draw):
    """(f, box, P): a positive form plus a constant in [-30, 2000] on a box
    inside [0, 3]^n, n <= 2, at most one unit wide per axis, and P <= 40.
    The constant moves the values off the W-interval of the form."""
    text, n = draw(
        st.sampled_from(
            [("x1", 1), ("2x1^2", 1), ("x1^2 + x2^2", 2), ("x1^2 + x1x2 + 2x2^2", 2)]
        )
    )
    constant = draw(st.integers(-30, 2000))
    f = parse_polynomial(f"{text} {'-' if constant < 0 else '+'} {abs(constant)}", n)
    axes = []
    for _ in range(f.n_vars):
        a = draw(st.fractions(0, 2, max_denominator=4))
        axes.append((a, draw(st.fractions(a, a + 1, max_denominator=4))))
    return f, Box(axes), draw(st.integers(1, 40))


def brute_smooth_length(n):
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class TestCircleMethodInvariants:
    @settings(deadline=None, max_examples=40)
    @given(oscillatory_cases(separable=True))
    def test_factorised_integral_matches_whole_box(self, case):
        f0, box, gamma = case
        parts = []

        def recorded(*args, **kwargs):
            parts.append(quadrature.integrate_box(*args, **kwargs))
            return parts[-1]

        with mock.patch.object(integrals, "integrate_box", recorded):
            got = oscillatory_integral(f0, box, gamma)
        whole = whole_box_integral(f0, box, gamma)
        assert got.converged and whole.converged
        gap = abs(got.value - whole.value)
        assert gap <= 2 * integrals.OSCILLATORY_TOL
        # a few ulps of the unit-sized products on top of both estimates
        assert gap <= got.abs_error_estimate + whole.abs_error_estimate + 1e-14
        # the reported error is the bound on the product of the blocks, where
        # blocks equal as polynomials on equal intervals share one integral
        blocks = f0.variable_blocks()[1]
        keys = [(g, Box(box.intervals[i] for i in variables)) for variables, g in blocks]
        shared = dict(zip(dict.fromkeys(keys), parts))
        assert len(shared) == len(parts)
        # a box of volume 0 integrates no block
        factors = [shared[key] for key in keys] if parts else []
        used = {i for variables, _ in blocks for i in variables}
        free = math.prod(
            float(b - a) for i, (a, b) in enumerate(box.intervals) if i not in used
        )
        bound = free * sum(
            part.abs_error_estimate
            * math.prod(
                abs(other.value) + other.abs_error_estimate
                for k, other in enumerate(factors)
                if k != j
            )
            for j, part in enumerate(factors)
        )
        assert math.isclose(got.abs_error_estimate, bound, rel_tol=1e-12)
        assert got.evaluations == sum(part.evaluations for part in parts)

    @settings(deadline=None, max_examples=25)
    @given(oscillatory_cases(separable=False))
    def test_one_block_is_integrated_whole(self, case):
        f0, box, gamma = case
        assert oscillatory_integral(f0, box, gamma) == whole_box_integral(
            f0, box, gamma
        )

    @settings(deadline=None, max_examples=40)
    @given(orthogonality_cases())
    @example((parse_polynomial("x1^2 + x2^2", 2), Box([(1, 2), (1, 2)]), 2))
    @example((parse_polynomial("x1", 1), Box([(2, 3)]), 10))
    def test_orthogonality_matches_direct_count(self, case):
        # the examples take FFT lengths 25 (odd) and 12 (even)
        f, box, P = case
        direct = count_values(f, box, P, mode="prime").count
        assert orthogonality_count(f, box, P) == direct

    def test_smooth_length_matches_search(self):
        for n in range(1, 5001):
            assert expsums._smooth_length(n) == brute_smooth_length(n)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3
        ),
        st.integers(-5, 5),
        st.data(),
    )
    def test_diagonal_s_alpha_matches_whole_sum(self, diagonal, constant, data):
        n = len(diagonal)
        terms = {}
        for i, (coeff, e) in enumerate(diagonal):
            if coeff:
                terms[tuple(e if j == i else 0 for j in range(n))] = coeff
        assume(terms)
        if constant:
            terms[(0,) * n] = constant
        f = MultiPoly(n, terms)
        box, _ = data.draw(lattice_boxes(n))
        P = data.draw(st.integers(1, 12))
        alpha = data.draw(st.floats(-2, 2, allow_nan=False))
        grid = np.meshgrid(*box.lattice_ranges(P), indexing="ij")
        whole = np.sum(np.exp(2j * np.pi * alpha * f.evaluate_array(grid)))
        got = s_alpha(f, box, P, alpha)
        assert abs(got - whole) <= 1e-9 * max(1, box.lattice_point_count(P))
