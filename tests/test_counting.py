"""Counting engine: primality, square-freeness, sieves, lattice counts."""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import sympy

from polydensity import (
    Box,
    MultiPoly,
    count_values,
    is_prime,
    is_prime_certified,
    is_squarefree,
    parse_polynomial,
    primes_in_interval,
    primes_upto,
    squarefree_table,
)
from polydensity import counting, poly
from polydensity.counting import BudgetExceededError


class TestPrimality:
    def test_small_values(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        assert is_prime(3)
        assert not is_prime(4)

    def test_agrees_with_sieve_to_10000(self):
        sieve = set(int(p) for p in primes_upto(10000))
        for m in range(10000):
            assert is_prime(m) == (m in sieve)

    def test_large_prime_and_composite(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime((2**31 - 1) * (2**31 + 11))

    def test_strong_pseudoprimes_rejected(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_certified_flag(self):
        value, certified = is_prime_certified(10**9 + 7)
        assert value and certified

    @pytest.mark.parametrize(
        "psi",
        [
            2047,
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            318665857834031151167461,
        ],
    )
    def test_each_grade_rejects_its_pseudoprime(self, psi):
        # psi is a strong pseudoprime to every base of the grade below it,
        # so it must be tested with the next grade's bases
        assert is_prime_certified(psi) == (False, True)
        assert is_prime_certified(psi - 2) == (sympy.isprime(psi - 2), True)


class TestSieves:
    def test_primes_upto(self):
        assert list(primes_upto(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert list(primes_upto(1)) == []

    def test_segment_matches_full_sieve(self):
        lo, hi = 10**6, 10**6 + 10**4
        seg = set(int(p) for p in primes_in_interval(lo, hi))
        ref = set(int(p) for p in sympy.primerange(lo, hi + 1))
        assert seg == ref

    def test_segment_small_start(self):
        assert list(primes_in_interval(0, 10)) == [2, 3, 5, 7]

    def test_squarefree_table(self):
        table = squarefree_table(1000)
        for m in range(1, 1000):
            expected = all(e < 2 for e in sympy.factorint(m).values())
            assert bool(table[m]) == expected

    def test_packed_sieve_memory(self):
        # the square-free table of x1^2 + x2^2 at P = 4000 is sieved straight
        # into its packed bytes; an unpacked 2^23-entry segment and its
        # packbits copy next to the table peak at 28.5 MiB here
        tracemalloc.start()
        try:
            bits = counting._sieve_bools(32_000_000, 128_000_000, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bits.nbytes + 4 * 2**20

    def test_trial_primes_built_once(self, monkeypatch):
        calls = []
        real = counting._segments

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        counting._trial_primes.cache_clear()
        monkeypatch.setattr(counting, "_segments", counted)
        for m in range(10**10, 4 * 10**10, 3 * 10**8):
            is_squarefree(m)
        assert len(calls) <= 1


class TestSquarefree:
    def test_zero_is_not_squarefree(self):
        assert not is_squarefree(0)

    def test_sign_symmetry(self):
        for m in (1, 2, 4, 12, 30, 49, 97, 360):
            assert is_squarefree(m) == is_squarefree(-m)

    def test_primes_are_squarefree(self):
        for p in (2, 3, 1000003, 2**61 - 1):
            assert is_squarefree(p)

    def test_probable_prime_undecided(self):
        # the Mersenne prime 2^89 - 1 lies above the deterministic bound
        with pytest.raises(counting.SquarefreeUnknownError):
            is_squarefree(2**89 - 1)

    def test_large_composites(self):
        p, q = 1000003, 1000033
        assert is_squarefree(p * q)
        assert not is_squarefree(p * p * q)
        assert not is_squarefree(4 * 10**18 + 4)  # divisible by 4

    def test_agrees_with_factorint(self):
        rng = np.random.default_rng(3)
        for m in rng.integers(1, 10**7, size=200):
            m = int(m)
            expected = all(e < 2 for e in sympy.factorint(m).values())
            assert is_squarefree(m) == expected


class TestCountValues:
    def setup_method(self):
        self.f = parse_polynomial("x1^2 + x2^2", 2)
        self.box = Box([(1, 2), (1, 2)])

    def test_prime_p1(self):
        # 4 lattice points: values 2, 5, 5, 8 -> primes 2, 5, 5
        res = count_values(self.f, self.box, 1, mode="prime")
        assert res.count == 3
        assert res.lattice_points == 4

    def test_prime_matches_brute(self):
        res = count_values(self.f, self.box, 30, mode="prime")
        brute = sum(
            1
            for x in range(30, 61)
            for y in range(30, 61)
            if sympy.isprime(x * x + y * y)
        )
        assert res.count == brute
        assert res.lattice_points == 31 * 31

    def test_squarefree_matches_brute(self):
        res = count_values(self.f, self.box, 25, mode="squarefree")
        brute = 0
        for x in range(25, 51):
            for y in range(25, 51):
                v = x * x + y * y
                if all(e < 2 for e in sympy.factorint(v).values()):
                    brute += 1
        assert res.count == brute

    def test_negative_values_not_prime(self):
        g = parse_polynomial("-x1 - 10", 1)
        res = count_values(g, Box([(1, 2)]), 10, mode="prime")
        assert res.count == 0

    def test_joint_twin_primes(self):
        f1 = parse_polynomial("x1", 1)
        f2 = parse_polynomial("x1 + 2", 1)
        res = count_values([f1, f2], Box([(1, 10)]), 10, mode="joint")
        twins = sum(
            1
            for x in range(10, 101)
            if sympy.isprime(x) and sympy.isprime(x + 2)
        )
        assert res.count == twins

    def test_empty_lattice(self):
        from fractions import Fraction

        box = Box([(Fraction(1, 10), Fraction(2, 10))])
        res = count_values(parse_polynomial("x1", 1), box, 1, mode="prime")
        assert res.count == 0
        assert res.lattice_points == 0

    def test_monotone_in_box(self):
        small = Box([(1, 2), (1, 2)])
        large = Box([(0, 3), (0, 3)])
        for P in (5, 11):
            a = count_values(self.f, small, P, mode="prime").count
            b = count_values(self.f, large, P, mode="prime").count
            assert b >= a

    def test_largest_exchangeable_group_folds(self):
        f = parse_polynomial("x1^2 + x2^2 + 2x3^2 + 2x4^2 + 2x5^2", 5)
        ranges = Box([(1, 2)] * 5).lattice_ranges(3)
        assert counting._exchangeable_group([f], ranges) == [(2,), (3,), (4,)]
        # two pairs: the tie goes to the pair with the larger block grid
        f = parse_polynomial("x1^2 + x2^2 + 2x3^2 + 2x4^2", 4)
        ranges = Box([(1, 2), (1, 2), (0, 2), (0, 2)]).lattice_ranges(3)
        assert counting._exchangeable_group([f], ranges) == [(2,), (3,)]
        ranges = Box([(1, 2), (1, 2), (0, 2), (0, 1)]).lattice_ranges(3)
        assert counting._exchangeable_group([f], ranges) == [(0,), (1,)]
        # x1 - x2 is not fixed by the swap
        f = parse_polynomial("x1 - x2", 2)
        assert counting._exchangeable_group([f], ranges[:2]) == []

    def test_threads_bit_identical(self):
        r1 = count_values(self.f, self.box, 200, mode="squarefree", threads=1)
        r4 = count_values(self.f, self.box, 200, mode="squarefree", threads=4)
        assert r1.count == r4.count
        assert r1.lattice_points == r4.lattice_points

    def test_slabs_do_not_depend_on_threads(self, monkeypatch):
        # x1^2 + 2x2^2 has no exchangeable blocks, so it counts on grid_chunks
        f = parse_polynomial("x1^2 + 2x2^2", 2)
        seen = {}
        real = counting.grid_chunks

        def record(ranges):
            for coords in real(ranges):
                size = math.prod(np.broadcast_shapes(*(c.shape for c in coords)))
                first = tuple(int(c.flat[0]) for c in coords)
                seen.setdefault(threads, []).append((size, first))
                yield coords

        monkeypatch.setattr(counting, "grid_chunks", record)
        monkeypatch.setattr(poly, "RESIDUE_CHUNK", 50 * 61)
        for threads in (1, 3):
            count_values(f, self.box, 60, mode="prime", threads=threads)
        assert seen[1] == seen[3] == [(50 * 61, (60, 60)), (11 * 61, (110, 60))]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunks_bounded_when_trailing_axes_exceed_limit(self, monkeypatch, threads):
        # 61 points per axis at P = 60; a limit of 40 fits not even one row
        f = parse_polynomial("x1^2 + 2x2^2", 2)
        expected = count_values(f, self.box, 60, mode="prime").count
        sizes = []
        real = MultiPoly.evaluate_array

        def record(f, coords, modulus=None):
            values = real(f, coords, modulus)
            sizes.append(values.size)
            return values

        monkeypatch.setattr(MultiPoly, "evaluate_array", record)
        monkeypatch.setattr(poly, "RESIDUE_CHUNK", 40)
        got = count_values(f, self.box, 60, mode="prime", threads=threads)
        assert got.count == expected
        assert sum(sizes) == 61 * 61
        assert max(sizes) <= 40

    def test_orbit_chunks_do_not_depend_on_threads(self, monkeypatch):
        seen = {}
        real = counting._orbit_chunks

        def record(ranges, group):
            for coords, weights in real(ranges, group):
                size = math.prod(np.broadcast_shapes(*(c.shape for c in coords)))
                first = tuple(int(c.flat[0]) for c in coords)
                seen.setdefault(threads, []).append((size, first, int(weights.sum())))
                yield coords, weights

        monkeypatch.setattr(counting, "_orbit_chunks", record)
        monkeypatch.setattr(poly, "RESIDUE_CHUNK", 40)
        for threads in (1, 3):
            count_values(self.f, self.box, 60, mode="prime", threads=threads)
        assert seen[1] == seen[3]
        assert max(size for size, _, _ in seen[1]) <= 40
        assert sum(size for size, _, _ in seen[1]) == 61 * 62 // 2

    @pytest.mark.parametrize(
        "limit, evaluated",
        [
            # the band along the diagonal goes one row at a time (40 // 61
            # rounds up to 1), so no point is masked: 61 * 62 / 2 orbits
            (40, 61 * 62 // 2),
            # the rows go in groups of 14 (isqrt(200)) whose bands go three
            # rows at a time (200 // 61): a 3-row chunk masks the 3 points
            # below the diagonal of its 3 x 3 corner, a 2-row chunk 1
            (200, 61 * 62 // 2 + 4 * (4 * 3 + 1) + (3 + 1)),
        ],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_orbit_chunks_bounded(self, monkeypatch, threads, limit, evaluated):
        brute = sum(
            1
            for x in range(60, 121)
            for y in range(60, 121)
            if sympy.isprime(x * x + y * y)
        )
        sizes = []
        real = MultiPoly.evaluate_array

        def record(f, coords, modulus=None):
            values = real(f, coords, modulus)
            sizes.append(values.size)
            return values

        monkeypatch.setattr(MultiPoly, "evaluate_array", record)
        monkeypatch.setattr(poly, "RESIDUE_CHUNK", limit)
        got = count_values(self.f, self.box, 60, mode="prime", threads=threads)
        assert (got.count, got.lattice_points) == (brute, 61 * 61)
        assert sum(sizes) == evaluated
        assert max(sizes) <= limit

    def test_value_outside_window_raises(self, monkeypatch):
        real = counting._value_window

        def too_narrow(*args):
            lo, hi = real(*args)
            return lo + 1, hi

        monkeypatch.setattr(counting, "_value_window", too_narrow)
        with pytest.raises(ArithmeticError):
            count_values(self.f, self.box, 5, mode="prime")

    def test_value_in_padding_bits_raises(self, monkeypatch):
        # [0, 9] packs into two bytes; 10 would read a padding bit of the second
        f = parse_polynomial("x1", 1)
        monkeypatch.setattr(counting, "_value_window", lambda *args: (0, 9))
        with pytest.raises(ArithmeticError):
            count_values(f, Box([(0, 10)]), 1, mode="prime")

    def test_squarefree_table_memory(self):
        # tracemalloc sees numpy's buffers.  A byte-per-entry table with
        # 2^21-point chunks peaks at 29.7 MiB here, the packed table with
        # 2^18-point chunks at 7.2 MiB
        count_values(self.f, self.box, 10, mode="squarefree")
        tracemalloc.start()
        try:
            res = count_values(self.f, self.box, 1000, mode="squarefree", threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.count == 553624
        assert peak < 16 * 2**20

    def test_budget_enforced(self):
        # about 5e11 orbits of (x1, x2)
        with pytest.raises(BudgetExceededError):
            count_values(self.f, self.box, 10**6, mode="prime")

    @pytest.mark.parametrize(
        "text, n, work",
        [
            # comb(12, 2) orbits of the exchangeable x1^2, x2^2
            ("x1^2 + x2^2", 2, 66),
            # the same orbits times the 11 points of x3
            ("x1^2 + x2^2 + x3^3", 3, 66 * 11),
            # nothing to fold
            ("x1^2 + 2x2^2", 2, 121),
        ],
        ids=["orbits", "orbits-times-others", "no-fold"],
    )
    def test_budget_counts_evaluated_points(self, monkeypatch, text, n, work):
        f = parse_polynomial(text, n)
        box = Box([(1, 2)] * n)
        monkeypatch.setattr(counting, "LATTICE_BUDGET", work)
        assert count_values(f, box, 10, mode="prime").lattice_points == 11**n
        monkeypatch.setattr(counting, "LATTICE_BUDGET", work - 1)
        with pytest.raises(BudgetExceededError, match=f"{work} lattice points"):
            count_values(f, box, 10, mode="prime")

    def test_nine_cubes_past_the_box_budget(self):
        # 11^9 = 2.4e9 lattice points, but comb(19, 9) = 92378 orbits; the
        # count is checked against the orbits listed independently
        f = parse_polynomial(" + ".join(f"x{i}^3" for i in range(1, 10)), 9)
        res = count_values(f, Box([(1, 2)] * 9), 10, mode="prime")
        assert res.lattice_points == 11**9
        expected = 0
        for orbit in itertools.combinations_with_replacement(range(10, 21), 9):
            if is_prime(sum(x**3 for x in orbit)):
                size = math.factorial(9)
                for m in collections.Counter(orbit).values():
                    size //= math.factorial(m)
                expected += size
        assert res.count == expected

    def test_orbit_rows_built_per_chunk(self):
        # x1^4 + ... + x25^4 on [1, 2]^25 at P = 10: comb(35, 25) = 1.8e8
        # orbits, within LATTICE_BUDGET.  A table of every row's 23 smaller
        # entries would hold comb(33, 23) * 23 = 2.1e9 int64s (17 GB); the
        # first chunk, of at most RESIDUE_CHUNK points, needs only its own
        f = parse_polynomial(" + ".join(f"x{i}^4" for i in range(1, 26)), 25)
        ranges = Box([(1, 2)] * 25).lattice_ranges(10)
        group = counting._exchangeable_group([f], ranges)
        assert len(group) == 25
        tracemalloc.start()
        try:
            coords, weights = next(counting._orbit_chunks(ranges, group))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.prod(np.broadcast_shapes(*(c.shape for c in coords))) <= poly.RESIDUE_CHUNK
        assert peak < 16 * 2**20

    def test_big_coefficient_path(self):
        # force values beyond int64: exercise the object-dtype fallback, on
        # values (~1e20) below the deterministic Miller-Rabin bound
        g = parse_polynomial("x1^5 + 2", 1)
        box = Box([(10**4, 10**4 + 200)])
        res = count_values(g, box, 1, mode="prime")
        brute = sum(
            1
            for x in range(10**4, 10**4 + 201)
            if sympy.isprime(x**5 + 2)
        )
        assert res.count == brute
        assert res.count > 0
        assert res.unknown_values == 0

    @pytest.mark.parametrize("mode", ["prime", "squarefree", "joint"])
    def test_far_box_takes_table_path(self, monkeypatch, mode):
        # the coordinates pass 2^63, so they are Python ints, but x1 - x2
        # stays in [-40, 40]: the certified window alone picks the table
        f = parse_polynomial("x1 - x2", 2)
        polys = [f, f + parse_polynomial("2", 2)] if mode == "joint" else f
        box = Box([(2**63 - 20, 2**63 + 20)] * 2)
        windows = []
        real = counting._sieve_bools

        def record(lo, hi, squarefree=False):
            windows.append((lo, hi))
            return real(lo, hi, squarefree)

        monkeypatch.setattr(counting, "_sieve_bools", record)
        table = count_values(polys, box, 1, mode)
        assert len(windows) == (2 if mode == "joint" else 1)
        monkeypatch.setattr(counting, "TABLE_LIMIT", 0)
        per_value = count_values(polys, box, 1, mode)
        test = is_squarefree if mode == "squarefree" else is_prime
        shifts = (0, 2) if mode == "joint" else (0,)
        brute = sum(
            41 - abs(d)
            for d in range(-40, 41)
            if all(test(d + s) for s in shifts)
        )
        assert table.count == per_value.count == brute > 0
        assert table.unknown_values == per_value.unknown_values == 0

    def test_probable_primes_undecided(self):
        # above MR_DETERMINISTIC_LIMIT a prime verdict is only probable
        g = parse_polynomial("x1^3 + 2", 1)
        box = Box([(150_000_000, 150_002_000)])
        assert 150_000_000**3 + 2 >= counting.MR_DETERMINISTIC_LIMIT
        res = count_values(g, box, 1, mode="prime")
        assert (res.count, res.unknown_values) == (0, 39)
        g = parse_polynomial("x1^9 + 2", 1)
        res = count_values(g, Box([(10**6, 10**6 + 200)]), 1, mode="prime")
        brute = sum(1 for x in range(10**6, 10**6 + 201) if sympy.isprime(x**9 + 2))
        assert (res.count, res.unknown_values) == (0, brute)

    def test_joint_undecided_points_counted_once(self):
        # x and x + 2 both above the bound: a twin pair is one undecided point
        limit = counting.MR_DETERMINISTIC_LIMIT
        x = parse_polynomial(f"x1 + {limit}", 1)
        y = parse_polynomial(f"x1 + {limit + 2}", 1)
        res = count_values([x, y], Box([(0, 3000)]), 1, mode="joint")
        twins = sum(
            1
            for v in range(limit, limit + 3001)
            if sympy.isprime(v) and sympy.isprime(v + 2)
        )
        assert twins > 0
        assert (res.count, res.unknown_values) == (0, twins)

    def test_lattice_box_past_int64(self):
        # coordinates past int64 count on the object-dtype path, as the
        # same values do when the constant sits in the polynomial
        limit = counting.MR_DETERMINISTIC_LIMIT
        twins = [parse_polynomial("x1", 1), parse_polynomial("x1 + 2", 1)]
        far = count_values(twins, Box([(limit, limit + 3000)]), 1, mode="joint")
        shifted = [parse_polynomial(f"x1 + {limit + c}", 1) for c in (0, 2)]
        near = count_values(shifted, Box([(0, 3000)]), 1, mode="joint")
        assert far.unknown_values > 0
        assert (far.count, far.unknown_values) == (near.count, near.unknown_values)
        # a polynomial free of the far coordinate counts on that path too
        f = parse_polynomial("x2", 2)
        res = count_values(f, Box([(2**63, 2**63 + 1), (0, 100)]), 1, mode="prime")
        assert (res.count, res.unknown_values) == (2 * 25, 0)

    def test_far_window_tests_each_value(self, monkeypatch):
        # a 2001-value window near 1e16 would sieve base primes up to 1e8
        twins = [parse_polynomial("x1", 1), parse_polynomial("x1 + 2", 1)]
        calls = []
        real = counting._sieve_bools

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "_sieve_bools", counted)
        near_box = Box([(10**4, 10**4 + 2000)])
        far_box = Box([(10**16, 10**16 + 2000)])
        near = count_values(twins, near_box, 1, mode="joint")
        assert len(calls) == 2  # one table per polynomial
        far = count_values(twins, far_box, 1, mode="joint")
        assert len(calls) == 2
        monkeypatch.setattr(counting, "TABLE_LIMIT", 0)
        assert near.count == count_values(twins, near_box, 1, mode="joint").count
        assert far.count == count_values(twins, far_box, 1, mode="joint").count
        assert far.count > 0

    def test_squarefree_path_by_cost(self, monkeypatch):
        # near 2e12 each is_squarefree call trial-divides to 1e6, so a
        # 1.6e8-entry table beats 1681 value tests; near 2e14 a 1.3e8-entry
        # table costs more than 16 value tests
        f = parse_polynomial("x1^2 + x2^2", 2)
        near = Box([(10**6, 10**6 + 40)] * 2)
        far = Box([(10**7, 10**7 + 3)] * 2)
        calls = []  # square-free tables; value tests sieve their trial primes
        real = counting._sieve_bools

        def counted(lo, hi, squarefree=False):
            calls.extend([(lo, hi)] if squarefree else [])
            return real(lo, hi, squarefree)

        monkeypatch.setattr(counting, "_sieve_bools", counted)
        table = count_values(f, near, 1, mode="squarefree")
        assert len(calls) == 1
        per_value = count_values(f, far, 1, mode="squarefree")
        assert len(calls) == 1
        with monkeypatch.context() as m:
            m.setattr(counting, "TABLE_LIMIT", 0)
            assert count_values(f, near, 1, mode="squarefree").count == table.count
        monkeypatch.setitem(counting._ENTRIES_PER_TEST, "squarefree", 10**9)
        assert count_values(f, far, 1, mode="squarefree").count == per_value.count
        assert len(calls) == 2

    def test_squarefree_unknown_marks_partial(self):
        # x^9 + 1 at x ~ 1e6 has ~1e36 cofactors that defeat the rho budget
        g = parse_polynomial("x1^9 + 1", 1)
        box = Box([(10**6, 10**6 + 30)])
        res = count_values(g, box, 1, mode="squarefree")
        assert res.unknown_values > 0
        assert res.count + res.unknown_values <= res.lattice_points
