"""Exact counting of prime, square-free, and joint prime polynomial values.

The lattice points are enumerated on the chunked grid ``poly.grid_chunks``
(at most ``poly.RESIDUE_CHUNK`` points a chunk), vectorised with numpy;
every thread count sums the same chunks, and threads pull them a few at a
time, so memory stays bounded.  A fast int64 path is used whenever an
a-priori bound on |f| over the scaled box certifies that no overflow can
occur.  Membership tests then read a table from one windowed sieve
(``_sieve_bools``), sized to the value range [min f, max f] (of |f| for
square-freeness) certified by interval arithmetic over the lattice box.
When the table's sieve entries (the window plus the base primes up to the
square root of its largest value) would cost more than testing each lattice
value, or exceed ``TABLE_LIMIT``, each distinct value is tested instead; a
prime verdict above ``MR_DETERMINISTIC_LIMIT`` is only probable and leaves
its point undecided.  The same sieve gives ``primes_upto``,
``primes_in_interval`` and ``squarefree_table``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .intervals import interval_eval
from .poly import Box, MultiPoly, PolynomialError, grid_chunks


class BudgetExceededError(RuntimeError):
    """An enumeration or factorisation budget was exceeded."""


class SquarefreeUnknownError(BudgetExceededError):
    """Factorisation budget exceeded; square-freeness undecided."""


# ---------------------------------------------------------------------------
# Primes and sieves
# ---------------------------------------------------------------------------

#: first 13 primes; deterministic Miller-Rabin certificate below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_DIVISION_LIMIT = 10**6

#: Pollard-rho iterations per cofactor before square-freeness is undecided
_RHO_ITERATIONS = 10**6


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime_certified(m: int) -> tuple[bool, bool]:
    """(verdict, certified).  Deterministic below MR_DETERMINISTIC_LIMIT."""
    m = int(m)
    if m <= 1:
        return False, True
    if m < 4:
        return True, True
    if m % 2 == 0:
        return False, True
    certified = m < MR_DETERMINISTIC_LIMIT
    if certified:
        bases = [a for a in _MR_BASES if a < m]
    else:
        rng = random.Random(m % (2**32))
        bases = list(_MR_BASES) + [
            rng.randrange(2, m - 1) for _ in range(64 - len(_MR_BASES))
        ]
    for a in bases:
        if _miller_rabin_witness(m, a):
            return False, True
    return True, certified


def is_prime(m: int) -> bool:
    """Exact for |m| below the 13-base deterministic Miller-Rabin bound."""
    return is_prime_certified(m)[0]


def _cross_out(lo: int, hi: int, primes: np.ndarray, squarefree: bool) -> np.ndarray:
    """Entries of [lo, hi] that survive crossing out, for every base prime p,
    the multiples of p^2 (``squarefree``) or the multiples of p other than p.

    A step longer than the window hits it at most once, so those primes are
    crossed out in one indexed store; the loop runs over the others only.
    """
    table = np.ones(max(0, hi - lo + 1), dtype=bool)
    steps = primes * primes if squarefree else primes
    firsts = lo + (-lo) % steps
    if squarefree:
        if lo <= 0 <= hi:
            table[-lo] = False
    else:
        firsts = np.maximum(firsts, steps * steps)
        table[: max(0, min(2 - lo, len(table)))] = False
    loop = steps <= len(table)
    for first, step in zip(firsts[loop].tolist(), steps[loop].tolist()):
        table[first - lo :: step] = False
    once = firsts[~loop]
    table[once[once <= hi] - lo] = False
    return table


def _sieve_bools(lo: int, hi: int, squarefree: bool = False) -> np.ndarray:
    """Membership table of the window [lo, hi], by segmented sieve.

    Entry ``m - lo`` is True iff m is prime or, with ``squarefree``, iff m is
    square-free (m and -m agree; 0 is not).  The base primes up to
    sqrt(max |m|) are sieved the same way over [0, sqrt(max |m|)], whose own
    base primes come from [0, its square root], and so on down to [0, 3].
    """
    lo, hi = int(lo), int(hi)
    roots = [math.isqrt(max(abs(lo), abs(hi)))]
    while roots[-1] > 3:
        roots.append(math.isqrt(roots[-1]))
    primes = np.empty(0, dtype=np.int64)
    for root in reversed(roots):
        primes = np.flatnonzero(_cross_out(0, root, primes, False))
    return _cross_out(lo, hi, primes, squarefree)


def primes_upto(n: int) -> np.ndarray:
    """Primes in [0, n], ascending."""
    return np.flatnonzero(_sieve_bools(0, n))


def primes_in_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], ascending, by segmented sieve."""
    lo, hi = max(int(lo), 0), int(hi)
    if hi - lo > 10**9:
        raise BudgetExceededError("interval longer than 1e9")
    return lo + np.flatnonzero(_sieve_bools(lo, hi))


def squarefree_table(limit: int) -> np.ndarray:
    """Boolean table: index m is True iff m is square-free (0 is not)."""
    return _sieve_bools(0, limit - 1, squarefree=True)


@cache
def _trial_primes() -> tuple[int, ...]:
    """The primes below 1e6 that ``is_squarefree`` divides by.  The list is
    fixed, so it is built once per process."""
    return tuple(primes_upto(_TRIAL_DIVISION_LIMIT).tolist())


# ---------------------------------------------------------------------------
# Square-free detection for individual integers
# ---------------------------------------------------------------------------


def _pollard_brent(n: int, rng: random.Random) -> int | None:
    """A nontrivial factor of composite n, or None if the budget runs out."""
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g, r, q = 1, 1, 1
    x = ys = y
    count = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            count += m
            if count > _RHO_ITERATIONS:
                return None
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
            count += 1
            if count > _RHO_ITERATIONS:
                return None
    return g if g != n else None


def _certified_prime(v: int) -> bool:
    """``is_prime(v)``, raising SquarefreeUnknownError where the verdict
    is only probable (v at or above ``MR_DETERMINISTIC_LIMIT``)."""
    if not is_prime(v):
        return False
    if v >= MR_DETERMINISTIC_LIMIT:
        raise SquarefreeUnknownError(f"{v} is only a probable prime")
    return True


def is_squarefree(m: int) -> bool:
    """m is square-free.  0 is not; m and -m agree.

    Trial division to 1e6, then Pollard's rho (Brent variant) on the
    remaining cofactor.  Raises SquarefreeUnknownError if the factorisation
    budget is exhausted or a cofactor is only a probable prime, never
    guesses.
    """
    m = abs(int(m))
    if m == 0:
        return False
    if m == 1:
        return True
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
    if m == 1:
        return True
    # remaining cofactor has all prime factors > 1e6
    s = math.isqrt(m)
    if s * s == m:
        return False
    if m < _TRIAL_DIVISION_LIMIT**3:
        # at most two prime factors, not a square, hence square-free
        return True
    if _certified_prime(m):
        return True
    rng = random.Random(m % (2**32))
    stack = [m]
    prime_factors: list[int] = []
    while stack:
        v = stack.pop()
        if _certified_prime(v):
            if v in prime_factors:
                return False
            prime_factors.append(v)
            continue
        sv = math.isqrt(v)
        if sv * sv == v:
            return False
        factor = _pollard_brent(v, rng)
        if factor is None:
            raise SquarefreeUnknownError(f"could not factor {v}")
        if v // factor == factor:
            return False
        stack.extend([factor, v // factor])
    return True


# ---------------------------------------------------------------------------
# Lattice counting
# ---------------------------------------------------------------------------

#: most sieve entries (window plus base-prime range) of one membership
#: table held in memory; a larger table is never built
TABLE_LIMIT = 2 * 10**8

#: sieve entries that cost about one value test, per mode: ~13.5 ns per
#: entry against ~12 us per ``is_prime`` call; a square-free entry (only
#: multiples of p^2 are crossed out) costs ~2 ns against ~0.7 ms per
#: ``is_squarefree`` call on values past 10^12, which trial-divide to 10^6
_ENTRIES_PER_TEST = {"prime": 1000, "joint": 1000, "squarefree": 300_000}

#: int64 is safe when |f| provably stays below this
_INT64_SAFE = 2**62


def _fits_int64(polys: Sequence[MultiPoly], ranges: list[range]) -> bool:
    """Whether the coordinates and every polynomial provably stay below
    ``_INT64_SAFE`` in absolute value on the integer box spanned by
    ``ranges``."""
    radius = [max(abs(r.start), abs(r.stop - 1)) for r in ranges]
    return max(radius) < _INT64_SAFE and all(
        g.abs_bound(radius) < _INT64_SAFE for g in polys
    )


@dataclass
class CountResult:
    count: int
    lattice_points: int
    unknown_values: int = 0


def _value_window(
    f: MultiPoly, ranges: list[range], squarefree: bool
) -> tuple[int, int]:
    """Certified integer bounds [lo, hi] of f, or of |f| when ``squarefree``,
    over the integer box spanned by ``ranges``."""
    lo, hi = interval_eval(f, [(r.start, r.stop - 1) for r in ranges])
    lo, hi = math.floor(lo), math.ceil(hi)
    if squarefree:
        lo, hi = max(lo, -hi, 0), max(hi, -lo)
    return lo, hi


def _count_chunk(
    polys: list[MultiPoly],
    coords: list[np.ndarray],
    mode: str,
    tables: list[tuple[int, np.ndarray]] | None,
    int64_safe: bool,
) -> tuple[int, int]:
    """(count, undecided) over one grid chunk; ``tables`` holds (lo, table)
    per polynomial, with entry v - lo the verdict on value v.  Without
    tables each distinct value is tested; a point is undecided when no
    value rules it out and some verdict is not certain: a factorisation
    out of budget, or a prime verdict at or above
    ``MR_DETERMINISTIC_LIMIT``, which is only probable."""
    if not int64_safe:
        coords = [c.astype(object) for c in coords]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    ok = np.ones(shape, dtype=bool)
    # table verdicts are certain, so only the per-value path keeps a mask
    if tables is None:
        undecided = np.zeros(shape, dtype=bool)
    for idx, f in enumerate(polys):
        vals = f.evaluate_array(coords)
        if mode == "squarefree":
            vals = abs(vals)
        if tables is not None:
            lo, table = tables[idx]
            index = vals - lo
            if index.min() < 0 or index.max() >= len(table):
                raise ArithmeticError("a lattice value lies outside its certified window")
            ok &= table[index]
            continue
        uniq, inverse = np.unique(np.asarray(vals).ravel(), return_inverse=True)
        verdicts = np.zeros(len(uniq), dtype=bool)
        unsure = np.zeros(len(uniq), dtype=bool)
        for j, u in enumerate(uniq.tolist()):
            if mode == "squarefree":
                try:
                    verdicts[j] = is_squarefree(u)
                except SquarefreeUnknownError:
                    verdicts[j] = unsure[j] = True
            else:
                verdicts[j] = u > 1 and is_prime(u)
                unsure[j] = verdicts[j] and u >= MR_DETERMINISTIC_LIMIT
        ok &= verdicts[inverse].reshape(shape)
        undecided |= unsure[inverse].reshape(shape)
    if tables is not None:
        return int(ok.sum()), 0
    return int((ok & ~undecided).sum()), int((ok & undecided).sum())


def _map_lazily(work, items, threads: int):
    """``work(item)`` for every item, in order.  With ``threads > 1`` a pool
    runs them, pulling at most ``2 * threads`` items ahead of the results
    (``ThreadPoolExecutor.map`` would pull every item first)."""
    if threads == 1:
        yield from map(work, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(work, item))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def count_values(
    f: MultiPoly | Sequence[MultiPoly],
    box: Box,
    P: int,
    mode: str,
    budget: int = 10**9,
    threads: int = 1,
) -> CountResult:
    """Exact count of lattice points of P*box where f takes prime /
    square-free / jointly prime values."""
    polys = list(f) if isinstance(f, (list, tuple)) else [f]
    if mode not in ("prime", "squarefree", "joint"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "joint":
        if len(set(polys)) != len(polys):
            raise ValueError("joint mode requires pairwise-distinct polynomials")
    elif len(polys) != 1:
        raise ValueError(f"{mode} mode takes a single polynomial")
    n = polys[0].n_vars
    if box.n_dims != n:
        raise PolynomialError("box dimension does not match polynomial")
    ranges = box.lattice_ranges(P)
    lattice_points = box.lattice_point_count(P)
    if lattice_points == 0:
        return CountResult(0, 0)
    if lattice_points > budget:
        raise BudgetExceededError(
            f"{lattice_points} lattice points exceed budget {budget}"
        )

    int64_safe = _fits_int64(polys, ranges)
    tables: list[tuple[int, np.ndarray]] | None = None
    if int64_safe:
        squarefree = mode == "squarefree"
        windows = [_value_window(g, ranges, squarefree) for g in polys]
        # sieve when a table costs less than testing every lattice value
        limit = min(TABLE_LIMIT, _ENTRIES_PER_TEST[mode] * lattice_points)
        if all(
            hi - lo + 1 + math.isqrt(max(abs(lo), abs(hi))) + 1 <= limit
            for lo, hi in windows
        ):
            tables = [(lo, _sieve_bools(lo, hi, squarefree)) for lo, hi in windows]

    def work(coords) -> tuple[int, int]:
        return _count_chunk(polys, coords, mode, tables, int64_safe)

    chunks = (coords for _, coords in grid_chunks(ranges))
    count = unknown = 0
    for chunk_count, chunk_unknown in _map_lazily(work, chunks, threads):
        count += chunk_count
        unknown += chunk_unknown
    return CountResult(count, lattice_points, unknown)
