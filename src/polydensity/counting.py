"""Exact counting of prime, square-free, and joint prime polynomial values.

The lattice points are enumerated on the chunked grid ``poly.grid_chunks``
(at most ``poly.RESIDUE_CHUNK`` points a chunk), vectorised with numpy;
every thread count sums the same chunks, and threads pull them a few at a
time, so memory stays bounded.  When permuting ``k`` equal variable blocks
fixes every polynomial and the box (``_exchangeable_group``), the chunks
come from ``_orbit_chunks`` instead: one point per orbit, the sorted tuples
``t_1 <= ... <= t_k`` of block points, weighted by the orbit's size
``k! / prod m_i!``; the largest such group is folded, and
``x1^2 + x2^2`` evaluates about half its lattice points, ``x1^2 + ... +
x4^2`` at P = 24 about a fifth.  ``MultiPoly.evaluate_array`` decides per
chunk whether the values are int64 or exact Python ints.  Membership tests
read a table from one windowed sieve (``_sieve_bools``), sized to the value
range [min f, max f] (of |f| for square-freeness) certified by interval
arithmetic over the lattice box.  The table costs one bit per entry and is
sieved in its packed bytes: it starts as the packed wheel, the crossing out
by 2, 3, 5 and 7 precomputed over one period (44100 entries for their
squares, 210 for the primes), and the larger base primes clear their bits
by strided ANDs or, when they hit the window only a few times, by
``np.bitwise_and.at``.  When the table's sieve entries (the window plus
the base primes up to the square root of its largest value) would cost
more than testing each lattice value, or exceed ``TABLE_LIMIT``, each
distinct value is tested instead; a prime verdict above
``MR_DETERMINISTIC_LIMIT`` is only probable and leaves its point
undecided.  The same writer makes every other table: the base primes of a
window are read from the table of [0, sqrt(max |m|)], and ``primes_upto``,
``primes_in_interval`` and ``squarefree_table`` unpack their tables.
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
from . import poly
from .poly import Box, MultiPoly, PolynomialError, _shift, grid_chunks


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

#: (bound, k): the first k primes as bases certify every odd m below the
#: bound, the least strong pseudoprime to all of them (OEIS A014233)
_MR_GRADES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (MR_DETERMINISTIC_LIMIT, 13),
)

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
    """(verdict, certified).  Deterministic below MR_DETERMINISTIC_LIMIT,
    with the fewest first primes as bases that certify m's size."""
    m = int(m)
    if m <= 1:
        return False, True
    if m < 4:
        return True, True
    if m % 2 == 0:
        return False, True
    certified = m < MR_DETERMINISTIC_LIMIT
    if certified:
        k = next(k for bound, k in _MR_GRADES if m < bound)
        bases = _MR_BASES[:k]
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


#: the primes whose crossing out is copied from a precomputed period
_WHEEL_PRIMES = (2, 3, 5, 7)


@cache
def _wheel(squarefree: bool) -> np.ndarray:
    """One period of the crossing out by the wheel primes: entry m is False
    iff p^2 divides m (``squarefree``) or p divides m for a wheel prime p.
    The period is the product of the steps, 44100 or 210."""
    steps = [p * p if squarefree else p for p in _WHEEL_PRIMES]
    pattern = np.ones(math.prod(steps), dtype=bool)
    for step in steps:
        pattern[::step] = False
    pattern.flags.writeable = False
    return pattern


def _tile(out: np.ndarray, pattern: np.ndarray, start: int) -> None:
    """Fill ``out`` with ``pattern`` repeated, beginning at ``pattern[start]``,
    in place."""
    n, period = len(out), len(pattern)
    head = min(n, period - start)
    body = (n - head) // period * period
    out[:head] = pattern[start : start + head]
    out[head : head + body].reshape(-1, period)[:] = pattern
    out[head + body :] = pattern[: n - head - body]


def _clearing_masks(entries: np.ndarray) -> np.ndarray:
    """The byte masks that clear the bits of table entries ``entries``."""
    return (0xFF ^ 1 << (entries & 7)).astype(np.uint8)


@cache
def _packed_wheel(squarefree: bool, r: int) -> np.ndarray:
    """:func:`_wheel` packed 8 entries a byte from entry r on: byte i holds
    the entries r + 8i .. r + 8i + 7 mod the period L.  The bytes repeat
    after L / gcd(8, L), and every window start m takes the stream of
    r = m mod gcd(8, L), so at most gcd(8, L) streams exist per mode."""
    pattern = _wheel(squarefree)
    repeats = 8 // math.gcd(8, len(pattern))
    stream = np.packbits(np.tile(np.roll(pattern, -r), repeats), bitorder="little")
    stream.flags.writeable = False
    return stream


def _sieve_bools(lo: int, hi: int, squarefree: bool = False) -> np.ndarray:
    """Bit-packed membership table of the window [lo, hi].

    Bit ``(m - lo) & 7`` of byte ``(m - lo) >> 3`` is True iff m is prime
    or, with ``squarefree``, iff m is square-free (m and -m agree; 0 is
    not), so the table takes ``ceil((hi - lo + 1) / 8)`` bytes; the padding
    bits of the last byte are 0.

    The table is sieved packed, from the packed wheel
    (:func:`_packed_wheel`) on.  A base prime's k-th hit and its (k + 8)-th
    lie 8 steps apart, exactly ``step`` bytes, on the same bit, so 8 ANDs
    over strided views, one per k mod 8, cross out every hit.  Such an AND
    costs about as much as ``np.bitwise_and.at`` clearing 20 to 60 bits
    (~0.6 us against ~10 to ~35 ns a bit on a 2-vCPU Xeon with numpy 2.4),
    so a prime takes the ANDs when each clears at least 16 bits.  The other
    primes clear their hits by ``np.bitwise_and.at``, a few hits of each
    prime per call, so that an index array holds at most as many entries as
    hits remain, and at most ``poly.RESIDUE_CHUNK`` or one per prime.
    """
    lo, hi = int(lo), int(hi)
    n = max(0, hi - lo + 1)
    bits = np.empty(-(-n // 8), dtype=np.uint8)
    share = math.gcd(8, len(_wheel(squarefree)))
    stream = _packed_wheel(squarefree, lo % share)
    # the stream byte holding entry lo: 8 * start = lo - lo % share mod the period
    start = (lo - lo % share) // share * pow(8 // share, -1, len(stream)) % len(stream)
    _tile(bits, stream, start)
    # the base primes p past the wheel, up to sqrt(max |m|) (none below 11),
    # cross out the multiples of p^2 (squarefree) or of p from p^2 on
    root = math.isqrt(max(abs(lo), abs(hi)))
    primes = np.empty(0, dtype=np.int64)
    if root > 10:
        primes = primes_upto(root)[len(_WHEEL_PRIMES) :]
    steps = primes * primes if squarefree else primes
    firsts = -lo % steps if squarefree else np.maximum(-lo % steps, steps * steps - lo)
    strided = steps <= len(bits) // 16
    hits = firsts[strided, None] + np.arange(8) * steps[strided, None]
    for row, masks, step in zip(
        (hits >> 3).tolist(), _clearing_masks(hits).tolist(), steps[strided].tolist()
    ):
        for byte, mask in zip(row, masks):
            view = bits[byte::step]
            view &= mask
    firsts, steps = firsts[~strided], steps[~strided]
    while (live := firsts < n).any():
        firsts, steps = firsts[live], steps[live]
        # as many hits of each prime as they have left on average
        left = int(((n - 1 - firsts) // steps + 1).sum())
        rounds = max(1, min(left, poly.RESIDUE_CHUNK) // len(firsts))
        hits = firsts[:, None] + np.arange(rounds) * steps[:, None]
        hits = hits[hits < n]
        np.bitwise_and.at(bits, hits >> 3, _clearing_masks(hits))
        firsts += rounds * steps
    if not squarefree:
        below = max(0, min(2 - lo, n))
        bits[: below >> 3] = 0
        if below & 7:
            bits[below >> 3] &= 0xFF << (below & 7) & 0xFF
        for p in _WHEEL_PRIMES:
            if lo <= p <= hi:
                bits[(p - lo) >> 3] |= 1 << ((p - lo) & 7)
    if n & 7:
        bits[-1] &= (1 << (n & 7)) - 1
    return bits


# perfbench/tracing.py wraps ``_sieve_bools`` as one span per count_values
# table; the other tables, base primes included, take this name unwrapped
_sieve = _sieve_bools

#: the set bits of each byte value
_BIT_COUNTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _member_slices(bits: np.ndarray, lo: int):
    """The members of the packed table ``bits`` of the window from ``lo``,
    ascending, one array per ``poly.RESIDUE_CHUNK`` unpacked entries, so a
    whole window is never unpacked at once."""
    step = max(1, poly.RESIDUE_CHUNK // 8)
    for start in range(0, len(bits), step):
        unpacked = np.unpackbits(bits[start : start + step], bitorder="little")
        members = np.flatnonzero(unpacked.view(bool))
        del unpacked  # before the next slice is unpacked
        members += lo + 8 * start
        yield members


def _set_entries(bits: np.ndarray, lo: int) -> np.ndarray:
    """The members of the packed table ``bits`` of the window from ``lo``,
    ascending, in an exact-size array."""
    out = np.empty(int(_BIT_COUNTS[bits].sum()), dtype=np.int64)
    filled = 0
    for members in _member_slices(bits, lo):
        out[filled : filled + len(members)] = members
        filled += len(members)
    return out


def primes_upto(n: int) -> np.ndarray:
    """Primes in [0, n], ascending."""
    return _set_entries(_sieve(0, n), 0)


def primes_in_interval(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], ascending."""
    lo, hi = max(int(lo), 0), int(hi)
    if hi - lo > 10**9:
        raise BudgetExceededError("interval longer than 1e9")
    return _set_entries(_sieve(lo, hi), lo)


def squarefree_table(limit: int) -> np.ndarray:
    """Boolean table: index m is True iff m is square-free (0 is not)."""
    bits = _sieve(0, limit - 1, squarefree=True)
    return np.unpackbits(bits, count=max(0, limit), bitorder="little").view(bool)


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
#: table; a larger table is never built.  Packed, a table holds at most
#: 25 MB
TABLE_LIMIT = 2 * 10**8

#: most lattice points (one per orbit when blocks fold) one count evaluates
LATTICE_BUDGET = 10**9

#: sieve entries that cost about one value test, per mode.  A prime entry
#: of the wheel-presieved packed table costs ~2.4 ns (a 10^7-entry window
#: near 10^8) to ~10 ns (near 10^12, where the window crosses out 78498 base
#: primes) against ~9.4 us per ``is_prime`` call near 10^12, a ratio of 920
#: to 3900.  A square-free entry costs ~0.19 ns (~0.7 ns near 10^12)
#: against ~0.86 ms per ``is_squarefree`` call past 10^12, which
#: trial-divides to 10^6 (~17 us near 10^8); the ratio prices the tests past
#: 10^12, since a table costs at most ``TABLE_LIMIT`` entries (~0.1 s).
#: Measured on a 2-vCPU Xeon with numpy 2.4
_ENTRIES_PER_TEST = {"prime": 1000, "joint": 1000, "squarefree": 1_000_000}


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


def _exchangeable(
    polys: list[MultiPoly], ranges: list[range], a: tuple[int, ...], b: tuple[int, ...]
) -> bool:
    """Swapping the variables of blocks ``a`` and ``b``, the i-th of one for
    the i-th of the other, fixes the lattice box and every polynomial."""
    if len(a) != len(b) or any(ranges[i] != ranges[j] for i, j in zip(a, b)):
        return False
    swap = dict(zip(a, b)) | dict(zip(b, a))
    order = [swap.get(i, i) for i in range(len(ranges))]
    return all(
        {tuple(e[i] for i in order): c for e, c in f.terms.items()} == f.terms
        for f in polys
    )


def _exchangeable_group(
    polys: list[MultiPoly], ranges: list[range]
) -> list[tuple[int, ...]]:
    """The largest set of pairwise exchangeable variable blocks of
    ``polys[0]``, ties going to the larger block grid; [] when no two blocks
    are exchangeable.  Exchangeability is transitive (a swap of b and c is
    the swap of a and b conjugating that of a and c), so each block is
    compared with the first block of each set."""
    groups: list[list[tuple[int, ...]]] = []
    for variables, _ in polys[0].variable_blocks()[1]:
        for group in groups:
            if _exchangeable(polys, ranges, group[0], variables):
                group.append(variables)
                break
        else:
            groups.append([variables])
    best = max(
        groups,
        key=lambda g: (len(g), math.prod(len(ranges[i]) for i in g[0])),
        default=[],
    )
    return best if len(best) > 1 else []


def _orbit_chunks(ranges: list[range], group: list[tuple[int, ...]]):
    """Chunks ``(coords, weights)`` that list one lattice point per orbit of
    the permutations of the ``k`` exchangeable blocks ``group``, weighted by
    the orbit's size ``k! / prod m_i!`` (``m_i`` the multiplicities of the
    blocks' points).

    Each block's points are numbered 0..n-1 in C order, and an orbit is
    represented by non-decreasing numbers ``t_1 <= ... <= t_k``.  A row fixes
    ``t_1..t_{k-1}`` (rows run in colex order, so by their largest entry
    ``t_{k-1}``) and the column axis runs over ``t_k``.  Rows go in groups
    whose ``t_{k-1}`` spans fewer than about ``sqrt(limit)`` values [A, B);
    the columns [B, n) are cut into tiles of about ``sqrt(limit)`` columns,
    in which every point is a representative, of weight ``k`` times that of
    its row.  Square tiles keep a chunk's values, and so the table entries
    it reads, in a narrow window.  The band of columns [t_{k-1}, B) goes in
    narrower row chunks whose ``t_{k-1}`` spans fewer than ``limit // n``
    values a..b-1; such a chunk takes the columns [a, B), with weight 0
    below ``t_{k-1}`` (masked points, evaluated but not counted: fewer
    than r^2 / 2 for k = 2 and r rows).  The variables outside the group
    keep :func:`grid_chunks`' layout on trailing axes, and no chunk holds
    more than ``poly.RESIDUE_CHUNK`` points, masked ones included.
    """
    k = len(group)
    sizes = [len(ranges[i]) for i in group[0]]
    strides = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    n = math.prod(sizes)
    grouped = {i for block in group for i in block}
    others = [i for i in range(len(ranges)) if i not in grouped]
    other_ranges = [ranges[i] for i in others]
    other_points = math.prod(len(r) for r in other_ranges)
    tail = (
        other_points
        if other_points * n <= poly.RESIDUE_CHUNK
        else max(1, poly.RESIDUE_CHUNK // n)
    )
    limit = poly.RESIDUE_CHUNK // tail
    # the trailing axes of the other variables' chunks
    extra = (1,) * (next(poly.grid_chunks(other_ranges, tail))[0].ndim if others else 0)
    placed: dict[int, np.ndarray] = {}

    def place(block, index, shape):
        for v, stride, size in zip(block, strides, sizes):
            digits = index if len(block) == 1 else index // stride % size
            placed[v] = _shift(ranges[v], digits.reshape(shape + extra))

    # below[m - 1][t]: the non-decreasing m-tuples whose entries are all
    # below t, the partial sums of comb(t + m - 1, m - 1), the m-tuples
    # whose largest entry is t.  In colex order the tuples whose largest
    # entry is t follow those below[m - 1][t], so each row chunk unranks
    # its rows one entry at a time, the largest first, and memory stays at
    # chunk scale however many rows there are
    below = []
    counts = np.ones(n, dtype=np.int64)
    for _ in range(k - 1):
        below.append(np.concatenate([[0], np.cumsum(counts)]))
        counts = np.cumsum(counts)
    offsets = below[-1]
    n_rows = int(offsets[n])
    side = max(1, math.isqrt(limit))
    span = max(1, limit // n)

    def row_chunks(start, stop, t_span, end=None):
        """Row ranges tiling [start, stop): each spans fewer than ``t_span``
        values of the largest entry a..b-1, and its rows times its columns,
        a tile side or [a, end), fit in ``limit``."""
        r0 = start
        while r0 < stop:
            a = int(np.searchsorted(offsets, r0, side="right")) - 1
            width = min(side, n) if end is None else end - a
            r1 = min(stop, r0 + max(1, limit // width), int(offsets[min(n, a + t_span)]))
            yield r0, r1, a
            r0 = r1

    for R0, R1, _ in row_chunks(0, n_rows, side):
        rank = np.arange(R0, R1)
        prefix = np.empty((R1 - R0, k - 1), dtype=np.int64)
        for m in range(k - 1, 0, -1):
            prefix[:, m - 1] = np.searchsorted(below[m - 1], rank, side="right") - 1
            rank = rank - below[m - 1][prefix[:, m - 1]]
        last = prefix[:, -1]
        # the row's weight (k-1)! / prod m_i!, built one entry at a time;
        # run counts the entries equal to the newest one
        weight = np.ones(R1 - R0, dtype=np.int64)
        run = np.ones(R1 - R0, dtype=np.int64)
        for j in range(1, k - 1):
            run = np.where(prefix[:, j] == prefix[:, j - 1], run + 1, 1)
            weight = weight * (j + 1) // run
        above = (k * weight)[:, None]  # t_k > t_{k-1}
        tie = (k * weight // (run + 1))[:, None]  # t_k == t_{k-1}
        # (rows, columns [lo, hi), masked): the tiles right of the band, in
        # which every point counts, then the band along the diagonal, in
        # narrower row chunks whose columns below t_{k-1} are masked
        B = int(last[-1]) + 1
        parts = [(slice(None), B, n, False)] + [
            (slice(r0 - R0, r1 - R0), a, B, True)
            for r0, r1, a in row_chunks(R0, R1, span, B)
        ]
        for part, lo, hi, masked in parts:
            for block, index in zip(group, prefix[part].T):
                place(block, index, (-1, 1))
            width = limit // len(last[part])
            for c0 in range(lo, hi, width):
                columns = np.arange(c0, min(hi, c0 + width))
                place(group[-1], columns, (1, -1))
                weights = above[part]
                if masked:
                    t = last[part, None]
                    weights = np.where(columns > t, weights, np.where(columns == t, tie[part], 0))
                weights = weights.reshape(weights.shape + extra)
                for tail_coords in poly.grid_chunks(other_ranges, tail):
                    for v, c in zip(others, tail_coords):
                        placed[v] = c.reshape((1, 1) + c.shape)
                    yield [placed[v] for v in range(len(ranges))], weights


def _weight_bound(N: int, k: int) -> int:
    """A bound on the orbit weights ``k! / prod m_i!`` of ``k`` exchangeable
    blocks of ``N`` points and on the int64 products ``_orbit_chunks``
    builds them from, a prefix weight of j < k entries times j + 1: k times
    the largest multinomial coefficient of k - 1 items over N parts."""
    q, r = divmod(k - 1, N)
    largest = math.factorial(k - 1) // (
        math.factorial(q) ** (N - r) * math.factorial(q + 1) ** r
    )
    return k * largest


def _weighted_count(mask: np.ndarray, weights: np.ndarray | None) -> int:
    """The points of ``mask``, each counted ``weights`` times (once when
    None); the sum runs over the axes along which the weight varies.  The
    high and low 32 bits of the weights are summed apart, each exact in
    int64 for fewer than 2^31 points, so the total is an exact Python int
    past 2^63."""
    if weights is None:
        return int(np.count_nonzero(mask))
    if (weights == weights.flat[0]).all():
        return int(weights.flat[0]) * int(np.count_nonzero(mask))
    axes = tuple(i for i, w in enumerate(weights.shape) if w == 1)
    if axes:
        mask = np.count_nonzero(mask, axis=axes, keepdims=True)
    half = weights >> 32
    half *= mask
    high = int(half.sum())
    np.bitwise_and(weights, 0xFFFFFFFF, out=half)
    half *= mask
    return (high << 32) + int(half.sum())


def _count_chunk(
    polys: list[MultiPoly],
    coords: list[np.ndarray],
    mode: str,
    tables: list[tuple[int, int, np.ndarray]] | None,
    weights: np.ndarray | None = None,
) -> tuple[int, int]:
    """(count, undecided) over one chunk, each point counted ``weights``
    times (once when None); ``tables`` holds (lo, hi,
    bits) per polynomial, ``bits`` the packed ``_sieve_bools(lo, hi)``,
    whose window lies inside int64.  Without tables each distinct value is tested; a
    point is undecided when no value rules it out and some verdict is not
    certain: a factorisation out of budget, or a prime verdict at or above
    ``MR_DETERMINISTIC_LIMIT``, which is only probable."""
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    ok = None
    # table verdicts are certain, so only the per-value path keeps a mask
    if tables is None:
        undecided = np.zeros(shape, dtype=bool)
    for idx, f in enumerate(polys):
        vals = f.evaluate_array(coords)
        if tables is not None:
            # vals is fresh, and int64 once inside the window, so the index
            # is built in place
            lo, hi, bits = tables[idx]
            low, high = vals.min(), vals.max()
            if mode == "squarefree" and low < 0:
                np.abs(vals, out=vals)
                low, high = vals.min(), vals.max()
            if low < lo or high > hi:
                raise ArithmeticError("a lattice value lies outside its certified window")
            vals = vals.astype(np.int64, copy=False)
            vals -= lo
            shift = vals.astype(np.uint8)
            shift &= 7
            vals >>= 3
            entry = np.take(bits, vals)
            entry >>= shift
            entry &= 1
            ok = entry.view(bool) if ok is None else ok & entry.view(bool)
            continue
        if mode == "squarefree":
            vals = abs(vals)
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
        verdict = verdicts[inverse].reshape(shape)
        ok = verdict if ok is None else ok & verdict
        undecided |= unsure[inverse].reshape(shape)
    if tables is not None:
        return _weighted_count(ok, weights), 0
    return (
        _weighted_count(ok & ~undecided, weights),
        _weighted_count(ok & undecided, weights),
    )


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
    threads: int = 1,
) -> CountResult:
    """Exact count of lattice points of P*box where f takes prime /
    square-free / jointly prime values.  ``LATTICE_BUDGET`` bounds the
    points evaluated: with ``k`` exchangeable blocks of ``N`` points folded,
    ``comb(N + k - 1, k)`` orbits times the other variables' points.  A fold
    whose orbit weights may pass int64 (``_weight_bound``) is refused; the
    count itself is an exact Python int."""
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
    group = _exchangeable_group(polys, ranges)
    k, N = len(group), math.prod(len(ranges[i]) for i in group[0]) if group else 1
    evaluated = math.comb(N + k - 1, k) * (lattice_points // N**k)
    if evaluated > LATTICE_BUDGET:
        raise BudgetExceededError(
            f"{evaluated} lattice points exceed budget {LATTICE_BUDGET}"
        )
    if group and _weight_bound(N, k) > np.iinfo(np.int64).max:
        raise BudgetExceededError(
            f"orbit weights of {k} exchangeable blocks of {N} points may pass int64"
        )

    squarefree = mode == "squarefree"
    windows = [_value_window(g, ranges, squarefree) for g in polys]
    # sieve when a table costs less than testing every lattice value; the
    # limit keeps sqrt(max |f|) below TABLE_LIMIT, so a table's values fit
    # int64
    limit = min(TABLE_LIMIT, _ENTRIES_PER_TEST[mode] * lattice_points)
    tables: list[tuple[int, int, np.ndarray]] | None = None
    if all(
        hi - lo + 1 + math.isqrt(max(abs(lo), abs(hi))) + 1 <= limit
        for lo, hi in windows
    ):
        tables = [(lo, hi, _sieve_bools(lo, hi, squarefree)) for lo, hi in windows]

    if group:
        chunks = _orbit_chunks(ranges, group)
    else:
        chunks = ((coords, None) for coords in grid_chunks(ranges))

    def work(chunk) -> tuple[int, int]:
        coords, weights = chunk
        return _count_chunk(polys, coords, mode, tables, weights)

    count = unknown = 0
    for chunk_count, chunk_unknown in _map_lazily(work, chunks, threads):
        count += chunk_count
        unknown += chunk_unknown
    return CountResult(count, lattice_points, unknown)
